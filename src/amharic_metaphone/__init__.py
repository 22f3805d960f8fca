"""Phonetic encoder and fuzzy lookup tools for Amharic (Ethiopic script).

encode() turns an Amharic word into a small prioritized set of phonetic
keys; two spellings of the same word land on a shared key. On top of
that sit an inverted index for dictionary lookup (build_index / suggest)
and a corpus evaluator (load_corpus / evaluate) for measuring match
rates against labeled misspelling pairs.
"""

from .encoder import (
    EncoderConfig,
    Encoding,
    EncodingSet,
    GlyphPair,
    Tier,
    encode,
    lcd_mistrike,
    load_glyph_pairs,
    load_mistrike_profile,
    remove_vowels,
    simplify,
)
from .errors import (
    AmharicMetaphoneError,
    ConfigMismatchError,
    EmptyCorpusError,
    EmptyWordError,
    InvalidInputError,
    LoadError,
)
from .ethiopic import load_script_tables
from .evaluate import (
    ERROR_TYPE_LABELS,
    CorpusEntry,
    EvalReport,
    TypeStats,
    evaluate,
    load_corpus,
    matches,
)
from .lexicon import (
    EncodingIndex,
    Lexicon,
    Suggestion,
    build_index,
    distance,
    dump_index,
    load_index,
    load_lexicon,
    suggest,
)

__version__ = "0.1.0"

__all__ = [
    "AmharicMetaphoneError",
    "ConfigMismatchError",
    "CorpusEntry",
    "ERROR_TYPE_LABELS",
    "EmptyCorpusError",
    "EmptyWordError",
    "EncoderConfig",
    "Encoding",
    "EncodingIndex",
    "EncodingSet",
    "EvalReport",
    "GlyphPair",
    "InvalidInputError",
    "Lexicon",
    "LoadError",
    "Suggestion",
    "Tier",
    "TypeStats",
    "__version__",
    "build_index",
    "distance",
    "dump_index",
    "encode",
    "evaluate",
    "lcd_mistrike",
    "load_corpus",
    "load_glyph_pairs",
    "load_index",
    "load_lexicon",
    "load_mistrike_profile",
    "load_script_tables",
    "matches",
    "remove_vowels",
    "simplify",
    "suggest",
]
