"""The public surface: the names the package exports, and nothing else.

A change to this list is a change to the API; it should be deliberate.
"""

import importlib

import amharic_metaphone

PUBLIC_NAMES = [
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


def test_public_surface():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 35
    assert amharic_metaphone.__all__ == PUBLIC_NAMES
    for module in ("", ".encoder", ".ethiopic", ".evaluate", ".lexicon"):
        mod = importlib.import_module("amharic_metaphone" + module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
