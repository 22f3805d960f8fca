"""The public surface: the names the package exports, and nothing else.

A change to this list is a change to the API; it should be deliberate.
"""

import importlib

import pytest

import amharic_metaphone
from amharic_metaphone import Suggestion, Tier

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


def test_suggestion_is_an_immutable_named_tuple():
    hit = Suggestion("ለም", Tier.CANONICAL, 1)
    assert Suggestion._fields == ("word", "match_tier", "distance")
    assert Suggestion(word="ለም", match_tier=Tier.CANONICAL, distance=1) == hit
    assert repr(hit) == "Suggestion(word='ለም', match_tier=<Tier.CANONICAL: 0>, distance=1)"
    with pytest.raises(AttributeError):
        hit.word = "ላም"
    word, tier, distance = hit
    assert (word, tier, distance) == hit == ("ለም", 0, 1)
    assert hash(hit) == hash(("ለም", 0, 1))
