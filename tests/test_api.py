"""The public surface: the names the package exports, and nothing else.

A change to this list is a change to the API; it should be deliberate.
"""

import importlib
import subprocess
import sys

import pytest

import amharic_metaphone
from amharic_metaphone import (
    CorpusEntry,
    EncoderConfig,
    Encoding,
    EncodingIndex,
    EncodingSet,
    EvalReport,
    GlyphPair,
    Lexicon,
    Suggestion,
    Tier,
    TypeStats,
)

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


# Each value record is a NamedTuple: it unpacks, equals and hashes as
# the plain tuple of its fields.
@pytest.mark.parametrize("cls, values", [
    (Encoding, ("ልም", Tier.GLYPH)),
    (GlyphPair, ("ፕ", "ኝ", False)),
    (CorpusEntry, ("ጠዋት", "ጧት", 6, True)),
    (TypeStats, (3, 2)),
    (Suggestion, ("ለም", Tier.CANONICAL, 1)),
])
def test_value_records_are_named_tuples(cls, values):
    record = cls(*values)
    assert record == cls(**dict(zip(cls._fields, values))) == values
    assert hash(record) == hash(values)
    assert tuple(record) == values
    assert record._replace(**{cls._fields[0]: values[0]}) == record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(cls._fields, values)) + ")"
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], values[0])


def test_corpus_entry_and_type_stats_keep_their_defaults_and_rate():
    assert CorpusEntry("ጠዋት", "ጧት", 6) == ("ጠዋት", "ጧት", 6, False)
    assert TypeStats(4, 3).rate == 0.75


def _frozen_records():
    bundled = EncoderConfig()
    encodings = (Encoding("ልም", Tier.CANONICAL),)
    return [
        (EncoderConfig(), EncoderConfig(), EncoderConfig(wy_as_vowels=True),
         (False, bundled.profile, bundled.glyph_pairs, 16, bundled.homophones,
          bundled.vowel_carriers)),
        (EncodingSet(encodings), EncodingSet(encodings=encodings),
         EncodingSet(()), (encodings,)),
        (Lexicon(frozenset({"ላም"})), Lexicon(words=frozenset({"ላም"})),
         Lexicon(frozenset()), (frozenset({"ላም"}),)),
    ]


@pytest.mark.parametrize("record, equal, other, values", _frozen_records())
def test_plain_records_compare_and_hash_by_value_and_refuse_assignment(
        record, equal, other, values):
    cls = type(record)
    assert record == equal and hash(record) == hash(equal)
    assert record != other
    # Not tuples: a record equals no tuple, not even that of its values.
    assert record != values and not isinstance(record, tuple)
    assert hash(record) == hash(values)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(record._fields, values)) + ")"
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
    assert record == equal


def test_index_and_report_compare_by_value_and_are_unhashable():
    fingerprint = EncoderConfig().fingerprint
    index = EncodingIndex({"ልም": {"ላም": Tier.CANONICAL}}, fingerprint=fingerprint)
    assert index == EncodingIndex({"ልም": {"ላም": 0}}, fingerprint=fingerprint)
    assert index != EncodingIndex({"ልም": {"ላም": 1}}, fingerprint=fingerprint)
    assert repr(index) == (f"EncodingIndex(mapping={{'ልም': {{'ላም': <Tier.CANONICAL: 0>}}}}, "
                           f"fingerprint={fingerprint!r})")
    stats = TypeStats(1, 1)
    report = EvalReport({6: stats}, TypeStats(0, 0), stats)
    assert report == EvalReport(per_type={6: stats}, expected_fail=TypeStats(0, 0),
                                overall=stats, wy_as_vowels=False,
                                profile_enabled=True, missing_from_lexicon=())
    assert report != EvalReport({6: stats}, TypeStats(0, 0), stats, wy_as_vowels=True)
    assert repr(report) == (
        "EvalReport(per_type={6: TypeStats(total=1, matched=1)}, "
        "expected_fail=TypeStats(total=0, matched=0), "
        "overall=TypeStats(total=1, matched=1), wy_as_vowels=False, "
        "profile_enabled=True, missing_from_lexicon=())")
    for record in (index, report):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    report.wy_as_vowels = True
    assert report.wy_as_vowels is True


_IS_FUNCTION = "import types; assert isinstance(m.evaluate, types.FunctionType)"


# Each in a fresh interpreter, as a module loaded once stays loaded.
@pytest.mark.parametrize("code, absent, present", [
    ("import amharic_metaphone as m",
     ("dataclasses", "inspect", "json", "argparse", "amharic_metaphone.lexicon"), ()),
    ("import amharic_metaphone.cli; import amharic_metaphone as m",
     ("dataclasses", "inspect", "json"), ()),
    ("import amharic_metaphone as m; m.suggest",
     ("dataclasses", "inspect", "json"), ("amharic_metaphone.lexicon",)),
    ("from amharic_metaphone import *; import amharic_metaphone as m; "
     "assert all(name in globals() for name in m.__all__), m.__all__; "
     "assert len(m.__all__) == 35",
     ("dataclasses", "inspect", "json"), ("amharic_metaphone.lexicon",)),
])
def test_an_import_loads_only_what_its_caller_runs(code, absent, present):
    check = (f"{code}; {_IS_FUNCTION}; import sys; "
             f"print(sorted(n for n in {absent + present!r} if n in sys.modules))")
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{sorted(present)}\n"


def test_lexicon_names_are_read_from_the_lexicon_module():
    from amharic_metaphone import lexicon

    for name in lexicon.__all__:
        assert getattr(amharic_metaphone, name) is getattr(lexicon, name)
        assert name in dir(amharic_metaphone)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        amharic_metaphone.nope
