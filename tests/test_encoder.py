"""Tests for the five-step encoder.

Frozen values were derived by hand from the pipeline rules (merge
homophones, strip vowels to sadis forms, nasal alternates, glyph
alternates, shift-slip downgrade) and double-checked character by
character before being pinned here.
"""

import gc
import shutil
import time
import weakref
from dataclasses import fields
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from amharic_metaphone import encoder
from amharic_metaphone.encoder import (
    EncoderConfig,
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
from amharic_metaphone.errors import (
    ConfigMismatchError,
    EmptyWordError,
    InvalidInputError,
    LoadError,
)
from amharic_metaphone.ethiopic import (
    SADIS,
    SUPPORTED,
    data_dir,
    load_script_tables,
)
from amharic_metaphone.evaluate import load_corpus, matches
from amharic_metaphone.lexicon import (
    Lexicon,
    build_index,
    dump_index,
    load_index,
    load_lexicon,
    suggest,
)

NO_PROFILE = EncoderConfig(profile=None)
WY = EncoderConfig(wy_as_vowels=True)


def keys_with_tiers(word, config=None):
    return [(e.key, int(e.tier)) for e in encode(word, config)]


def alternates(key, tier, glyph_pairs=None):
    """The keys of one alternate tier that encode() stages for a key."""
    if glyph_pairs is None:
        glyph_pairs = EncoderConfig().glyph_pairs
    config = EncoderConfig(profile=None, glyph_pairs=glyph_pairs, max_encodings=64)
    encodings = encode(key, config)
    assert encodings.canonical == key
    return {e.key for e in encodings if e.tier == tier}


# --- step 1: homophone merge ------------------------------------------------

def test_simplify_worked_example():
    assert simplify("ዓለምፀሐይ") == "አለምጸሀይ"


@pytest.mark.parametrize(
    "word, expected",
    [
        ("ሐመር", "ሀመር"),
        ("ኀይል", "ሀይል"),
        ("ሤማ", "ሴማ"),  # same-order member of the head family
        ("ፀሎት", "ጸሎት"),
        ("ቨኒስ", "በኒስ"),
        ("ዑፍ", "አፍ"),  # carriers collapse to bare አ whatever the order
        ("ዓይን", "አይን"),
        ("ኧረ", "አረ"),
        ("ለም", "ለም"),  # non-members pass through
    ],
)
def test_simplify_points(word, expected):
    assert simplify(word) == expected


def test_simplify_keeps_chars_whose_head_lacks_the_column():
    # ኋ sits on a ʷ column that ሀ (the head of its class) does not have;
    # the char survives step 1 and step 2 resolves the family.
    assert simplify("ኋላ") == "ኋላ"
    assert remove_vowels(simplify("ኋላ")) == "ህውል"


def test_simplify_rejects_unsupported_chars():
    with pytest.raises(InvalidInputError) as exc:
        simplify("ላm")
    assert exc.value.position == 1
    with pytest.raises(InvalidInputError) as exc:
        simplify("!ላ")
    assert exc.value.position == 0


# --- step 2: vowel removal --------------------------------------------------

def test_remove_vowels_worked_example():
    assert remove_vowels("አለምጸሀይ") == "አልምጽህይ"


@pytest.mark.parametrize(
    "word, expected",
    [
        ("ለመደ", "ልምድ"),
        ("ላም", "ልም"),
        ("አበበ", "አብብ"),  # initial carrier kept as አ
        ("በአል", "ብል"),  # non-initial carrier dropped
        ("አአ", "አ"),
        ("አ", "አ"),
        ("ጧት", "ጥውት"),  # ʷa expands to sadis + ው
        ("ቋንቋ", "ቅውንቅው"),
        ("ቈላ", "ቅል"),  # other ʷ vowels reduce like plain vowels
        ("ል", "ል"),
    ],
)
def test_remove_vowels_points(word, expected):
    assert remove_vowels(word) == expected


def test_remove_vowels_wy_flag_drops_non_initial_w_and_y():
    assert remove_vowels("ሆኖዋል", WY) == "ህንል"
    assert remove_vowels("ሆኗል", WY) == "ህንል"
    assert remove_vowels("የውሃ", WY) == "ይህ"  # initial ይ survives
    assert remove_vowels("ወይን", WY) == "ውን"


def test_encode_requires_a_word():
    with pytest.raises(EmptyWordError):
        encode("")


def test_steps_keep_the_empty_word():
    assert simplify("") == ""
    assert remove_vowels("") == ""
    assert remove_vowels("", WY) == ""


# --- step 3: nasal alternates -----------------------------------------------

def test_phonological_alternates_swap_sites():
    assert alternates("ውምብር", Tier.PHONOLOGICAL) == {"ውንብር"}
    assert alternates("ውንብር", Tier.PHONOLOGICAL) == {"ውምብር"}
    assert alternates("ግምፍ", Tier.PHONOLOGICAL) == {"ግንፍ"}
    # two sites produce every non-empty site combination
    assert alternates("ምብንፍ", Tier.PHONOLOGICAL) == {"ንብንፍ", "ምብምፍ", "ንብምፍ"}


def test_phonological_alternates_need_a_following_b_or_f():
    assert alternates("ምስ", Tier.PHONOLOGICAL) == set()
    assert alternates("ንት", Tier.PHONOLOGICAL) == set()
    assert alternates("ብም", Tier.PHONOLOGICAL) == set()  # nasal last, no site
    assert alternates("ልም", Tier.PHONOLOGICAL) == set()


# --- step 4: glyph alternates -----------------------------------------------

def test_glyph_alternates_default_pair():
    assert alternates("ፕርዝድንት", Tier.GLYPH) == {"ኝርዝድንት"}
    assert alternates("ስፕ", Tier.GLYPH) == {"ስኝ"}
    assert alternates("ልም", Tier.GLYPH) == set()


def test_glyph_alternates_cover_site_combinations():
    assert alternates("ፕኝ", Tier.GLYPH) == {"ኝኝ", "ፕፕ", "ኝፕ"}


def test_glyph_pair_initial_flag_restricts_position():
    initial_only = (GlyphPair(a="ፕ", b="ኝ", anywhere=False),)
    assert alternates("ፕርፕ", Tier.GLYPH, initial_only) == {"ኝርፕ"}
    assert alternates("ርፕ", Tier.GLYPH, initial_only) == set()


# --- step 5: shift-slip downgrade -------------------------------------------

def test_lcd_mistrike_replaces_all_shifted_chars_at_once():
    config = EncoderConfig()
    assert lcd_mistrike("አልምጽህይ", config) == "አልምስህይ"
    assert lcd_mistrike("ጥውት", config) == "ትውት"
    assert lcd_mistrike("ጭጭ", config) == "ችች"
    assert lcd_mistrike("ልም", config) == "ልም"


def test_lcd_mistrike_is_one_directional():
    # plain chars never upgrade to their shifted partners
    assert lcd_mistrike("ስት", EncoderConfig()) == "ስት"


# --- assembled encodings ----------------------------------------------------

def test_encode_worked_example():
    assert keys_with_tiers("ዓለምፀሐይ") == [("አልምጽህይ", 0), ("አልምስህይ", 3)]


def test_encode_fourth_order_labiovelar():
    assert keys_with_tiers("ጧት") == [("ጥውት", 0), ("ትውት", 3)]


def test_encode_nasal_assimilation_pair():
    assert keys_with_tiers("ወምበር") == [("ውምብር", 0), ("ውንብር", 1)]
    assert keys_with_tiers("ወንበር") == [("ውንብር", 0), ("ውምብር", 1)]


def test_encode_glyph_confusion_pair_meets_in_the_middle():
    assert keys_with_tiers("ፕሬዚዳንት") == [
        ("ፕርዝድንት", 0),
        ("ኝርዝድንት", 2),
        ("ንርዝድንት", 3),
    ]
    assert keys_with_tiers("ኘሬዚዳንት") == [
        ("ኝርዝድንት", 0),
        ("ፕርዝድንት", 2),
        ("ንርዝድንት", 3),
    ]
    shared = encode("ፕሬዚዳንት").key_set() & encode("ኘሬዚዳንት").key_set()
    assert shared == {"ፕርዝድንት", "ኝርዝድንት", "ንርዝድንት"}


def test_encode_spelled_out_labiovelars_converge():
    assert encode("ኋላ").canonical == encode("ሁዋላ").canonical == "ህውል"
    assert encode("ገልጿል").canonical == encode("ገልፀዋል").canonical == "ግልጽውል"
    assert encode("በእርስዎም").canonical == encode("በእርሷም").canonical == "ብርስውም"


def test_encode_wy_flag_unifies_vowel_like_w():
    default_keys = [encode(w).canonical for w in ("ሆኗል", "ሆኖዋል", "ሆኖአል")]
    assert default_keys == ["ህንውል", "ህንውል", "ህንል"]
    wy_keys = [encode(w, WY).canonical for w in ("ሆኗል", "ሆኖዋል", "ሆኖአል")]
    assert wy_keys == ["ህንል", "ህንል", "ህንል"]


def test_encode_single_key_word():
    assert keys_with_tiers("ላም") == [("ልም", 0)]


def test_encode_without_profile_drops_only_tier_three():
    assert keys_with_tiers("ዓለምፀሐይ", NO_PROFILE) == [("አልምጽህይ", 0)]
    assert keys_with_tiers("ወምበር", NO_PROFILE) == [("ውምብር", 0), ("ውንብር", 1)]


def test_encode_deduplicates_across_tiers():
    # the shift-slip of the canonical and of the glyph alternate collide
    assert len(encode("ፕሬዚዳንት")) == 3


def test_encode_cap_keeps_canonical_and_leading_alternates():
    word = "ምብምብምብ"  # three swap sites, seven nasal alternates
    full = encode(word, EncoderConfig(max_encodings=16))
    assert len(full) == 8
    capped = encode(word, EncoderConfig(max_encodings=3))
    assert capped.keys() == full.keys()[:3]
    assert capped.canonical == word
    only_one = encode(word, EncoderConfig(max_encodings=1))
    assert only_one.keys() == (word,)


def test_encode_stops_enumerating_at_the_cap():
    # 64 nasal sites: staging every combination would take 2**64 keys.
    word = "ምብ" * 64
    start = time.perf_counter()
    keys = encode(word).keys()
    assert time.perf_counter() - start < 1.0
    singles = tuple(word[:i] + "ን" + word[i + 1:] for i in range(0, 30, 2))
    assert keys == (word,) + singles


def test_config_validates_max_encodings():
    with pytest.raises(ValueError, match="max_encodings must be at least 1"):
        EncoderConfig(max_encodings=0)


@pytest.mark.parametrize("cap", [2.5, float("inf"), True, "16", None])
def test_config_requires_an_int_cap(cap):
    # A float cap is never reached, so the walk would grow unbounded;
    # True would key like 1 under another fingerprint.
    with pytest.raises(TypeError, match="max_encodings must be an int"):
        EncoderConfig(max_encodings=cap)


@pytest.mark.parametrize("fields, error, message", [
    ({"homophones": [("ሐ", "ሀ")]}, TypeError,
     "homophones must be a tuple of (member, head) tuples"),
    ({"vowel_carriers": {"አ"}}, TypeError,
     "vowel_carriers must be a frozenset of family strings"),
    ({"homophones": (("ሐ",),)}, ValueError,
     "expected: <member family> <head family>"),
    ({"homophones": (("ሐ", "ሀ", "ሀ"),)}, ValueError,
     "expected: <member family> <head family>"),
    ({"profile": [("ጠ", "ተ")]}, TypeError,
     "profile must be a tuple of (shifted, plain) tuples, or None"),
    ({"profile": (["ጠ", "ተ"],)}, TypeError,
     "profile must be a tuple of (shifted, plain) tuples, or None"),
    ({"glyph_pairs": []}, TypeError, "glyph_pairs must be a tuple of GlyphPairs"),
])
def test_config_refuses_rule_fields_of_another_shape(fields, error, message):
    # A config hashes and compiles its rules, so a list or set in a rule
    # field is refused by name, as is a homophone pair of other than two
    # families, instead of failing later or deep in the compile.
    with pytest.raises(error) as exc:
        EncoderConfig(**fields)
    assert str(exc.value) == message


def test_config_keeps_its_tables_when_the_data_dir_changes(monkeypatch, tmp_path):
    monkeypatch.delenv("AMHARIC_METAPHONE_DATA", raising=False)
    config = EncoderConfig()
    tables, bundled = (config.homophones, config.vowel_carriers), config.fingerprint
    path = tmp_path / "script_tables.txt"
    path.write_text("[vowel-carriers]\nአ\n", encoding="utf-8")
    # An override directory holds every rule file the defaults read.
    for name in ("mistrike_profile.txt", "glyph_pairs.txt"):
        shutil.copyfile(data_dir() / name, tmp_path / name)
    monkeypatch.setenv("AMHARIC_METAPHONE_DATA", str(tmp_path))
    assert (config.homophones, config.vowel_carriers) == tables
    assert config.fingerprint == bundled
    assert encode("ዓለም", config).canonical == "አልም"
    parts = {"profile": config.profile, "glyph_pairs": config.glyph_pairs}
    override = EncoderConfig(**parts)
    assert override == EncoderConfig()
    assert override.fingerprint != bundled
    assert encode("ዓለም", override).canonical == "ዕልም"
    # Configs compare by value: tables loaded again from the same file
    # give an equal config, with the same digest.
    homophones, carriers = load_script_tables(path)
    reloaded = EncoderConfig(**parts, homophones=homophones, vowel_carriers=carriers)
    assert reloaded.fingerprint == override.fingerprint
    assert reloaded == override
    assert hash(reloaded) == hash(override)
    monkeypatch.delenv("AMHARIC_METAPHONE_DATA")
    assert EncoderConfig() == config
    assert EncoderConfig().fingerprint == bundled


def test_configs_compare_by_value_and_share_their_step_maps(monkeypatch):
    monkeypatch.delenv("AMHARIC_METAPHONE_DATA", raising=False)
    homophones, carriers = load_script_tables(data_dir() / "script_tables.txt")
    loaded = EncoderConfig(homophones=homophones, vowel_carriers=carriers)
    default = EncoderConfig()
    assert loaded == default
    assert hash(loaded) == hash(default)
    assert loaded.fingerprint == default.fingerprint
    # Equal script tables are compiled once, whatever the other fields.
    assert loaded._initial_keys is default._initial_keys
    assert WY._later_keys is default._later_keys


def test_relative_data_dir_is_read_against_the_working_directory(monkeypatch, tmp_path):
    # Each of a/rules and b/rules holds all three rule files; only a's
    # script tables differ from the bundled ones (no homophone classes).
    monkeypatch.delenv("AMHARIC_METAPHONE_DATA", raising=False)
    for name in ("a", "b"):
        (tmp_path / name / "rules").mkdir(parents=True)
        for rules in ("script_tables.txt", "mistrike_profile.txt", "glyph_pairs.txt"):
            shutil.copyfile(data_dir() / rules, tmp_path / name / "rules" / rules)
    (tmp_path / "a" / "rules" / "script_tables.txt").write_text(
        "[vowel-carriers]\nአ\n", encoding="utf-8")
    monkeypatch.setenv("AMHARIC_METAPHONE_DATA", "rules")
    monkeypatch.chdir(tmp_path / "a")
    assert encode("ዓለም").canonical == "ዕልም"
    monkeypatch.chdir(tmp_path / "b")
    assert encode("ዓለም").canonical == "አልም"


def test_config_fingerprint_tracks_settings():
    base = EncoderConfig().fingerprint
    assert base == EncoderConfig().fingerprint
    assert base != WY.fingerprint
    assert base != NO_PROFILE.fingerprint
    assert base != EncoderConfig(glyph_pairs=()).fingerprint
    initial_only = (GlyphPair(a="ፕ", b="ኝ", anywhere=False),)
    assert base != EncoderConfig(glyph_pairs=initial_only).fingerprint
    assert base != EncoderConfig(max_encodings=8).fingerprint
    assert len(base) == 16


def test_bundled_fingerprints_are_pinned():
    # Index dumps store these digests: a change here orphans every dump.
    assert EncoderConfig().fingerprint == "451b81d7438dfea3"
    assert EncoderConfig(wy_as_vowels=True).fingerprint == "45f3c7dc670fbd3e"


def test_each_declared_rule_that_moves_a_key_moves_the_fingerprint():
    assert [f.name for f in fields(EncoderConfig)] == [
        "wy_as_vowels", "profile", "glyph_pairs", "max_encodings",
        "homophones", "vowel_carriers"]
    # A change to either script-table field that moves a key moves the
    # fingerprint, so two configs that key words differently cannot
    # share one.
    base = EncoderConfig().fingerprint
    for name, value in (("homophones", ()), ("vowel_carriers", frozenset("ዐ"))):
        variant = EncoderConfig(**{name: value})
        assert variant.fingerprint != base, name
    one_pair = EncoderConfig(profile=(("ጠ", "ተ"),))
    assert lcd_mistrike("ጥጽ", one_pair) == "ትጽ"
    assert one_pair.fingerprint != base
    with pytest.raises(ValueError, match="'ጥ' is not a first-order family form"):
        EncoderConfig(profile=(("ጥ", "ት"),))


@lru_cache(maxsize=None)
def _bundled_words():
    """The bundled lexicon and corpus words, read on first use."""
    data = data_dir()
    corpus = load_corpus(data / "corpus.tsv")
    return tuple(sorted(load_lexicon(data / "lexicon.txt").words
                        | {w for e in corpus for w in (e.canonical, e.variant)}))


def _keys_of_bundled_words(config):
    return [keys_with_tiers(word, config) for word in _bundled_words()]


def test_bundled_rules_written_otherwise_share_the_bundled_fingerprint():
    bundled = EncoderConfig()
    assert ("ዐ", "አ") in bundled.homophones
    assert bundled.vowel_carriers == frozenset("አዐ")
    for variant, reference in (
        # ዐ is in አ's homophone class, so carrying ዐ as well moves no key.
        (EncoderConfig(vowel_carriers=frozenset("አ")), bundled),
        (EncoderConfig(profile=bundled.profile[::-1], glyph_pairs=tuple(
            GlyphPair(a=p.b, b=p.a, anywhere=p.anywhere) for p in bundled.glyph_pairs)),
         bundled),
        (EncoderConfig(profile=()), NO_PROFILE),
    ):
        assert variant.fingerprint == reference.fingerprint
        assert _keys_of_bundled_words(variant) == _keys_of_bundled_words(reference)


# --- rule file loading ------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_mistrike_profile_happy_path(tmp_path):
    path = _write(tmp_path, "p.txt", "[mistrike-pairs]\nጠ ተ\n")
    profile = load_mistrike_profile(path)
    assert profile == (("ጠ", "ተ"),)
    assert lcd_mistrike("ጥ", EncoderConfig(profile=profile)) == "ት"


def test_load_mistrike_profile_rejects_bad_records(tmp_path):
    with pytest.raises(LoadError):
        load_mistrike_profile(_write(tmp_path, "a.txt", "[glyph-pairs]\nጠ ተ\n"))
    with pytest.raises(LoadError):
        load_mistrike_profile(_write(tmp_path, "b.txt", "[mistrike-pairs]\nጠ\n"))
    with pytest.raises(LoadError):
        load_mistrike_profile(_write(tmp_path, "c.txt", "[mistrike-pairs]\nጥ ት\n"))
    with pytest.raises(LoadError):
        load_mistrike_profile(
            _write(tmp_path, "d.txt", "[mistrike-pairs]\nጠ ተ\nጠ ቸ\n")
        )
    with pytest.raises(LoadError):
        load_mistrike_profile(tmp_path / "absent.txt")


def test_load_glyph_pairs_happy_path(tmp_path):
    path = _write(tmp_path, "g.txt", "[glyph-pairs]\nፕ ኝ initial\n")
    pairs = load_glyph_pairs(path)
    assert pairs == (GlyphPair(a="ፕ", b="ኝ", anywhere=False),)


@pytest.mark.parametrize("load, text, build", [
    (load_mistrike_profile, "[mistrike-pairs]\nጠ ተ\nጠ ደ\n",
     lambda: EncoderConfig(profile=(("ጠ", "ተ"), ("ጠ", "ደ")))),
    (load_mistrike_profile, "[mistrike-pairs]\nጠ\n",
     lambda: EncoderConfig(profile=(("ጠ",),))),
    (load_mistrike_profile, "[mistrike-pairs]\nጥ ት\n",
     lambda: EncoderConfig(profile=(("ጥ", "ት"),))),
    # A pair that shifts a family onto itself downgrades nothing.
    (load_mistrike_profile, "[mistrike-pairs]\nጠ ጠ\n",
     lambda: EncoderConfig(profile=(("ጠ", "ጠ"),))),
    (load_glyph_pairs, "[glyph-pairs]\nፕ ኝ any\nኝ ም any\n",
     lambda: EncoderConfig(glyph_pairs=(GlyphPair(a="ፕ", b="ኝ", anywhere=True),
                                        GlyphPair(a="ኝ", b="ም", anywhere=True)))),
    (load_glyph_pairs, "[glyph-pairs]\nፕ x initial\n",
     lambda: EncoderConfig(glyph_pairs=(GlyphPair(a="ፕ", b="x", anywhere=False),))),
    (load_glyph_pairs, "[glyph-pairs]\nፕ ፕ any\n",
     lambda: EncoderConfig(glyph_pairs=(GlyphPair(a="ፕ", b="ፕ", anywhere=True),))),
    (load_script_tables, "[homophone-classes]\nሀ ሐ\nሰ ሀ\n",
     lambda: EncoderConfig(homophones=(("ሐ", "ሀ"), ("ሀ", "ሰ")),
                           vowel_carriers=frozenset("አ"))),
    (load_script_tables, "[homophone-classes]\nሀ ሀ\n",
     lambda: EncoderConfig(homophones=(("ሀ", "ሀ"),), vowel_carriers=frozenset("አ"))),
    (load_script_tables, "[homophone-classes]\nሀ ህ\n",
     lambda: EncoderConfig(homophones=(("ህ", "ሀ"),), vowel_carriers=frozenset("አ"))),
    (load_script_tables, "[vowel-carriers]\nእ\n",
     lambda: EncoderConfig(homophones=(), vowel_carriers=frozenset("እ"))),
])
def test_hand_built_rules_pass_the_file_checks(tmp_path, load, text, build):
    # Script tables, a profile or glyph pairs that the loader refuses
    # cannot be built by hand either, and the constructor gives the
    # loader's text.
    with pytest.raises(LoadError) as loaded:
        load(_write(tmp_path, "rules.txt", text))
    with pytest.raises(ValueError) as built:
        build()
    assert str(loaded.value).endswith(f": {built.value}")


def test_load_glyph_pairs_rejects_bad_records(tmp_path):
    with pytest.raises(LoadError):
        load_glyph_pairs(_write(tmp_path, "a.txt", "[glyph-pairs]\nፕ ኝ\n"))
    with pytest.raises(LoadError):
        load_glyph_pairs(_write(tmp_path, "b.txt", "[glyph-pairs]\nፕ ኝ sometimes\n"))
    with pytest.raises(LoadError):
        load_glyph_pairs(_write(tmp_path, "c.txt", "[glyph-pairs]\nፐ ኝ any\n"))
    with pytest.raises(LoadError):
        load_glyph_pairs(
            _write(tmp_path, "d.txt", "[glyph-pairs]\nፕ ኝ any\nፕ ች any\n")
        )


# --- properties -------------------------------------------------------------

ethiopic_words = st.text(
    alphabet=st.sampled_from(sorted(SUPPORTED)), min_size=1, max_size=6
)
configs = st.sampled_from(
    [EncoderConfig(), WY, NO_PROFILE, EncoderConfig(wy_as_vowels=True, profile=None)]
)


@given(word=ethiopic_words, config=configs)
def test_keys_stay_inside_the_key_alphabet(word, config):
    for entry in encode(word, config):
        assert entry.key
        for pos, ch in enumerate(entry.key):
            info = oracle.decompose(ch)
            if ch == "አ":
                assert pos == 0
            else:
                assert info is not None and info.order == SADIS, (
                    f"{ch!r} in key {entry.key!r}"
                )


@given(word=ethiopic_words, config=configs)
def test_every_key_reencodes_to_itself(word, config):
    for entry in encode(word, config):
        assert encode(entry.key, config).canonical == entry.key


@given(word=ethiopic_words, config=configs)
def test_encode_is_deterministic_and_ordered(word, config):
    first = encode(word, config)
    second = encode(word, config)
    assert first == second
    assert isinstance(first, EncodingSet)
    tiers = [e.tier for e in first]
    assert tiers[0] == Tier.CANONICAL
    assert tiers == sorted(tiers)
    assert len(first.key_set()) == len(first)


@settings(max_examples=200)
@given(word=ethiopic_words)
def test_disabling_the_profile_removes_exactly_tier_three(word):
    room = EncoderConfig(max_encodings=64)
    no_profile = EncoderConfig(profile=None, max_encodings=64)
    with_tiers = [(e.key, e.tier) for e in encode(word, room)]
    without = [(e.key, e.tier) for e in encode(word, no_profile)]
    assert without == [
        (k, t) for k, t in with_tiers if t is not Tier.INPUT_METHOD
    ]


@given(word=ethiopic_words)
def test_wy_key_is_a_function_of_the_default_key(word):
    default_key = encode(word).canonical
    stripped = default_key[0] + "".join(
        ch for ch in default_key[1:] if ch not in ("ው", "ይ")
    )
    assert encode(word, WY).canonical == stripped


def _partner(pair, ch):
    """The other character of a glyph pair, or None if ch is in neither slot."""
    return {pair.a: pair.b, pair.b: pair.a}.get(ch)


def staged_exhaustively(word, config):
    """encode() by the pipeline's definition: stage every alternate of
    every site combination, then keep the first max_encodings unique."""

    def combos(key, sites):
        for r in range(1, len(sites) + 1):
            for combo in combinations(sites, r):
                chars = list(key)
                for i, ch in combo:
                    chars[i] = ch
                yield "".join(chars)

    canonical = oracle.remove_vowels(oracle.simplify(word, config), config)
    nasal = {"ም": "ን", "ን": "ም"}
    sites = [(i, nasal[ch]) for i, ch in enumerate(canonical[:-1])
             if ch in nasal and canonical[i + 1] in "ብፍ"]
    staged = [(canonical, 0)] + [(k, 1) for k in combos(canonical, sites)]
    for key, _ in list(staged):
        sites = []
        for i, ch in enumerate(key):
            partners = [_partner(p, ch) for p in config.glyph_pairs
                        if (p.anywhere or i == 0) and _partner(p, ch)]
            if partners:
                sites.append((i, partners[0]))
        staged += [(k, 2) for k in combos(key, sites)]
    if config.profile is not None:
        downgraded = [lcd_mistrike(k, config) for k, _ in staged]
        staged += [(d, 3) for d, (k, _) in zip(downgraded, staged) if d != k]
    unique = {}
    for key, tier in staged:
        unique.setdefault(key, tier)
    return list(unique.items())[: config.max_encodings]


# Syllables whose keys hit every rule: nasal sites, both glyph partners
# (ፕ/ኝ, with ኘ also a shifted form) and the other shifted families.
rule_dense_words = st.text(
    alphabet=st.sampled_from("ምንብፍፕኝመነበፈፐኘጽጸጠጥጨልአሀ"), min_size=1, max_size=9
)
staging_configs = st.builds(
    EncoderConfig,
    wy_as_vowels=st.booleans(),
    profile=st.sampled_from([EncoderConfig().profile, None]),
    glyph_pairs=st.sampled_from([
        EncoderConfig().glyph_pairs,
        (GlyphPair(a="ፕ", b="ኝ", anywhere=False),),
        (GlyphPair(a="ም", b="ን", anywhere=True), GlyphPair(a="ፕ", b="ኝ", anywhere=True)),
        # ን in a position-0 pair: nasal alternates keep no shared sites.
        (GlyphPair(a="ን", b="ኝ", anywhere=False),),
    ]),
    max_encodings=st.sampled_from([1, 2, 5, 16, 10_000]),
)


@settings(max_examples=300)
@given(word=rule_dense_words, config=staging_configs)
def test_encode_matches_exhaustive_staging(word, config):
    assert keys_with_tiers(word, config) == staged_exhaustively(word, config)


@settings(max_examples=100)
@given(config=staging_configs, data=st.data())
def test_rules_that_compile_alike_share_a_fingerprint(config, data):
    # The same rules in another order and orientation, with no profile
    # written as an empty one, key every word alike and share a digest.
    profile = tuple(data.draw(st.permutations(config.profile or ())))
    glyph_pairs = tuple(
        GlyphPair(a=p.b, b=p.a, anywhere=p.anywhere) if data.draw(st.booleans()) else p
        for p in data.draw(st.permutations(config.glyph_pairs))
    )
    variant = EncoderConfig(wy_as_vowels=config.wy_as_vowels, profile=profile,
                            glyph_pairs=glyph_pairs, max_encodings=config.max_encodings)
    assert variant.fingerprint == config.fingerprint
    assert _keys_of_bundled_words(variant) == _keys_of_bundled_words(config)


# Letters a nasal, glyph or mistrike rule trades for another.
_RULE_PARTNERS = {"ም": "ን", "ን": "ም", "ፕ": "ኝ", "ኝ": "ፕ", "ጽ": "ስ",
                  "ጸ": "ሰ", "ጠ": "ተ", "ጥ": "ት", "ጨ": "ቸ", "ኘ": "ነ"}


@st.composite
def respelled_pairs(draw):
    """A rule-dense word and a respelling of some of its rule letters, so
    that the two often share a key other than their canonical keys."""
    word = draw(rule_dense_words)
    respelled = "".join(
        _RULE_PARTNERS[ch] if ch in _RULE_PARTNERS and draw(st.booleans()) else ch
        for ch in word
    )
    return word, respelled


@settings(max_examples=300)
@given(pair=st.tuples(rule_dense_words, rule_dense_words) | respelled_pairs(),
       config=staging_configs)
def test_matches_agrees_with_exhaustive_staging(pair, config):
    a, b = pair
    keys_a = {k for k, _ in staged_exhaustively(a, config)}
    keys_b = {k for k, _ in staged_exhaustively(b, config)}
    assert matches(a, b, config) == matches(b, a, config) == bool(keys_a & keys_b)


def walk(key, config):
    return [(k, int(t)) for k, t in encoder._unique_keys(key, config)]


def test_the_walk_ends_at_a_key_no_rule_can_change():
    # ጥ is a shifted consonant and the key's only site: the walk yields
    # its downgrade under the bundled profile, and nothing more without one.
    assert walk("ጥል", NO_PROFILE) == [("ጥል", 0)]
    assert walk("ጥል", EncoderConfig()) == [("ጥል", 0), ("ትል", 3)]
    # ል and ር are in no bundled rule, until a glyph pair joins them.
    assert walk("ስል", EncoderConfig()) == [("ስል", 0)]
    paired = EncoderConfig(glyph_pairs=(GlyphPair(a="ል", b="ር", anywhere=True),))
    assert walk("ስል", paired) == [("ስል", 0), ("ስር", 2)]
    assert walk("ውምብር", EncoderConfig(max_encodings=1)) == [("ውምብር", 0)]


@settings(max_examples=300)
@given(key=st.text(alphabet=st.sampled_from("ምንብፍፕኝጽጥጭኽልርስአ"), max_size=6),
       config=staging_configs)
def test_a_rule_site_is_found_where_a_stage_has_one(key, config):
    # The one search agrees with the site finders and the downgrade.
    has_site = bool(encoder._nasal_sites(key)
                    or encoder._glyph_sites(key, config._glyph_partners)
                    or lcd_mistrike(key, config) != key)
    assert bool(config._rule_site(key)) == has_site


def test_matches_requires_both_words():
    with pytest.raises(EmptyWordError):
        matches("", "ላም")
    with pytest.raises(EmptyWordError):
        matches("ላም", "")


@pytest.mark.parametrize("a, b, expected", [
    ("ምብ" * 500, "ንብ" * 500, False),
    ("ምብ" * 500, "ምፍ" * 500, False),
    ("ፕምብ" * 300, "ኝንብ" * 300, False),
    # b is a's first nasal alternate.
    ("ምብ" * 500, "ንብ" + "ምብ" * 499, True),
    # A swap the cap keeps out of both key sets: the nasal alternates
    # fill them before any glyph swap or late site is reached.
    ("ፕምብ" * 300, "ኝምብ" + "ፕምብ" * 299, False),
    ("ምብ" * 500, "ምብ" * 499 + "ንብ", False),
])
def test_matches_walks_both_words_lazily(a, b, expected):
    # Hundreds of sites per word: staging every combination of either
    # word would never end, so each answer shows both walks stop early.
    for first, second in ((a, b), (b, a)):
        start = time.perf_counter()
        assert matches(first, second) is expected
        assert time.perf_counter() - start < 1.0


# --- encode's memo of key sets ----------------------------------------------

@settings(max_examples=100)
@given(words=st.lists(rule_dense_words, min_size=1, max_size=8),
       config=staging_configs)
def test_encode_through_one_warm_config_matches_exhaustive_staging(words, config):
    # One config for the whole list, each word twice: later words are
    # answered from the memo the earlier ones filled.
    for word in words + words:
        assert keys_with_tiers(word, config) == staged_exhaustively(word, config)


def test_encode_gives_one_set_per_canonical_key():
    config = EncoderConfig()
    first = encode("ሰላም", config)
    for word in ("ሠላም", "ሰለም"):   # the same key, ስልም
        assert encode(word, config) is first
        assert encode(word, EncoderConfig()) == first
    assert encode("ሰላማት", config).canonical == "ስልምት"


def test_encode_memo_is_bounded():
    config = EncoderConfig(profile=None, glyph_pairs=())
    memo = config._key_sets
    bound = encoder._KEY_SET_CACHE
    letters = "ልምርስሽቅብትችንክዝድጅግጥጭ"
    words = [a + b + c for a in letters for b in letters for c in letters]
    assert len(words) > bound
    for word in words:
        encode(word, config)
        assert len(memo) <= bound
    assert len(memo) == len(words) - bound
    assert keys_with_tiers(words[0], config) == [(words[0], 0)]


def test_encode_memo_keeps_only_short_keys():
    config = EncoderConfig()
    bound = encoder._MEMO_KEY_SCALARS
    letters = "ልምርስሽቅብትችንክዝድጅግጥጭ"
    for i in range(500):
        word = "".join(letters[(i * 7 + j * j) % len(letters)]
                       for j in range(bound + 1 + i))
        keys = encode(word, config)
        assert encode(word, config) == keys
        assert all(len(key) <= bound for key in config._key_sets)
    # A key of the bound's length is kept: its words share one set.
    assert encode("ለ" * bound, config) is encode("ሎ" * bound, config)
    assert encode("ሰላም", config) is encode("ሠላም", config)
    assert len(config._key_sets) == 2


def test_encode_rejects_bad_words_before_the_memo():
    config = EncoderConfig()
    encode("ሰላም", config)
    for word, error in (("", EmptyWordError), ("ላx", InvalidInputError),
                        ("x", InvalidInputError)):
        with pytest.raises(error):
            encode(word, config)
    assert list(config._key_sets) == ["ስልም"]


def test_memo_stays_out_of_the_config_identity():
    cold, warm = EncoderConfig(), EncoderConfig()
    encode("ሰላም", warm)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert warm.fingerprint == cold.fingerprint == "451b81d7438dfea3"


def test_a_warm_config_is_freed_by_reference_counting():
    config = EncoderConfig()
    encode("ሰላም", config)
    ref = weakref.ref(config)
    gc.disable()
    try:
        del config
        assert ref() is None
    finally:
        gc.enable()


def test_suggest_and_matches_walk_without_the_memo():
    config = EncoderConfig()
    index = build_index(Lexicon(words=frozenset({"ሰላም", "ሠላም", "ምንባብ"})), config)
    assert [s.word for s in suggest("ሠላም", index, config)] == ["ሠላም", "ሰላም"]
    assert matches("ምንባብ", "ምምባብ", config)
    assert not matches("ምንባብ", "ሰላም", config)
    assert "_key_sets" not in vars(config)


def test_invalid_input_reads_no_data_file(monkeypatch, tmp_path):
    # A config keeps its tables, and the supported set is fixed, so a bad
    # scalar is reported without reading the data directory again.
    monkeypatch.delenv("AMHARIC_METAPHONE_DATA", raising=False)
    config = EncoderConfig()
    monkeypatch.setenv("AMHARIC_METAPHONE_DATA", str(tmp_path / "absent"))
    for call in (lambda: encode("ላx", config),
                 lambda: simplify("ላx", config)):
        with pytest.raises(InvalidInputError) as exc:
            call()
        assert str(exc.value) == (
            "unsupported scalar 'x' (U+0078) at position 1 in 'ላx'"
        )


def test_ethiopic_scalars_outside_the_grid_are_unsupported():
    # RYA and the digits are Ethiopic but have no family/order slot; the
    # refusal names them as unsupported, not as foreign.
    for word, char, position, refusal in (
        ("ላፘ", "ፘ", 1, "unsupported scalar 'ፘ' (U+1358) at position 1 in 'ላፘ'"),
        ("፩ላ", "፩", 0, "unsupported scalar '፩' (U+1369) at position 0 in '፩ላ'"),
    ):
        with pytest.raises(InvalidInputError) as exc:
            encode(word)
        assert str(exc.value) == refusal
        assert (exc.value.char, exc.value.position, exc.value.word) == (
            char, position, word)


# --- the per-scalar maps against the per-character oracle ------------------

# The bundled tables, the minimal file, and two tables whose carrier
# class leaves out አ: step 1 writes every carrier as bare አ, which then
# keys as a consonant (እ, or ህ when አ joins the ሀ class).
_ORACLE_TABLES = {
    "minimal": "# nothing but a comment\n[vowel-carriers]\nአ\n",
    "carrier-without-alef": "[vowel-carriers]\nዐ\n",
    "alef-as-consonant": "[homophone-classes]\nሀ ሐ አ\n[vowel-carriers]\nዐ\n",
}


@pytest.fixture(scope="module", params=["bundled", *_ORACLE_TABLES])
def oracle_tables(request, tmp_path_factory):
    """The two script-table fields of a config, by name."""
    if request.param == "bundled":
        homophones, carriers = EncoderConfig().homophones, EncoderConfig().vowel_carriers
    else:
        path = tmp_path_factory.mktemp("tables") / "script_tables.txt"
        path.write_text(_ORACLE_TABLES[request.param], encoding="utf-8")
        homophones, carriers = load_script_tables(path)
    return {"homophones": homophones, "vowel_carriers": carriers}


def _check_against_the_oracle(word, wy, tables):
    """simplify, remove_vowels and the canonical key each equal the oracle's."""
    config = EncoderConfig(wy_as_vowels=wy, profile=None, glyph_pairs=(),
                           max_encodings=1, **tables)
    merged = oracle.simplify(word, config)
    assert simplify(word, config) == merged, word
    for text in (word, merged):
        assert remove_vowels(text, config) == oracle.remove_vowels(text, config), text
    assert encode(word, config).canonical == oracle.remove_vowels(merged, config), word


@pytest.mark.parametrize("wy", [False, True])
def test_compiled_key_matches_the_oracle_for_every_scalar(oracle_tables, wy):
    for ch in sorted(SUPPORTED):
        for word in (ch, ch + ch, "ለ" + ch):
            _check_against_the_oracle(word, wy, oracle_tables)


@settings(max_examples=300)
@given(data=st.data(), wy=st.booleans())
def test_compiled_key_matches_the_oracle_on_words(oracle_tables, data, wy):
    word = data.draw(st.text(
        alphabet=st.sampled_from(sorted(SUPPORTED)),
        min_size=1, max_size=12))
    _check_against_the_oracle(word, wy, oracle_tables)


@given(data=st.data())
def test_compiled_key_reports_bad_scalars_like_the_oracle(oracle_tables, data):
    word = data.draw(st.text(alphabet=st.sampled_from(sorted(SUPPORTED)), max_size=6))
    bad = data.draw(st.sampled_from("ፘ፡፩a ") | st.characters())
    assume(bad not in SUPPORTED)
    pos = data.draw(st.integers(0, len(word)))
    word = word[:pos] + bad + word[pos:]
    config = EncoderConfig(profile=None, **oracle_tables)
    calls = (
        lambda: encode(word, config),
        lambda: simplify(word, config),
        lambda: remove_vowels(word, config),
        lambda: oracle.simplify(word, config),
        lambda: oracle.remove_vowels(word, config),
    )
    for call in calls:
        with pytest.raises(InvalidInputError) as exc:
            call()
        assert (exc.value.char, exc.value.position, exc.value.word) == (bad, pos, word)
        assert str(exc.value) == str(InvalidInputError(bad, pos, word))


def test_custom_tables_reach_index_suggest_and_matches(tmp_path):
    path = tmp_path / "script_tables.txt"
    path.write_text(_ORACLE_TABLES["alef-as-consonant"], encoding="utf-8")
    homophones, carriers = load_script_tables(path)
    config = EncoderConfig(homophones=homophones, vowel_carriers=carriers)
    lexicon = Lexicon(words=frozenset({"አለም", "ሰላም"}))
    # With አ merged into the ሀ class, ሐለም and አለም share the key ህልም;
    # the bundled tables keep አ as a word-initial vowel (አልም).
    assert [s.word for s in suggest("ሐለም", build_index(lexicon))] == []
    assert matches("አለም", "ሐለም", config)
    assert not matches("አለም", "ሐለም")
    dump = tmp_path / "index.txt"
    dump_index(build_index(lexicon, config), dump)
    index = load_index(dump)
    assert index.fingerprint == config.fingerprint
    assert [(s.word, s.match_tier, s.distance)
            for s in suggest("ሐለም", index, config)] == [("አለም", Tier.CANONICAL, 1)]
    for bundled in (None, EncoderConfig()):
        with pytest.raises(ConfigMismatchError):
            suggest("ሐለም", index, bundled)
