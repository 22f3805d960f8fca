"""Tests for the syllabary model.

The layout table is cross-checked against an independent oracle: the
Unicode character database names. A syllable's name is its family stem
plus a vowel suffix that is fully determined by our order code, so any
wrong (family, order) entry produces a name mismatch.
"""

import unicodedata

import pytest

from amharic_metaphone import encoder, ethiopic
from amharic_metaphone.encoder import (
    EncoderConfig,
    GlyphPair,
    default_glyph_pairs,
    default_mistrike_profile,
    encode,
    load_glyph_pairs,
    load_mistrike_profile,
)
from amharic_metaphone.errors import InvalidOrderError, LoadError
from amharic_metaphone.ethiopic import (
    OA,
    SADIS,
    SUPPORTED,
    WA,
    compose,
    data_dir,
    decompose,
    ScriptTables,
    default_tables,
    load_script_tables,
)
from amharic_metaphone.evaluate import load_corpus
from amharic_metaphone.lexicon import (
    Lexicon,
    build_index,
    load_index,
    load_lexicon,
    suggest,
)

_PLAIN_SUFFIX = {1: "A", 2: "U", 3: "I", 4: "AA", 5: "EE", 6: "E", 7: "O"}
_SERIES_SUFFIX = {11: "WA", 13: "WI", 14: "WAA", 15: "WEE", 16: "WE"}


def _stem(family: str) -> str:
    name = unicodedata.name(family)
    assert name.startswith("ETHIOPIC SYLLABLE ") and name.endswith("A")
    return name.removeprefix("ETHIOPIC SYLLABLE ").removesuffix("A")


def test_every_table_entry_matches_its_unicode_name():
    for ch, (family, order) in ethiopic._BY_CHAR.items():
        stem = _stem(family)
        if ord(ch) - ord(family) >= 8:
            # Past its family's row of eight: a standalone ʷ-series syllable.
            suffix = _SERIES_SUFFIX[order]
        elif order in _PLAIN_SUFFIX:
            suffix = _PLAIN_SUFFIX[order]
        elif order == WA:
            # Eighth-column wa forms; one row (GGWA family) names its
            # eighth column WAA instead of WA.
            suffix = "WAA" if ch == "ጟ" else "WA"
        else:
            assert order == OA
            suffix = "OA"
        assert unicodedata.name(ch) == f"ETHIOPIC SYLLABLE {stem}{suffix}", (
            f"{ch!r} mapped to ({family!r}, {order})"
        )


def test_supported_set_is_exactly_the_assigned_syllable_block():
    assigned = {
        chr(cp)
        for cp in range(0x1200, 0x1358)
        if unicodedata.name(chr(cp), None) is not None
    }
    assert SUPPORTED == set(ethiopic._BY_CHAR) == assigned
    assert len(SUPPORTED) == 323


def test_rya_mya_fya_and_non_syllables_are_unsupported():
    for ch in "ፘፙፚ":  # RYA, MYA, FYA
        assert decompose(ch) is None
        assert ch not in SUPPORTED
    for ch in "፡።፩፼፟":  # punctuation, digits, marks
        assert decompose(ch) is None
        assert ch not in SUPPORTED
    for ch in "a!7 x":
        assert decompose(ch) is None
        assert ch not in SUPPORTED
    assert "ቋ" in SUPPORTED


def test_decompose_compose_round_trip_everywhere():
    for ch in ethiopic._BY_CHAR:
        info = decompose(ch)
        assert info is not None and info.char == ch
        assert compose(info.family, info.order) == ch
    for (family, order), ch in ethiopic._BY_FAMILY.items():
        info = decompose(ch)
        assert (info.family, info.order) == (family, order)


@pytest.mark.parametrize("first, family", [
    ("ቈ", "ቀ"), ("ቘ", "ቐ"), ("ኈ", "ኀ"), ("ኰ", "ከ"), ("ዀ", "ኸ"), ("ጐ", "ገ"),
], ids=["QWA", "QHWA", "XWA", "KWA", "KXWA", "GWA"])
def test_series_block_is_laid_out_and_keyed(first, family):
    # One block of eight codepoints: five ʷ-series syllables and three
    # unassigned gaps that stay unsupported.
    orders = {0: 11, 2: 13, 3: 14, 4: 15, 5: 16}
    sadis = encode(compose(family, SADIS)).canonical
    for offset in range(8):
        ch = chr(ord(first) + offset)
        if offset not in orders:
            assert unicodedata.name(ch, None) is None
            assert ch not in SUPPORTED and decompose(ch) is None
            continue
        order = orders[offset]
        assert (decompose(ch).family, decompose(ch).order) == (family, order)
        assert compose(family, order) == ch
        # Only the fourth-order ʷa keeps its glide in the key.
        assert encode(ch).canonical == sadis + ("ው" if order == WA else "")


@pytest.mark.parametrize(
    "ch, family, order",
    [
        ("ሀ", "ሀ", 1),
        ("ሁ", "ሀ", 2),
        ("ሂ", "ሀ", 3),
        ("ሃ", "ሀ", 4),
        ("ሄ", "ሀ", 5),
        ("ህ", "ሀ", 6),
        ("ሆ", "ሀ", 7),
        ("ሇ", "ሀ", 18),
        ("ሏ", "ለ", 14),
        ("ጧ", "ጠ", 14),
        ("ቋ", "ቀ", 14),
        ("ኳ", "ከ", 14),
        ("ቈ", "ቀ", 11),
        ("ቊ", "ቀ", 13),
        ("ቌ", "ቀ", 15),
        ("ቍ", "ቀ", 16),
        ("ቘ", "ቐ", 11),
        ("ኈ", "ኀ", 11),
        ("ኰ", "ከ", 11),
        ("ዀ", "ኸ", 11),
        ("ጐ", "ገ", 11),
        ("ኧ", "አ", 14),
        ("ጟ", "ጘ", 14),
    ],
)
def test_decompose_known_points(ch, family, order):
    info = decompose(ch)
    assert (info.family, info.order) == (family, order)


def test_decompose_requires_a_single_character():
    with pytest.raises(ValueError):
        decompose("")
    with pytest.raises(ValueError):
        decompose("ለም")


def test_compose_rejects_empty_slots():
    with pytest.raises(InvalidOrderError):
        compose("ለ", 8)
    with pytest.raises(InvalidOrderError):
        compose("ለ", 18)  # ለ's eighth column is ʷa, not -oa
    with pytest.raises(InvalidOrderError):
        compose("ሀ", 14)  # ሀ's eighth column is -oa, not ʷa
    with pytest.raises(InvalidOrderError):
        compose("ቐ", 18)
    with pytest.raises(InvalidOrderError):
        compose("x", 1)
    assert compose("ቐ", 11) == "ቘ"  # no eighth column, but owns a series


def test_to_sadis_known_points():
    # (character, its key alone, its key after ለ)
    cases = [
        ("ለ", "ል", "ልል"),
        ("ል", "ል", "ልል"),
        ("ቋ", "ቅው", "ልቅው"),  # ʷa keeps its w
        ("ቈ", "ቅ", "ልቅ"),  # the other ʷ-vowels do not
        ("ዀ", "ኽ", "ልኽ"),
        ("ኧ", "አ", "ል"),  # a vowel carrier, even in its ʷa column
        ("ጟ", "ጝው", "ልጝው"),
    ]
    for ch, alone, after_l in cases:
        assert encode(ch).canonical == alone
        assert encode("ለ" + ch).canonical == after_l


def test_to_sadis_is_total_and_idempotent_over_supported_chars():
    for ch in sorted(SUPPORTED):
        key = encode(ch).canonical
        assert key == "አ" or all(decompose(k).order == SADIS for k in key)
        assert encode(key).canonical == key


def test_vowel_carriers():
    # A carrier opens a key as አ and leaves no trace after a consonant.
    for ch in "አኡኢዓዔዕዖኧ":
        assert encode(ch).canonical == "አ"
        assert encode("ለ" + ch).canonical == "ል"
    for ch, key in zip("ለሀቀመጠ", "ልህቅምጥ"):
        assert encode(ch).canonical == key
        assert encode("ለ" + ch).canonical == "ል" + key


def test_homophone_representatives():
    tables = default_tables()
    assert tables.representative_of("ሐ") == "ሀ"
    assert tables.representative_of("ኀ") == "ሀ"
    assert tables.representative_of("ሠ") == "ሰ"
    assert tables.representative_of("ዐ") == "አ"
    assert tables.representative_of("ፀ") == "ጸ"
    assert tables.representative_of("ቨ") == "በ"
    assert tables.representative_of("ለ") == "ለ"  # its own head
    assert tables.representative_of("ሀ") == "ሀ"


def test_data_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("AMHARIC_METAPHONE_DATA", str(tmp_path))
    assert data_dir() == tmp_path
    monkeypatch.delenv("AMHARIC_METAPHONE_DATA")
    assert data_dir().name == "data"


def test_bundled_data_is_resolved_once(monkeypatch):
    monkeypatch.delenv("AMHARIC_METAPHONE_DATA", raising=False)
    for cached in (ethiopic._tables_in, encoder._config_in):
        cached.cache_clear()
    calls = []
    read_text = ethiopic._read_text

    def counting_read_text(path, kind):
        calls.append(path)
        return read_text(path, kind)

    monkeypatch.setattr(ethiopic, "_read_text", counting_read_text)
    words = ["ላም", "ወንበር", "ዓለምፀሐይ", "ጧት", "ቋንቋ"] * 20
    for word in words:
        encode(word)
    index = build_index(Lexicon(words=frozenset(words)))
    for word in words[:50]:
        suggest(word, index)
    assert len(calls) <= 3
    assert len(set(calls)) == len(calls)


def test_defaults_follow_the_data_dir_override(monkeypatch, tmp_path):
    monkeypatch.delenv("AMHARIC_METAPHONE_DATA", raising=False)
    bundled = (default_tables(), default_mistrike_profile(),
               default_glyph_pairs(), EncoderConfig())
    (tmp_path / "script_tables.txt").write_text(
        "[homophone-classes]\nሰ ሠ\n[vowel-carriers]\nአ\n", encoding="utf-8")
    (tmp_path / "mistrike_profile.txt").write_text(
        "[mistrike-pairs]\nጠ ተ\n", encoding="utf-8")
    (tmp_path / "glyph_pairs.txt").write_text(
        "[glyph-pairs]\nፕ ኝ initial\n", encoding="utf-8")
    for _ in range(2):
        monkeypatch.setenv("AMHARIC_METAPHONE_DATA", str(tmp_path))
        tables = default_tables()
        assert tables.representative == {"ሠ": "ሰ"}
        assert tables.vowel_carriers == frozenset("አ")
        assert default_mistrike_profile().pairs == (("ጠ", "ተ"),)
        assert default_glyph_pairs() == (GlyphPair(a="ፕ", b="ኝ", anywhere=False),)
        config = EncoderConfig()
        assert config.profile.pairs == (("ጠ", "ተ"),)
        assert config.glyph_pairs == (GlyphPair(a="ፕ", b="ኝ", anywhere=False),)
        monkeypatch.delenv("AMHARIC_METAPHONE_DATA")
        assert default_tables() is bundled[0]
        assert (default_tables(), default_mistrike_profile(),
                default_glyph_pairs(), EncoderConfig()) == bundled


def _load(tmp_path, text):
    path = tmp_path / "tables.txt"
    path.write_text(text, encoding="utf-8")
    return load_script_tables(path)


def test_load_rejects_record_before_section(tmp_path):
    with pytest.raises(LoadError) as exc:
        _load(tmp_path, "ሀ ሐ\n")
    assert exc.value.line == 1


def test_load_rejects_non_family_tokens(tmp_path):
    with pytest.raises(LoadError):
        _load(tmp_path, "[homophone-classes]\nህ ሐ\n")  # sixth order, not first
    with pytest.raises(LoadError):
        _load(tmp_path, "[homophone-classes]\nሀ x\n")


def test_load_rejects_duplicate_class_membership(tmp_path):
    with pytest.raises(LoadError):
        _load(tmp_path, "[homophone-classes]\nሀ ሐ\nሰ ሐ\n")
    with pytest.raises(LoadError):
        _load(tmp_path, "[homophone-classes]\nሀ ሀ\n")


def test_load_rejects_member_used_as_head(tmp_path):
    with pytest.raises(LoadError):
        _load(tmp_path, "[homophone-classes]\nሀ ሐ\nሐ ሰ\n")


@pytest.mark.parametrize("text, declared", [
    ("[homophone-classes]\nሀ ሐ\nሰ ሀ\n", {"representative": {"ሐ": "ሀ", "ሀ": "ሰ"}}),
    ("[homophone-classes]\nሀ ሀ\n", {"representative": {"ሀ": "ሀ"}}),
    ("[homophone-classes]\nሀ ህ\n", {"representative": {"ህ": "ሀ"}}),
    ("[vowel-carriers]\nእ\n", {"vowel_carriers": frozenset("እ")}),
])
def test_hand_built_tables_pass_the_file_checks(tmp_path, text, declared):
    # Tables the loader refuses cannot be built by hand either, and the
    # constructor gives the loader's text.
    with pytest.raises(LoadError) as loaded:
        _load(tmp_path, text)
    fields = {"representative": {}, "vowel_carriers": frozenset("አ"), **declared}
    with pytest.raises(ValueError) as built:
        ScriptTables(**fields)
    assert str(loaded.value).endswith(f": {built.value}")


@pytest.mark.parametrize("load, text, line, section", [
    # The ʷ-series is fixed layout, not a section a table declares.
    (load_script_tables, "[homophone-classes]\nሀ ሐ\n\n[labiovelar-map]\nቈ ቀ 11\n",
     4, "labiovelar-map"),
    # A header with no records under it is checked too.
    (load_script_tables, "[vowel-carriers]\nአ\n[labiovelar-map]\n",
     3, "labiovelar-map"),
    (load_mistrike_profile, "[mistrike-pairs]\nጠ ተ\n\n[glyph-pairs]\n",
     4, "glyph-pairs"),
    (load_glyph_pairs, "# pairs\n[mistrike-pairs]\n", 2, "mistrike-pairs"),
], ids=["tables", "tables-bare-header", "profile", "glyph-pairs"])
def test_load_rejects_unknown_section(tmp_path, load, text, line, section):
    path = tmp_path / "rules.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load(path)
    assert exc.value.line == line
    assert str(exc.value) == f"{path}:{line}: unknown section {section!r}"


def test_load_reports_missing_file(tmp_path):
    absent = tmp_path / "absent.txt"
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"\xe9\n")
    loaders = [
        (load_script_tables, "table"),
        (load_mistrike_profile, "table"),
        (load_glyph_pairs, "table"),
        (load_lexicon, "lexicon"),
        (load_corpus, "corpus"),
        (load_index, "index"),
    ]
    for load, kind in loaders:
        with pytest.raises(LoadError) as exc:
            load(absent)
        assert str(exc.value) == f"{absent}: {kind} file not found"
        with pytest.raises(LoadError) as exc:
            load(undecodable)
        assert str(exc.value).startswith(f"{undecodable}: not valid UTF-8: ")


def test_load_accepts_minimal_file(tmp_path):
    tables = _load(tmp_path, "# nothing but a comment\n[vowel-carriers]\nአ\n")
    assert tables.vowel_carriers == frozenset("አ")
    assert tables.representative == {}
    # The layout, ʷ-series included, is fixed whatever the file holds.
    config = EncoderConfig(tables=tables)
    assert encode("ቈለ", config).canonical == "ቅል"
    path = tmp_path / "words.txt"
    path.write_text("ቈለ\n", encoding="utf-8")
    index = build_index(load_lexicon(path), config)
    assert [s.word for s in suggest("ቈለ", index, config)] == ["ቈለ"]
