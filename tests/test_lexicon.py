"""Tests for lexicon loading, the inverted index, and suggestions."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amharic_metaphone.encoder import EncoderConfig, Tier, encode
from amharic_metaphone.errors import (
    ConfigMismatchError,
    InvalidInputError,
    LoadError,
)
from amharic_metaphone.ethiopic import data_dir, default_tables, load_script_tables
from amharic_metaphone.lexicon import (
    EncodingIndex,
    Lexicon,
    build_index,
    dump_index,
    load_index,
    load_lexicon,
    suggest,
)
from test_distance import reference
from test_encoder import _RULE_PARTNERS, rule_dense_words

WY = EncoderConfig(wy_as_vowels=True)


def make_lexicon(*words) -> Lexicon:
    return Lexicon(words=frozenset(words))


def write_lexicon(tmp_path, text):
    path = tmp_path / "lex.txt"
    path.write_text(text, encoding="utf-8")
    return path


# --- loading ----------------------------------------------------------------

def test_load_lexicon_skips_comments_and_blanks(tmp_path):
    path = write_lexicon(
        tmp_path,
        "# header\n\nላም\nሎሚ  # trailing note\n   ለም\nላም\n",
    )
    lexicon = load_lexicon(path)
    assert sorted(lexicon) == ["ለም", "ላም", "ሎሚ"]
    assert len(lexicon) == 3
    assert "ላም" in lexicon and "ጤና" not in lexicon


def test_load_lexicon_normalizes_to_nfc(tmp_path):
    # U+12D8 + combining gemination mark stays as typed only if supported;
    # here we check plain NFC idempotence on a precomposed word.
    path = write_lexicon(tmp_path, "ቋንቋ\n")
    assert "ቋንቋ" in load_lexicon(path)


def test_load_lexicon_reports_bad_line(tmp_path):
    path = write_lexicon(tmp_path, "ላም\nbad\n")
    with pytest.raises(LoadError) as exc:
        load_lexicon(path)
    assert exc.value.line == 2
    assert str(exc.value) == f"{path}:2: non-Ethiopic character 'b' in word 'bad'"
    path = write_lexicon(tmp_path, "ላም\n\nላም፡ቤት\n")
    with pytest.raises(LoadError) as exc:
        load_lexicon(path)
    assert str(exc.value) == (
        f"{path}:3: non-Ethiopic character '፡' in word 'ላም፡ቤት'"
    )


def test_load_lexicon_checks_words_against_the_given_tables(tmp_path):
    tables_path = tmp_path / "script_tables.txt"
    tables_path.write_text("[vowel-carriers]\nአ\n", encoding="utf-8")
    path = write_lexicon(tmp_path, "ቈለ\n")
    assert "ቈለ" in load_lexicon(path)
    with pytest.raises(LoadError) as exc:
        load_lexicon(path, load_script_tables(tables_path))
    assert (exc.value.path, exc.value.line) == (path, 1)


def test_load_lexicon_names_a_syllable_the_tables_leave_out(tmp_path):
    tables_path = tmp_path / "script_tables.txt"
    tables_path.write_text("[vowel-carriers]\nአ\n", encoding="utf-8")
    path = write_lexicon(tmp_path, "ላም\nቈለ\n")
    with pytest.raises(LoadError) as exc:
        load_lexicon(path, load_script_tables(tables_path))
    assert str(exc.value) == (
        f"{path}:2: character 'ቈ' in word 'ቈለ' is not in the script tables"
    )


def test_load_lexicon_missing_file(tmp_path):
    with pytest.raises(LoadError):
        load_lexicon(tmp_path / "absent.txt")


# --- index ------------------------------------------------------------------

def test_build_index_indexes_every_encoding():
    lexicon = make_lexicon("ወንበር", "ላም", "ፕሬዚዳንት")
    index = build_index(lexicon)
    for word in lexicon:
        for entry in encode(word):
            assert index.lookup(entry.key)[word] == entry.tier
    assert index.lookup("ዚች") == {}


def test_build_index_names_the_word_on_bad_input():
    with pytest.raises(InvalidInputError) as exc:
        build_index(make_lexicon("ላም", "ላx"))
    assert exc.value.word == "ላx"


def test_index_add_keeps_the_best_tier():
    index = EncodingIndex(fingerprint="0123456789abcdef")
    index.add("ልም", "ላም", Tier.GLYPH)
    index.add("ልም", "ላም", Tier.CANONICAL)
    index.add("ልም", "ላም", Tier.INPUT_METHOD)
    assert index.lookup("ልም")["ላም"] == Tier.CANONICAL
    assert len(index) == 1


# --- suggestions ------------------------------------------------------------

def test_suggest_ranks_by_tier_then_distance_then_word():
    lexicon = make_lexicon("ላም", "ሎሚ", "ለም", "ልማ")
    index = build_index(lexicon)
    results = suggest("ሊም", index)
    assert [s.word for s in results] == ["ለም", "ላም", "ልማ", "ሎሚ"]
    assert [int(s.match_tier) for s in results] == [0, 0, 0, 0]
    assert [s.distance for s in results] == [1, 1, 2, 2]


def test_suggest_tier_is_the_weaker_side_of_the_bridge():
    index = build_index(make_lexicon("ወንበር"))
    (hit,) = suggest("ወምበር", index)
    assert hit.word == "ወንበር"
    assert hit.match_tier == Tier.PHONOLOGICAL

    index = build_index(make_lexicon("ፕሬዚዳንት"))
    (hit,) = suggest("ኘሬዚዳንት", index)
    assert hit.word == "ፕሬዚዳንት"
    assert hit.match_tier == Tier.GLYPH


def test_suggest_respects_limit():
    lexicon = make_lexicon("ላም", "ሎሚ", "ለም", "ልማ")
    index = build_index(lexicon)
    assert len(suggest("ሊም", index, limit=2)) == 2
    with pytest.raises(ValueError):
        suggest("ሊም", index, limit=0)


def test_suggest_with_no_shared_keys_is_empty():
    index = build_index(make_lexicon("ጤና"))
    assert suggest("ላም", index) == []


def test_suggest_rejects_mismatched_config():
    index = build_index(make_lexicon("ሆኗል"), WY)
    with pytest.raises(ConfigMismatchError):
        suggest("ሆኖአል", index)
    assert suggest("ሆኖአል", index, WY)[0].word == "ሆኗል"


def test_index_requires_a_fingerprint(tmp_path):
    # What a dump's second line cannot hold, an index cannot either.
    path = tmp_path / "index.txt"
    path.write_text("# amharic-metaphone-index v1\n# fingerprint \n", encoding="utf-8")
    with pytest.raises(LoadError) as loaded:
        load_index(path)
    for fingerprint in ({}, {"fingerprint": ""}, {"fingerprint": "01 23"}):
        with pytest.raises(ValueError) as built:
            EncodingIndex(**fingerprint)
        assert str(loaded.value) == f"{path}:2: {built.value}"


def test_suggest_checks_a_hand_built_index(tmp_path):
    index = EncodingIndex({"ልም": {"ላም": Tier.CANONICAL}},
                          fingerprint=EncoderConfig().fingerprint)
    (hit,) = suggest("ላም", index)
    assert (hit.word, hit.distance) == ("ላም", 0)
    with pytest.raises(ConfigMismatchError):
        suggest("ላም", index, WY)
    path = tmp_path / "index.txt"
    dump_index(index, path)
    assert load_index(path) == index


def test_suggest_returns_at_once_when_no_word_shares_a_key():
    # The query's only key, ል, is no bundled word's key: building the
    # query's bit masks would take seconds at this length.
    index = build_index(load_lexicon(data_dir() / "lexicon.txt"))
    start = time.perf_counter()
    assert suggest("ለ" + "አ" * 400_000, index) == []
    assert time.perf_counter() - start < 1.0


# --- persistence ------------------------------------------------------------

def test_dump_and_load_round_trip(tmp_path):
    lexicon = make_lexicon("ወንበር", "ላም", "ፕሬዚዳንት", "ሆኗል")
    index = build_index(lexicon)
    path = tmp_path / "index.txt"
    dump_index(index, path)
    loaded = load_index(path)
    assert loaded.fingerprint == index.fingerprint
    assert loaded.mapping == index.mapping
    assert [s.word for s in suggest("ወምበር", loaded)] == ["ወንበር"]


def test_load_index_keeps_the_best_tier_of_repeated_lines(tmp_path):
    path = tmp_path / "index.txt"
    path.write_text(
        "# amharic-metaphone-index v1\n# fingerprint 0123456789abcdef\n"
        "ልም\tላም\t2\nልም\tላም\t0\nልም\tላም\t3\nልን\tላም\t1\n",
        encoding="utf-8",
    )
    index = load_index(path)
    assert index.mapping == {"ልም": {"ላም": Tier.CANONICAL},
                             "ልን": {"ላም": Tier.PHONOLOGICAL}}
    assert all(type(t) is Tier for bucket in index.mapping.values()
               for t in bucket.values())


def test_dump_is_deterministic(tmp_path):
    index = build_index(make_lexicon("ወንበር", "ላም"))
    dump_index(index, tmp_path / "a.txt")
    dump_index(index, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_failed_dump_keeps_the_previous_one(tmp_path):
    path = tmp_path / "index.txt"
    dump_index(build_index(make_lexicon("ወንበር", "ላም")), path)
    before = path.read_bytes()
    # A lone surrogate cannot be encoded, so the write fails part way.
    broken = EncodingIndex(fingerprint="0123456789abcdef")
    broken.add("ልም", "ላም", Tier.CANONICAL)
    broken.add("\ud800", "ላም", Tier.CANONICAL)
    with pytest.raises(UnicodeEncodeError):
        dump_index(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.txt"]


def test_load_index_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.txt"
    bad_header.write_text("ልም\tላም\t0\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load_index(bad_header)
    assert exc.value.line == 1

    head = "# amharic-metaphone-index v1\n# fingerprint 0123456789abcdef\n"
    bad_tier = tmp_path / "t.txt"
    bad_tier.write_text(head + "ልም\tላም\tnine\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load_index(bad_tier)
    assert exc.value.line == 3

    # Only the tokens dump_index writes are tiers, though int() takes more.
    for token in ["٣", "２", " 1", "+0", "0_0", "4", "-1", ""]:
        bad_tier.write_text(head + f"ልም\tላም\t{token}\n", encoding="utf-8")
        with pytest.raises(LoadError) as exc:
            load_index(bad_tier)
        assert str(exc.value) == f"{bad_tier}:3: bad tier {token!r}"

    bad_columns = tmp_path / "c.txt"
    bad_columns.write_text(head + "ልም ላም 0\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load_index(bad_columns)
    assert exc.value.line == 3

    empty = tmp_path / "e.txt"
    for line, message in [("\tላም\t0", "empty key"), ("ልም\t\t0", "empty word"),
                          ("\t\t0", "empty key")]:
        empty.write_text(head + "ልም\tላም\t0\n" + line + "\n", encoding="utf-8")
        with pytest.raises(LoadError) as exc:
            load_index(empty)
        assert str(exc.value) == f"{empty}:4: {message}"

    # A dump that cannot be checked against the query's config is refused.
    for name, second in [("none", ""), ("empty", "# fingerprint \n"),
                         ("late", "ልም\tላም\t0\n# fingerprint 0123456789abcdef\n")]:
        unchecked = tmp_path / f"f-{name}.txt"
        unchecked.write_text(
            "# amharic-metaphone-index v1\n" + second + "ልም\tላም\t0\n",
            encoding="utf-8",
        )
        with pytest.raises(LoadError) as exc:
            load_index(unchecked)
        assert exc.value.line == 2

    with pytest.raises(LoadError):
        load_index(tmp_path / "absent.txt")


def test_load_index_checks_words_against_the_tables(tmp_path):
    head = "# amharic-metaphone-index v1\n# fingerprint c3b6d1e3774e103d\n"
    path = tmp_path / "index.txt"
    # Hand-edited lines whose words load_lexicon would refuse.
    for line, ch, word in [("ልም\tla m\t0", "l", "la m"),
                           ("ልም\t ላም \t1", " ", " ላም ")]:
        path.write_text(head + "ልም\tላም\t0\n" + line + "\n", encoding="utf-8")
        with pytest.raises(LoadError) as exc:
            load_index(path)
        assert str(exc.value) == (
            f"{path}:4: non-Ethiopic character {ch!r} in word {word!r}"
        )

    tables_path = tmp_path / "script_tables.txt"
    tables_path.write_text("[vowel-carriers]\nአ\n", encoding="utf-8")
    path.write_text(head + "ቅል\tቈለ\t0\n", encoding="utf-8")
    assert load_index(path).mapping == {"ቅል": {"ቈለ": Tier.CANONICAL}}
    with pytest.raises(LoadError) as exc:
        load_index(path, load_script_tables(tables_path))
    assert str(exc.value) == (
        f"{path}:3: character 'ቈ' in word 'ቈለ' is not in the script tables"
    )


# --- properties -------------------------------------------------------------

_tables = default_tables()
ethiopic_words = st.text(
    alphabet=st.sampled_from(sorted(_tables.by_char)), min_size=1, max_size=5
)


@given(words=st.sets(ethiopic_words, min_size=1, max_size=8))
def test_every_indexed_word_suggests_itself_first(words):
    index = build_index(Lexicon(words=frozenset(words)))
    for word in words:
        results = suggest(word, index, limit=len(words))
        assert results[0].word == word
        assert results[0].match_tier == Tier.CANONICAL
        assert results[0].distance == 0


# Each rule-dense letter, its other vowel order (same key) and its rule
# partner (an alternate key), so respellings share keys at several tiers.
_SPELLINGS = {ch: ch + sibling + _RULE_PARTNERS.get(ch, "") for ch, sibling in zip(
    "ምመንነብበፍፈፕፐኝኘጽጸጥጠ", "መምነንበብፈፍፐፕኘኝጸጽጠጥ")}


@st.composite
def lexicons_and_respellings(draw):
    """A rule-dense lexicon holding respellings of one word, and a
    further respelling of that word as the query."""
    word = draw(rule_dense_words)

    def respelling():
        return "".join(draw(st.sampled_from(_SPELLINGS.get(ch, ch))) for ch in word)

    others = draw(st.lists(rule_dense_words, max_size=6))
    words = {word, *others, *(respelling() for _ in range(draw(st.integers(0, 8))))}
    return sorted(words), respelling()


@given(case=lexicons_and_respellings(), limit=st.integers(1, 12),
       config=st.sampled_from([EncoderConfig(), WY]))
def test_suggest_matches_a_brute_force_ranking(case, limit, config):
    words, query = case
    query_tiers = {e.key: e.tier for e in encode(query, config)}
    expected = []
    for word in words:
        tiers = [max(query_tiers[e.key], e.tier)
                 for e in encode(word, config) if e.key in query_tiers]
        if tiers:
            expected.append((min(tiers), reference(query, word), word))
    expected.sort()
    index = build_index(Lexicon(words=frozenset(words)), config)
    results = suggest(query, index, config, limit)
    assert [(s.match_tier, s.distance, s.word) for s in results] == expected[:limit]
    assert all(type(s.match_tier) is Tier for s in results)
