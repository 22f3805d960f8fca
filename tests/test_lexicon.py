"""Tests for lexicon loading, the inverted index, and suggestions."""

import gc
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from amharic_metaphone import lexicon
from amharic_metaphone.encoder import EncoderConfig, Tier, encode
from amharic_metaphone.errors import (
    ConfigMismatchError,
    InvalidInputError,
    LoadError,
)
from amharic_metaphone.ethiopic import SUPPORTED, data_dir
from amharic_metaphone.lexicon import (
    EncodingIndex,
    Lexicon,
    build_index,
    dump_index,
    load_index,
    load_lexicon,
    suggest,
)
from test_encoder import _RULE_PARTNERS, rule_dense_words, staging_configs

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


def test_load_lexicon_keeps_words_as_written(tmp_path):
    # No normalization: a word loads as its scalars stand, and a word
    # holding U+135F ETHIOPIC COMBINING GEMINATION MARK, which is outside
    # ethiopic.SUPPORTED, is refused at that scalar.
    path = write_lexicon(tmp_path, "ቋንቋ\n")
    assert list(load_lexicon(path)) == ["ቋንቋ"]
    path = write_lexicon(tmp_path, "ቋንቋ\nዘ\u135fነ\n")
    with pytest.raises(LoadError) as exc:
        load_lexicon(path)
    assert str(exc.value) == (
        f"{path}:2: unsupported scalar '\u135f' (U+135F) at position 1 in 'ዘ\u135fነ'"
    )


def test_load_lexicon_reports_bad_line(tmp_path):
    path = write_lexicon(tmp_path, "ላም\nbad\n")
    with pytest.raises(LoadError) as exc:
        load_lexicon(path)
    assert exc.value.line == 2
    assert str(exc.value) == (
        f"{path}:2: unsupported scalar 'b' (U+0062) at position 0 in 'bad'"
    )
    path = write_lexicon(tmp_path, "ላም\n\nላም፡ቤት\n")
    with pytest.raises(LoadError) as exc:
        load_lexicon(path)
    assert str(exc.value) == (
        f"{path}:3: unsupported scalar '፡' (U+1361) at position 2 in 'ላም፡ቤት'"
    )


def test_loaders_refuse_ethiopic_scalars_outside_the_grid(tmp_path):
    # ETHIOPIC DIGIT ONE and SYLLABLE RYA: Ethiopic, but unsupported.
    path = write_lexicon(tmp_path, "ላም\nላ፩\n")
    with pytest.raises(LoadError) as exc:
        load_lexicon(path)
    assert str(exc.value) == (
        f"{path}:2: unsupported scalar '፩' (U+1369) at position 1 in 'ላ፩'"
    )
    path = tmp_path / "index.txt"
    path.write_text("# amharic-metaphone-index v2\n# fingerprint 451b81d7438dfea3\n"
                    "ልም\tላም\t0\nልፕ\tላፘ\t0\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load_index(path)
    assert str(exc.value) == (
        f"{path}:4: unsupported scalar 'ፘ' (U+1358) at position 1 in 'ላፘ'"
    )


def test_load_lexicon_reads_no_table_file(monkeypatch, tmp_path):
    # Words are checked against the fixed syllabary, ʷ-series included,
    # so loading needs no script table.
    monkeypatch.setenv("AMHARIC_METAPHONE_DATA", str(tmp_path / "absent"))
    path = write_lexicon(tmp_path, "ቈለ\nላም\n")
    assert sorted(load_lexicon(path)) == ["ላም", "ቈለ"]
    path = write_lexicon(tmp_path, "ቈለ\nቈx\n")
    with pytest.raises(LoadError) as exc:
        load_lexicon(path)
    assert str(exc.value) == (
        f"{path}:2: unsupported scalar 'x' (U+0078) at position 1 in 'ቈx'"
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


@pytest.mark.parametrize("query", ["ሊም", "ጤና"])   # with candidates, and without
def test_suggest_refuses_a_bad_limit_before_any_work(query):
    index = build_index(make_lexicon("ላም", "ሎሚ", "ለም", "ልማ"))
    assert bool(suggest(query, index)) == (query == "ሊም")
    # Neither the bad word nor the other config is reached.
    for args in ((query, index), ("ላx", index), (query, index, WY)):
        for limit in (2.5, True, "3", None):
            with pytest.raises(TypeError, match="^limit must be an int$"):
                suggest(*args, limit=limit)
        for limit in (0, -3):
            with pytest.raises(ValueError, match="^limit must be at least 1$"):
                suggest(*args, limit=limit)


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
    path.write_text("# amharic-metaphone-index v2\n# fingerprint \n", encoding="utf-8")
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


def test_suggest_keeps_a_hand_built_int_tier_of_the_canonical_bucket():
    # The query's canonical bucket is copied as it stands, so a plain int
    # tier there comes back as that int, not as a Tier member.
    index = EncodingIndex({"ልም": {"ላም": 0, "ለም": 2}},
                          fingerprint=EncoderConfig().fingerprint)
    results = suggest("ላም", index)
    assert results == [("ላም", 0, 0), ("ለም", 2, 1)]
    assert [type(s.match_tier) for s in results] == [int, int]


def test_a_hand_built_tier_outside_the_tiers_is_refused_on_load(tmp_path):
    index = EncodingIndex({"ልም": {"ላም": 7}},
                          fingerprint=EncoderConfig().fingerprint)
    path = tmp_path / "index.txt"
    dump_index(index, path)
    with pytest.raises(LoadError) as exc:
        load_index(path)
    assert str(exc.value) == f"{path}:3: bad tier '7'"


def test_suggest_returns_at_once_when_no_word_shares_a_key():
    # The query's only key, ል, is no bundled word's key: building the
    # query's bit masks would take seconds at this length.
    index = build_index(load_lexicon(data_dir() / "lexicon.txt"))
    start = time.perf_counter()
    assert suggest("ለ" + "አ" * 400_000, index) == []
    assert time.perf_counter() - start < 1.0


def test_suggest_builds_a_long_query_masks_in_linear_time():
    # The query's key, አ, is the lexicon word's key: its masks are built
    # and one word scored. A bit at a time, that took seconds.
    index = build_index(make_lexicon("አ"))
    start = time.perf_counter()
    (hit,) = suggest("አ" * 400_000, index)
    assert (hit.word, hit.distance) == ("አ", 399_999)
    assert time.perf_counter() - start < 1.0


def _bitwise_masks(query):
    peq = {}
    for i, ch in enumerate(query):
        peq[ch] = peq.get(ch, 0) | 1 << i
    return peq


_MASK_SCALARS = st.sampled_from("አለምa\U0001F600")


@given(filler=_MASK_SCALARS,
       head=st.integers(lexicon._BYTEWISE_MASKS - 16, lexicon._BYTEWISE_MASKS + 8),
       tail=st.text(alphabet=_MASK_SCALARS, max_size=16))
def test_both_mask_builds_agree_around_the_switch(filler, head, tail):
    # Lengths run from 16 below the switch to 24 above it; the varied
    # tail starts at every bit offset of a byte.
    query = filler * head + tail
    assert lexicon._masks(query) == _bitwise_masks(query)


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
        "# amharic-metaphone-index v2\n# fingerprint 0123456789abcdef\n"
        "ልም\tላም\t2\nልም\tላም\t0\nልም\tላም\t3\nልን\tላም\t1\n",
        encoding="utf-8",
    )
    index = load_index(path)
    assert index.mapping == {"ልም": {"ላም": Tier.CANONICAL},
                             "ልን": {"ላም": Tier.PHONOLOGICAL}}
    assert all(type(t) is Tier for bucket in index.mapping.values()
               for t in bucket.values())
    # Every line of a word shares one string.
    (word_m,), (word_n,) = index.mapping.values()
    assert word_m is word_n


def test_load_index_skips_blank_and_comment_lines_in_the_body(tmp_path):
    header = "# amharic-metaphone-index v2\n# fingerprint 0123456789abcdef\n"
    plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
    plain.write_text(header + "ልም\tላም\t0\nልን\tላም\t1\n", encoding="utf-8")
    spaced.write_text(header + "\nልም\tላም\t0\n  \n# a note\nልን\tላም\t1\n",
                      encoding="utf-8")
    assert load_index(spaced).mapping == load_index(plain).mapping


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


def _synthetic_index():
    """About 20k entries over 13.3k words: three words to a canonical key,
    every other word under an alternate key as well."""
    letters = sorted(SUPPORTED)

    def spell(n, size):
        return "".join(letters[(n // len(letters) ** i) % len(letters)]
                       for i in range(size))

    index = EncodingIndex(fingerprint=EncoderConfig().fingerprint)
    for n in range(13_334):
        word = spell(n, 5)
        index.add(spell(n // 3, 4), word, Tier.CANONICAL)
        if n % 2:
            index.add(spell(n // 6, 3), word, Tier.GLYPH)
    return index


def _traced(call):
    """call()'s result and the peak of its allocations above what it keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


def test_index_set_up_holds_no_copy_of_every_line(tmp_path):
    index = _synthetic_index()
    path = tmp_path / "index.txt"
    _, dumping = _traced(lambda: dump_index(index, path))
    size = path.stat().st_size
    # A key's lines at a time, not the dump whole.
    assert dumping < size / 2
    loaded, loading = _traced(lambda: load_index(path))
    assert loaded == index
    # The file's text and a block of its lines, not a list of every line.
    assert loading < 2 * size


def test_load_index_refuses_a_v1_dump_by_name(tmp_path):
    # A v1 dump holds a fingerprint of the rules as written, which no
    # config gives now: the user is told to rebuild, not of a mismatch.
    path = tmp_path / "v1.txt"
    path.write_text("# amharic-metaphone-index v1\n# fingerprint c3b6d1e3774e103d\n"
                    "ልም\tላም\t0\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load_index(path)
    assert exc.value.line == 1
    assert str(exc.value) == (f"{path}:1: index dump format v1 is no longer read; "
                              "rebuild it with 'amharic-metaphone index'")


def test_load_index_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.txt"
    bad_header.write_text("ልም\tላም\t0\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load_index(bad_header)
    assert exc.value.line == 1

    head = "# amharic-metaphone-index v2\n# fingerprint 0123456789abcdef\n"
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
            "# amharic-metaphone-index v2\n" + second + "ልም\tላም\t0\n",
            encoding="utf-8",
        )
        with pytest.raises(LoadError) as exc:
            load_index(unchecked)
        assert exc.value.line == 2

    with pytest.raises(LoadError):
        load_index(tmp_path / "absent.txt")


def test_load_index_checks_words_against_the_tables(tmp_path):
    head = "# amharic-metaphone-index v2\n# fingerprint 451b81d7438dfea3\n"
    path = tmp_path / "index.txt"
    # Hand-edited lines whose words load_lexicon would refuse.
    for line, refusal in [
        ("ልም\tla m\t0", "unsupported scalar 'l' (U+006C) at position 0 in 'la m'"),
        ("ልም\t ላም \t1", "unsupported scalar ' ' (U+0020) at position 0 in ' ላም '"),
    ]:
        path.write_text(head + "ልም\tላም\t0\n" + line + "\n", encoding="utf-8")
        with pytest.raises(LoadError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}:4: {refusal}"

    path.write_text(head + "ቅል\tቈለ\t0\n", encoding="utf-8")
    assert load_index(path).mapping == {"ቅል": {"ቈለ": Tier.CANONICAL}}


def test_load_index_reads_no_table_file(monkeypatch, tmp_path):
    monkeypatch.setenv("AMHARIC_METAPHONE_DATA", str(tmp_path / "absent"))
    head = "# amharic-metaphone-index v2\n# fingerprint 451b81d7438dfea3\n"
    path = tmp_path / "index.txt"
    path.write_text(head + "ቅል\tቈለ\t0\nቅል\tቈx\t0\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load_index(path)
    assert str(exc.value) == (
        f"{path}:4: unsupported scalar 'x' (U+0078) at position 1 in 'ቈx'"
    )


# --- properties -------------------------------------------------------------

ethiopic_words = st.text(
    alphabet=st.sampled_from(sorted(SUPPORTED)), min_size=1, max_size=5
)


def built_word_by_word(words, config):
    index = EncodingIndex(fingerprint=config.fingerprint)
    for word in sorted(words):
        for entry in encode(word, config):
            index.add(entry.key, word, entry.tier)
    return index


@settings(max_examples=200)
@given(words=st.sets(rule_dense_words, min_size=1, max_size=12),
       config=staging_configs | st.builds(EncoderConfig, wy_as_vowels=st.booleans(),
                                          max_encodings=st.integers(1, 3)))
def test_build_index_matches_a_word_by_word_build(words, config):
    assert build_index(Lexicon(words=frozenset(words)), config) == (
        built_word_by_word(words, config))


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


@settings(max_examples=300)
@given(case=lexicons_and_respellings() | st.tuples(
           st.sets(rule_dense_words, min_size=1, max_size=12).map(sorted), rule_dense_words),
       config=staging_configs, limit=st.integers(1, 12))
def test_suggest_matches_a_brute_force_ranking(case, config, limit):
    # Respellings share keys with the query at every tier, on either side;
    # an unrelated query often shares none.
    words, query = case
    index = build_index(Lexicon(words=frozenset(words)), config)
    results = suggest(query, index, config, limit)
    assert results == oracle.suggest(query, words, config, limit)
    assert all(type(s.match_tier) is Tier for s in results)
