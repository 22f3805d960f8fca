"""Tests for corpus loading and match-rate evaluation.

The bundled corpus numbers asserted here were produced by running the
evaluator and eyeballing every unmatched row; they are pinned so future
changes to the pipeline or the data file cannot drift silently.
"""

import pytest

from amharic_metaphone.encoder import EncoderConfig
from amharic_metaphone.errors import EmptyCorpusError, LoadError
from amharic_metaphone.ethiopic import data_dir
from amharic_metaphone.evaluate import (
    ERROR_TYPE_LABELS,
    CorpusEntry,
    TypeStats,
    evaluate,
    load_corpus,
    matches,
)

WY = EncoderConfig(wy_as_vowels=True)
NO_PROFILE = EncoderConfig(profile=None)


@pytest.fixture(scope="module")
def bundled():
    return load_corpus(data_dir() / "corpus.tsv")


def write_corpus(tmp_path, text):
    path = tmp_path / "corpus.tsv"
    path.write_text(text, encoding="utf-8")
    return path


# --- loading ----------------------------------------------------------------

def test_load_corpus_rows_and_annotations(tmp_path):
    path = write_corpus(
        tmp_path,
        "# comment\n\nጠዋት\tጧት\t6\nተቃውሞዎቻቸው\tተቃውሞአቸው\t6\texpected_fail\n",
    )
    entries = load_corpus(path)
    assert entries == [
        CorpusEntry("ጠዋት", "ጧት", 6, expected_fail=False),
        CorpusEntry("ተቃውሞዎቻቸው", "ተቃውሞአቸው", 6, expected_fail=True),
    ]


@pytest.mark.parametrize(
    "row",
    [
        "x\ty",
        "ጠዋት\tጧት",
        "ጠዋት\tጧት\t6\texpected_fail\textra",
        "ጠዋት\tጧት\tsix",
        "ጠዋት\tጧት\t0",
        "ጠዋት\tጧት\t10",
        "ጠዋት\tጧት\t6\tmaybe_fail",
        "ጠዋት\thello\t6",
        "\tጧት\t6",
    ],
)
def test_load_corpus_rejects_malformed_rows(tmp_path, row):
    path = write_corpus(tmp_path, row + "\n")
    with pytest.raises(LoadError) as exc:
        load_corpus(path)
    assert exc.value.line == 1
    if row == "ጠዋት\thello\t6":
        assert str(exc.value) == (
            f"{path}:1: unsupported scalar 'h' (U+0068) at position 0 in 'hello'"
        )


@pytest.mark.parametrize("field", ["٣", "３", "+3", "0_3", "-3"])
def test_load_corpus_takes_ascii_digit_error_types(tmp_path, field):
    # int() would read the first four as type 3 and the last as -3.
    path = write_corpus(tmp_path, f"ጠዋት\tጧት\t6\nጠዋት\tጧት\t{field}\n")
    with pytest.raises(LoadError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}:2: bad error type {field!r}"


def test_load_corpus_reads_no_table_file(monkeypatch, tmp_path):
    # Words are checked against the fixed syllabary, ʷ-series included,
    # so loading needs no script table.
    monkeypatch.setenv("AMHARIC_METAPHONE_DATA", str(tmp_path / "absent"))
    path = write_corpus(tmp_path, "ቀለ\tቈለ\t6\n")
    assert load_corpus(path) == [CorpusEntry("ቀለ", "ቈለ", 6, expected_fail=False)]
    path = write_corpus(tmp_path, "ቀለ\tቈለ\t6\nቀለ\tቈx\t6\n")
    with pytest.raises(LoadError) as exc:
        load_corpus(path)
    assert str(exc.value) == (
        f"{path}:2: unsupported scalar 'x' (U+0078) at position 1 in 'ቈx'"
    )


def test_load_corpus_refuses_an_ethiopic_scalar_outside_the_grid(tmp_path):
    path = write_corpus(tmp_path, "ላም\tላም\t1\nላም\tላፘ\t1\n")
    with pytest.raises(LoadError) as exc:
        load_corpus(path)
    assert str(exc.value) == (
        f"{path}:2: unsupported scalar 'ፘ' (U+1358) at position 1 in 'ላፘ'"
    )


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(LoadError):
        load_corpus(tmp_path / "absent.tsv")


def test_bundled_corpus_shape(bundled):
    assert len(bundled) == 131
    assert sum(e.expected_fail for e in bundled) == 2
    by_type = {}
    for e in bundled:
        if not e.expected_fail:
            by_type[e.error_type] = by_type.get(e.error_type, 0) + 1
    assert by_type == {1: 38, 2: 19, 3: 8, 4: 19, 5: 12, 6: 11, 7: 5, 8: 9, 9: 8}


# --- matches ----------------------------------------------------------------

def test_matches_examples():
    assert matches("ጠዋት", "ጧት")
    assert matches("ወንበር", "ወምበር")
    assert matches("ዓለምፀሐይ", "አለምጸሀይ")
    assert not matches("ዓፄ", "ዓጤ")
    assert not matches("ላም", "ጤና")


def test_matches_is_symmetric(bundled):
    config = EncoderConfig()
    for entry in bundled[:40]:
        assert matches(entry.canonical, entry.variant, config) == matches(
            entry.variant, entry.canonical, config
        )


# Every bundled row that does not match, under each config. The per-type
# counts could hide two rows trading places; these lists cannot.
UNMATCHED_DEFAULT = [
    ("ሁለት", "ኸለት"), ("ሁሉ", "ኸሉ"), ("ሀገር", "አገር"), ("ብሎኦቸው", "ብሎዋቸው"),
    ("ኅምሳ", "አምሳ"), ("ከበጉዋይ", "ከበጉይ"), ("ሆኗል", "ሆኖአል"), ("ዓድዋ", "ዓዲ"),
    ("ይዟል", "ይዞአል"), ("ዐመፀ", "ዐመጠ"), ("ዓፄ", "ዓጤ"), ("ዓፄ", "ሐፄ"),
    ("ቴክኖሎጂ", "ቴክኒዎሎጂ"), ("ኢሜይል", "ኢሜል"), ("ኢሜይል", "ኤሜል"),
    ("ኮምፒዩተር", "ኮምፒውተር"),
]
UNMATCHED_WY = [
    ("ሁለት", "ኸለት"), ("ሁሉ", "ኸሉ"), ("ሀገር", "አገር"), ("ኅምሳ", "አምሳ"),
    ("ዐመፀ", "ዐመጠ"), ("ዓፄ", "ዓጤ"), ("ዓፄ", "ሐፄ"),
]
# The expected_fail rows, built on a different stem, match under neither.
UNMATCHED_XFAIL = [("ተቃውሞዎቻቸው", "ተቃውሞአቸው"), ("ጀርአቸውን", "ጀሮዎቻቸውን")]


@pytest.mark.parametrize("config, unmatched", [
    (EncoderConfig(), UNMATCHED_DEFAULT),
    (WY, UNMATCHED_WY),
])
def test_bundled_rows_that_do_not_match(bundled, config, unmatched):
    misses = [(e.canonical, e.variant) for e in bundled
              if not e.expected_fail and not matches(e.canonical, e.variant, config)]
    assert misses == unmatched
    xfail = [(e.canonical, e.variant) for e in bundled if e.expected_fail]
    assert xfail == UNMATCHED_XFAIL
    assert not any(matches(a, b, config) for a, b in xfail)


# --- evaluate ---------------------------------------------------------------

def test_evaluate_rejects_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        evaluate([])


def test_evaluate_buckets_expected_fail_separately():
    corpus = [
        CorpusEntry("ጠዋት", "ጧት", 6),
        CorpusEntry("ዓፄ", "ዓጤ", 7),
        CorpusEntry("ተቃውሞዎቻቸው", "ተቃውሞአቸው", 6, expected_fail=True),
    ]
    report = evaluate(corpus)
    assert report.per_type[6] == TypeStats(1, 1)
    assert report.per_type[7] == TypeStats(1, 0)
    assert report.overall == TypeStats(2, 1)
    assert report.expected_fail == TypeStats(1, 0)


def test_bundled_corpus_default_rates(bundled):
    report = evaluate(bundled)
    assert report.overall == TypeStats(129, 113)
    assert report.per_type == {
        1: TypeStats(38, 38),
        2: TypeStats(19, 19),
        3: TypeStats(8, 6),
        4: TypeStats(19, 15),
        5: TypeStats(12, 12),
        6: TypeStats(11, 8),
        7: TypeStats(5, 2),
        8: TypeStats(9, 5),
        9: TypeStats(8, 8),
    }
    assert report.expected_fail == TypeStats(2, 0)
    assert report.overall.rate >= 0.85


def test_bundled_corpus_wy_rates(bundled):
    report = evaluate(bundled, WY)
    assert report.overall == TypeStats(129, 122)
    assert report.expected_fail == TypeStats(2, 0)


def test_wy_flag_never_costs_a_match(bundled):
    default = EncoderConfig()
    for entry in bundled:
        if matches(entry.canonical, entry.variant, default):
            assert matches(entry.canonical, entry.variant, WY), (
                f"{entry.canonical}/{entry.variant} lost under wy_as_vowels"
            )


def test_profile_only_adds_matches(bundled):
    default = EncoderConfig()
    report = evaluate(bundled, NO_PROFILE)
    assert report.overall == TypeStats(129, 109)
    for entry in bundled:
        if matches(entry.canonical, entry.variant, NO_PROFILE):
            assert matches(entry.canonical, entry.variant, default)


def test_type7_consonant_changes_stay_unmatched(bundled):
    type7 = [e for e in bundled if e.error_type == 7]
    outcomes = {
        (e.canonical, e.variant): matches(e.canonical, e.variant) for e in type7
    }
    assert outcomes[("ዓፄ", "ዓጤ")] is False
    assert outcomes[("ዓፄ", "ሐፄ")] is False
    assert outcomes[("ዐመፀ", "ዐመጠ")] is False
    assert outcomes[("ሂጅ", "ሂጂ")] is True
    assert outcomes[("ዓፄ", "አፄ")] is True


def test_lexicon_coverage_note(bundled):
    canonicals = frozenset(e.canonical for e in bundled)
    full = evaluate(bundled, lexicon_words=canonicals)
    assert full.missing_from_lexicon == ()
    partial = evaluate(bundled, lexicon_words=canonicals - {"ጠዋት", "ላንፋ"})
    assert partial.missing_from_lexicon == ("ላንፋ", "ጠዋት")
    assert "ላንፋ" in partial.as_text()


# --- report rendering -------------------------------------------------------

def test_report_text_layout(bundled):
    text = evaluate(bundled).as_text()
    lines = text.splitlines()
    assert lines[0].split() == ["type", "label", "total", "matched", "rate"]
    assert any(line.startswith("all") and " 129 " in line + " " for line in lines)
    assert any(line.startswith("xfail") for line in lines)
    assert lines[-1] == "config: wy_as_vowels=off mistrike_profile=on"


def test_report_text_omits_empty_xfail_row():
    report = evaluate([CorpusEntry("ጠዋት", "ጧት", 6)])
    assert "xfail" not in report.as_text()


def test_report_fields(bundled):
    report = evaluate(bundled, WY)
    assert report.wy_as_vowels is True
    assert report.profile_enabled is True
    assert report.per_type[7].total == 5
    assert report.overall.matched == 122
    assert f"{report.overall.rate:.4f}" == "0.9457"
    assert report.expected_fail.total == 2


def test_type_labels_cover_all_nine():
    assert sorted(ERROR_TYPE_LABELS) == list(range(1, 10))
    assert all(ERROR_TYPE_LABELS[t] for t in range(1, 10))


def test_rate_handles_empty_bucket():
    assert TypeStats(0, 0).rate == 0.0
