"""Each correctness check passes the program's real output and rejects
a hand-corrupted copy of it.

Run with ``python -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import model  # noqa: E402
from workloads import call_cli  # noqa: E402

from amharic_metaphone import (  # noqa: E402
    EncoderConfig, Lexicon, build_index, matches, suggest,
)

DATA = ROOT / "src" / "amharic_metaphone" / "data"


# -- stream-encode ------------------------------------------------------------

@pytest.fixture(scope="module")
def stream():
    doc = gen.documents(7, DATA, 1, 80)[0]
    sink = io.StringIO()
    code, err = call_cli(["encode", "--stdin"], doc.text, sink)
    assert code == 0, err
    return doc, sink.getvalue()


def _lines(output):
    return output[:-1].split("\n")


def _join(lines):
    return "\n".join(lines) + "\n"


def test_stream_output_passes(stream):
    doc, output = stream
    assert doc.planted and any("\t-\t" in line for line in _lines(output))
    assert checks.check_stream(doc.text, doc.planted, output) == []


def _first(lines, test):
    return next(i for i, line in enumerate(lines) if test(line.split("\t")))


@pytest.mark.parametrize("corrupt", [
    "drop_token", "passthrough_changed", "foreign_encoded", "duplicate_key",
    "tier_decreases", "non_sadis_key", "wrong_canonical", "too_many_keys",
])
def test_stream_rejects(stream, corrupt):
    doc, output = stream
    lines = _lines(output)
    if corrupt == "drop_token":
        del lines[_first(lines, lambda f: f[1] == "-")]
    elif corrupt == "passthrough_changed":
        i = _first(lines, lambda f: f[1] == "-")
        lines[i] = lines[i] + "x"
    elif corrupt == "foreign_encoded":
        i = _first(lines, lambda f: f[1] == "-")
        lines[i] = lines[i].replace("\t-\t", "\t0\t")
    elif corrupt == "duplicate_key":
        i = _first(lines, lambda f: f[1] == "0")
        lines.insert(i + 1, lines[i].replace("\t0\t", "\t1\t"))
    elif corrupt == "tier_decreases":
        i = _first(lines, lambda f: f[1] == "0")
        word, _, key = lines[i].split("\t")
        lines[i + 1:i + 1] = [f"{word}\t2\tልል", f"{word}\t1\tርር"]
    elif corrupt == "non_sadis_key":
        i = _first(lines, lambda f: f[1] == "0")
        lines[i] = lines[i] + "ለ"
    elif corrupt == "wrong_canonical":
        i = _first(lines, lambda f: f[1] == "0")
        lines[i] = lines[i] + "ል"
    elif corrupt == "too_many_keys":
        i = _first(lines, lambda f: f[1] == "0")
        word = lines[i].split("\t")[0]
        lines[i + 1:i + 1] = [f"{word}\t3\t{'ል' * n}" for n in range(1, 17)]
    assert checks.check_stream(doc.text, doc.planted, _join(lines)) != []


def test_stream_rejects_unequal_planted_keys(stream):
    doc, output = stream
    tokens = model.split_tokens(doc.text)
    words = [i for i, t in enumerate(tokens) if all(model.is_syllable(c) for c in t)]
    a, b = next((i, j) for i in words for j in words
                if model.canonical_key(tokens[i]) != model.canonical_key(tokens[j]))
    assert checks.check_stream(doc.text, ((a, b),), output) != []


# -- lookup -------------------------------------------------------------------

@pytest.fixture(scope="module")
def lookup():
    words = gen.lexicon(7, 2000)
    queries = gen.queries(7, words, 120)
    config = EncoderConfig()
    index = build_index(Lexicon(frozenset(words)), config)
    answers = [[(s.word, int(s.match_tier), s.distance)
                for s in suggest(q.text, index, config, limit=10)] for q in queries]
    return queries, answers


def test_lookup_answers_pass(lookup):
    queries, answers = lookup
    assert any(q.source is None for q in queries)
    assert sum(len(a) > 1 for a in answers) > len(answers) // 2
    for q, a in zip(queries, answers):
        assert checks.check_suggestions(q, a, 10) == []


def _pick(lookup, test):
    queries, answers = lookup
    return next((q, list(a)) for q, a in zip(queries, answers) if test(q, a))


def test_lookup_rejects_wrong_distance(lookup):
    q, a = _pick(lookup, lambda q, a: a)
    word, tier, dist = a[0]
    a[0] = (word, tier, dist + 1)
    assert checks.check_suggestions(q, a, 10) != []


def test_lookup_rejects_unsorted(lookup):
    q, a = _pick(lookup, lambda q, a: len(a) > 1 and a[0][1:] != a[1][1:])
    a[0], a[1] = a[1], a[0]
    assert checks.check_suggestions(q, a, 10) != []


def test_lookup_rejects_missing_source(lookup):
    q, a = _pick(lookup, lambda q, a: q.source is not None)
    a = [r for r in a if r[0] != q.source]
    assert checks.check_suggestions(q, a, 10) != []


def test_lookup_rejects_source_at_worse_tier(lookup):
    q, a = _pick(lookup, lambda q, a: q.source is not None and q.tier < 3)
    a = [(w, 3 if w == q.source else t, d) for w, t, d in a]
    a.sort(key=lambda r: (r[1], r[2], r[0]))
    assert checks.check_suggestions(q, a, 10) != []


def test_lookup_rejects_answer_to_unmatchable_query(lookup):
    q, a = _pick(lookup, lambda q, a: q.source is None)
    assert checks.check_suggestions(q, [("ለመ", 3, model.levenshtein(q.text, "ለመ"))], 10) != []


def test_lookup_rejects_over_limit(lookup):
    q, a = _pick(lookup, lambda q, a: len(a) > 3)
    assert checks.check_suggestions(q, a, 2) != []


def test_reloaded_index_must_answer_alike(lookup):
    _, answers = lookup
    assert checks.check_same_answers(answers, answers) == []
    changed = [list(a) for a in answers]
    changed[3] = changed[3][:-1] if changed[3] else [("ለ", 0, 1)]
    assert checks.check_same_answers(answers, changed) != []


# -- corpus-eval --------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    pairs = gen.corpus_shards(7, DATA, 4)[0]
    path = tmp_path_factory.mktemp("corpus") / "shard.tsv"
    path.write_text(gen.corpus_tsv(pairs), encoding="utf-8")
    configs = {False: EncoderConfig(), True: EncoderConfig(wy_as_vowels=True)}
    hits = {(p.canonical, p.variant, wy): matches(p.canonical, p.variant, cfg)
            for p in pairs if p.bundled for wy, cfg in configs.items()}
    records = {}
    for wy in (False, True):
        sink = io.StringIO()
        argv = ["evaluate", "--corpus", str(path), "--format", "jsonl"]
        code, err = call_cli(argv + (["--wy-vowels"] if wy else []), "", sink)
        assert code == 0, err
        records[wy] = json.loads(sink.getvalue())
    return pairs, hits, records


def test_evaluation_passes(corpus):
    pairs, hits, records = corpus
    assert any(p.bundled for p in pairs) and any(p.expect == "never" for p in pairs)
    for wy in (False, True):
        assert checks.check_evaluation(pairs, wy, records[wy], hits) == []


def _types(record, error_type):
    return next(row for row in record["types"] if row["type"] == error_type)


@pytest.mark.parametrize("corrupt", [
    "total", "control_matched", "equal_key_missed", "xfail", "config", "overall",
])
def test_evaluation_rejects(corpus, corrupt):
    pairs, hits, records = corpus
    record = json.loads(json.dumps(records[False]))
    if corrupt == "total":
        _types(record, 5)["total"] += 1
    elif corrupt == "control_matched":
        _types(record, 7)["matched"] += 1
    elif corrupt == "equal_key_missed":
        _types(record, 1)["matched"] -= 1
    elif corrupt == "xfail":
        record["expected_fail"]["total"] += 1
    elif corrupt == "config":
        record["config"]["wy_as_vowels"] = True
    elif corrupt == "overall":
        record["overall"]["matched"] += 1
    assert checks.check_evaluation(pairs, False, record, hits) != []


def test_generated_labels_hold_in_the_model():
    """Types 1, 5 and 6 keep the key; 2, 4, 9 and controls change one site."""
    pairs = [p for p in gen.corpus_shards(8, DATA, 2)[1] if not p.bundled]
    for p in pairs:
        same = [model.canonical_key(p.canonical, wy) == model.canonical_key(p.variant, wy)
                for wy in (False, True)]
        assert all(same) == (p.error_type in (1, 5, 6)), p
