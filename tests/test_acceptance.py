"""Acceptance suite: the six headline guarantees, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one
"ACCEPTANCE <name>: PASS" line per criterion.
"""

import itertools
import random
import statistics
import time

from amharic_metaphone.encoder import EncoderConfig, Tier, encode, remove_vowels, simplify
from amharic_metaphone.ethiopic import SADIS, SUPPORTED, data_dir
from amharic_metaphone.evaluate import evaluate, load_corpus, matches
from amharic_metaphone.lexicon import Lexicon, build_index, distance, suggest
from oracle import compose, decompose

WY = EncoderConfig(wy_as_vowels=True)


def test_worked_example_pipeline():
    result = encode("ዓለምፀሐይ")
    assert result.canonical == "አልምጽህይ"
    assert [(e.key, int(e.tier)) for e in result] == [
        ("አልምጽህይ", 0),
        ("አልምስህይ", 3),
    ]

    timings = []
    for _ in range(200):
        start = time.perf_counter()
        encode("ዓለምፀሐይ")
        timings.append(time.perf_counter() - start)
    median_ms = statistics.median(timings) * 1000
    assert median_ms < 1.0, f"median encode took {median_ms:.3f} ms"
    print(f"\nACCEPTANCE worked-example-pipeline: PASS ({median_ms:.3f} ms median)")


def test_equivalence_classes():
    spellings = [
        f"{a}ለም{ts}{h}ይ"
        for a, ts, h in itertools.product("ዓዐአ", "ፀጸ", "ሐሃሀ")
    ]
    assert len(spellings) == 18
    keys = {encode(s).canonical for s in spellings}
    assert keys == {"አልምጽህይ"}

    morning = ["ጡዋት", "ጥዋት", "ጠዋት", "ጧት"]
    assert {encode(s).canonical for s in morning} == {"ጥውት"}
    print("\nACCEPTANCE equivalence-classes: PASS (18 + 4 spellings, one key each)")


def test_adjusted_step_five():
    assert encode("ጧት").key_set() == {"ጥውት", "ትውት"}
    assert encode("ወምበር").key_set() == {"ውምብር", "ውንብር"}

    left = {e.key: e.tier for e in encode("ፕሬዚዳንት")}
    right = {e.key: e.tier for e in encode("ኘሬዚዳንት")}
    shared = set(left) & set(right)
    assert shared == {"ፕርዝድንት", "ኝርዝድንት", "ንርዝድንት"}
    assert left["ኝርዝድንት"] == Tier.GLYPH and right["ኝርዝድንት"] == Tier.CANONICAL
    assert left["ንርዝድንት"] == Tier.INPUT_METHOD
    assert right["ንርዝድንት"] == Tier.INPUT_METHOD
    print("\nACCEPTANCE adjusted-step-five: PASS")


def test_forty_nine_permutations():
    strings = {
        compose("ለ", lo) + compose("መ", mo)
        for lo in range(1, 8)
        for mo in range(1, 8)
    }
    assert len(strings) == 49
    assert {encode(s).canonical for s in strings} == {"ልም"}

    lexicon = Lexicon(words=frozenset({"ላም", "ሎሚ", "ጤና", "ወንበር"}))
    results = suggest("ሊም", build_index(lexicon))
    assert {s.word for s in results} >= {"ላም", "ሎሚ"}
    print("\nACCEPTANCE forty-nine-permutations: PASS")


def test_corpus_rates():
    corpus = load_corpus(data_dir() / "corpus.tsv")
    start = time.perf_counter()
    default_report = evaluate(corpus)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"evaluation took {elapsed:.2f} s"

    assert default_report.overall.rate >= 0.85

    wy_report = evaluate(corpus, WY)
    assert wy_report.overall.matched >= default_report.overall.matched
    default_config = EncoderConfig()
    for entry in corpus:
        if matches(entry.canonical, entry.variant, default_config):
            assert matches(entry.canonical, entry.variant, WY)

    assert not matches("ዓፄ", "ዓጤ")
    type7 = [e for e in corpus if e.error_type == 7]
    assert any(
        e.canonical == "ዓፄ" and e.variant == "ዓጤ"
        and not matches(e.canonical, e.variant)
        for e in type7
    )
    print(
        f"\nACCEPTANCE corpus-rates: PASS "
        f"(default {default_report.overall.rate:.3f}, "
        f"wy {wy_report.overall.rate:.3f}, {elapsed * 1000:.0f} ms)"
    )


def test_property_suites():
    rng = random.Random(20260816)
    supported = sorted(SUPPORTED)

    # decompose/compose round-trip over the entire supported range
    for ch in supported:
        info = decompose(ch)
        assert compose(info.family, info.order) == ch

    words = ["".join(rng.choices(supported, k=rng.randint(1, 6))) for _ in range(300)]

    no_profile = EncoderConfig(profile=None, max_encodings=64)
    roomy = EncoderConfig(max_encodings=64)
    for word in words:
        result = encode(word)
        # determinism
        assert encode(word) == result
        for entry in result:
            # closure: keys stay inside the key alphabet
            for pos, ch in enumerate(entry.key):
                if ch == "አ":
                    assert pos == 0
                else:
                    assert decompose(ch).order == SADIS
            # idempotence on keys
            assert remove_vowels(simplify(entry.key)) == entry.key
            assert encode(entry.key).canonical == entry.key
        # tier monotonicity when toggling the mistrike profile
        kept = [(e.key, e.tier) for e in encode(word, roomy) if e.tier != Tier.INPUT_METHOD]
        assert [(e.key, e.tier) for e in encode(word, no_profile)] == kept

    # metric properties on 1,000 random short-string triples
    alphabet = supported + list("abc")
    for _ in range(1000):
        a, b, c = (
            "".join(rng.choices(alphabet, k=rng.randint(0, 7))) for _ in range(3)
        )
        d_ab = distance(a, b)
        assert d_ab == distance(b, a) >= 0
        assert (d_ab == 0) == (a == b)
        assert d_ab <= distance(a, c) + distance(c, b)
    print("\nACCEPTANCE property-suites: PASS")
