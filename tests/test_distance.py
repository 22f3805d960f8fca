"""Tests for the edit-distance kernel.

The hypothesis suites compare the bit-parallel kernel against a tiny
recursive definition of Levenshtein distance, which is slow but
obviously correct.
"""

from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amharic_metaphone.lexicon import distance


def reference(a: str, b: str) -> int:
    @cache
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


CASES = [
    ("", "", 0),
    ("", "ል", 1),
    ("ል", "", 1),
    ("ልም", "ልም", 0),
    ("ልም", "ልሚ", 1),
    ("ሊም", "ላም", 1),
    ("ሊም", "ሎሚ", 2),
    ("ጧት", "ጠዋት", 2),
    ("ጥውት", "ጥዋት", 1),
    ("kitten", "sitting", 3),
    ("saturday", "sunday", 3),
    ("abc", "cba", 2),
    ("ሀሁሂ", "ሂሁሀ", 2),
    ("አልምጽህይ", "አልምስህይ", 1),
]


@pytest.mark.parametrize("a, b, expected", CASES)
def test_known_distances(a, b, expected):
    assert distance(a, b) == expected


# Astral scalars must count as one symbol each. Strings past 64 scalars
# need more than one machine word of bitmask, and runs of one scalar
# give a mask with many bits set.
scalars = st.sampled_from("ልምንብትሀአab\U0001F600\U0001F601")
strings = st.one_of(
    st.text(alphabet=scalars, max_size=7),
    st.text(alphabet=scalars, min_size=60, max_size=130),
    st.lists(st.tuples(scalars, st.integers(1, 40)), max_size=5).map(
        lambda runs: "".join(ch * n for ch, n in runs)
    ),
)


@given(a=strings, b=strings)
def test_pure_matches_reference(a, b):
    assert distance(a, b) == reference(a, b)


@given(a=strings, b=strings, c=strings)
def test_metric_properties(a, b, c):
    d_ab = distance(a, b)
    assert d_ab >= 0
    assert (d_ab == 0) == (a == b)
    assert d_ab == distance(b, a)
    assert d_ab <= distance(a, c) + distance(c, b)


@given(a=strings, b=strings)
def test_bounds(a, b):
    d = distance(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


def test_supplementary_plane_characters():
    assert distance("\U0001F600", "\U0001F601") == 1
    assert distance("\U0001F600", "\U0001F600") == 0
    assert distance("a\U0001F600b", "ab") == 1
