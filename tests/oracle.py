"""The per-character reference for the paper's steps 1 and 2, and a
brute-force ranking for suggest().

The package runs homophone merge and vowel strip as per-scalar maps
compiled once per config. This module spells the same steps out one
character at a time, through the syllabary's (family, order) layout,
and the tests compare the maps against it. It reads only the layout,
ethiopic._BY_CHAR, and a config's declared fields: homophones,
vowel_carriers and wy_as_vowels. suggest() ranks a word list by the
definition, from each word's encode() entries and a plain Levenshtein
table, with no index.
"""

from __future__ import annotations

from dataclasses import dataclass

from amharic_metaphone import ethiopic
from amharic_metaphone.encoder import EncoderConfig, encode
from amharic_metaphone.errors import InvalidInputError

_ALEF = "አ"
_WAW = "ው"
_YOD = "ይ"

_BY_FAMILY = {slot: ch for ch, slot in ethiopic._BY_CHAR.items()}


class InvalidOrderError(ValueError):
    """No syllable exists for the requested (family, order) slot."""


@dataclass(frozen=True)
class SyllableInfo:
    """Decomposition of one syllable: family, vocalic order, source char."""

    family: str
    order: int
    char: str


def decompose(ch: str) -> SyllableInfo | None:
    """Split one character into (family, order), or None if unsupported."""
    if len(ch) != 1:
        raise ValueError(f"expected a single character, got {ch!r}")
    info = ethiopic._BY_CHAR.get(ch)
    if info is None:
        return None
    return SyllableInfo(family=info[0], order=info[1], char=ch)


def compose(family: str, order: int) -> str:
    """Return the syllable at (family, order); InvalidOrderError if empty."""
    ch = _BY_FAMILY.get((family, order))
    if ch is None:
        raise InvalidOrderError(f"family {family!r} has no member at order {order}")
    return ch


def _head(family: str, config: EncoderConfig) -> str:
    """family's homophone-class head: itself when it is in no class."""
    return dict(config.homophones).get(family, family)


def simplify(word: str, config: EncoderConfig | None = None) -> str:
    """Step 1: every character onto its class head at the same order.

    Vowel carriers become bare አ; a character whose head has no member
    at its order is kept.
    """
    config = config or EncoderConfig()
    out: list[str] = []
    for pos, ch in enumerate(word):
        info = decompose(ch)
        if info is None:
            raise InvalidInputError(ch, pos, word)
        family = _head(info.family, config)
        if family in config.vowel_carriers:
            out.append(_ALEF)
            continue
        try:
            out.append(compose(family, info.order))
        except InvalidOrderError:
            out.append(ch)
    return "".join(out)


def remove_vowels(word: str, config: EncoderConfig | None = None) -> str:
    """Step 2: every character to its head's sadis form.

    A word-initial carrier stays as አ and later ones are dropped; a
    fourth-order labiovelar adds ው. With wy_as_vowels, non-initial ው
    and ይ are dropped from the finished key.
    """
    config = config or EncoderConfig()
    out: list[str] = []
    for pos, ch in enumerate(word):
        info = decompose(ch)
        if info is None:
            raise InvalidInputError(ch, pos, word)
        family = _head(info.family, config)
        if family in config.vowel_carriers:
            if pos == 0:
                out.append(_ALEF)
            continue
        out.append(compose(family, ethiopic.SADIS))
        if info.order == ethiopic.WA:
            out.append(_WAW)
    if config.wy_as_vowels:
        out = out[:1] + [c for c in out[1:] if c != _WAW and c != _YOD]
    return "".join(out)


def levenshtein(a: str, b: str) -> int:
    """Edit distance by the dynamic-programming table, one row at a time."""
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        diagonal, row[0] = row[0], i
        for j, cb in enumerate(b, 1):
            diagonal, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1,
                                           diagonal + (ca != cb))
    return row[-1]


def suggest(query: str, words, config: EncoderConfig,
            limit: int) -> list[tuple[str, int, int]]:
    """The first limit (word, tier, distance) of the words sharing a key
    with the query, sorted by (tier, distance, word).

    A word's tier is the minimum, over the keys both encode to, of the
    higher of the query's and the word's tier of that key.
    """
    query_tiers = {e.key: e.tier for e in encode(query, config)}
    ranked = []
    for word in words:
        tiers = [max(query_tiers[e.key], e.tier)
                 for e in encode(word, config) if e.key in query_tiers]
        if tiers:
            ranked.append((min(tiers), levenshtein(query, word), word))
    ranked.sort()
    return [(word, tier, dist) for tier, dist, word in ranked[:limit]]
