"""Encoding-indexed dictionary lookup.

A lexicon is indexed by every key its words encode to; a lookup encodes
the query the same way and unions the hits. Ranking is by match tier
(how speculative the shared key is), then edit distance, then the word
itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from . import ethiopic
from .encoder import (
    _TIER_TEXT,
    EncoderConfig,
    Tier,
    _canonical,
    _default_config,
    _unique_keys,
)
from .errors import ConfigMismatchError, LoadError

__all__ = [
    "Lexicon",
    "EncodingIndex",
    "Suggestion",
    "distance",
    "load_lexicon",
    "build_index",
    "suggest",
    "dump_index",
    "load_index",
]

_INDEX_MAGIC = "# amharic-metaphone-index v2"
# Refused by name: v1 fingerprints digest the rules as written.
_V1_MAGIC = "# amharic-metaphone-index v1"
_NO_FINGERPRINT = "expected: # fingerprint <hex>"
# The tier tokens dump_index writes. int() would also take "٣", " 1" or "+0".
_TIERS = {text: tier for tier, text in _TIER_TEXT.items()}
# Queries longer than this, in scalars, get their bit masks from a
# bytearray per scalar: linear in the query's length, where OR-ing in
# one bit at a time is quadratic. On words the bitwise loop is about
# five times faster; the two cost the same between 2Ki and 4Ki scalars,
# the later the more distinct scalars a query holds.
_BYTEWISE_MASKS = 4096


def distance(a: str, b: str) -> int:
    """Levenshtein distance over Unicode scalars; the bit masks are built for ``a``."""
    return _distances(a, (b,))[0]


def _distances(query: str, words: Iterable[str]) -> list[int]:
    """Levenshtein distance from the query to each word, in order.

    Bit-parallel (Myers, JACM 1999, in Hyyrö's Levenshtein form, Nordic
    J. Computing 2003): bit i of a mask (a Python int, as wide as the
    query) stands for scalar i of the query, whatever the lengths, so the
    masks are built once for all the words. pv/mv hold the +1/-1 vertical
    deltas of the DP column that each scalar of a word advances.
    """
    if not query:
        return [len(word) for word in words]
    peq = _masks(query)
    last = 1 << (len(query) - 1)
    mask = (last << 1) - 1
    scores = []
    for word in words:
        pv, mv, score = mask, 0, len(query)
        for ch in word:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & last:
                score += 1
            elif mh & last:
                score -= 1
            # The top row of the DP grows by one per column: shift in a +1.
            ph = (ph << 1) | 1
            mh <<= 1
            pv = (mh | ~(xv | ph)) & mask
            mv = ph & xv
        scores.append(score)
    return scores


def _masks(query: str) -> dict[str, int]:
    """Each scalar of the query -> the mask with bit i set where query[i] is it."""
    if len(query) <= _BYTEWISE_MASKS:
        peq: dict[str, int] = {}
        bit = 1
        for ch in query:
            peq[ch] = peq.get(ch, 0) | bit
            bit <<= 1
        return peq
    positions: dict[str, list[int]] = {}
    for i, ch in enumerate(query):
        positions.setdefault(ch, []).append(i)
    size = (len(query) + 7) >> 3
    peq = {}
    for ch, where in positions.items():
        buf = bytearray(size)
        for i in where:
            buf[i >> 3] |= 1 << (i & 7)
        peq[ch] = int.from_bytes(buf, "little")
    return peq


@dataclass(frozen=True)
class Lexicon:
    """A set of known-good words."""

    words: frozenset[str]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __iter__(self):
        return iter(sorted(self.words))


@dataclass(frozen=True)
class Suggestion:
    word: str
    match_tier: Tier
    distance: int


@dataclass
class EncodingIndex:
    """Inverted index: key -> {word: best tier that produced the key}.

    fingerprint is the fingerprint of the config that built the keys:
    one token without whitespace, as a dump's second line holds it, or
    ValueError with load_index's text. suggest() compares it with the
    query's config.
    """

    mapping: dict[str, dict[str, Tier]] = field(default_factory=dict)
    fingerprint: str = field(default="", kw_only=True)

    def __post_init__(self):
        if self.fingerprint.split() != [self.fingerprint]:
            raise ValueError(_NO_FINGERPRINT)

    def __len__(self) -> int:
        return len(self.mapping)

    def add(self, key: str, word: str, tier: Tier) -> None:
        bucket = self.mapping.setdefault(key, {})
        current = bucket.get(word)
        if current is None or tier < current:
            bucket[word] = tier

    def lookup(self, key: str) -> Mapping[str, Tier]:
        return self.mapping.get(key, {})


def load_lexicon(path: Path | str) -> Lexicon:
    """Read one word per line; '#' comments and blank lines are skipped.

    A line holding a scalar outside ethiopic.SUPPORTED is a LoadError
    naming the line.
    """
    path = Path(path)

    # A generator, so frozenset() builds the one table the Lexicon keeps.
    def words() -> Iterator[str]:
        for lineno, raw in ethiopic._read_lines(path, "lexicon"):
            word = raw.split("#", 1)[0].strip()
            if not word:
                continue
            if not ethiopic.SUPPORTED.issuperset(word):
                raise LoadError(str(ethiopic._unsupported(word)), path=path, line=lineno)
            yield word

    return Lexicon(words=frozenset(words()))


def build_index(lexicon: Lexicon, config: EncoderConfig | None = None) -> EncodingIndex:
    """Index every lexicon word under all keys it encodes to.

    The index equals one built by adding each word's encode() entries,
    words in sorted order (so a bad word raises as there). A key set
    depends only on the canonical key, so the words are grouped by it
    and each group's keys are walked once; a walk yields each key once,
    so every (key, word) pair is set once, at its one tier.
    """
    config = config or _default_config()
    groups: dict[str, list[str]] = {}
    for word in sorted(lexicon.words):
        groups.setdefault(_canonical(word, config), []).append(word)
    index = EncodingIndex(fingerprint=config.fingerprint)
    for canonical, words in groups.items():
        for key, tier in _unique_keys(canonical, config):
            index.mapping.setdefault(key, {}).update(dict.fromkeys(words, tier))
    return index


def suggest(
    query: str,
    index: EncodingIndex,
    config: EncoderConfig | None = None,
    limit: int = 10,
) -> list[Suggestion]:
    """Ranked lexicon words sharing at least one key with the query.

    A candidate's match tier is the max of the query-side and
    lexicon-side tiers of the shared key (the weaker end of the bridge),
    minimized over all shared keys. Candidates are ranked by match tier,
    then edit distance to the query, then the word, and the first
    ``limit`` are returned.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    config = config or _default_config()
    if index.fingerprint != config.fingerprint:
        raise ConfigMismatchError(
            "index was built under a different encoder config (index "
            f"{index.fingerprint}, query {config.fingerprint}); rebuild it"
        )
    best: dict[str, Tier] = {}
    for key, query_tier in _unique_keys(_canonical(query, config), config):
        for word, word_tier in index.lookup(key).items():
            tier = max(query_tier, word_tier)
            current = best.get(word)
            if current is None or tier < current:
                best[word] = tier
    if not best:
        # Scoring no word would still build the query's bit masks, in
        # time quadratic in its length.
        return []
    # Words are unique, so plain tuples sort in the ranking order.
    ranked = sorted(zip(best.values(), _distances(query, best), best))
    return [Suggestion(word, tier, dist) for tier, dist, word in ranked[:limit]]


def dump_index(index: EncodingIndex, path: Path | str) -> None:
    """Write the index as sorted key/word/tier lines, reload-ready.

    After the two header lines, each key's lines go out in one write,
    so the dump is never held whole in memory. They go to a new file
    beside the target, which then replaces the target in one step: a
    write that fails leaves any previous dump as it was and removes its
    own partial file. An OSError names the target path.
    """
    path = Path(path)
    mapping = index.mapping
    partial = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(partial, "x", encoding="utf-8") as f:
            f.write(f"{_INDEX_MAGIC}\n# fingerprint {index.fingerprint}\n")
            for key in sorted(mapping):
                bucket = mapping[key]
                f.write("".join([f"{key}\t{word}\t{_TIER_TEXT[bucket[word]]}\n"
                                 for word in sorted(bucket)]))
        os.replace(partial, path)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            # Name the target, not the partial file beside it.
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def load_index(path: Path | str) -> EncodingIndex:
    """Reload a dump_index() file without re-encoding the lexicon.

    The file is read a block of lines at a time, so loading holds its
    text and the index, not a copy of every line. A word holding a
    scalar outside ethiopic.SUPPORTED is a LoadError naming the line,
    as in load_lexicon(). Each word is checked once, on its first line,
    and every line of that word shares one string.
    """
    path = Path(path)
    lines = ethiopic._read_lines(path, "index")
    header = next(lines, (1, ""))[1].strip()
    if header == _V1_MAGIC:
        raise LoadError("index dump format v1 is no longer read; rebuild it "
                        "with 'amharic-metaphone index'", path=path, line=1)
    if header != _INDEX_MAGIC:
        raise LoadError("not an index dump (bad header)", path=path, line=1)
    # Without its fingerprint a dump could not be checked against the
    # query's config, so a missing or empty one is a malformed file.
    fields = next(lines, (2, ""))[1].split()
    if len(fields) != 3 or fields[:2] != ["#", "fingerprint"]:
        raise LoadError(_NO_FINGERPRINT, path=path, line=2)
    index = EncodingIndex(fingerprint=fields[2])
    seen: dict[str, str] = {}
    for lineno, line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise LoadError("expected key<TAB>word<TAB>tier", path=path, line=lineno)
        key, word, tier_token = parts
        if not key or not word:
            raise LoadError(f"empty {'word' if key else 'key'}", path=path, line=lineno)
        shared = seen.get(word)
        if shared is None:
            if not ethiopic.SUPPORTED.issuperset(word):
                raise LoadError(str(ethiopic._unsupported(word)), path=path, line=lineno)
            seen[word] = shared = word
        tier = _TIERS.get(tier_token)
        if tier is None:
            raise LoadError(f"bad tier {tier_token!r}", path=path, line=lineno)
        index.add(key, shared, tier)
    return index
