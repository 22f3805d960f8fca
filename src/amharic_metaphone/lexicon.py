"""Encoding-indexed dictionary lookup.

A lexicon is indexed by every key its words encode to; a lookup encodes
the query the same way and unions the hits. Ranking is by match tier
(how speculative the shared key is), then edit distance, then the word
itself.
"""

from __future__ import annotations

import os
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from . import ethiopic
from .encoder import (
    EncoderConfig,
    Tier,
    _canonical,
    _default_config,
    _unique_keys,
    encode,
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

_INDEX_MAGIC = "# amharic-metaphone-index v1"
_NO_FINGERPRINT = "expected: # fingerprint <hex>"
# The tier tokens dump_index writes. int() would also take "٣", " 1" or "+0".
_TIERS = {str(int(tier)): tier for tier in Tier}


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
    peq: dict[str, int] = {}
    bit = 1
    for ch in query:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
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

    Words are NFC-normalized. A line holding a character outside
    ethiopic.SUPPORTED is a LoadError naming the line.
    """
    path = Path(path)
    text = ethiopic._read_text(path, "lexicon")
    words: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = unicodedata.normalize("NFC", line)
        if not ethiopic.SUPPORTED.issuperset(word):
            raise ethiopic._unencodable(word, path, lineno)
        words.add(word)
    return Lexicon(words=frozenset(words))


def build_index(lexicon: Lexicon, config: EncoderConfig | None = None) -> EncodingIndex:
    """Index every lexicon word under all keys it encodes to."""
    config = config or _default_config()
    index = EncodingIndex(fingerprint=config.fingerprint)
    for word in sorted(lexicon.words):
        for entry in encode(word, config):
            index.add(entry.key, word, entry.tier)
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
            "index was built under a different encoder config; rebuild it"
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

    The lines go to a new file beside the target, which then replaces
    the target in one step: a write that fails leaves any previous dump
    as it was and removes its own partial file. An OSError names the
    target path.
    """
    path = Path(path)
    lines = [_INDEX_MAGIC, f"# fingerprint {index.fingerprint}"]
    for key in sorted(index.mapping):
        bucket = index.mapping[key]
        for word in sorted(bucket):
            lines.append(f"{key}\t{word}\t{int(bucket[word])}")
    partial = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(partial, "x", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(partial, path)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            # Name the target, not the partial file beside it.
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def load_index(path: Path | str) -> EncodingIndex:
    """Reload a dump_index() file without re-encoding the lexicon.

    A word holding a character outside ethiopic.SUPPORTED is a LoadError
    naming the line, as in load_lexicon().
    """
    path = Path(path)
    lines = ethiopic._read_text(path, "index").splitlines()
    if not lines or lines[0].strip() != _INDEX_MAGIC:
        raise LoadError("not an index dump (bad header)", path=path, line=1)
    # Without its fingerprint a dump could not be checked against the
    # query's config, so a missing or empty one is a malformed file.
    fields = lines[1].split() if len(lines) > 1 else []
    if len(fields) != 3 or fields[:2] != ["#", "fingerprint"]:
        raise LoadError(_NO_FINGERPRINT, path=path, line=2)
    index = EncodingIndex(fingerprint=fields[2])
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise LoadError("expected key<TAB>word<TAB>tier", path=path, line=lineno)
        key, word, tier_token = parts
        if not key or not word:
            raise LoadError(f"empty {'word' if key else 'key'}", path=path, line=lineno)
        if not ethiopic.SUPPORTED.issuperset(word):
            raise ethiopic._unencodable(word, path, lineno)
        tier = _TIERS.get(tier_token)
        if tier is None:
            raise LoadError(f"bad tier {tier_token!r}", path=path, line=lineno)
        index.add(key, word, tier)
    return index
