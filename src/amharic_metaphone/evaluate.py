"""Match-rate evaluation over a misspelling corpus.

The corpus is a TSV of (canonical spelling, observed variant, error
type 1-9). Two spellings match when their encoding sets share a key.
Rows flagged expected_fail hold variants built on a different stem;
they are reported in their own bucket and stay out of the headline rate.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

from . import ethiopic
from .encoder import EncoderConfig, _canonical, _default_config, _unique_keys
from .errors import EmptyCorpusError, LoadError

__all__ = [
    "ERROR_TYPE_LABELS",
    "CorpusEntry",
    "TypeStats",
    "EvalReport",
    "load_corpus",
    "matches",
    "evaluate",
]

# Short labels for the nine error categories the corpus distinguishes.
ERROR_TYPE_LABELS = {
    1: "redundant homophones",
    2: "glyph misreading",
    3: "archaic respelling",
    4: "nasal assimilation",
    5: "vowel elision",
    6: "labiovelar spelling",
    7: "dialect shift",
    8: "loanword transcription",
    9: "keyboard mistrike",
}


@dataclass(frozen=True)
class CorpusEntry:
    canonical: str
    variant: str
    error_type: int
    expected_fail: bool = False


@dataclass(frozen=True)
class TypeStats:
    total: int
    matched: int

    @property
    def rate(self) -> float:
        return self.matched / self.total if self.total else 0.0


@dataclass
class EvalReport:
    per_type: dict[int, TypeStats]
    expected_fail: TypeStats
    overall: TypeStats
    wy_as_vowels: bool = False
    profile_enabled: bool = True
    missing_from_lexicon: tuple[str, ...] = field(default_factory=tuple)

    def as_text(self) -> str:
        width = max(len(label) for label in ERROR_TYPE_LABELS.values())
        lines = [f"{'type':<6}{'label':<{width + 2}}{'total':>7}{'matched':>9}{'rate':>8}"]
        for error_type in sorted(self.per_type):
            stats = self.per_type[error_type]
            label = ERROR_TYPE_LABELS.get(error_type, "")
            lines.append(
                f"{error_type:<6}{label:<{width + 2}}{stats.total:>7}"
                f"{stats.matched:>9}{stats.rate:>8.3f}"
            )
        lines.append(
            f"{'all':<6}{'':<{width + 2}}{self.overall.total:>7}"
            f"{self.overall.matched:>9}{self.overall.rate:>8.3f}"
        )
        if self.expected_fail.total:
            lines.append(
                f"{'xfail':<6}{'different stem':<{width + 2}}"
                f"{self.expected_fail.total:>7}{self.expected_fail.matched:>9}"
                f"{'-':>8}"
            )
        lines.append(
            f"config: wy_as_vowels={'on' if self.wy_as_vowels else 'off'} "
            f"mistrike_profile={'on' if self.profile_enabled else 'off'}"
        )
        if self.missing_from_lexicon:
            lines.append(
                "note: canonicals absent from lexicon: "
                + " ".join(self.missing_from_lexicon)
            )
        return "\n".join(lines)


def load_corpus(path: Path | str) -> list[CorpusEntry]:
    """Read corpus rows: canonical TAB variant TAB type [TAB expected_fail].

    A word holding a character outside ethiopic.SUPPORTED is a LoadError
    naming the line.
    """
    path = Path(path)
    text = ethiopic._read_text(path, "corpus")
    entries: list[CorpusEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise LoadError(
                "expected canonical<TAB>variant<TAB>type[<TAB>expected_fail]",
                path=path,
                line=lineno,
            )
        canonical = unicodedata.normalize("NFC", parts[0].strip())
        variant = unicodedata.normalize("NFC", parts[1].strip())
        try:
            error_type = int(parts[2])
        except ValueError:
            raise LoadError(f"bad error type {parts[2]!r}", path=path, line=lineno)
        if not 1 <= error_type <= 9:
            raise LoadError(f"error type {error_type} out of range 1-9",
                            path=path, line=lineno)
        expected_fail = False
        if len(parts) == 4:
            if parts[3].strip() != "expected_fail":
                raise LoadError(f"bad annotation {parts[3]!r}", path=path, line=lineno)
            expected_fail = True
        for word in (canonical, variant):
            if not word:
                raise LoadError("empty word", path=path, line=lineno)
            if not ethiopic.SUPPORTED.issuperset(word):
                raise ethiopic._unencodable(word, path, lineno, noun="")
        entries.append(CorpusEntry(canonical, variant, error_type, expected_fail))
    return entries


def matches(canonical: str, variant: str, config: EncoderConfig | None = None) -> bool:
    """True when the two spellings share a key among each side's first
    max_encodings keys, the keys encode() returns for each.

    Equal canonical keys match without staging any alternate. Otherwise
    the two key walks are read in turn, one key each, up to the first
    key one side yields that the other has already yielded.
    """
    config = config or _default_config()
    key_a = _canonical(canonical, config)
    key_b = _canonical(variant, config)
    if key_a == key_b:
        return True
    seen_a: set[str] = set()
    seen_b: set[str] = set()
    # An ended walk reads as "", which is no key; zip_longest stops when
    # both have ended, so "" never meets "".
    walks = _unique_keys(key_a, config), _unique_keys(key_b, config)
    for (a, _), (b, _) in zip_longest(*walks, fillvalue=("", 0)):
        seen_a.add(a)
        if a in seen_b or b in seen_a:
            return True
        seen_b.add(b)
    return False


def evaluate(
    corpus: list[CorpusEntry],
    config: EncoderConfig | None = None,
    lexicon_words: frozenset[str] | None = None,
) -> EvalReport:
    """Fold match results into per-type and overall statistics."""
    if not corpus:
        raise EmptyCorpusError("corpus has no entries")
    config = config or _default_config()
    totals: dict[int, int] = {}
    matched: dict[int, int] = {}
    xfail_total = 0
    xfail_matched = 0
    for entry in corpus:
        hit = matches(entry.canonical, entry.variant, config)
        if entry.expected_fail:
            xfail_total += 1
            xfail_matched += hit
            continue
        totals[entry.error_type] = totals.get(entry.error_type, 0) + 1
        matched[entry.error_type] = matched.get(entry.error_type, 0) + hit
    per_type = {
        error_type: TypeStats(totals[error_type], matched[error_type])
        for error_type in totals
    }
    overall = TypeStats(sum(totals.values()), sum(matched.values()))
    missing: tuple[str, ...] = ()
    if lexicon_words is not None:
        seen = sorted({e.canonical for e in corpus})
        missing = tuple(w for w in seen if w not in lexicon_words)
    return EvalReport(
        per_type=per_type,
        expected_fail=TypeStats(xfail_total, xfail_matched),
        overall=overall,
        wy_as_vowels=config.wy_as_vowels,
        profile_enabled=config.profile is not None and bool(config.profile.pairs),
        missing_from_lexicon=missing,
    )
