"""Phonetic key encoding for Amharic words.

A word is reduced to a canonical sound key in two steps: homophone
simplification (simplify) and vowel removal (remove_vowels). Around the
canonical key the encoder grows a small prioritized set of alternates:

    tier 0  canonical        the key itself
    tier 1  phonological     nasal alternation ም/ን before ብ or ፍ
    tier 2  glyph            visually confusable key characters swapped
    tier 3  input method     every shifted consonant downgraded to the
                             plain key it shares on phonetic keyboards

Lower tiers are more trustworthy matches. Keys contain only sixth-order
(sadis) consonants, except a single leading አ marking a word-initial
vowel.

An EncoderConfig decides a key set: it holds the script tables, the
glyph pairs and the mistrike profile, and its fingerprint digests all
of them. Each takes only declared facts, checks them by the rules its
data file obeys, and derives the rest, so two configs with one
fingerprint key every word alike. No config changes which scalars are
supported: encode() accepts the fixed set ethiopic.SUPPORTED and takes
the canonical key from the per-scalar maps compiled into its tables
(ScriptTables.initial_keys and later_keys), one translate per word.
simplify() and remove_vowels() spell the two steps out character by
character; they are the readable reference the compiled maps are
tested against.

Glyph sites come from two partner maps a config builds once from its
glyph pairs, one for the first key position and one for the rest; the
pairs share no character, so a character has one partner at most. One
lazy walk, _unique_keys(), yields each new key with its tier in staging
order and stops at max_encodings. encode() and suggest() read it to the
end; matches() reads two words' walks in turn, one key each, and stops
at the first key they share.

A key set depends only on the canonical key and the config, so encode()
walks each consonant skeleton once per config: it keeps the EncodingSet
of every canonical key it has seen in a memo on the config, and every
word with that skeleton gets the same (frozen) set. The memo holds at
most _KEY_SET_CACHE sets, of canonical keys no longer than
_MEMO_KEY_SCALARS, and is emptied when full. suggest() and matches()
walk without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path
from typing import Iterator

from . import ethiopic
from .errors import (
    EmptyWordError,
    InvalidInputError,
    InvalidOrderError,
    LoadError,
)

__all__ = [
    "Tier",
    "Encoding",
    "EncodingSet",
    "MistrikeProfile",
    "GlyphPair",
    "EncoderConfig",
    "load_mistrike_profile",
    "load_glyph_pairs",
    "default_mistrike_profile",
    "default_glyph_pairs",
    "simplify",
    "remove_vowels",
    "lcd_mistrike",
    "encode",
]

_ALEF = "አ"  # አ
_WAW = "ው"   # ው
_YOD = "ይ"   # ይ

# Nasal alternation: ም and ን trade places before these consonants.
_NASAL_SWAP = {"ም": "ን", "ን": "ም"}
_NASAL_TRIGGERS = frozenset({"ብ", "ፍ"})

# Deletes ው and ይ: the wy_as_vowels filter, for str.translate.
_WY_DELETE = {ord(_WAW): None, ord(_YOD): None}

# The fingerprint's ʷ-series part. No config can change the series, but
# saved index dumps store fingerprints, and the digest keeps this part so
# that every fingerprint stays byte-identical.
_LABIOVELAR_PART = "labiovelar=" + ",".join(
    f"{chr(first + offset)}{family}{order}"
    for first, family in ethiopic._SERIES_BLOCKS
    for offset, order in ethiopic._SERIES_COLUMNS
)

# Entries in a config's memo of encode() results; emptied when full.
_KEY_SET_CACHE = 4096
# Longest canonical key, in scalars, whose result the memo keeps, so the
# memo's size is bounded in scalars too. Words in running text are far
# shorter; a longer key is walked on every call.
_MEMO_KEY_SCALARS = 32


class Tier(IntEnum):
    """Confidence rank of a key; lower is closer to the written word."""

    CANONICAL = 0
    PHONOLOGICAL = 1
    GLYPH = 2
    INPUT_METHOD = 3


# The swap stages of the key walk: (tier, whether its sites are glyph
# sites). Looked up once, as reading a Tier member is slow on 3.11.
_SWAP_STAGES = ((Tier.PHONOLOGICAL, False), (Tier.GLYPH, True))


@dataclass(frozen=True)
class Encoding:
    key: str
    tier: Tier


@dataclass(frozen=True)
class EncodingSet:
    """Prioritized, deduplicated encodings of one word.

    The first entry is always the canonical key and tiers never decrease
    along the sequence.
    """

    encodings: tuple[Encoding, ...]

    def __iter__(self) -> Iterator[Encoding]:
        return iter(self.encodings)

    def __len__(self) -> int:
        return len(self.encodings)

    @property
    def canonical(self) -> str:
        return self.encodings[0].key

    def keys(self) -> tuple[str, ...]:
        return tuple(e.key for e in self.encodings)

    def key_set(self) -> frozenset[str]:
        return frozenset(e.key for e in self.encodings)


@dataclass(frozen=True)
class MistrikeProfile:
    """Shifted/plain consonant pairs of an input method.

    pairs holds (shifted, plain) family heads as written (first-order
    forms), and no family is shifted in two pairs; otherwise ValueError
    with the loader's text. sadis_pairs is derived from it: the same
    mapping in key alphabet. The downgrade runs in the shifted-to-plain
    direction only: typing the shifted form requires deliberate effort,
    mistyping it does not.
    """

    pairs: tuple[tuple[str, str], ...]
    sadis_pairs: tuple[tuple[str, str], ...] = field(init=False)
    _key_table: dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shifted: set[str] = set()
        for pair in self.pairs:
            _add_mistrike_pair(pair, shifted)
        sadis_of = ethiopic._SADIS_FORM
        sadis_pairs = tuple((sadis_of[a], sadis_of[b]) for a, b in self.pairs)
        object.__setattr__(self, "sadis_pairs", sadis_pairs)
        object.__setattr__(self, "_key_table", {ord(a): b for a, b in sadis_pairs})

    def key_table(self) -> dict[int, str]:
        """The shifted-to-plain map in key alphabet, for str.translate."""
        return self._key_table


@dataclass(frozen=True)
class GlyphPair:
    """Two key characters whose letterforms are routinely confused."""

    a: str
    b: str
    anywhere: bool  # False: applies at word-initial position only

    def partner(self, ch: str) -> str | None:
        if ch == self.a:
            return self.b
        if ch == self.b:
            return self.a
        return None


# The rules a rule file's records obey. Each raises ValueError with the
# text its loader reports; the loader adds the file and line, and
# MistrikeProfile and EncoderConfig run the same checks over their fields.

def _add_mistrike_pair(pair: tuple[str, str], shifted: set[str]) -> None:
    """Check a (shifted, plain) pair against the families shifted so far.

    Both must be first-order family forms, and the shifted family must
    be new; it is then added to shifted.
    """
    for family in pair:
        ethiopic._family(family)
    if pair[0] in shifted:
        raise ValueError(f"family {pair[0]!r} shifted in more than one pair")
    shifted.add(pair[0])


def _add_glyph_pair(pair: GlyphPair, used: set[str]) -> None:
    """Check a glyph pair against the characters used so far.

    Both characters must be sadis forms that no earlier pair holds;
    they are then added to used.
    """
    for ch in (pair.a, pair.b):
        if ch not in ethiopic._SADIS_FORM.values():
            raise ValueError(f"{ch!r} is not a sadis-order key character")
        if ch in used:
            raise ValueError(f"{ch!r} appears in more than one pair")
        used.add(ch)


def load_mistrike_profile(path: Path | str) -> MistrikeProfile:
    """Load a [mistrike-pairs] file of (shifted, plain) family pairs."""
    path = Path(path)
    pairs: list[tuple[str, str]] = []
    shifted: set[str] = set()
    try:
        for lineno, _, tokens in ethiopic._records(path, ("mistrike-pairs",)):
            if len(tokens) != 2:
                raise LoadError("expected: <shifted family> <plain family>",
                                path=path, line=lineno)
            pair = (tokens[0], tokens[1])
            _add_mistrike_pair(pair, shifted)
            pairs.append(pair)
    except ValueError as exc:
        raise LoadError(str(exc), path=path, line=lineno) from None
    return MistrikeProfile(pairs=tuple(pairs))


def load_glyph_pairs(path: Path | str) -> tuple[GlyphPair, ...]:
    """Load a [glyph-pairs] file of confusable key characters."""
    path = Path(path)
    pairs: list[GlyphPair] = []
    used: set[str] = set()
    try:
        for lineno, _, tokens in ethiopic._records(path, ("glyph-pairs",)):
            if len(tokens) != 3 or tokens[2] not in ("initial", "any"):
                raise LoadError("expected: <char> <char> initial|any",
                                path=path, line=lineno)
            pair = GlyphPair(a=tokens[0], b=tokens[1], anywhere=tokens[2] == "any")
            _add_glyph_pair(pair, used)
            pairs.append(pair)
    except ValueError as exc:
        raise LoadError(str(exc), path=path, line=lineno) from None
    return tuple(pairs)


def default_mistrike_profile() -> MistrikeProfile:
    """The bundled phonetic-keyboard profile, read once per data directory."""
    return _default_config().profile


def default_glyph_pairs() -> tuple[GlyphPair, ...]:
    """The bundled glyph-confusion table, read once per data directory."""
    return _default_config().glyph_pairs


@dataclass(frozen=True)
class EncoderConfig:
    """Everything that decides the key set of a word.

    wy_as_vowels treats non-initial ው and ይ as vowels and drops them
    from keys. profile=None disables input-method alternates entirely,
    the right call when the writer's keyboard layout is unknown.
    max_encodings caps the set size; the canonical key is never evicted.
    glyph_pairs hold sadis forms only and share no character; otherwise
    ValueError with the loader's text. tables build the canonical key.
    Defaults are read from the data directory when the config is built
    and stay with it; tables compare by identity.
    """

    wy_as_vowels: bool = False
    profile: MistrikeProfile | None = field(default_factory=default_mistrike_profile)
    glyph_pairs: tuple[GlyphPair, ...] = field(default_factory=default_glyph_pairs)
    max_encodings: int = 16
    tables: ethiopic.ScriptTables = field(default_factory=ethiopic.default_tables)

    def __post_init__(self):
        if self.max_encodings < 1:
            raise ValueError("max_encodings must be at least 1")
        used: set[str] = set()
        for pair in self.glyph_pairs:
            _add_glyph_pair(pair, used)

    @cached_property
    def _glyph_partners(self) -> tuple[dict[str, str], dict[str, str]]:
        """Key character -> glyph partner at position 0, and after it.

        The pairs share no character, so each character has one partner
        at most.
        """
        initial: dict[str, str] = {}
        later: dict[str, str] = {}
        for pair in self.glyph_pairs:
            for ch, partner in ((pair.a, pair.b), (pair.b, pair.a)):
                initial[ch] = partner
                if pair.anywhere:
                    later[ch] = partner
        return initial, later

    @cached_property
    def _key_sets(self) -> dict[str, EncodingSet]:
        """encode()'s memo: canonical key -> its EncodingSet.

        It holds at most _KEY_SET_CACHE sets, each of a key no longer
        than _MEMO_KEY_SCALARS, and is emptied when full. Like the other
        cached properties it stays out of equality, hashing, repr and
        the fingerprint, and it refers to nothing that refers back to
        the config.
        """
        return {}

    @cached_property
    def fingerprint(self) -> str:
        """Stable digest of everything that shapes key sets.

        Indexes store this so a query under a different config is
        rejected instead of silently missing. It depends on the tables'
        contents, not on which object holds them.
        """
        # Imported here: encode and evaluate never read the fingerprint,
        # and hashlib loads libcrypto.
        import hashlib

        tables = self.tables
        parts = [
            f"wy={int(self.wy_as_vowels)}",
            f"max={self.max_encodings}",
            "profile=" + (
                "none"
                if self.profile is None
                else ",".join(a + b for a, b in self.profile.pairs)
            ),
            "glyph=" + ",".join(
                p.a + p.b + ("*" if p.anywhere else "^") for p in self.glyph_pairs
            ),
            "classes=" + ",".join(
                m + h for m, h in sorted(tables.representative.items())
            ),
            "carriers=" + "".join(sorted(tables.vowel_carriers)),
            _LABIOVELAR_PART,
        ]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=None)
def _config_in(directory: Path) -> EncoderConfig:
    """The directory's tables, then its profile and glyph pairs."""
    tables = ethiopic._tables_in(directory)
    return EncoderConfig(
        profile=load_mistrike_profile(directory / "mistrike_profile.txt"),
        glyph_pairs=load_glyph_pairs(directory / "glyph_pairs.txt"),
        tables=tables,
    )


def _default_config() -> EncoderConfig:
    """EncoderConfig(), built once per data directory."""
    return _config_in(ethiopic.data_dir())


def simplify(word: str, tables: ethiopic.ScriptTables | None = None) -> str:
    """Collapse every character onto its homophone-class head.

    Vowel carriers of any order become bare አ. If the head family has no
    member at the source character's column (only the rare ʷ columns),
    the original character is kept so the labiovelar subkind survives;
    remove_vowels resolves the family then.
    """
    tables = tables or ethiopic.default_tables()
    out: list[str] = []
    for pos, ch in enumerate(word):
        info = ethiopic.decompose(ch)
        if info is None:
            raise InvalidInputError(ch, pos, word)
        family = tables.representative_of(info.family)
        if family in tables.vowel_carriers:
            out.append(_ALEF)
            continue
        try:
            out.append(ethiopic.compose(family, info.order))
        except InvalidOrderError:
            out.append(ch)
    return "".join(out)


def remove_vowels(word: str, config: EncoderConfig | None = None) -> str:
    """Reduce a simplified word to its consonant key with config.tables.

    Non-initial vowel carriers are dropped; a word-initial carrier stays
    as a leading አ. Everything else becomes its family's sadis form,
    with fourth-order labiovelars (Cʷa) expanding to [sadis, ው] and the
    remaining ʷ-vowels collapsing to the bare sadis. With wy_as_vowels
    set, non-initial ው and ይ are dropped from the finished key no matter
    which rule emitted them, so equal default keys stay equal. Without
    a config the default tables are read and ው and ይ are kept.
    """
    tables = config.tables if config is not None else ethiopic.default_tables()
    wy = config.wy_as_vowels if config is not None else False
    out: list[str] = []
    for pos, ch in enumerate(word):
        info = ethiopic.decompose(ch)
        if info is None:
            raise InvalidInputError(ch, pos, word)
        family = tables.representative_of(info.family)
        if family in tables.vowel_carriers:
            if pos == 0:
                out.append(_ALEF)
            continue
        out.append(ethiopic.compose(family, ethiopic.SADIS))
        if info.order == ethiopic.WA:
            out.append(_WAW)
    if wy:
        out = out[:1] + [c for c in out[1:] if c != _WAW and c != _YOD]
    return "".join(out)


def _nasal_sites(key: str) -> list[tuple[int, str]]:
    if _NASAL_SWAP.keys().isdisjoint(key):
        return []
    return [
        (i, _NASAL_SWAP[ch])
        for i, ch in enumerate(key[:-1])
        if ch in _NASAL_SWAP and key[i + 1] in _NASAL_TRIGGERS
    ]


def _glyph_sites(
    key: str, partners: tuple[dict[str, str], dict[str, str]]
) -> list[tuple[int, str]]:
    initial, later = partners
    if initial.keys().isdisjoint(key):
        return []
    sites = [(i, later[ch]) for i, ch in enumerate(key) if i and ch in later]
    if key[:1] in initial:
        sites.insert(0, (0, initial[key[0]]))
    return sites


def lcd_mistrike(key: str, profile: MistrikeProfile) -> str:
    """Downgrade every shifted consonant in the key to its plain partner.

    The output may equal the input when the key holds no shifted forms.
    """
    return key.translate(profile.key_table())


def encode(word: str, config: EncoderConfig | None = None) -> EncodingSet:
    """Encode a word into its prioritized key set.

    The word is checked and reduced to its canonical key first, so bad
    words raise before the memo is read. Words with the same canonical
    key of at most _MEMO_KEY_SCALARS scalars under one config get the
    same EncodingSet instance: the config keeps up to _KEY_SET_CACHE of
    them and empties the memo when full.
    """
    config = config or _default_config()
    canonical = _canonical(word, config)
    memo = config._key_sets
    found = memo.get(canonical)
    if found is None:
        # tuple() over a list, not a generator: a sized input is not
        # over-allocated, which keeps `encode --stdin` peak RSS flat.
        found = EncodingSet(encodings=tuple([
            Encoding(key=k, tier=t) for k, t in _unique_keys(canonical, config)
        ]))
        if len(canonical) <= _MEMO_KEY_SCALARS:
            if len(memo) >= _KEY_SET_CACHE:
                memo.clear()
            memo[canonical] = found
    return found


def _canonical(word: str, config: EncoderConfig) -> str:
    """remove_vowels(simplify(word)) through the tables' compiled maps."""
    if not word:
        raise EmptyWordError("cannot encode an empty word")
    supported = ethiopic.SUPPORTED
    if not supported.issuperset(word):
        pos = next(i for i, ch in enumerate(word) if ch not in supported)
        raise InvalidInputError(word[pos], pos, word)
    tables = config.tables
    key = tables.initial_keys[ord(word[0])] + word[1:].translate(tables.later_keys)
    if config.wy_as_vowels:
        key = key[:1] + key[1:].translate(_WY_DELETE)
    return key


def _unique_keys(canonical: str, config: EncoderConfig) -> Iterator[tuple[str, Tier]]:
    """Each new key in staging order with its tier, up to max_encodings.

    The order is the canonical key, its nasal combinations, then the
    glyph combinations and lastly the downgrade of each key taken so far.
    A combination swaps every site (position, partner) in it, smallest
    combinations first. Lazy, as combinations grow exponentially; only
    unique keys are downgraded, as a repeat downgrades to the same key.
    """
    cap = config.max_encodings
    tier = Tier.CANONICAL
    taken = {canonical: tier}
    yield canonical, tier
    if cap == 1:
        return
    partners = config._glyph_partners
    # Each stage reads the keys taken before it: the nasal stage reads
    # the canonical key alone.
    for tier, glyph in _SWAP_STAGES:
        for key in list(taken):
            sites = _glyph_sites(key, partners) if glyph else _nasal_sites(key)
            if not sites:
                continue
            chars = list(key)
            for r in range(1, len(sites) + 1):
                for combo in combinations(sites, r):
                    swapped = chars[:]
                    for i, partner in combo:
                        swapped[i] = partner
                    alt = "".join(swapped)
                    if alt not in taken:
                        taken[alt] = tier
                        yield alt, tier
                        if len(taken) == cap:
                            return
    if config.profile is not None:
        tier = Tier.INPUT_METHOD
        for key in list(taken):
            alt = lcd_mistrike(key, config.profile)
            if alt not in taken:
                taken[alt] = tier
                yield alt, tier
                if len(taken) == cap:
                    return
