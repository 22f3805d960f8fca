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
of them. encode() takes the canonical key from the per-scalar maps
compiled into its tables (ScriptTables.initial_keys and later_keys),
one translate per word. simplify() and remove_vowels() spell the two
steps out character by character; they are the readable reference the
compiled maps are tested against.

Glyph sites come from two partner maps a config builds once from its
glyph pairs, one for the first key position and one for the rest.
encode(), suggest() and matches() read one capped walk over the staged
keys; matches() stops it at the first key the two words share.

A key set depends only on the canonical key and the config, so encode()
walks each consonant skeleton once per config: it keeps the EncodingSet
of every canonical key it has seen in a memo on the config, and every
word with that skeleton gets the same (frozen) set. The memo holds at
most _KEY_SET_CACHE sets and is emptied when full. suggest() and
matches() walk without it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path
from typing import Container, Iterator

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

# Entries in a config's memo of encode() results; emptied when full.
_KEY_SET_CACHE = 4096


class Tier(IntEnum):
    """Confidence rank of a key; lower is closer to the written word."""

    CANONICAL = 0
    PHONOLOGICAL = 1
    GLYPH = 2
    INPUT_METHOD = 3


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
    forms); sadis_pairs holds the same mapping in key alphabet. The
    downgrade runs in the shifted-to-plain direction only: typing the
    shifted form requires deliberate effort, mistyping it does not.
    """

    pairs: tuple[tuple[str, str], ...]
    sadis_pairs: tuple[tuple[str, str], ...]
    _key_table: dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_key_table", {ord(a): b for a, b in self.sadis_pairs}
        )

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


def load_mistrike_profile(
    path: Path | str, tables: ethiopic.ScriptTables | None = None
) -> MistrikeProfile:
    """Load a [mistrike-pairs] file of (shifted, plain) family pairs."""
    path = Path(path)
    tables = tables or ethiopic.default_tables()
    pairs: list[tuple[str, str]] = []
    sadis_pairs: list[tuple[str, str]] = []
    seen_shifted: set[str] = set()
    for lineno, section, tokens in ethiopic._records(path):
        if section != "mistrike-pairs":
            raise LoadError(f"unknown section {section!r}", path=path, line=lineno)
        if len(tokens) != 2:
            raise LoadError("expected: <shifted family> <plain family>",
                            path=path, line=lineno)
        shifted, plain = tokens
        for family in (shifted, plain):
            info = tables.by_char.get(family)
            if info is None or info[1] != 1:
                raise LoadError(f"{family!r} is not a first-order family form",
                                path=path, line=lineno)
        if shifted in seen_shifted:
            raise LoadError(f"family {shifted!r} shifted in more than one pair",
                            path=path, line=lineno)
        seen_shifted.add(shifted)
        pairs.append((shifted, plain))
        sadis_pairs.append(
            (ethiopic.compose(shifted, ethiopic.SADIS, tables),
             ethiopic.compose(plain, ethiopic.SADIS, tables))
        )
    return MistrikeProfile(pairs=tuple(pairs), sadis_pairs=tuple(sadis_pairs))


def load_glyph_pairs(
    path: Path | str, tables: ethiopic.ScriptTables | None = None
) -> tuple[GlyphPair, ...]:
    """Load a [glyph-pairs] file of confusable key characters."""
    path = Path(path)
    tables = tables or ethiopic.default_tables()
    pairs: list[GlyphPair] = []
    used: set[str] = set()
    for lineno, section, tokens in ethiopic._records(path):
        if section != "glyph-pairs":
            raise LoadError(f"unknown section {section!r}", path=path, line=lineno)
        if len(tokens) != 3 or tokens[2] not in ("initial", "any"):
            raise LoadError("expected: <char> <char> initial|any",
                            path=path, line=lineno)
        a, b, position = tokens
        for ch in (a, b):
            info = tables.by_char.get(ch)
            if info is None or info[1] != ethiopic.SADIS:
                raise LoadError(f"{ch!r} is not a sadis-order key character",
                                path=path, line=lineno)
            if ch in used:
                raise LoadError(f"{ch!r} appears in more than one pair",
                                path=path, line=lineno)
            used.add(ch)
        pairs.append(GlyphPair(a=a, b=b, anywhere=position == "any"))
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
    tables build the canonical key. Defaults are read from the data
    directory when the config is built and stay with it; tables compare
    by identity.
    """

    wy_as_vowels: bool = False
    profile: MistrikeProfile | None = field(default_factory=default_mistrike_profile)
    glyph_pairs: tuple[GlyphPair, ...] = field(default_factory=default_glyph_pairs)
    max_encodings: int = 16
    tables: ethiopic.ScriptTables = field(default_factory=ethiopic.default_tables)

    def __post_init__(self):
        if self.max_encodings < 1:
            raise ValueError("max_encodings must be at least 1")

    @cached_property
    def _glyph_partners(self) -> tuple[dict[str, str], dict[str, str]]:
        """Key character -> glyph partner at position 0, and after it.

        Where a character is in more than one pair, the first pair that
        applies at the position wins.
        """
        initial: dict[str, str] = {}
        later: dict[str, str] = {}
        for pair in self.glyph_pairs:
            for ch, partner in ((pair.a, pair.b), (pair.b, pair.a)):
                initial.setdefault(ch, partner)
                if pair.anywhere:
                    later.setdefault(ch, partner)
        return initial, later

    @cached_property
    def _key_sets(self) -> dict[str, EncodingSet]:
        """encode()'s memo: canonical key -> its EncodingSet.

        It holds at most _KEY_SET_CACHE sets, each no larger than one
        encode() result, and is emptied when full. Like the other
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
            "labiovelar=" + ",".join(
                f"{ch}{base}{order}"
                for ch, (base, order) in sorted(tables.labiovelar_map.items())
            ),
        ]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=None)
def _config_in(directory: Path) -> EncoderConfig:
    """The directory's tables, then its profile and glyph pairs checked
    against those tables."""
    tables = ethiopic._tables_in(directory)
    return EncoderConfig(
        profile=load_mistrike_profile(directory / "mistrike_profile.txt", tables),
        glyph_pairs=load_glyph_pairs(directory / "glyph_pairs.txt", tables),
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
        info = ethiopic.decompose(ch, tables)
        if info is None:
            raise InvalidInputError(
                ch, pos, word, ethiopic._left_out(ch, tables)
            )
        family = tables.representative_of(info.family)
        if family in tables.vowel_carriers:
            out.append(_ALEF)
            continue
        try:
            out.append(ethiopic.compose(family, info.order, tables))
        except InvalidOrderError:
            out.append(ch)
    return "".join(out)


def remove_vowels(
    word: str,
    config: EncoderConfig | None = None,
    tables: ethiopic.ScriptTables | None = None,
) -> str:
    """Reduce a simplified word to its consonant key.

    Non-initial vowel carriers are dropped; a word-initial carrier stays
    as a leading አ. Everything else becomes its family's sadis form,
    with fourth-order labiovelars (Cʷa) expanding to [sadis, ው] and the
    remaining ʷ-vowels collapsing to the bare sadis. With wy_as_vowels
    set, non-initial ው and ይ are dropped from the finished key no matter
    which rule emitted them, so equal default keys stay equal.
    """
    tables = tables or ethiopic.default_tables()
    wy = config.wy_as_vowels if config is not None else False
    out: list[str] = []
    for pos, ch in enumerate(word):
        info = ethiopic.decompose(ch, tables)
        if info is None:
            raise InvalidInputError(
                ch, pos, word, ethiopic._left_out(ch, tables)
            )
        family = tables.representative_of(info.family)
        if family in tables.vowel_carriers:
            if pos == 0:
                out.append(_ALEF)
            continue
        out.append(ethiopic.compose(family, ethiopic.SADIS, tables))
        if info.order == ethiopic.WA:
            out.append(_WAW)
    if wy:
        out = out[:1] + [c for c in out[1:] if c != _WAW and c != _YOD]
    return "".join(out)


def _swaps(key: str, sites: list[tuple[int, str]]) -> Iterator[str]:
    """The key with each non-empty combination of sites swapped.

    A site is (position, partner). Combinations come smallest first, in
    site order within a size.
    """
    for r in range(1, len(sites) + 1):
        for combo in combinations(sites, r):
            chars = list(key)
            for i, partner in combo:
                chars[i] = partner
            yield "".join(chars)


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
    key under one config get the same EncodingSet instance: the config
    keeps up to _KEY_SET_CACHE of them and empties the memo when full.
    """
    config = config or _default_config()
    canonical = _canonical(word, config)
    memo = config._key_sets
    found = memo.get(canonical)
    if found is None:
        if len(memo) >= _KEY_SET_CACHE:
            memo.clear()
        unique = _unique_keys(canonical, config)
        # tuple() over a list, not a generator: a sized input is not
        # over-allocated, which keeps `encode --stdin` peak RSS flat.
        found = memo[canonical] = EncodingSet(
            encodings=tuple([Encoding(key=k, tier=t) for k, t in unique.items()])
        )
    return found


def _canonical(word: str, config: EncoderConfig) -> str:
    """remove_vowels(simplify(word)) through the tables' compiled maps."""
    if not word:
        raise EmptyWordError("cannot encode an empty word")
    tables = config.tables
    if not tables.supported.issuperset(word):
        pos = next(i for i, ch in enumerate(word) if ch not in tables.supported)
        ch = word[pos]
        raise InvalidInputError(ch, pos, word, ethiopic._left_out(ch, tables))
    key = tables.initial_keys[ord(word[0])] + word[1:].translate(tables.later_keys)
    if config.wy_as_vowels:
        key = key[:1] + key[1:].translate(_WY_DELETE)
    return key


def _unique_keys(
    canonical: str, config: EncoderConfig, stop: Container[str] = ()
) -> dict[str, Tier]:
    """The first max_encodings unique staged keys, with their tiers.

    The walk also ends right after it takes a key that is in stop.
    """
    unique: dict[str, Tier] = {}
    cap = config.max_encodings
    for key, tier in _staged(canonical, config):
        if key not in unique:
            unique[key] = tier
            if len(unique) == cap or key in stop:
                break
    return unique


def _staged(canonical: str, config: EncoderConfig) -> Iterator[tuple[str, Tier]]:
    """Every candidate key in staging order, repeats included.

    The order is the canonical key, its nasal combinations, the glyph
    combinations of each key staged so far, then the downgrade of each
    key staged so far. Generated lazily: the combinations grow
    exponentially with the number of sites, and _unique_keys() stops
    reading at max_encodings unique keys.
    """
    staged = [canonical]
    yield canonical, Tier.CANONICAL
    for alt in _swaps(canonical, _nasal_sites(canonical)):
        staged.append(alt)
        yield alt, Tier.PHONOLOGICAL
    partners = config._glyph_partners
    for key in staged[:]:
        for alt in _swaps(key, _glyph_sites(key, partners)):
            staged.append(alt)
            yield alt, Tier.GLYPH
    if config.profile is not None:
        for key in staged:
            downgraded = lcd_mistrike(key, config.profile)
            if downgraded != key:
                yield downgraded, Tier.INPUT_METHOD

