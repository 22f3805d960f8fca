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

An EncoderConfig decides a key set. Its rule fields are plain values
compared by value: the script tables' homophone pairs and vowel
carriers, the glyph pairs and the mistrike profile. It checks each by
the rules its data file obeys, and compiles the maps the key walk
reads. The fingerprint digests those maps: configs whose rules compile
alike share one. No config changes which scalars are supported:
encode(), simplify() and remove_vowels() take a config and accept the
fixed set ethiopic.SUPPORTED. The two steps are per-scalar maps,
compiled once per distinct pair of script-table values: simplify()
translates through simplified, remove_vowels() through
initial_stripped and later_stripped, and encode() takes the canonical
key through the maps that chain the two, initial_keys and later_keys,
in one translate per word. Each map holds exactly SUPPORTED and refuses
any other scalar as it maps, so that translate is also the word's only
check: an unsupported scalar raises InvalidInputError there.

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
walk without it, and so does build_index(), which groups its words by
canonical key and walks each key once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path
from typing import Iterator, Mapping

from . import ethiopic
from .errors import EmptyWordError

__all__ = [
    "Tier",
    "Encoding",
    "EncodingSet",
    "GlyphPair",
    "EncoderConfig",
    "load_mistrike_profile",
    "load_glyph_pairs",
    "simplify",
    "remove_vowels",
    "lcd_mistrike",
    "encode",
]

# Nasal alternation: ም and ን trade places before these consonants.
_NASAL_SWAP = {"ም": "ን", "ን": "ም"}
_NASAL_TRIGGERS = frozenset({"ብ", "ፍ"})

# Deletes ው and ይ: the wy_as_vowels filter, for str.translate.
_WY_DELETE = {ord("ው"): None, ord("ይ"): None}

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


class _TierText(dict):
    """Tier -> its text in `encode` lines and index dumps, looked up once
    per line: cheaper than int() and formatting. Any other int, as a
    hand-built index may hold, is written as int() writes it."""

    __slots__ = ()

    def __missing__(self, tier) -> str:
        return str(int(tier))


_TIER_TEXT = _TierText({tier: str(int(tier)) for tier in Tier})

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
class GlyphPair:
    """Two key characters whose letterforms are routinely confused."""

    a: str
    b: str
    anywhere: bool  # False: applies at word-initial position only


# The rules a rule file's records obey. Each raises ValueError with the
# text its loader reports; ethiopic._read_rules adds the file and line, and
# EncoderConfig runs the same checks over its fields.

def _add_mistrike_pair(pair: tuple[str, ...], shifted: set[str]) -> None:
    """Check a (shifted, plain) pair against the families shifted so far.

    It must hold two distinct first-order family forms, and the shifted
    family must be new; it is then added to shifted.
    """
    if len(pair) != 2:
        raise ValueError("expected: <shifted family> <plain family>")
    for family in pair:
        ethiopic._family(family)
    if pair[0] == pair[1]:
        raise ValueError(f"family {pair[0]!r} paired with itself")
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


def load_mistrike_profile(path: Path | str) -> tuple[tuple[str, str], ...]:
    """Load a [mistrike-pairs] file of (shifted, plain) family pairs."""
    pairs: list[tuple[str, str]] = []
    shifted: set[str] = set()

    def record(_, tokens: list[str]) -> None:
        pair = tuple(tokens)
        _add_mistrike_pair(pair, shifted)
        pairs.append(pair)

    ethiopic._read_rules(Path(path), ("mistrike-pairs",), record)
    return tuple(pairs)


def load_glyph_pairs(path: Path | str) -> tuple[GlyphPair, ...]:
    """Load a [glyph-pairs] file of confusable key characters."""
    pairs: list[GlyphPair] = []
    used: set[str] = set()

    def record(_, tokens: list[str]) -> None:
        if len(tokens) != 3 or tokens[2] not in ("initial", "any"):
            raise ValueError("expected: <char> <char> initial|any")
        pair = GlyphPair(a=tokens[0], b=tokens[1], anywhere=tokens[2] == "any")
        _add_glyph_pair(pair, used)
        pairs.append(pair)

    ethiopic._read_rules(Path(path), ("glyph-pairs",), record)
    return tuple(pairs)


# A config hashes, so each rule field holds hashable containers:
# (field, container, item type, the shape its TypeError names).
_RULE_FIELD_SHAPES = (
    ("profile", (tuple, type(None)), tuple,
     "a tuple of (shifted, plain) tuples, or None"),
    ("glyph_pairs", tuple, GlyphPair, "a tuple of GlyphPairs"),
    ("homophones", tuple, tuple, "a tuple of (member, head) tuples"),
    ("vowel_carriers", frozenset, str, "a frozenset of family strings"),
)


@dataclass(frozen=True)
class EncoderConfig:
    """Everything that decides the key set of a word.

    wy_as_vowels treats non-initial ው and ይ as vowels and drops them
    from keys. profile holds an input method's (shifted, plain) family
    pairs as written (first-order forms), no family shifted in two
    pairs or onto itself. Its downgrade runs shifted-to-plain only:
    typing the shifted form takes deliberate effort, mistyping it does
    not. profile=None disables input-method alternates entirely, the
    right call when the writer's keyboard layout is unknown.
    max_encodings caps the set size: an int of at least 1, else
    TypeError or ValueError; the canonical key is never evicted.
    glyph_pairs hold sadis forms only and share no character.
    homophones, (member, head) family pairs, and the vowel_carriers
    frozenset build the canonical key, as load_script_tables returns
    them. A config hashes, so a rule field in another container (a
    list, a set) raises TypeError naming the field; rules a loader
    would refuse raise ValueError with its text.
    By default the rule fields hold the bundled rules, read from the
    data directory once per directory; a config keeps them if the
    directory changes.
    """

    wy_as_vowels: bool = False
    profile: tuple[tuple[str, str], ...] | None = field(
        default_factory=lambda: _default_config().profile)
    glyph_pairs: tuple[GlyphPair, ...] = field(
        default_factory=lambda: _default_config().glyph_pairs)
    max_encodings: int = 16
    homophones: tuple[tuple[str, str], ...] = field(
        default_factory=lambda: _default_config().homophones)
    vowel_carriers: frozenset[str] = field(
        default_factory=lambda: _default_config().vowel_carriers)

    def __post_init__(self):
        # A float cap such as 2.5 or inf is never reached, and True keys
        # like 1 under another fingerprint.
        if type(self.max_encodings) is not int:
            raise TypeError("max_encodings must be an int")
        if self.max_encodings < 1:
            raise ValueError("max_encodings must be at least 1")
        for name, container, item, shape in _RULE_FIELD_SHAPES:
            value = getattr(self, name)
            if not (isinstance(value, container)
                    and all(isinstance(x, item) for x in value or ())):
                raise TypeError(f"{name} must be {shape}")
        used: set[str] = set()
        for pair in self.glyph_pairs:
            _add_glyph_pair(pair, used)
        shifted: set[str] = set()
        for pair in self.profile or ():
            _add_mistrike_pair(pair, shifted)
        # Plain attributes, not cached properties, as encode() reads two
        # per word; every config of equal tables shares them.
        maps = ethiopic._compile_tables(self.homophones, self.vowel_carriers)
        for name, table in maps.items():
            object.__setattr__(self, f"_{name}", table)

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
    def _mistrike_keys(self) -> dict[int, str]:
        """The profile's shifted-to-plain map in key alphabet, for
        str.translate."""
        sadis_of = ethiopic._SADIS_FORM
        return {ord(sadis_of[a]): sadis_of[b] for a, b in self.profile or ()}

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
        """Stable digest of the compiled rules the key walk reads.

        Indexes store this so a query under a different config is
        rejected instead of silently missing. It digests wy_as_vowels,
        max_encodings and each map the walk runs, as its items sorted by
        key, so configs whose rules compile alike share one whatever the
        rules' order, orientation or redundancy.
        """
        # Imported here: encode and evaluate never read the fingerprint,
        # and hashlib loads libcrypto.
        import hashlib

        maps = (self._initial_keys, self._later_keys,
                *self._glyph_partners, self._mistrike_keys, _NASAL_SWAP)
        parts = [
            f"wy={int(self.wy_as_vowels)}",
            f"max={self.max_encodings}",
            *(",".join(f"{k}:{v}" for k, v in sorted(m.items())) for m in maps),
            "".join(sorted(_NASAL_TRIGGERS)),
        ]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=None)
def _config_in(directory: Path) -> EncoderConfig:
    """The directory's rule files, each read once: tables, profile, glyph pairs."""
    homophones, vowel_carriers = ethiopic.load_script_tables(
        directory / "script_tables.txt")
    return EncoderConfig(
        homophones=homophones,
        vowel_carriers=vowel_carriers,
        profile=load_mistrike_profile(directory / "mistrike_profile.txt"),
        glyph_pairs=load_glyph_pairs(directory / "glyph_pairs.txt"),
    )


def _default_config() -> EncoderConfig:
    """EncoderConfig() with the rules of the current data directory."""
    # Absolute, so a relative directory follows the working directory.
    return _config_in(ethiopic.data_dir().absolute())


def simplify(word: str, config: EncoderConfig | None = None) -> str:
    """Collapse every character onto its homophone-class head.

    Vowel carriers of any order become bare አ. If the head family has no
    member at the source character's column (only the rare ʷ columns),
    the original character is kept so the labiovelar subkind survives;
    remove_vowels resolves the family then. Without a config,
    EncoderConfig() is used.
    """
    # Step 1 maps a scalar alike at the start of a word and after it.
    step_1 = (config or _default_config())._simplified
    return _keyed(word, step_1, step_1, False)


def remove_vowels(word: str, config: EncoderConfig | None = None) -> str:
    """Reduce a simplified word to its consonant key.

    Non-initial vowel carriers are dropped; a word-initial carrier stays
    as a leading አ. Everything else becomes its family's sadis form,
    with fourth-order labiovelars (Cʷa) expanding to [sadis, ው] and the
    remaining ʷ-vowels collapsing to the bare sadis. With wy_as_vowels
    set, non-initial ው and ይ are dropped from the finished key no matter
    which rule emitted them, so equal default keys stay equal. Without
    a config, EncoderConfig() is used, which keeps ው and ይ.
    """
    config = config or _default_config()
    return _keyed(word, config._initial_stripped, config._later_stripped,
                  config.wy_as_vowels)


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


def lcd_mistrike(key: str, config: EncoderConfig) -> str:
    """Downgrade every shifted consonant in the key to its plain partner
    in config.profile.

    The output may equal the input when the key holds no shifted forms.
    """
    return key.translate(config._mistrike_keys)


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
    """remove_vowels(simplify(word)) in one pass: initial_keys, later_keys."""
    if not word:
        raise EmptyWordError("cannot encode an empty word")
    return _keyed(word, config._initial_keys, config._later_keys, config.wy_as_vowels)


def _keyed(word: str, initial: Mapping[int, str], later: Mapping[int, str],
           wy_as_vowels: bool) -> str:
    """word's first scalar through initial, the rest through later, then
    the wy_as_vowels filter; InvalidInputError at an unsupported scalar.

    initial and later are step maps, which refuse a scalar outside
    SUPPORTED as they map it, so the word is read once.
    """
    if not word:
        return ""
    try:
        key = initial[ord(word[0])] + word[1:].translate(later)
    except ethiopic._Unmapped:
        raise ethiopic._unsupported(word) from None
    if wy_as_vowels:
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
    if config._mistrike_keys:
        tier = Tier.INPUT_METHOD
        for key in list(taken):
            alt = lcd_mistrike(key, config)
            if alt not in taken:
                taken[alt] = tier
                yield alt, tier
                if len(taken) == cap:
                    return
