"""Structural model of the Ethiopic syllabary.

Every supported syllable is a (consonant family, vocalic order) pair.
Families are identified by their first-order member ('ለ' for the l
family). Orders 1-7 are the plain vocalic columns; the remaining codes
cover the rounded and labiovelar columns:

    1..7   plain columns (a, u, i, aa, ee, sadis, o)
    11     ʷa first-order  (standalone series base, e.g. ቈ)
    13     ʷi              (e.g. ቊ)
    14     ʷaa, the fourth-order labiovelar (ቋ, ኳ, and the eighth-column
           -wa forms such as ሏ, ጧ)
    15     ʷee             (e.g. ቌ)
    16     ʷe              (e.g. ቍ)
    18     -oa, the rounded variant of the seventh column (ሇ, ቇ, ...)

The sixth column ("sadis") is the vowel-less form every syllable reduces
to when vowels are stripped.

The codepoint layout is a generated table keyed by scalar, not
arithmetic on codepoints; tests cross-check every entry against the
Unicode character database names. U+1358..U+135A (RYA, MYA, FYA) have no
family/order structure and are treated as unsupported, like punctuation
and numerals.

The regular rows are fixed and laid out once. A ScriptTables takes only
what a table file declares (homophone classes, vowel carriers and the
standalone ʷ-series syllables), checks it by the file's rules and
derives everything else from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Mapping

from .errors import InvalidOrderError, LoadError

__all__ = [
    "SADIS",
    "WA",
    "OA",
    "SERIES_ORDERS",
    "SyllableInfo",
    "ScriptTables",
    "load_script_tables",
    "default_tables",
    "data_dir",
    "decompose",
    "compose",
]

SADIS = 6
WA = 14
OA = 18
SERIES_ORDERS = (11, 13, 14, 15, 16)

# Regular family rows: base codepoint and the kind of the eighth column.
#   "wa"  = fourth-order labiovelar (order 14)
#   "oa"  = rounded seventh variant (order 18)
#   None  = seven members only
# ጘ's eighth column (GGWAA) and አ's (GLOTTAL WA) are ʷa forms and map
# to order 14 like the rest of the -wa column.
_FAMILY_ROWS = (
    (0x1200, "oa"),   # ሀ
    (0x1208, "wa"),   # ለ
    (0x1210, "wa"),   # ሐ
    (0x1218, "wa"),   # መ
    (0x1220, "wa"),   # ሠ
    (0x1228, "wa"),   # ረ
    (0x1230, "wa"),   # ሰ
    (0x1238, "wa"),   # ሸ
    (0x1240, "oa"),   # ቀ
    (0x1250, None),   # ቐ
    (0x1260, "wa"),   # በ
    (0x1268, "wa"),   # ቨ
    (0x1270, "wa"),   # ተ
    (0x1278, "wa"),   # ቸ
    (0x1280, "oa"),   # ኀ
    (0x1290, "wa"),   # ነ
    (0x1298, "wa"),   # ኘ
    (0x12A0, "wa"),   # አ
    (0x12A8, "oa"),   # ከ
    (0x12B8, None),   # ኸ
    (0x12C8, "oa"),   # ወ
    (0x12D0, None),   # ዐ
    (0x12D8, "wa"),   # ዘ
    (0x12E0, "wa"),   # ዠ
    (0x12E8, "oa"),   # የ
    (0x12F0, "wa"),   # ደ
    (0x12F8, "wa"),   # ዸ
    (0x1300, "wa"),   # ጀ
    (0x1308, "oa"),   # ገ
    (0x1318, "wa"),   # ጘ
    (0x1320, "wa"),   # ጠ
    (0x1328, "wa"),   # ጨ
    (0x1330, "wa"),   # ጰ
    (0x1338, "wa"),   # ጸ
    (0x1340, "oa"),   # ፀ
    (0x1348, "wa"),   # ፈ
    (0x1350, "wa"),   # ፐ
)

_ENV_DATA_DIR = "AMHARIC_METAPHONE_DATA"
_PACKAGE_DATA = Path(__file__).with_name("data")

_ALEF = "አ"
_WAW = "ው"


@dataclass(frozen=True)
class SyllableInfo:
    """Decomposition of one syllable: family, vocalic order, source char."""

    family: str
    order: int
    char: str


@dataclass(frozen=True, eq=False)
class ScriptTables:
    """Script data driving the encoder.

    The three fields a table file declares: representative maps each
    family to its homophone-class head (families absent from the
    mapping are their own head), vowel_carriers holds the families that
    carry bare vowels, and labiovelar_map places each standalone
    ʷ-series syllable at its (base family, order) slot. They pass the
    checks a table file's records pass, or the constructor raises
    ValueError with the loader's text.

    The remaining fields are derived from these. by_char and by_family
    hold the full codepoint layout: the fixed regular rows plus the
    labiovelar_map entries. supported is the set of supported scalars,
    and initial_keys and later_keys are the str.translate maps from
    each of them to the fragment it adds to a canonical key at the
    start of a word and after it (homophone merge plus vowel strip,
    before the wy_as_vowels filter). Tables compare and hash by
    identity.
    """

    representative: Mapping[str, str]
    vowel_carriers: frozenset[str]
    labiovelar_map: Mapping[str, tuple[str, int]]
    by_char: Mapping[str, tuple[str, int]] = field(init=False, repr=False)
    by_family: Mapping[tuple[str, int], str] = field(init=False, repr=False)
    initial_keys: Mapping[int, str] = field(init=False, repr=False)
    later_keys: Mapping[int, str] = field(init=False, repr=False)
    supported: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        checked: dict[str, str] = {}
        for member, head in self.representative.items():
            _add_member(member, head, checked)
        for head in checked.values():
            if head in checked:
                raise ValueError(
                    f"class head {head!r} is itself a member of another class"
                )
        for family in sorted(self.vowel_carriers):
            _family(family)
        by_char = dict(_BASE_BY_CHAR)
        by_family = dict(_BASE_BY_FAMILY)
        for ch, slot in self.labiovelar_map.items():
            _place(ch, slot, by_char, by_family)
        initial: dict[int, str] = {}
        later: dict[int, str] = {}
        for ch, (family, order) in by_char.items():
            code = ord(ch)
            head = self.representative_of(family)
            if head in self.vowel_carriers:
                # Step 1 writes every carrier as bare አ, which step 2
                # then reads as a syllable of its own.
                head, order = self.representative_of(_ALEF), 1
            if head in self.vowel_carriers:
                initial[code], later[code] = _ALEF, ""
                continue
            fragment = by_family[(head, SADIS)]
            if order == WA:
                fragment += _WAW
            initial[code] = later[code] = fragment
        object.__setattr__(self, "by_char", by_char)
        object.__setattr__(self, "by_family", by_family)
        object.__setattr__(self, "initial_keys", initial)
        object.__setattr__(self, "later_keys", later)
        object.__setattr__(self, "supported", frozenset(by_char))

    def representative_of(self, family: str) -> str:
        return self.representative.get(family, family)


def _base_layout() -> dict[str, tuple[str, int]]:
    """Codepoint layout of the regular family rows: scalar -> (family, order)."""
    by_char: dict[str, tuple[str, int]] = {}
    for base, eighth in _FAMILY_ROWS:
        family = chr(base)
        for offset in range(7):
            by_char[chr(base + offset)] = (family, offset + 1)
        if eighth is not None:
            by_char[chr(base + 7)] = (family, WA if eighth == "wa" else OA)
    return by_char


# The regular rows, laid out once. Every family's first-order and sadis
# forms sit here, and a labiovelar_map entry (orders 11-16) can never
# displace one, so rule files are checked against this layout alone.
_BASE_BY_CHAR = _base_layout()
_BASE_BY_FAMILY = {slot: ch for ch, slot in _BASE_BY_CHAR.items()}
# Each family (its first-order form) -> its sadis form.
_SADIS_FORM = {
    family: ch for ch, (family, order) in _BASE_BY_CHAR.items() if order == SADIS
}


# The rules a table file's records obey. Each raises ValueError with the
# text a loader reports; load_script_tables adds the file and line, and
# ScriptTables runs the same checks over its fields.

def _family(token: str) -> str:
    """The token, if it is a family's first-order form; else ValueError."""
    if token not in _SADIS_FORM:
        raise ValueError(f"{token!r} is not a first-order family form")
    return token


def _add_member(member: str, head: str, representative: dict[str, str]) -> None:
    """Record member in head's homophone class; ValueError if it cannot be.

    Both must be families, and a family joins at most one class, never
    its own.
    """
    _family(head)
    _family(member)
    if member in representative or member == head:
        raise ValueError(f"family {member!r} listed twice")
    representative[member] = head


def _place(
    ch: str,
    slot: tuple[str, int],
    by_char: dict[str, tuple[str, int]],
    by_family: dict[tuple[str, int], str],
) -> None:
    """Add a ʷ-series syllable at slot (base family, order) to a layout.

    ValueError unless the base is a family, the order is a ʷ-series
    order, and neither ch nor the slot is in the layout yet.
    """
    base, order = slot
    _family(base)
    if order not in SERIES_ORDERS:
        raise ValueError(f"order {order} is not a ʷ-series order")
    if ch in by_char or slot in by_family:
        raise ValueError(f"{ch!r} collides with an existing slot")
    by_char[ch] = slot
    by_family[slot] = ch


def data_dir() -> Path:
    """Directory holding the bundled table files.

    The AMHARIC_METAPHONE_DATA environment variable, read on every
    call, overrides the data/ directory beside this module.
    """
    override = os.environ.get(_ENV_DATA_DIR)
    return Path(override) if override else _PACKAGE_DATA


def _read_text(path: Path, kind: str) -> str:
    """A data file's text; LoadError if it is missing or not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise LoadError(f"{kind} file not found", path=path)
    except UnicodeDecodeError as exc:
        raise LoadError(f"not valid UTF-8: {exc}", path=path)


def _records(path: Path):
    """Yield (line_number, section, tokens) for a table file."""
    text = _read_text(path, "table")
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        if section is None:
            raise LoadError("record before any [section] header", path=path, line=lineno)
        yield lineno, section, line.split()


def load_script_tables(path: Path | str) -> ScriptTables:
    """Load homophone classes, the labiovelar map, and vowel carriers.

    The file format is line-oriented UTF-8: '#' starts a comment,
    [section] headers group records, and records are whitespace-separated
    tokens. See data/script_tables.txt for the grammar in use.
    """
    path = Path(path)
    representative: dict[str, str] = {}
    carriers: set[str] = set()
    labiovelar: dict[str, tuple[str, int]] = {}
    by_char, by_family = dict(_BASE_BY_CHAR), dict(_BASE_BY_FAMILY)
    try:
        for lineno, section, tokens in _records(path):
            if section == "homophone-classes":
                if len(tokens) < 2:
                    raise LoadError("class needs a head and at least one member",
                                    path=path, line=lineno)
                for member in tokens[1:]:
                    _add_member(member, tokens[0], representative)
            elif section == "labiovelar-map":
                if len(tokens) != 3:
                    raise LoadError("expected: <char> <base family> <order>",
                                    path=path, line=lineno)
                ch, base, order_token = tokens
                _family(base)  # before the order, as the record reads
                try:
                    order = int(order_token)
                except ValueError:
                    raise LoadError(f"bad order {order_token!r}", path=path, line=lineno)
                _place(ch, (base, order), by_char, by_family)
                labiovelar[ch] = (base, order)
            elif section == "vowel-carriers":
                if len(tokens) != 1:
                    raise LoadError("expected one family per record",
                                    path=path, line=lineno)
                carriers.add(_family(tokens[0]))
            else:
                raise LoadError(f"unknown section {section!r}", path=path, line=lineno)
    except ValueError as exc:
        raise LoadError(str(exc), path=path, line=lineno) from None
    # Only the class-head check is left to fail here, and it has no line.
    try:
        return ScriptTables(
            representative=representative,
            vowel_carriers=frozenset(carriers),
            labiovelar_map=labiovelar,
        )
    except ValueError as exc:
        raise LoadError(str(exc), path=path) from None


@lru_cache(maxsize=None)
def _tables_in(directory: Path) -> ScriptTables:
    return load_script_tables(directory / "script_tables.txt")


def default_tables() -> ScriptTables:
    """The bundled script tables (or the AMHARIC_METAPHONE_DATA override).

    Read once per data directory per process.
    """
    return _tables_in(data_dir())


def _left_out(ch: str, tables: ScriptTables) -> bool:
    """True for a syllable the default tables support and tables lack.

    Error messages call such a character missing from the script
    tables, not non-Ethiopic.
    """
    return ch not in tables.supported and ch in default_tables().supported


def _unencodable(
    word: str, tables: ScriptTables, path: Path, line: int, noun: str = "word "
) -> LoadError:
    """The LoadError for a word in a data file that the tables cannot encode."""
    ch = next(ch for ch in word if ch not in tables.supported)
    where = f"{ch!r} in {noun}{word!r}"
    if not _left_out(ch, tables):
        return LoadError(f"non-Ethiopic character {where}", path=path, line=line)
    return LoadError(f"character {where} is not in the script tables",
                     path=path, line=line)


def decompose(ch: str, tables: ScriptTables | None = None) -> SyllableInfo | None:
    """Split one character into (family, order), or None if unsupported."""
    if len(ch) != 1:
        raise ValueError(f"expected a single character, got {ch!r}")
    tables = tables or default_tables()
    info = tables.by_char.get(ch)
    if info is None:
        return None
    return SyllableInfo(family=info[0], order=info[1], char=ch)


def compose(family: str, order: int, tables: ScriptTables | None = None) -> str:
    """Return the syllable at (family, order); InvalidOrderError if empty."""
    tables = tables or default_tables()
    ch = tables.by_family.get((family, order))
    if ch is None:
        raise InvalidOrderError(f"family {family!r} has no member at order {order}")
    return ch
