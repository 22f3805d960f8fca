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

The regular rows and the standalone ʷ-series blocks are Unicode layout:
they are fixed and laid out once, and SUPPORTED, the set of scalars the
encoder accepts, follows from them alone. A table file declares only
homophone classes and vowel carriers, which load_script_tables returns
as EncoderConfig field values. _compile_tables checks such values by
the file's rules and derives the paper's two steps from them as
per-scalar maps, and the canonical key maps that chain them. Each map
holds exactly SUPPORTED and refuses any other scalar as it maps, so one
str.translate both maps a word and checks it.

Every data file is read through _read_lines, a block of lines at a
time, and every rule file through _read_rules. No file is read here by
default: the bundled rules are EncoderConfig()'s fields, read from
data_dir() once per directory by the encoder.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .errors import InvalidInputError, LoadError

__all__ = [
    "SADIS",
    "WA",
    "OA",
    "SUPPORTED",
    "load_script_tables",
    "data_dir",
]

SADIS = 6
WA = 14
OA = 18

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

# Standalone ʷ-series blocks: first codepoint and base family. Each
# block holds orders 11, 13, 14, 15 and 16 at offsets 0, 2, 3, 4 and 5;
# its other offsets are unassigned.
_SERIES_BLOCKS = (
    (0x1248, "ቀ"),   # ቈ
    (0x1258, "ቐ"),   # ቘ
    (0x1288, "ኀ"),   # ኈ
    (0x12B0, "ከ"),   # ኰ
    (0x12C0, "ኸ"),   # ዀ
    (0x1310, "ገ"),   # ጐ
)
_SERIES_COLUMNS = ((0, 11), (2, 13), (3, 14), (4, 15), (5, 16))

_ENV_DATA_DIR = "AMHARIC_METAPHONE_DATA"
_PACKAGE_DATA = Path(__file__).with_name("data")

_ALEF = "አ"
_WAW = "ው"


def _layout() -> dict[str, tuple[str, int]]:
    """Codepoint layout of the syllabary: scalar -> (family, order)."""
    by_char: dict[str, tuple[str, int]] = {}
    for base, eighth in _FAMILY_ROWS:
        family = chr(base)
        for offset in range(7):
            by_char[chr(base + offset)] = (family, offset + 1)
        if eighth is not None:
            by_char[chr(base + 7)] = (family, WA if eighth == "wa" else OA)
    for first, family in _SERIES_BLOCKS:
        for offset, order in _SERIES_COLUMNS:
            by_char[chr(first + offset)] = (family, order)
    return by_char


_BY_CHAR = _layout()
# The scalars the encoder accepts; every other scalar is unsupported.
SUPPORTED = frozenset(_BY_CHAR)
# Each family (its first-order form) -> its sadis form.
_SADIS_FORM = {
    family: ch for ch, (family, order) in _BY_CHAR.items() if order == SADIS
}


# The rules a table file's records obey. Each raises ValueError with the
# text a loader reports; _read_rules adds the file and line, and
# _compile_tables runs the same checks over a config's fields.

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


class _Unmapped(Exception):
    """A scalar outside SUPPORTED reached a step map. Not a LookupError,
    so str.translate stops at the scalar instead of keeping it."""


class _StepMap(dict):
    """A per-scalar map over SUPPORTED that refuses any other scalar:
    subscripting or translating one raises _Unmapped."""

    __slots__ = ()

    def __missing__(self, code: int):
        raise _Unmapped


@lru_cache(maxsize=8)
def _compile_tables(homophones: tuple[tuple[str, str], ...],
                    vowel_carriers: frozenset[str]) -> dict[str, _StepMap]:
    """The paper's two steps as str.translate maps over SUPPORTED, by name.

    homophones holds (member, head) family pairs; a family in no pair is
    its own head. vowel_carriers holds the families that carry bare
    vowels. Both pass the checks a table file's records pass, or
    ValueError with the loader's text. Step 1, simplified, takes a
    scalar to its head at the same order, to bare አ for a carrier, or to
    itself where the head has no such member (ኋ). Step 2,
    initial_stripped and later_stripped, takes a carrier to a leading አ
    or to nothing, anything else to its head's sadis form (+ው for a
    fourth-order labiovelar). initial_keys and later_keys are step 2
    after step 1: what a scalar adds to a canonical key, before the
    wy_as_vowels filter. Each map's keys are exactly SUPPORTED's code
    points, and it raises _Unmapped at any other. A compile costs about
    0.2 ms and 57 KB, so it runs once per distinct value.
    """
    representative: dict[str, str] = {}
    for pair in homophones:
        if len(pair) != 2:
            raise ValueError("expected: <member family> <head family>")
        _add_member(*pair, representative)
    for head in representative.values():
        if head in representative:
            raise ValueError(
                f"class head {head!r} is itself a member of another class"
            )
    for family in sorted(vowel_carriers):
        _family(family)
    char_at = {slot: ch for ch, slot in _BY_CHAR.items()}
    simplified = _StepMap()
    initial = _StepMap()
    later = _StepMap()
    for ch, (family, order) in _BY_CHAR.items():
        code = ord(ch)
        head = representative.get(family, family)
        if head in vowel_carriers:
            simplified[code] = initial[code] = _ALEF
            later[code] = ""
            continue
        simplified[code] = char_at.get((head, order), ch)
        fragment = _SADIS_FORM[head]
        if order == WA:
            fragment += _WAW
        initial[code] = later[code] = fragment
    # Step 2 after step 1: a carrier reaches step 2 as bare አ.
    return {
        "simplified": simplified,
        "initial_stripped": initial,
        "later_stripped": later,
        "initial_keys": _StepMap((c, initial[ord(s)]) for c, s in simplified.items()),
        "later_keys": _StepMap((c, later[ord(s)]) for c, s in simplified.items()),
    }


def data_dir() -> Path:
    """Directory holding the rule files a default EncoderConfig reads.

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


# Scalars of text that _read_lines splits in one splitlines() call, up to
# the next "\n": enough to amortise the call, few enough that a block's
# lines cost little beside the text itself.
_BLOCK_SCALARS = 1 << 14


def _read_lines(path: Path, kind: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a data file, from 1.

    The lines and numbers are text.splitlines()'s, for the text
    _read_text returns (so its LoadError texts too), but the split runs
    one block of about _BLOCK_SCALARS scalars at a time. A block ends
    just after a "\n", which ends a line however the text breaks lines
    ("\r\n" included), so only one block's lines are held at once.
    """
    text = _read_text(path, kind)
    lineno = 0
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_SCALARS - 1) + 1 or len(text)
        for line in text[start:end].splitlines():
            lineno += 1
            yield lineno, line
        start = end


def _read_rules(path: Path, sections: tuple[str, ...], record) -> None:
    """Call record(section, tokens) for each record of a rule file.

    The format is line-oriented UTF-8: '#' starts a comment, [section]
    headers group records, and records are whitespace-separated tokens.
    A ValueError from record is a LoadError at the record's line, as is
    a header outside sections or a record before any header.
    """
    section = None
    for lineno, raw in _read_lines(path, "table"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in sections:
                raise LoadError(f"unknown section {section!r}", path=path, line=lineno)
            continue
        if section is None:
            raise LoadError("record before any [section] header", path=path, line=lineno)
        try:
            record(section, line.split())
        except ValueError as exc:
            raise LoadError(str(exc), path=path, line=lineno) from None


def load_script_tables(
        path: Path | str) -> tuple[tuple[tuple[str, str], ...], frozenset[str]]:
    """Load a rule file of homophone classes and vowel carriers.

    A [homophone-classes] record is a head family and its members; a
    [vowel-carriers] record is one family. Returns EncoderConfig's
    homophones, (member, head) pairs in file order, and vowel_carriers.
    """
    path = Path(path)
    representative: dict[str, str] = {}
    carriers: set[str] = set()

    def record(section: str, tokens: list[str]) -> None:
        if section == "homophone-classes":
            if len(tokens) < 2:
                raise ValueError("class needs a head and at least one member")
            for member in tokens[1:]:
                _add_member(member, tokens[0], representative)
        else:  # vowel-carriers
            if len(tokens) != 1:
                raise ValueError("expected one family per record")
            carriers.add(_family(tokens[0]))

    _read_rules(path, ("homophone-classes", "vowel-carriers"), record)
    tables = tuple(representative.items()), frozenset(carriers)
    # Only the class-head check is left to fail here, and it has no line.
    try:
        _compile_tables(*tables)
    except ValueError as exc:
        raise LoadError(str(exc), path=path) from None
    return tables


def _unsupported(word: str) -> InvalidInputError:
    """The error for a word holding a scalar outside SUPPORTED: it names
    the first such scalar, its position and its code point. A loader
    raises its text as a LoadError at the word's line."""
    pos = next(i for i, ch in enumerate(word) if ch not in SUPPORTED)
    return InvalidInputError(word[pos], pos, word)
