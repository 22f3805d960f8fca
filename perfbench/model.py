"""The benchmark's own model of the script, written apart from the program.

The correctness checks compare the program's outputs with what this
module computes, so it is written from the Unicode layout of the
Ethiopic block and the rules the README states, not from the package's
tables or code.  It covers every syllable the generators emit and every
syllable in the bundled lexicon and corpus.
"""

from __future__ import annotations

# First-order codepoint of every regular family row, with the kind of
# its eighth column: "wa" (the -wa labiovelar, keyed as sadis + ው),
# "oa" (a rounded seventh, keyed as the plain sadis) or None.
ROWS = {
    0x1200: "oa", 0x1208: "wa", 0x1210: "wa", 0x1218: "wa", 0x1220: "wa",
    0x1228: "wa", 0x1230: "wa", 0x1238: "wa", 0x1240: "oa", 0x1250: None,
    0x1260: "wa", 0x1268: "wa", 0x1270: "wa", 0x1278: "wa", 0x1280: "oa",
    0x1290: "wa", 0x1298: "wa", 0x12A0: "wa", 0x12A8: "oa", 0x12B8: None,
    0x12C8: "oa", 0x12D0: None, 0x12D8: "wa", 0x12E0: "wa", 0x12E8: "oa",
    0x12F0: "wa", 0x12F8: "wa", 0x1300: "wa", 0x1308: "oa", 0x1318: "wa",
    0x1320: "wa", 0x1328: "wa", 0x1330: "wa", 0x1338: "wa", 0x1340: "oa",
    0x1348: "wa", 0x1350: "wa",
}
# Standalone labiovelar blocks (ʷa ʷi ʷaa ʷee ʷe at offsets 0, 2-5) and
# the family each belongs to.  Offset 3 (ʷaa) keys as sadis + ው.
LABIOVELAR_BLOCKS = {
    0x1248: 0x1240, 0x1258: 0x1250, 0x1288: 0x1280,
    0x12B0: 0x12A8, 0x12C0: 0x12B8, 0x1310: 0x1308,
}
LABIOVELAR_OFFSETS = (0, 2, 3, 4, 5)

# Families that sound alike collapse onto the head of their class.
HEAD = {0x1210: 0x1200, 0x1280: 0x1200, 0x1220: 0x1230, 0x12D0: 0x12A0,
        0x1340: 0x1338, 0x1268: 0x1260}
CARRIERS = frozenset({0x12A0, 0x12D0})

ALEF = "አ"
WAW = "ው"
YOD = "ይ"
NASALS = {"ም": "ን", "ን": "ም"}
TRIGGERS = frozenset("ብፍ")
GLYPH = {"ፕ": "ኝ", "ኝ": "ፕ"}
# Shifted key character -> plain partner on a phonetic keyboard.
SHIFTED = {"ጽ": "ስ", "ጥ": "ት", "ጭ": "ች", "ኝ": "ን", "ኽ": "ክ", "ዥ": "ዝ",
           "ጵ": "ፕ", "ቕ": "ቅ", "ጕ": "ግ"}
# Families no rule names: no homophone class, carrier, labiovelar
# block, nasal or trigger, glyph or keyboard pair, and not ወ or የ
# (dropped under the w/y-as-vowels rule).
UNTOUCHED = (0x1208, 0x1228, 0x1238, 0x12F0, 0x1300, 0x12F8)
# Never used by the generated lexicon, so a query holding it matches nothing.
RESERVED = 0x12F8

SEPARATORS = frozenset(chr(cp) for cp in range(0x1360, 0x1369))


def family_of(ch: str) -> tuple[int, int] | None:
    """(first-order codepoint of the family, offset in its row or block)."""
    cp = ord(ch)
    base = cp & ~7
    offset = cp - base
    if base in ROWS and (offset < 7 or ROWS[base] is not None):
        return base, offset
    if base in LABIOVELAR_BLOCKS and offset in LABIOVELAR_OFFSETS:
        return LABIOVELAR_BLOCKS[base], 8 + offset
    return None


def is_syllable(ch: str) -> bool:
    return family_of(ch) is not None


def sadis(base: int) -> str:
    return chr(base + 5)


def canonical_key(word: str, wy_as_vowels: bool = False) -> str:
    """Merge homophones, strip vowels, keep one leading አ."""
    out: list[str] = []
    for pos, ch in enumerate(word):
        found = family_of(ch)
        if found is None:
            raise ValueError(f"not a modelled syllable: {ch!r}")
        base, offset = found
        head = HEAD.get(base, base)
        if head in CARRIERS:
            if pos == 0:
                out.append(ALEF)
            continue
        out.append(sadis(head))
        if (offset == 7 and ROWS[base] == "wa") or offset == 8 + 3:
            out.append(WAW)
    if wy_as_vowels:
        out = out[:1] + [c for c in out[1:] if c not in (WAW, YOD)]
    return "".join(out)


def nasal_sites(key: str) -> int:
    return sum(1 for a, b in zip(key, key[1:]) if a in NASALS and b in TRIGGERS)


def glyph_sites(key: str) -> int:
    return sum(1 for c in key if c in GLYPH)


def has_shifted(key: str) -> bool:
    return any(c in SHIFTED for c in key)


def staged_keys(key: str) -> int:
    """Keys the encoder stages before dedupe and cap, with the keyboard
    downgrade on: every nasal and glyph site combination, plus one
    downgrade of each staged key that holds a shifted consonant (ኝ is
    shifted and a glyph site, so only some glyph combinations hold it)."""
    p, g = nasal_sites(key), glyph_sites(key)
    always = any(c in SHIFTED and c not in GLYPH for c in key)
    return 2 ** (p + g) + 2 ** p * (2 ** g - (0 if always else 1))


def enumerated_keys(key: str) -> int:
    """Upper bound on the keys the encoder stages before dedupe and cap:
    every nasal and glyph site combination, each with one downgrade."""
    return 2 ** (nasal_sites(key) + glyph_sites(key)) * (2 if has_shifted(key) else 1)


def under_cap(word: str, cap: int = 16) -> bool:
    """True when no key can be dropped by the cap, under both configs."""
    return all(enumerated_keys(canonical_key(word, wy)) <= cap for wy in (False, True))


def levenshtein(a: str, b: str) -> int:
    """Full-matrix dynamic program, unit costs."""
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            rows[i][j] = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return rows[len(a)][len(b)]


def split_tokens(text: str) -> list[str]:
    """Split on whitespace and on U+1360..U+1368, dropping empty tokens."""
    tokens: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch.isspace() or ch in SEPARATORS:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens
