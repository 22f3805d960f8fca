"""Seeded input generators for the three workloads.

Everything the program reads in a run comes from here, and the same seed
gives the same inputs.  Words follow a root-and-pattern model: a root is
two to four consonant families, a pattern gives each radical a vowel
order and adds prefix and suffix syllables.  Derivations of one root
share a consonant skeleton the way Amharic words do, so a lookup finds
several candidates to rank.

Each generator also returns what the checks need to know about its
output (planted variants, error types, expected match outcomes).  Those
labels come from the construction and from ``model``, never from the
program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from model import (
    GLYPH, HEAD, NASALS, RESERVED, ROWS, SHIFTED, TRIGGERS, UNTOUCHED,
    canonical_key, family_of, glyph_sites, is_syllable, nasal_sites, under_cap,
)

# Root consonants, weighted towards plain families as in running text.
PLAIN = (0x1208, 0x1228, 0x1230, 0x1238, 0x1240, 0x1260, 0x1270, 0x1278,
         0x12A8, 0x12D8, 0x12F0, 0x1300, 0x1308, 0x1348, 0x1218, 0x1290,
         0x1200, 0x12C8, 0x12E8)
HOMOPHONE_MEMBERS = (0x1210, 0x1280, 0x1220, 0x1268, 0x1340)
SHIFTED_FAMILIES = (0x1338, 0x1320, 0x1328, 0x12E0, 0x1330, 0x1298, 0x12B8)
GLYPH_FAMILIES = (0x1350, 0x1298)
CLASSES = ((0x1200, 0x1210, 0x1280), (0x1230, 0x1220), (0x12A0, 0x12D0),
           (0x1338, 0x1340), (0x1260, 0x1268))
PLAIN_PARTNER = {0x1338: 0x1230, 0x1340: 0x1230, 0x1320: 0x1270, 0x1328: 0x1278,
                 0x1298: 0x1290, 0x12B8: 0x12A8, 0x12E0: 0x12D8, 0x1330: 0x1350,
                 0x1250: 0x1240, 0x1318: 0x1308}
NASAL_ROWS = {0x1218: 0x1290, 0x1290: 0x1218}
GLYPH_ROWS = {0x1350: 0x1298, 0x1298: 0x1350}
# ʷaa forms of the families whose eighth column is not a -wa syllable.
WAA_BLOCK = {0x1240: 0x124B, 0x1250: 0x125B, 0x1280: 0x128B, 0x12A8: 0x12B3,
             0x12B8: 0x12C3, 0x1308: 0x1313}

# A word is a root in a frame (prefix, suffix) with one vowel order per
# radical; "w" is the -wa labiovelar.  A root is used in a few frames,
# each with several vowel templates, so derivations share skeletons.
FRAMES = (("", ""), ("ይ", ""), ("ተ", ""), ("የ", ""), ("መ", ""), ("አ", ""),
          ("እን", ""), ("ባ", ""), ("ኢ", "ም"), ("", "ት"), ("", "ች"), ("", "ው"),
          ("", "ዎች"), ("", "ል"))
VOWELS = ("111", "112", "143", "167", "113", "117", "141", "161", "631",
          "421", "115", "616", "666", "114", "153", "11w")
PER_FRAME = 7

LATIN_NAMES = ("Abebe", "Kebede", "Addis", "Tigist", "Hailu", "Mekdes",
               "Ethio", "UN", "AU", "Selam")


def syllable(base: int, order: str) -> str:
    """The syllable of a family at a vowel order ("1".."7" or "w")."""
    if order != "w":
        return chr(base + int(order) - 1)
    if ROWS.get(base) == "wa":
        return chr(base + 7)
    if base in WAA_BLOCK:
        return chr(WAA_BLOCK[base])
    return chr(base + 1) + "ዋ"


def sites(word: str) -> int:
    """Nasal plus glyph sites of a word, the larger under the two configs."""
    return max(nasal_sites(k) + glyph_sites(k)
               for k in (canonical_key(word, False), canonical_key(word, True)))


# ---------------------------------------------------------------------------
# Variants: one mechanical error of a given corpus type.

def _positions(word: str, test) -> list[int]:
    """Positions of plain-order syllables whose family passes ``test``."""
    out = []
    for i, ch in enumerate(word):
        found = family_of(ch)
        if found is not None and found[1] < 7 and test(found[0]):
            out.append(i)
    return out


def _replace(word: str, i: int, text: str) -> str:
    return word[:i] + text + word[i + 1:]


def _swap_family(word: str, i: int, base: int) -> str:
    return _replace(word, i, chr(base + family_of(word[i])[1]))


def _differs_at_one(a: str, b: str, pred) -> bool:
    if len(a) != len(b):
        return False
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    return len(diff) == 1 and pred(a, diff[0])


def variant(word: str, error_type: int, rng: random.Random) -> str | None:
    """A respelling of ``word`` with one error of ``error_type``, or None.

    Types 1, 5 and 6 keep the canonical key under both configs; 2, 4 and
    9 change it at one glyph, nasal or keyboard site; 7 (used for control
    pairs) changes one consonant no rule touches.
    """
    if error_type == 1:
        cands = _positions(word, lambda b: any(b in c for c in CLASSES))
        if not cands:
            return None
        i = rng.choice(cands)
        base = family_of(word[i])[0]
        cls = next(c for c in CLASSES if base in c)
        out = _swap_family(word, i, rng.choice([b for b in cls if b != base]))
    elif error_type == 5:
        cands = _positions(word, lambda b: HEAD.get(b, b) != 0x12A0)
        if not cands:
            return None
        i = rng.choice(cands)
        if i > 0 and rng.random() < 0.3:
            out = word[:i] + rng.choice("ኣእኧ") + word[i:]
        else:
            base, offset = family_of(word[i])
            order = rng.choice([o for o in range(7) if o != offset])
            out = _replace(word, i, chr(base + order))
    elif error_type == 6:
        found = [(i, family_of(ch)) for i, ch in enumerate(word)]
        cands = [i for i, (base, offset) in found
                 if HEAD.get(base, base) != 0x12A0
                 and (offset == 11 or (offset == 7 and ROWS[base] == "wa"))]
        if not cands:
            return None
        i = rng.choice(cands)
        out = _replace(word, i, chr(family_of(word[i])[0] + 1) + "ዋ")
    elif error_type in (2, 4, 7, 9):
        rows = {2: GLYPH_ROWS, 4: NASAL_ROWS, 9: PLAIN_PARTNER}.get(error_type)
        if error_type == 7:
            cands = _positions(word, lambda b: b in UNTOUCHED)
        else:
            cands = _positions(word, lambda b: b in rows)
        rng.shuffle(cands)
        for i in cands:
            base = family_of(word[i])[0]
            if error_type == 7:
                target = rng.choice([b for b in UNTOUCHED if b != base])
            else:
                target = rows[base]
            out = _swap_family(word, i, target)
            if _valid_site_change(word, out, error_type):
                return out
        return None
    else:
        raise ValueError(error_type)
    ok = all(canonical_key(out, wy) == canonical_key(word, wy) for wy in (False, True))
    return out if ok and out != word else None


def _valid_site_change(a: str, b: str, error_type: int) -> bool:
    """The keys of a and b differ at one position, a site of the type."""
    def nasal(key, i):
        return key[i] in NASALS and i + 1 < len(key) and key[i + 1] in TRIGGERS

    def glyph(key, i):
        return key[i] in GLYPH

    def shifted(key, i):
        return key[i] in SHIFTED

    def untouched(key, i):
        return family_of(key[i])[0] in UNTOUCHED

    pred = {2: glyph, 4: nasal, 9: shifted, 7: untouched}[error_type]
    return all(_differs_at_one(canonical_key(a, wy), canonical_key(b, wy), pred)
               for wy in (False, True))


# ---------------------------------------------------------------------------
# Lexicon and lookup queries.

def _root(rng: random.Random, size: int) -> tuple[int, ...]:
    out = []
    for _ in range(size):
        r = rng.random()
        if r < 0.1:
            out.append(rng.choice(SHIFTED_FAMILIES))
        elif r < 0.16:
            out.append(rng.choice(HOMOPHONE_MEMBERS))
        elif r < 0.2:
            out.append(0x1350)
        else:
            out.append(rng.choice(PLAIN))
    return tuple(out)


def _derive(root: tuple[int, ...], prefix: str, orders: str, suffix: str) -> str:
    if len(root) == 2:
        orders = orders[1:]
    elif len(root) == 4:
        orders = orders[0] + orders
    return prefix + "".join(syllable(b, o) for b, o in zip(root, orders)) + suffix


def root_words(rng: random.Random, max_sites: int):
    """Yield derived words forever, one root's family at a time: the bare
    frame and two affixed ones, each with PER_FRAME vowel templates."""
    while True:
        root = _root(rng, rng.choice((2, 3, 3, 3, 3, 4)))
        frames = [FRAMES[0]] + rng.sample(FRAMES[1:], 2)
        for prefix, suffix in frames:
            for orders in rng.sample(VOWELS, PER_FRAME):
                w = _derive(root, prefix, orders, suffix)
                if sites(w) <= max_sites:
                    yield w


def lexicon(seed: int, size: int) -> list[str]:
    """``size`` distinct words, none holding the reserved family."""
    rng = random.Random(f"lexicon-{seed}")
    words: dict[str, None] = {}
    for w in root_words(rng, max_sites=3):
        if under_cap(w):
            words.setdefault(w)
        if len(words) >= size:
            break
    out = list(words)
    rng.shuffle(out)
    return out


# Error types a lookup query carries, and the worst match tier at which
# its source word must come back (ignoring the result limit).
QUERY_TIER = {1: 0, 5: 0, 6: 0, 4: 1, 2: 2, 9: 3}


@dataclass(frozen=True)
class Query:
    text: str
    source: str | None      # None: nothing can match
    error_type: int          # 0 for a no-match query
    tier: int


def queries(seed: int, words: list[str], count: int, no_match_every: int = 10) -> list[Query]:
    """Lexicon words with one error each, the error types taken in turn;
    every ``no_match_every``-th query holds the reserved family instead."""
    rng = random.Random(f"queries-{seed}")
    types = sorted(QUERY_TIER)
    out: list[Query] = []
    while len(out) < count:
        word = rng.choice(words)
        if len(out) % no_match_every == no_match_every - 1:
            i = rng.randrange(len(word))
            if family_of(word[i])[1] < 7:
                out.append(Query(_replace(word, i, chr(RESERVED + rng.randrange(7))),
                                 None, 0, 0))
            continue
        error_type = types[len(out) % len(types)]
        q = variant(word, error_type, rng)
        if q is not None and under_cap(q):
            out.append(Query(q, word, error_type, QUERY_TIER[error_type]))
    return out


# ---------------------------------------------------------------------------
# Bulk text for stream-encode.

def is_ethiopic_word(token: str) -> bool:
    return all(is_syllable(c) for c in token)


def bundled_words(data_dir: Path) -> list[str]:
    """Words of the bundled lexicon and corpus, as the generators may use them."""
    words: dict[str, None] = {}
    for line in (data_dir / "lexicon.txt").read_text(encoding="utf-8").splitlines():
        w = line.split("#", 1)[0].strip()
        if w:
            words.setdefault(w)
    for row in bundled_rows(data_dir):
        words.setdefault(row[0])
        words.setdefault(row[1])
    return [w for w in words if is_ethiopic_word(w)]


def bundled_rows(data_dir: Path) -> list[tuple[str, str, int, bool]]:
    rows = []
    for line in (data_dir / "corpus.tsv").read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        rows.append((parts[0].strip(), parts[1].strip(), int(parts[2]),
                     len(parts) == 4))
    return rows


def _foreign(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.35:
        return str(rng.randrange(1, 3000))
    if r < 0.7:
        return rng.choice(LATIN_NAMES)
    return "".join(chr(rng.randrange(0x1369, 0x137D)) for _ in range(rng.randint(1, 3)))


@dataclass(frozen=True)
class Document:
    text: str
    tokens: tuple[str, ...]
    planted: tuple[tuple[int, int], ...]   # (source index, variant index)


def documents(seed: int, data_dir: Path, count: int, tokens_per_doc: int) -> list[Document]:
    """Texts of Ethiopic words with planted homophone and vowel variants,
    about 5 % non-Ethiopic tokens and Ethiopic separators."""
    rng = random.Random(f"text-{seed}")
    extra = [w for w in bundled_words(data_dir) if sites(w) <= 3]
    stream = root_words(rng, max_sites=3)
    docs = []
    for _ in range(count):
        tokens: list[str] = []
        planted: list[tuple[int, int]] = []
        parts: list[str] = []
        while len(tokens) < tokens_per_doc:
            r = rng.random()
            if r < 0.05:
                tok = _foreign(rng)
            elif r < 0.15 and tokens:
                src = rng.randrange(max(0, len(tokens) - 40), len(tokens))
                tok = None
                if is_ethiopic_word(tokens[src]):
                    tok = variant(tokens[src], rng.choice((1, 5)), rng)
                if tok is None:
                    continue
                planted.append((src, len(tokens)))
            elif r < 0.3:
                tok = rng.choice(extra)
            else:
                tok = next(stream)
            tokens.append(tok)
            parts.append(tok)
            s = rng.random()
            if len(tokens) % 60 == 0:
                parts.append("\n")
            elif s < 0.06:
                parts.append("። ")
            elif s < 0.1:
                parts.append("፣ ")
            elif s < 0.2:
                parts.append("፡")
            else:
                parts.append(" ")
        docs.append(Document("".join(parts), tuple(tokens), tuple(planted)))
    return docs


# ---------------------------------------------------------------------------
# Labelled corpus for corpus-eval.

@dataclass(frozen=True)
class Pair:
    canonical: str
    variant: str
    error_type: int
    expected_fail: bool
    expect: str     # "match", "never" or "any"
    bundled: bool


# Generated pairs per shard: error type -> count.  Type 7 rows are the
# control pairs (one untouched consonant changed).
SHARD_MIX = {1: 3, 2: 3, 4: 4, 5: 3, 6: 3, 9: 2, 7: 2}


# (nasal sites, glyph sites) of the dense words of a shard, in turn, so
# every shard costs about the same to evaluate.  Each has a glyph site,
# so a dense word can carry any error type.
DENSE_PROFILES = ((3, 2), (4, 1), (5, 1), (4, 2), (3, 1), (3, 3))


def _dense_word(rng: random.Random, profile: tuple[int, int] | None) -> str:
    """A word built from rule-site units.  A dense word carries the nasal
    and glyph sites of its profile plus keyboard sites, so the key cap
    binds; without a profile the word stays under the cap."""
    units: list[str] = []
    if profile is not None:
        n_nasal, n_glyph = profile
    else:
        n_nasal = rng.randint(0, 2)
        n_glyph = rng.randint(0, 1)
    for _ in range(n_nasal):
        units.append(syllable(rng.choice((0x1218, 0x1290)), rng.choice("1236"))
                     + syllable(rng.choice((0x1260, 0x1348, 0x1268)), rng.choice("12346")))
    for _ in range(n_glyph):
        units.append(syllable(rng.choice(GLYPH_FAMILIES), rng.choice("12346")))
    for _ in range(rng.randint(1, 2)):
        units.append(syllable(rng.choice(SHIFTED_FAMILIES[:5]), rng.choice("12346")))
    for _ in range(rng.randint(2, 3)):
        base = rng.choice(UNTOUCHED[:5] + (0x1200, 0x1210, 0x1280, 0x1220, 0x1230,
                                           0x1340, 0x1240, 0x12A8))
        units.append(syllable(base, rng.choice("1234567w")))
    rng.shuffle(units)
    word = "".join(units)
    if rng.random() < 0.3:
        word = rng.choice("አኢዐእ") + word
    return word


def corpus_shards(seed: int, data_dir: Path, count: int) -> list[list[Pair]]:
    """``count`` shards, each with SHARD_MIX generated pairs (half on
    dense words) and an even share of the bundled corpus rows."""
    rng = random.Random(f"corpus-{seed}")
    bundled = bundled_rows(data_dir)
    shards: list[list[Pair]] = [[] for _ in range(count)]
    for n, shard in enumerate(shards):
        dense_made = 0
        for error_type, k in SHARD_MIX.items():
            made = 0
            while made < k:
                dense = made % 2 == 0
                profile = DENSE_PROFILES[dense_made % len(DENSE_PROFILES)] if dense else None
                word = _dense_word(rng, profile)
                if dense == under_cap(word) or sites(word) > 6:
                    continue
                var = variant(word, error_type, rng)
                if var is None or sites(var) > 6:
                    continue
                if error_type == 7:
                    expect = "never"
                elif error_type in (1, 5, 6) or (under_cap(word) and under_cap(var)):
                    expect = "match"
                else:
                    expect = "any"
                shard.append(Pair(word, var, error_type, False, expect, False))
                made += 1
                dense_made += dense
        shard.extend(Pair(c, v, t, xf, "any", True)
                     for c, v, t, xf in bundled[n::count])
        rng.shuffle(shard)
    return shards


def corpus_tsv(pairs: list[Pair]) -> str:
    lines = ["# generated corpus shard"]
    for p in pairs:
        row = f"{p.canonical}\t{p.variant}\t{p.error_type}"
        lines.append(row + ("\texpected_fail" if p.expected_fail else ""))
    return "\n".join(lines) + "\n"
