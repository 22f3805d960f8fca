"""The behaviour contract: one pinned SHA-256 over the package's outputs.

The records are the keys and tiers encode() gives, matches() in both
argument orders, suggest() at limits 1 and 10, the config fingerprints,
the stdout of `encode ዓለምፀሐይ ጧት` and of `evaluate --format jsonl`
on the bundled corpus under both vowel rules, and the stdout of
`encode --stdin` in text and JSONL on mixed text. The inputs are the
bundled lexicon and corpus words plus words, pairs, queries and text
drawn from this file's own random.Random. It uses choice() and randrange()
only, which draw alike on Python 3.10 to 3.13, so the digest depends
on nothing but the package and its data files.

Each record also has an 8-bit check pinned in CHECKS, so a mismatch
names the first record whose check differs. A change that moves an output on
purpose pins the values `python tests/test_contract.py --pin` prints,
and gives the reason in CHANGES.md.

The file imports only the standard library and the package, so it runs
without pytest: `PYTHONPATH=src python tests/test_contract.py` checks
the source tree, and the same command without PYTHONPATH checks an
installed copy.
"""

import base64
import contextlib
import hashlib
import io
import random
import sys

from amharic_metaphone import (
    EncoderConfig,
    GlyphPair,
    Lexicon,
    build_index,
    encode,
    load_corpus,
    load_lexicon,
    matches,
    suggest,
)
from amharic_metaphone.cli import main
from amharic_metaphone.ethiopic import data_dir

DIGEST = "e72f7d712da32e8ca9825f7da6038aa9ffc9398379b4acefe09ca8c56376fa38"
CHECKS = (
    "NH++4BkYOUYs4xLq2rIeCTCopPmQ+gmh4wY8qU8RxQ/hAc33sKfUDbwDze9P9YJaNGT7rSEv"
    "C92g6rz31Qk9DMwrbMsZwoloQWTJfAbpmNjSAIuVqt850Fvq6CHivS7GOSgI+IdHYKQTo0IJ"
    "3SVKBcTRUhbF9yRDp4d06jSOghUrvqKr8BzC3sAO7RNSN2HpWOb9O8EcISf8zFLewAELSnGv"
    "dwY0DpzwaGZxKjCLOs1BH+zae4SQi8f9WWRCAyLDC4xk3ipmfvDVJG6/k6wRj9TPT2vOXtLV"
    "0HrOJea0fa1FJ1e/3h+2VdF3rkUi0cLRzZAaXAJ9zHNQVNv3UA2YIfBVppmsbN9tnAHczBS5"
    "7eUBv9AQVqFShiBFeHLr0t3ZvuRIN9A8SmDdEe7yVs1WQY+wPq+q+JjDdA683ZAmRrfXCftd"
    "TnSjVoFhLbXrn2v1U92u0SbssO37S4zckgcSUKTsUGFqKlDJHOU+1wVnsmbeV4MxqPrJBzxw"
    "SQJvT1kUB9R05aaKNK57lodaJDIHeLyILc/TA+/iEj1x3i8udI3nMBefwpGRhSNpkAQr6cZ1"
    "7KGuHuollBgkQ42ItVJ/elifEdva+pUytTt5G4IjDUY2HSyJwq+r8Y0PpH14VYGz+BKoX8Vx"
    "uEbKScGgqpbf+vKvkVt9vT4b25mBPyuURbeua/xRHVW/CA65pg7l6p10pKWInkRjSBPn8CjJ"
    "4+NggW6T1WA+HI+HQ1ZeRpXrCcN/0SMf990k1V9Wh/O7nV+SQuFOsqm13eyJ4CMER1qb0cId"
    "dno5Z1xfst1pok+gLj54S4FYOJEJA1UZDT6rkOzCL3omf8dDYSgChzkuM7/0pyWwffQ2EW8q"
    "mRjogeXCO9HR6zyuLnfRI4Ee8WEFv3sdNMV0bTQPKh19+dw30NtE6txhxUuGeMH+QYt1BC0g"
    "MczkNuxLNATxZM/7j82A4ju7jU1L08UauhfA04Blb4w2oj57yV+ulajcqJ5E3zqfQBQ5uL+O"
    "X/+eeRWHcBh8Nwc/fXauTHw6C8c4UL9Vr+76XaPJGvdFz5n3MyQqIlBDMZz7Ow2oBEOXECIA"
    "i4Lgfx9Fw7n5Ev7wmtLwnV3r5DIVRki6mAW+AhC7uJmyFOCqd1PaoHMoCEPFENlz8xfc2F9U"
    "hFAQcDHZYAKiM2sE3YaLCqjM4iEwJaAT2WEPd0kROXYxQ1Q4gIPpmHN9G++XfQxnX3cYRWUo"
    "YwBoQIfl3ZLE0fRUOPrnltjsgtS9yJX6VKlnBH4SKUWC/4w5X/Jb7jYXDGE8eCY5OCs2U2r2"
    "0SeI/RUMCTJkiqQ0+lYcKpAL5nkQfC//VZ2QZbNCKFVPOCWayQCULn+oN5+529t9pp6VrhbY"
    "hKGW3XaAH17iMNNc51L7urE4NvNJg2Bd6HzoYKGjISR+0hcyhPGb+W95SLWco/zgDBfUiaXk"
    "pBhGIZsVwgT1cxQPWJiKy9/5c0LaCwnyGX64by1kvtv2e1mCXMJIh+Px7GKW5LYjEiGLNXra"
    "gzGUrVyG43la7GWfzxGX9Mx7/W4QtebpNgZh9i5Jw9G/5dPNAK3v3TlQkSVqHhFTgBBgCZP7"
    "4bgJQ5HsTK6gemzzOTEouz1R6REbYRV5bduN54RjDt0ttDiyUNnCdK0ha/7/GDKu7MNtWjsb"
    "7ljf3SCGqVbQvmv2GkiDkot/dVVnz5og4/5U8DrCP01CmuQ2O6n3Wb1clwyDOOk+pYR/MMYy"
    "0lIusNcTcsDWG5x/A9tMMsKYM/05NZSv7u+VrDcxpe08wL1tmqK9SeljlHbcvxFKubV+GQB6"
    "2UU2IUZjlC2mUsf7nH66W6IwH0ev3MKo9nV+r12VVEJdd7ONu1106mw+E1Q9tE8F/+9Q1WM4"
    "jAQXP9O6hAyrLbqC0EbikUUwwn1OLCREOpKzBK3fGN7tKo76C4hNMBt+VFHUKifClkyTKTi/"
    "MSMXaIGvuO/jSZoM4EW4WUu7U5EnnNVj4ar0Tly7d7uBY8TxCKfPSIZPw1WjzNEJPBoreMZj"
    "XRHG0s2UlnkOU5ThejrwlYnhF3k9WSqwNNZIwKTugihFSIIAwEX8fk91AEv/k+BOTaVshcFy"
    "H0MKlCzdkMSiYDwe2ii7BuixzffEItReAw64IhPza7F3G12BCR2qlsE8Rrt2UPVypbCVcmn7"
    "ZVJ8iWUxiCVvAcEqrsS4k6i+h25xzNWk0VdWvya2eJ/B8FXOyVxQ/cCNnI75ALVHprDdKrYJ"
    "/fQrachHmkZApAsfKF5wtjZUZsRAmICzK3lZx2n/qtlgq5cYxL6RWUDLwdQ02k+9AqsS+z1+"
    "++K+GIXr5HUknK/aQitlmUVdhoo0gHKTTVWsnir3h53OOGFPmJ7wG6cTvDsgFUWhA6Qjf8qi"
    "Rp5g2aiXC3Lkl4F+SDDIW6Kr33e7U1f23+Cd2FHerQASNMStS+ACCTuYGWVWJJw8eMzuR+N1"
    "A+d1LyLDF+rw53vdtOxEviDbpPUuiJKluEPLj8ReAgK/AdAOOm8j9LfWiOY8a6ODzB9QiDwW"
    "Nl+Q1MvhqLnjIWKXRUPyxaw5mNlUMRp0kby1Ayx5TZiWKHVlcg07cS+crvCtmIVfAxaku8JO"
    "nLtPX2XBH9sCaa5RE74+HxbRUOF7D0kyIwVs0q2M43u9PAHzYoPhqj4jp+Hjf8NV7MVsmnpQ"
    "vKAGVRiKfwELN1uoNew2w00zPYygZ3UerpM3XVIZIMShMms6P44OSdrJbN1PFgeUFx4i493K"
    "h3qsWzxwiM4zF811QcNJVMkOl46HSTzwhAElM8PRCE2OBD5bD5S941mq/0z1jgdGC9EeEOMw"
    "3Buah727+t9B3tSREum/mWNR8U0d+Oepk+DeOKdfEs9H302lHsDl2PNplwviXfq6DwGz8MZr"
    "dho+PesFvnLTfAfSD3fQlw9JyqeJHSIuk9YGCccV+IoQ4slqWWPhxwNd1Yjl1lCQ89a52IGN"
    "t6CAHeUhjqH4KY0XKs3l/f7iCK1k95YhJciSdRc8I050r47ch4W0nCIM21jmdPIi77s2Yg=="
)

# Syllables that hit every rule: homophones, vowel carriers, ው and ይ
# forms, labiovelars, nasal sites, both glyph tables and the shifted
# families of the bundled profile.
_ALPHABET = "ምንብፍፕኝመነበፈፐኘጽጸፀጠጥጨልላአዐዓሀሐኀሰሠወዋይየቋኳጧሏቈኰቨዠኸጰቐጘ"
# Letters a nasal, glyph or mistrike rule trades for another.
_PARTNERS = {"ም": "ን", "ን": "ም", "ፕ": "ኝ", "ኝ": "ፕ", "ጽ": "ስ",
             "ጸ": "ሰ", "ጠ": "ተ", "ጥ": "ት", "ጨ": "ቸ", "ኘ": "ነ"}


# Tokens encode --stdin passes through: Latin names, ASCII and Ethiopic
# numerals, and abbreviations whose '.' is no separator.
_PASSED = ("Abebe", "Marta", "Addis", "A.A.", "ዓ.ም", "1984", "2,5", "07",
           "፲፱፻፹", "፪", "፻፳")
# What comes between tokens and ends lines: spaces, tabs, the Ethiopic
# wordspace and punctuation, \r\n and blank lines.
_GAPS = (" ", " ", "\t", "፡", "። ", "፣", " ፤ ", "፡፡", "፧", "፨ ", "፠")
_BREAKS = ("\n", "\r\n", "\n\n", "\r\n\r\n", " \n")


def _configs():
    both_nasals = (GlyphPair(a="ም", b="ን", anywhere=True),
                   GlyphPair(a="ፕ", b="ኝ", anywhere=False))
    initial_only = (GlyphPair(a="ን", b="ኝ", anywhere=False),)
    return [
        ("default", EncoderConfig()),
        ("wy", EncoderConfig(wy_as_vowels=True)),
        ("no-profile", EncoderConfig(profile=None)),
        ("glyph-ም/ን", EncoderConfig(glyph_pairs=both_nasals)),
        ("glyph-ን/ኝ", EncoderConfig(glyph_pairs=initial_only, wy_as_vowels=True)),
        ("cap1", EncoderConfig(max_encodings=1)),
        ("cap5", EncoderConfig(max_encodings=5)),
    ]


def _word(rng):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(1, 10)))


def _respelled(rng, word):
    return "".join(
        _PARTNERS[ch] if ch in _PARTNERS and rng.randrange(2) else ch for ch in word
    )


def _text(rng, words):
    pieces = []
    for _ in range(200):
        for _ in range(rng.randrange(0, 10)):
            pieces += [rng.choice(rng.choice((words, words, _PASSED))), rng.choice(_GAPS)]
        pieces.append(rng.choice(_BREAKS))
    return "".join(pieces)


def _stdout(argv, stdin=""):
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return f"exit {code}\n{out.getvalue()}"


def records():
    """Yield the contract's records, one string per input, in a fixed order."""
    rng = random.Random(20260419)
    configs = _configs()
    data = data_dir()
    corpus = load_corpus(data / "corpus.tsv")
    bundled = sorted(load_lexicon(data / "lexicon.txt").words
                     | {w for e in corpus for w in (e.canonical, e.variant)})
    seeded = [_word(rng) for _ in range(1000)]

    yield "fingerprints " + " ".join(f"{n}={c.fingerprint}" for n, c in configs)
    for word in bundled + seeded:
        yield f"encode {word} " + " | ".join(
            name + " " + " ".join(f"{e.key}{int(e.tier)}" for e in encode(word, config))
            for name, config in configs
        )

    pairs = [(e.canonical, e.variant) for e in corpus]
    for _ in range(400):
        word = _word(rng)
        pairs.append((word, _respelled(rng, word)))
    pairs += [(_word(rng), _word(rng)) for _ in range(200)]
    for a, b in pairs:
        yield f"matches {a} {b} " + "".join(
            f"{int(matches(a, b, config))}{int(matches(b, a, config))}"
            for _, config in configs
        )

    lexicon = Lexicon(words=frozenset(bundled + [_word(rng) for _ in range(1500)]))
    indexes = [(name, config, build_index(lexicon, config)) for name, config in configs]
    queries = [_respelled(rng, rng.choice(bundled)) for _ in range(150)]
    queries += [_word(rng) for _ in range(150)]
    for query in queries:
        yield f"suggest {query} " + " | ".join(
            f"{name} {limit}: " + " ".join(
                f"{s.word}{int(s.match_tier)}/{s.distance}"
                for s in suggest(query, index, config, limit=limit)
            )
            for name, config, index in indexes
            for limit in (1, 10)
        )

    corpus_path = str(data / "corpus.tsv")
    for argv in (["encode", "ዓለምፀሐይ", "ጧት"],
                 ["evaluate", "--format", "jsonl", "--corpus", corpus_path],
                 ["evaluate", "--wy-vowels", "--format", "jsonl", "--corpus", corpus_path]):
        yield "cli " + " ".join(argv[:-1] if argv[0] == "evaluate" else argv) \
            + "\n" + _stdout(argv)

    text = _text(rng, bundled + seeded)
    for argv in (["encode", "--stdin"], ["encode", "--stdin", "--format", "jsonl"]):
        yield "cli " + " ".join(argv) + "\n" + _stdout(argv, text)


def _check(record):
    return hashlib.sha256(record.encode("utf-8")).digest()[:1]


def _pins(all_records):
    digest = hashlib.sha256()
    for record in all_records:
        digest.update(record.encode("utf-8") + b"\0")
    checks = base64.b64encode(b"".join(_check(r) for r in all_records)).decode("ascii")
    return digest.hexdigest(), checks


def first_difference(all_records):
    """Name the first record whose check differs from CHECKS.

    A changed record keeps its check 1 time in 256; the message then
    names a later changed record, or says that none could be told.
    """
    pinned = base64.b64decode(CHECKS)
    for i, record in enumerate(all_records):
        if _check(record) != pinned[i:i + 1]:
            return f"record {i} differs from the pinned one:\n{record}"
    if len(pinned) != len(all_records):
        return f"{len(all_records)} records, {len(pinned)} pinned"
    return "every record keeps its pinned check; the digest alone differs"


def test_behaviour_contract():
    all_records = list(records())
    digest, _ = _pins(all_records)
    assert digest == DIGEST, first_difference(all_records)


if __name__ == "__main__":
    all_records = list(records())
    digest, checks = _pins(all_records)
    if sys.argv[1:] == ["--pin"]:
        print(f'DIGEST = "{digest}"')
        print("CHECKS = (")
        for i in range(0, len(checks), 72):
            print(f'    "{checks[i:i + 72]}"')
        print(")")
    elif digest != DIGEST:
        sys.exit(f"behaviour contract broken: {first_difference(all_records)}")
    else:
        print(f"behaviour contract holds: {len(all_records)} records, sha256 {digest}")
