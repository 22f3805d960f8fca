"""Correctness checks on the program's outputs.

Each checker returns a list of problems; an empty list means the output
passed.  They compare against the benchmark's own model, tokenizer,
Levenshtein and generated labels, or against properties every key set
must have.  None compares against a stored copy of earlier output.
"""

from __future__ import annotations

from model import ALEF, canonical_key, is_syllable, levenshtein, split_tokens

MAX_KEYS = 16


def _key_chars_ok(key: str) -> bool:
    body = key[1:] if key.startswith(ALEF) else key
    return bool(key) and all(
        0x1200 <= ord(c) < 0x1380 and (ord(c) - 0x1200) % 8 == 5 for c in body
    )


def check_stream(text: str, planted, output: str) -> list[str]:
    """``encode --stdin`` text output for one document."""
    problems: list[str] = []
    tokens = split_tokens(text)
    if not output.endswith("\n"):
        return ["output does not end with a newline"]
    groups: list[tuple[str, list[tuple[int, str]] | None]] = []
    for n, line in enumerate(output[:-1].split("\n")):
        parts = line.split("\t")
        if len(parts) != 3:
            return [f"line {n}: expected word<TAB>tier<TAB>key, got {line!r}"]
        word, tier, key = parts
        if tier == "-":
            if key != word:
                problems.append(f"line {n}: pass-through {word!r} changed to {key!r}")
            groups.append((word, None))
        elif tier == "0":
            groups.append((word, [(0, key)]))
        elif tier in ("1", "2", "3") and groups and groups[-1][0] == word \
                and groups[-1][1] is not None:
            groups[-1][1].append((int(tier), key))
        else:
            return [f"line {n}: key of tier {tier!r} does not follow a tier-0 key of {word!r}"]
    if len(groups) != len(tokens):
        return [f"{len(groups)} tokens in the output, {len(tokens)} in the text"]
    for i, (token, (word, keys)) in enumerate(zip(tokens, groups)):
        if word != token:
            problems.append(f"token {i}: output word {word!r}, text has {token!r}")
            continue
        ethiopic = all(is_syllable(c) for c in token)
        if keys is None:
            if ethiopic:
                problems.append(f"token {i}: Ethiopic word {token!r} passed through")
            continue
        if not ethiopic:
            problems.append(f"token {i}: non-Ethiopic {token!r} was encoded")
            continue
        tiers = [t for t, _ in keys]
        texts = [k for _, k in keys]
        if tiers != sorted(tiers):
            problems.append(f"token {i}: tiers {tiers} decrease")
        if len(set(texts)) != len(texts):
            problems.append(f"token {i}: repeated keys {texts}")
        if len(texts) > MAX_KEYS:
            problems.append(f"token {i}: {len(texts)} keys, cap is {MAX_KEYS}")
        bad = [k for k in texts if not _key_chars_ok(k)]
        if bad:
            problems.append(f"token {i}: keys {bad} hold a non-sadis character")
        if texts[0] != canonical_key(token):
            problems.append(f"token {i}: canonical key {texts[0]!r} of {token!r}, "
                            f"expected {canonical_key(token)!r}")
    if not problems:
        for src, var in planted:
            a, b = groups[src][1][0][1], groups[var][1][0][1]
            if a != b:
                problems.append(f"planted variant {tokens[var]!r} keys to {b!r}, "
                                f"its source {tokens[src]!r} to {a!r}")
    return problems


def check_suggestions(query, results, limit: int) -> list[str]:
    """One ``suggest`` answer, as (word, tier, distance) tuples."""
    problems: list[str] = []
    if len(results) > limit:
        problems.append(f"{query.text!r}: {len(results)} results, limit {limit}")
    for word, tier, dist in results:
        if tier not in (0, 1, 2, 3):
            problems.append(f"{query.text!r}: {word!r} has tier {tier}")
        if dist != levenshtein(query.text, word):
            problems.append(f"{query.text!r}: distance to {word!r} is {dist}, "
                            f"expected {levenshtein(query.text, word)}")
    order = [(t, d, w) for w, t, d in results]
    if any(a >= b for a, b in zip(order, order[1:])):
        problems.append(f"{query.text!r}: results not sorted by (tier, distance, word)")
    if query.source is None:
        if results:
            problems.append(f"{query.text!r} holds an unused family, yet got {len(results)} results")
        return problems
    found = [t for w, t, _ in results if w == query.source]
    if found:
        if found[0] > query.tier:
            problems.append(f"{query.text!r}: source {query.source!r} at tier {found[0]}, "
                            f"error type {query.error_type} allows {query.tier}")
    else:
        bound = (query.tier, levenshtein(query.text, query.source), query.source)
        if len(results) < limit or order[-1] > bound:
            problems.append(f"{query.text!r}: source {query.source!r} (type "
                            f"{query.error_type}) missing from {len(results)} results")
    return problems


def check_same_answers(built, loaded) -> list[str]:
    """The reloaded index answers a query sample as the built one did."""
    return [f"query {i}: built index gave {a}, reloaded gave {b}"
            for i, (a, b) in enumerate(zip(built, loaded)) if a != b] + (
        [f"{len(built)} answers from the built index, {len(loaded)} reloaded"]
        if len(built) != len(loaded) else [])


def check_evaluation(pairs, wy_as_vowels: bool, record: dict, bundled_hits) -> list[str]:
    """``evaluate --format jsonl`` output for one shard under one config.

    bundled_hits maps each bundled row to whether it matched when scored
    one pair at a time; generated rows are judged by their labels.
    """
    problems: list[str] = []
    totals: dict[int, int] = {}
    low: dict[int, int] = {}
    high: dict[int, int] = {}
    xf_total = xf_hits = 0
    for p in pairs:
        if p.bundled:
            hit = int(bundled_hits[(p.canonical, p.variant, wy_as_vowels)])
        else:
            hit = None
        if p.expected_fail:
            xf_total += 1
            xf_hits += hit
            continue
        t = p.error_type
        totals[t] = totals.get(t, 0) + 1
        sure = hit if hit is not None else int(p.expect == "match")
        low[t] = low.get(t, 0) + sure
        high[t] = high.get(t, 0) + (1 if p.expect == "any" and hit is None else sure)
    if record.get("config", {}).get("wy_as_vowels") is not wy_as_vowels:
        problems.append(f"config reported as {record.get('config')}, run with "
                        f"wy_as_vowels={wy_as_vowels}")
    got = {row["type"]: row for row in record.get("types", [])}
    if sorted(got) != sorted(totals):
        return problems + [f"types {sorted(got)} reported, {sorted(totals)} generated"]
    for t, row in got.items():
        if row["total"] != totals[t]:
            problems.append(f"type {t}: total {row['total']}, generated {totals[t]}")
        if not low[t] <= row["matched"] <= high[t]:
            problems.append(f"type {t}: matched {row['matched']}, labels allow "
                            f"{low[t]}..{high[t]}")
    overall = record.get("overall", {})
    if overall.get("total") != sum(totals.values()):
        problems.append(f"overall total {overall.get('total')}, generated {sum(totals.values())}")
    if overall.get("matched") != sum(row["matched"] for row in got.values()):
        problems.append("overall matched is not the sum of the per-type counts")
    xf = record.get("expected_fail", {})
    if (xf.get("total"), xf.get("matched")) != (xf_total, xf_hits):
        problems.append(f"expected_fail {xf}, rows give total {xf_total} matched {xf_hits}")
    return problems
