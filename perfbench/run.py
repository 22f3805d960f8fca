"""Seeded benchmark of amharic-metaphone: bulk encoding, dictionary lookup
and corpus evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0

prints the run's end-to-end metrics (``--trace 1``: per-layer metrics
from a separate traced run) as one JSON object on the last line.
``--workload all`` runs every workload, each in its own process, and
``--repeat N`` runs each N times with seeds seed..seed+N-1 and prints
the median and quartiles of every metric next to its bound in
BENCHMARK.json.  The package is imported from ``src/`` of the checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("stream-encode", "lookup", "corpus-eval")


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import amharic_metaphone

    if not Path(amharic_metaphone.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported amharic_metaphone from {amharic_metaphone.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, BenchError, Context, run_traced

    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / "work"))
    try:
        w = WORKLOADS[name](Context(ROOT, work, seed, seconds))
        w.generate()
        if trace:
            result = run_traced(w, HERE / "traces" / f"{name}-seed{seed}.tsv")
        else:
            result = w.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in w.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(w.problems) > 20:
        print(f"check failed: ... {len(w.problems) - 20} more", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def report(names, runs: int, seed: int, seconds: float, trace: bool) -> int:
    """Run every named workload ``runs`` times in its own process and
    print each metric's median and quartiles, with its bound."""
    bounds = {m["name"]: m.get("bound") for m in _spec().get("end_to_end", [])}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        results = []
        for k in range(runs):
            r = _child(name, seed + k, seconds, trace)
            print(f"{name} seed {seed + k}: " + json.dumps(r), file=sys.stderr)
            results.append(r)
        combined["correct"] &= all(r["correct"] for r in results)
        combined["attempted"] += sum(r["attempted"] for r in results)
        combined["failed"] += sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{name}: {runs} runs, seeds {seed}..{seed + runs - 1}, "
              f"failed share {shares}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if runs > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            print(f"  {metric:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
            combined["metrics"][f"{name}.{metric}"] = {"value": median, "unit": first["unit"]}
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_spec().get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="steadiness report over N runs per workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "amharic_metaphone" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all" or args.repeat:
        names = NAMES if args.workload == "all" else (args.workload,)
        return report(names, max(1, args.repeat), args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
