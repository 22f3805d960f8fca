"""The three workloads: set-up, timed rounds, checks and metrics.

Every workload is one closed-loop client in one thread: it sends the
next request when the previous one has returned.  A run times many short
rounds spread over the whole run.  On the shared 2-core host of the
README's figures, speed switches between a slow and a fast regime (about
3.8k and 6.5k lookup queries/s) for seconds to minutes, so the median of rounds
lands in either regime depending on the share of fast rounds in a run.
Each timed figure is therefore the slower-quartile round: the rate that
three rounds in four beat, and the per-round latency that one round in
four exceeds.  That figure stays in the slow regime as long as that
regime holds a quarter of the run.  The tail figure is the p90, not
the p99: stalls of a few milliseconds that hit many items for part of a
run move the p99 of a round far more than they move the p90.

Items, the unit of every rate and latency:

* stream-encode: one token of text piped through ``encode --stdin``;
  its latency is the gap between the output lines of consecutive tokens.
* lookup: one ``suggest`` query.
* corpus-eval: one corpus pair scored under one configuration; its
  latency is an ``evaluate`` call's time divided by the pairs it scored.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import model
from tracing import Tracer, patched

_now = time.perf_counter_ns

DOCUMENTS = 30
TOKENS_PER_DOCUMENT = 1000
LEXICON_WORDS = 50_000
QUERIES = 3000
LIMIT = 10
LOOKUP_SETUPS = 3
SAME_ANSWER_SAMPLE = 200
SHARDS = 120
COLD_STARTS = 9
TRACE_DOCUMENTS = 2
TRACE_QUERIES = 500
TRACE_SHARDS = 8
# Rounds are summarised by the slower quartile; see the module docstring.
SLOW_QUARTILE = 0.25

_STREAM_COLD = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from amharic_metaphone import cli; "
                "sys.exit(cli.main(['encode', '--stdin']))")
_CORPUS_COLD = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from amharic_metaphone import EncoderConfig, load_corpus; "
                "rows = load_corpus(sys.argv[2]); "
                "EncoderConfig(); EncoderConfig(wy_as_vowels=True); print(len(rows))")


class BenchError(Exception):
    """The benchmark could not run the program as intended."""


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class LineSink(io.TextIOBase):
    """stdout for the program: keeps the text and when each line ended."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.times: list[int] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.times.append(_now())
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


class Context:
    def __init__(self, root: Path, work: Path, seed: int, seconds: float):
        self.root = root
        self.src = root / "src"
        self.data = self.src / "amharic_metaphone" / "data"
        self.work = work
        self.seed = seed
        self.seconds = seconds


def call_cli(argv, stdin_text: str = "", sink=None):
    """Run ``cli.main`` in this process with the given stdin."""
    from amharic_metaphone import cli

    sink = sink if sink is not None else io.StringIO()
    err = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), sink, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, err.getvalue()


def cold_start(ctx: Context, code: str, args=(), stdin: str = "") -> tuple[float, str]:
    """Seconds for a fresh interpreter to run ``code``, and its stdout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(ctx.src), *args],
                          input=stdin, capture_output=True, text=True,
                          cwd=ctx.root, timeout=120)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"cold start exited {proc.returncode}: {proc.stderr.strip()}")
    return took, proc.stdout


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    """Shared run loop; subclasses supply set-up, rounds and checks."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.rates: list[float] = []
        self.p50: list[float] = []
        self.p90: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self) -> dict:
        """Set up and measure for ``seconds``."""
        self.start = time.monotonic()
        self.deadline = self.start + self.ctx.seconds
        self.setup()
        self.measure()
        return self.result()

    def cold_starts_due(self, finish: bool = False) -> None:
        """Time the cold starts that are due: COLD_STARTS of them, spread
        evenly over the run so that their median sees the same host as
        the rounds do."""
        while len(self.setup_times) < COLD_STARTS and (
                finish or time.monotonic() >= self.start
                + len(self.setup_times) * self.ctx.seconds / COLD_STARTS):
            self.setup_times.append(self.time_cold_start())

    def complain(self, problems) -> None:
        self.problems.extend(problems)

    def result(self) -> dict:
        if not self.rates:
            raise BenchError("no round completed")
        metrics = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "items_per_s": (quantile(self.rates, SLOW_QUARTILE), "1/s"),
            "item_p50_us": (quantile(self.p50, 1 - SLOW_QUARTILE), "us"),
            "item_p90_us": (quantile(self.p90, 1 - SLOW_QUARTILE), "us"),
        }
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


# ---------------------------------------------------------------------------

class StreamEncode(Workload):
    name = "stream-encode"

    def generate(self) -> None:
        self.docs = gen.documents(self.ctx.seed, self.ctx.data, DOCUMENTS, TOKENS_PER_DOCUMENT)
        self.expected: dict[int, str] = {}

    def setup(self) -> None:
        self.sentence = " ".join(self.docs[0].tokens[:20]) + "\n"
        cold_start(self.ctx, _STREAM_COLD, (), self.sentence)    # writes bytecode caches

    def time_cold_start(self) -> float:
        """A fresh ``encode --stdin`` over one sentence."""
        took, out = cold_start(self.ctx, _STREAM_COLD, (), self.sentence)
        want = len(model.split_tokens(self.sentence))
        got = sum(1 for line in out.splitlines() if line.split("\t")[1:2] in (["0"], ["-"]))
        if got != want:
            self.complain([f"cold start encoded {got} tokens, text has {want}"])
        return took

    def run_doc(self, i: int):
        doc = self.docs[i]
        sink = LineSink()
        start = _now()
        code, err = call_cli(["encode", "--stdin"], doc.text, sink)
        end = _now()
        output = sink.text()
        if code != 0:
            return end - start, None, [], f"exit {code}: {err.strip()}"
        return end - start, output, self.token_latencies(start, output, sink.times), None

    @staticmethod
    def token_latencies(start: int, output: str, times: list[int]) -> list[int]:
        lines = output.split("\n")[:-1]
        out: list[int] = []
        prev = start
        last = None
        for line, t in zip(lines, times):
            fields = line.split("\t", 2)
            if len(fields) > 1 and fields[1] in ("0", "-") and last is not None:
                out.append(last - prev)
                prev = last
            last = t
        if last is not None:
            out.append(last - prev)
        return out

    def check_doc(self, i: int, output: str) -> None:
        if i in self.expected:
            if output != self.expected[i]:
                self.complain([f"document {i}: output differs from its first run"])
            return
        self.expected[i] = output
        doc = self.docs[i]
        self.complain([f"document {i}: {p}"
                       for p in checks.check_stream(doc.text, doc.planted, output)])

    def measure(self) -> None:
        took, output, _, error = self.run_doc(0)      # warm-up
        if output is not None:
            self.check_doc(0, output)
        n = 0
        while n == 0 or time.monotonic() < self.deadline:
            self.cold_starts_due()
            i = n % len(self.docs)
            n += 1
            took, output, lat, error = self.run_doc(i)
            items = len(self.docs[i].tokens)
            self.attempted += items
            if error is not None:
                self.failed += items
                continue
            self.check_doc(i, output)
            self.rates.append(items / (took / 1e9))
            self.p50.append(quantile(lat, 0.5) / 1e3)
            self.p90.append(quantile(lat, 0.9) / 1e3)
        self.cold_starts_due(finish=True)

    # -- traced run
    def trace_rounds(self):
        return [(i, len(self.docs[i].tokens)) for i in range(TRACE_DOCUMENTS)]

    def run_round(self, key):
        took, output, _, error = self.run_doc(key)
        return took, output, error

    def check_round(self, key, output) -> None:
        self.check_doc(key, output)


# ---------------------------------------------------------------------------

class Lookup(Workload):
    name = "lookup"

    def generate(self) -> None:
        from amharic_metaphone import EncoderConfig

        words = gen.lexicon(self.ctx.seed, LEXICON_WORDS)
        self.queries = gen.queries(self.ctx.seed, words, QUERIES)
        self.lexicon_path = self.ctx.work / "lexicon.txt"
        self.lexicon_path.write_text("\n".join(words) + "\n", encoding="utf-8")
        self.dump_path = self.ctx.work / "index.txt"
        self.config = EncoderConfig()
        self.index = None
        self.expected = None

    def build(self, keep_built: bool = False):
        """``index`` through the CLI, then ``load_index`` of its dump;
        returns the seconds both took.  With ``keep_built`` the index the
        CLI built is kept long enough to check that the reloaded one
        answers a sample alike."""
        from amharic_metaphone import cli, lexicon

        built = []
        dump = cli.dump_index

        def keep(index, path):
            built.append(index)
            return dump(index, path)

        capture = [(cli, "dump_index", keep)] if keep_built else []
        self.index = None
        start = _now()
        with patched(capture):
            code, err = call_cli(["index", "--lexicon", str(self.lexicon_path),
                                  "--out", str(self.dump_path)])
        indexed = _now()
        if code != 0:
            raise BenchError(f"index exited {code}: {err.strip()}")
        answers = None
        if keep_built:
            answers = self.answer_sample(built.pop())
        loading = _now()
        self.index = lexicon.load_index(self.dump_path)
        ready = _now()
        if answers is not None:
            self.complain(checks.check_same_answers(answers, self.answer_sample(self.index)))
        return (indexed - start + ready - loading) / 1e9

    def answer_sample(self, index):
        from amharic_metaphone import lexicon

        return [[(s.word, int(s.match_tier), s.distance)
                 for s in lexicon.suggest(q.text, index, self.config, limit=LIMIT)]
                for q in self.queries[:SAME_ANSWER_SAMPLE]]

    def setup(self) -> None:
        self.setup_times.append(self.build(keep_built=True))

    def run_queries(self, queries):
        from amharic_metaphone import lexicon

        suggest = lexicon.suggest
        index, config = self.index, self.config
        results = []
        lat = []
        start = _now()
        for q in queries:
            t = _now()
            results.append(suggest(q.text, index, config, limit=LIMIT))
            lat.append(_now() - t)
        took = _now() - start
        return took, [[(s.word, int(s.match_tier), s.distance) for s in r] for r in results], lat

    def check_answers(self, answers) -> None:
        if self.expected is None:
            self.expected = answers
            for q, a in zip(self.queries, answers):
                self.complain(checks.check_suggestions(q, a, LIMIT))
        elif answers != self.expected[:len(answers)]:
            self.complain(["suggestions differ from the first round"])

    def measure(self) -> None:
        self.run_queries(self.queries[:200])          # warm-up
        # The set-ups come on top of ``seconds``.  Each is followed by a
        # third of the query time, so host drift reaches set-up and
        # queries alike.
        for segment in range(LOOKUP_SETUPS):
            if segment:
                self.setup_times.append(self.build())
            spent = 0.0
            while spent < self.ctx.seconds / LOOKUP_SETUPS:
                took, answers, lat = self.run_queries(self.queries)
                spent += took / 1e9
                self.attempted += len(self.queries)
                self.check_answers(answers)
                self.rates.append(len(self.queries) / (took / 1e9))
                self.p50.append(quantile(lat, 0.5) / 1e3)
                self.p90.append(quantile(lat, 0.9) / 1e3)

    # -- traced run
    def trace_rounds(self):
        return [(0, TRACE_QUERIES)]

    def run_round(self, key):
        took, answers, _ = self.run_queries(self.queries[:TRACE_QUERIES])
        return took, answers, None

    def check_round(self, key, output) -> None:
        self.check_answers(output)


# ---------------------------------------------------------------------------

class CorpusEval(Workload):
    name = "corpus-eval"

    def generate(self) -> None:
        from amharic_metaphone import EncoderConfig, matches

        self.shards = gen.corpus_shards(self.ctx.seed, self.ctx.data, SHARDS)
        self.paths = []
        for n, shard in enumerate(self.shards):
            path = self.ctx.work / f"shard{n:03d}.tsv"
            path.write_text(gen.corpus_tsv(shard), encoding="utf-8")
            self.paths.append(path)
        self.full = self.ctx.work / "corpus.tsv"
        self.full.write_text(gen.corpus_tsv([p for s in self.shards for p in s]),
                             encoding="utf-8")
        # Bundled rows have no label of their own; each is scored once
        # through the per-pair API and the CLI totals must agree.
        configs = {False: EncoderConfig(), True: EncoderConfig(wy_as_vowels=True)}
        self.bundled_hits = {
            (p.canonical, p.variant, wy): matches(p.canonical, p.variant, cfg)
            for s in self.shards for p in s if p.bundled for wy, cfg in configs.items()
        }
        self.expected: dict[tuple[int, bool], dict] = {}

    def setup(self) -> None:
        cold_start(self.ctx, _CORPUS_COLD, (str(self.full),))   # writes bytecode caches

    def time_cold_start(self) -> float:
        """A fresh interpreter importing the package and reading the corpus."""
        took, out = cold_start(self.ctx, _CORPUS_COLD, (str(self.full),))
        rows = sum(len(s) for s in self.shards)
        if out.strip() != str(rows):
            self.complain([f"cold start loaded {out.strip()} rows, corpus has {rows}"])
        return took

    def evaluate(self, n: int, wy: bool):
        argv = ["evaluate", "--corpus", str(self.paths[n]), "--format", "jsonl"]
        if wy:
            argv.append("--wy-vowels")
        sink = io.StringIO()
        start = _now()
        code, err = call_cli(argv, "", sink)
        took = _now() - start
        if code != 0:
            return took, None, f"exit {code}: {err.strip()}"
        return took, sink.getvalue(), None

    def check_record(self, n: int, wy: bool, output: str) -> None:
        key = (n, wy)
        try:
            record = json.loads(output)
        except ValueError:
            self.complain([f"shard {n}: output is not one JSON object"])
            return
        if key in self.expected:
            if record != self.expected[key]:
                self.complain([f"shard {n}: output differs from its first run"])
            return
        self.expected[key] = record
        self.complain([f"shard {n} wy={wy}: {p}" for p in checks.check_evaluation(
            self.shards[n], wy, record, self.bundled_hits)])

    def measure(self) -> None:
        for wy in (False, True):                      # warm-up
            took, output, error = self.evaluate(0, wy)
            if output is not None:
                self.check_record(0, wy, output)
        calls: list[float] = []
        n = 0
        while n == 0 or time.monotonic() < self.deadline:
            self.cold_starts_due()
            shard = n % len(self.shards)
            n += 1
            pairs = len(self.shards[shard])
            round_ns = 0
            ok = True
            for wy in (False, True):
                took, output, error = self.evaluate(shard, wy)
                self.attempted += pairs
                round_ns += took
                if error is not None:
                    self.failed += pairs
                    ok = False
                    continue
                self.check_record(shard, wy, output)
                calls.append(took / pairs / 1e3)
            if ok:
                self.rates.append(2 * pairs / (round_ns / 1e9))
        self.cold_starts_due(finish=True)
        # One evaluate call yields one per-pair figure, so for item_p50_us
        # each call is a round, and the p90 is taken over all calls.
        self.p50 = calls
        if calls:
            self.p90.append(quantile(calls, 0.9))

    # -- traced run
    def trace_rounds(self):
        return [((n, wy), len(self.shards[n])) for n in range(TRACE_SHARDS)
                for wy in (False, True)]

    def run_round(self, key):
        took, output, error = self.evaluate(*key)
        return took, output, error

    def check_round(self, key, output) -> None:
        self.check_record(*key, output)


WORKLOADS = {w.name: w for w in (StreamEncode, Lookup, CorpusEval)}


# ---------------------------------------------------------------------------
# Traced run.

def _patches(tracer: Tracer, on_encode):
    """Wrappers for the names one module uses to call another."""
    from importlib import import_module

    # The package re-exports a function named evaluate, so the modules
    # are taken from the import system, not as package attributes.
    cli, encoder, ethiopic, evaluate, lexicon = (
        import_module(f"amharic_metaphone.{m}")
        for m in ("cli", "encoder", "ethiopic", "evaluate", "lexicon"))

    def span(name, hook=None):
        return lambda fn: tracer.span(name, fn, hook)

    def timed(name):
        return lambda fn: tracer.timed(name, fn)

    def counted(name):
        return lambda fn: tracer.counted(name, fn)

    table = [
        (cli, "main", span("cli.main")),
        (cli, "encode", span("encoder.encode", on_encode)),
        (lexicon, "encode", span("encoder.encode", on_encode)),
        (evaluate, "encode", span("encoder.encode", on_encode)),
        (cli, "is_ethiopic", timed("cli.is_ethiopic")),
        (cli, "load_corpus", span("evaluate.load_corpus")),
        (cli, "evaluate", span("evaluate.evaluate")),
        (cli, "load_lexicon", span("lexicon.load_lexicon")),
        (cli, "build_index", span("lexicon.build_index")),
        (cli, "dump_index", span("lexicon.dump_index")),
        (lexicon, "load_index", span("lexicon.load_index")),
        (lexicon, "suggest", span("lexicon.suggest")),
        (lexicon, "distance", timed("lexicon.distance")),
        (lexicon, "config_fingerprint", timed("encoder.config_fingerprint")),
        (evaluate, "matches", span("evaluate.matches")),
        (encoder, "simplify", timed("encoder.canonical")),
        (encoder, "remove_vowels", timed("encoder.canonical")),
        (encoder, "_phonological_alternates", timed("encoder.alternates")),
        (encoder, "_glyph_alternates", timed("encoder.alternates")),
        (encoder, "lcd_mistrike", timed("encoder.alternates")),
        (ethiopic, "default_tables", timed("ethiopic.default_tables")),
        (ethiopic, "decompose", counted("ethiopic.decompose")),
        (ethiopic, "compose", counted("ethiopic.compose")),
    ]
    # A name a later version no longer has is skipped; its figures read 0.
    return [(mod, attr, make(getattr(mod, attr)))
            for mod, attr, make in table if hasattr(mod, attr)]


PER_LAYER_UNITS = {
    "cli.token_check_us": "us", "cli.self_us": "us", "cli.output_bytes": "bytes",
    "ethiopic.default_tables_calls": "count", "ethiopic.default_tables_us": "us",
    "ethiopic.decompose_calls": "count", "ethiopic.compose_calls": "count",
    "encoder.encode_us": "us", "encoder.canonical_us": "us",
    "encoder.alternates_us": "us", "encoder.keys_per_word": "count",
    "encoder.keys_enumerated_per_word": "count", "encoder.keys_kept_ratio": "ratio",
    "encoder.capped_words": "ratio", "encoder.fingerprint_calls": "count",
    "encoder.fingerprint_us": "us", "lexicon.load_lexicon_s": "s",
    "lexicon.build_index_s": "s", "lexicon.dump_index_s": "s",
    "lexicon.load_index_s": "s", "lexicon.index_keys": "count",
    "lexicon.index_bytes": "bytes", "lexicon.suggest_self_us": "us",
    "lexicon.candidates_per_query": "count", "lexicon.distance_calls": "count",
    "lexicon.distance_us": "us", "lexicon.scored_kept_ratio": "ratio",
    "evaluate.load_corpus_s": "s", "evaluate.matches_us": "us",
    "evaluate.self_us": "us", "trace.overhead_ratio": "ratio",
}


def run_traced(w: Workload, trace_path: Path) -> dict:
    """Per-layer figures: each trace round runs once untraced and once
    traced, in whole cycles, so every count per item repeats exactly."""
    tracer = Tracer()
    keysets: list[tuple[int, str]] = []
    reps = _patches(tracer, lambda r: keysets.append((len(r), r.canonical)))
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    candidates: dict[int, int] = {}
    if isinstance(w, Lookup):
        tracer.op = -1
        with patched(reps):
            w.build(keep_built=True)
        for name in ("load_lexicon", "build_index", "dump_index", "load_index"):
            took = tracer.durations(f"lexicon.{name}")
            values[f"lexicon.{name}_s"] = statistics.median(took) / 1e9 if took else 0.0
        values["lexicon.index_keys"] = float(len(w.index))
        values["lexicon.index_bytes"] = float(w.dump_path.stat().st_size)
        tracer.reset_counts()
        keysets.clear()
        from amharic_metaphone import encode

        for n, q in enumerate(w.queries[:TRACE_QUERIES]):
            keys = encode(q.text, w.config).keys()
            candidates[n] = len(set().union(*(w.index.lookup(k) for k in keys)))

    rounds = w.trace_rounds()
    baseline = {}
    for key, _ in rounds:
        _, output, error = w.run_round(key)
        if error is not None:
            raise BenchError(f"trace round {key}: {error}")
        w.check_round(key, output)
        baseline[key] = output
    untraced = traced = items = 0
    extra = {"bytes": 0, "returned": 0}
    op = 0
    deadline = time.monotonic() + w.ctx.seconds
    while op == 0 or time.monotonic() < deadline:
        for key, n in rounds:
            took, output, error = w.run_round(key)
            tracer.op = op
            with patched(reps):
                took_t, output_t, error_t = w.run_round(key)
            op += 1
            w.attempted += 2 * n
            if error is not None or error_t is not None:
                w.failed += n * ((error is not None) + (error_t is not None))
                continue
            if output != baseline[key] or output_t != baseline[key]:
                w.complain([f"trace round {key}: output differs from the untraced run"])
            untraced += took
            traced += took_t
            items += n
            if isinstance(output_t, str):
                extra["bytes"] += len(output_t.encode("utf-8"))
            else:
                extra["returned"] += sum(len(a) for a in output_t)
    if isinstance(w, Lookup):
        queries = op // len(rounds)
        extra["candidates"] = queries * sum(candidates.values())

    tot = tracer.totals(min_op=0)
    counts, timed_ns = tracer.counts, tracer.timed_ns

    def per_item_us(ns):
        return ns / items / 1e3 if items else 0.0

    def per_item(count):
        return count / items if items else 0.0

    def inclusive(name):
        return tot.get(name, (0, 0, 0))[1]

    def self_time(name):
        return tot.get(name, (0, 0, 0))[2]

    words = len(keysets)
    kept = sum(k for k, _ in keysets)
    staged = sum(model.staged_keys(c) for _, c in keysets)
    capped = sum(1 for k, c in keysets if k == checks.MAX_KEYS and model.staged_keys(c) > k)
    load_corpus = [d for d in tracer.durations("evaluate.load_corpus")]
    values.update({
        "cli.token_check_us": per_item_us(timed_ns["cli.is_ethiopic"]),
        "cli.self_us": per_item_us(self_time("cli.main")),
        "cli.output_bytes": per_item(extra["bytes"]),
        "ethiopic.default_tables_calls": per_item(counts["ethiopic.default_tables"]),
        "ethiopic.default_tables_us": per_item_us(timed_ns["ethiopic.default_tables"]),
        "ethiopic.decompose_calls": per_item(counts["ethiopic.decompose"]),
        "ethiopic.compose_calls": per_item(counts["ethiopic.compose"]),
        "encoder.encode_us": per_item_us(inclusive("encoder.encode")),
        "encoder.canonical_us": per_item_us(timed_ns["encoder.canonical"]),
        "encoder.alternates_us": per_item_us(timed_ns["encoder.alternates"]),
        "encoder.keys_per_word": kept / words if words else 0.0,
        "encoder.keys_enumerated_per_word": staged / words if words else 0.0,
        "encoder.keys_kept_ratio": kept / staged if staged else 0.0,
        "encoder.capped_words": capped / words if words else 0.0,
        "encoder.fingerprint_calls": per_item(counts["encoder.config_fingerprint"]),
        "encoder.fingerprint_us": per_item_us(timed_ns["encoder.config_fingerprint"]),
        "lexicon.suggest_self_us": per_item_us(self_time("lexicon.suggest")),
        "lexicon.candidates_per_query": per_item(extra.get("candidates", 0)),
        "lexicon.distance_calls": per_item(counts["lexicon.distance"]),
        "lexicon.distance_us": per_item_us(timed_ns["lexicon.distance"]),
        "lexicon.scored_kept_ratio": (extra["returned"] / counts["lexicon.distance"]
                                      if counts["lexicon.distance"] else 0.0),
        "evaluate.load_corpus_s": statistics.median(load_corpus) / 1e9 if load_corpus else 0.0,
        "evaluate.matches_us": per_item_us(inclusive("evaluate.matches")),
        "evaluate.self_us": per_item_us(self_time("evaluate.evaluate")),
        "trace.overhead_ratio": traced / untraced if untraced else 0.0,
    })
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    return {
        "correct": not w.problems,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]}
                    for k in PER_LAYER_UNITS},
    }
