"""conwaykit benchmark: one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload engine --seed 1 --seconds 55 --trace 0

Two workloads, each the op lists of two corpus families:

    engine      skein_braids + torus_wide: parse_pd + conway in process
    verify_cli  verify_default (run_all in process) + cli_table (one CLI
                process per op)

Each workload is a closed loop with one caller.  A pass runs the
workload's op list once; passes repeat until --seconds is used up, and
every workload makes at least its MIN_PASSES.  Each pass draws its own
labelings from the seed, so the same seed always gives the same inputs.
Everything runs in this single-threaded process, except the CLI ops,
which start one process each and wait for it.  Every op's output is
checked after the pass; an op that raises, exits non-zero or returns a
wrong value counts as failed and the run goes on.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
every pass twice, untraced and then with layer spans on (tracing.py), and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus
from tracing import ARITH, Tracer, install

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 21
SPAN_CAP = 100_000
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import conwaykit\n"
    "conwaykit.load_table()\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # error text, or None when right


class Bench:
    """The package under test plus the state one run accumulates."""

    def __init__(self, ck, seed: int):
        self.ck = ck
        self.seed = seed
        self.golden = corpus.load_golden()
        self.polys = {
            name: ck.parse_poly(text).coeffs
            for name, text in self.golden["polynomials"].items()
        }
        self.torus_forms = {
            name: ck.conway_torus2(len(word)).coeffs for name, word, _ in corpus.TORUS_WIDE
        }
        self.child_rss_kb = 0
        self.env = {k: v for k, v in os.environ.items() if k != "KNOT_TABLE"}
        self.env["PYTHONPATH"] = str(SRC)

    # -- op lists, one per pass -------------------------------------------

    def braid_op(self, item: corpus.Item, want) -> Op:
        name, text = item.name, item.pd
        ck = self.ck

        def run():
            ctx = ck.SkeinContext()
            p = ck.conway(ck.parse_pd(text), ctx)
            return p.coeffs, ctx.nodes_expanded

        def check(out):
            coeffs = out[0]
            if coeffs != want:
                return "%s: wrong polynomial %r" % (name, coeffs)
            return _law_error(item, coeffs)

        return Op(name, run, check)

    def engine(self, i: int, tracer: Tracer | None) -> list[Op]:
        return self.skein_braids(i) + self.torus_wide(i)

    def verify_cli(self, i: int, tracer: Tracer | None) -> list[Op]:
        return self.verify_default() + self.cli_table(i, tracer)

    def skein_braids(self, i: int) -> list[Op]:
        return [
            self.braid_op(item, self.polys[item.name])
            for item in corpus.braid_items(corpus.SKEIN_BRAIDS, self.seed, i)
        ]

    def torus_wide(self, i: int) -> list[Op]:
        return [
            self.braid_op(item, self.torus_forms[item.name])
            for item in corpus.braid_items(corpus.TORUS_WIDE, self.seed, i)
        ]

    def verify_default(self) -> list[Op]:
        ck, seed = self.ck, self.seed

        def run():
            reports = ck.run_all(ck.VerifyConfig(seed=seed))
            return tuple((r.check_name, r.expected, r.computed, r.passed) for r in reports)

        def check(out):
            bad = [r[0] for r in out if not r[3]]
            if len(out) != 35 or bad:
                return "run_all: %d reports, failed: %s" % (len(out), ", ".join(bad))
            return None

        return [Op("run_all", run, check)]

    def cli_table(self, i: int, tracer: Tracer | None) -> list[Op]:
        items = [(e["name"], e["pd"], e["conway"]) for e in self.golden["table"]]
        items += [
            (item.name, item.pd, self.golden["polynomials"][item.name])
            for item in corpus.braid_items(corpus.CLI_BRAIDS, self.seed, i)
        ]
        ops = []
        for name, text, want in items:
            argv = ["conway", "--format", "json", "--pd", text]
            ops.append(Op(name, self._cli_runner(argv, tracer), _cli_check(name, want)))
        return ops

    def _cli_runner(self, argv: list[str], tracer: Tracer | None):
        if tracer is None:
            cmd = [sys.executable, "-m", "conwaykit.cli"] + argv

            def run():
                proc = subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    env=self.env, cwd=ROOT,
                )
                # outputs are a few hundred bytes, far below the pipe buffer
                out = proc.stdout.read()
                proc.stderr.read()
                proc.stdout.close()
                proc.stderr.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
                return proc.returncode, out

            return run

        cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(SRC)]
        cmd += argv

        def run_traced():
            proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT)
            summary = json.loads(proc.stderr.decode().splitlines()[-1])
            tracer.merge(summary)
            return proc.returncode, proc.stdout

        return run_traced


def _law_error(item: corpus.Item, coeffs) -> str | None:
    """Laws every Conway polynomial obeys: only powers of the parity of
    (components - 1), a0 = 1 for a knot and 0 for a link, and a1 = lk for
    a 2-component link."""
    wrong_parity = item.components % 2
    if any(coeffs[wrong_parity::2]):
        return "%s: parity law broken" % item.name
    a0 = coeffs[0] if coeffs else 0
    if a0 != (1 if item.components == 1 else 0):
        return "%s: a0 law broken" % item.name
    a1 = coeffs[1] if len(coeffs) > 1 else 0
    if item.components == 2 and a1 != item.linking:
        return "%s: a1 = lk law broken" % item.name
    return None


def _cli_check(name: str, want: str):
    def check(out):
        code, stdout = out
        if code != 0:
            return "%s: exit code %d" % (name, code)
        try:
            got = json.loads(stdout)["result"]
        except (ValueError, KeyError) as exc:
            return "%s: unreadable output (%s)" % (name, exc)
        return None if got == want else "%s: got %s, want %s" % (name, got, want)

    return check


# Every run of a workload makes at least this many passes.  The tail
# percentile is chosen from the fewest op samples a run can take, so that
# it is the same percentile on every run, however fast the program is.
MIN_PASSES = {"engine": 20, "verify_cli": 20}


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return math.floor(100 * (1 - 10 / min_samples))


# -- running passes -------------------------------------------------------


@dataclass
class PassResult:
    seconds: float
    latencies_ms: list[float]
    outputs: list[object]
    errors: list[str]  # one per failed op


def run_pass(ops: list[Op]) -> PassResult:
    latencies, outputs, errors = [], [], []
    clock = time.perf_counter_ns
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            outputs.append(None)
            errors.append("%s: %s: %s" % (op.name, type(exc).__name__, str(exc)[:200]))
            continue
        latencies.append((clock() - t0) / 1e6)
        outputs.append(out)
    seconds = (clock() - start) / 1e9
    for op, out in zip(ops, outputs):
        if out is not None:
            error = op.check(out)
            if error:
                errors.append(error)
    return PassResult(seconds, latencies, outputs, errors)


def keep_going(passes_done: int, min_passes: int, start: float, walls: list[float],
               seconds: float) -> bool:
    """Start another pass while it is expected to end within the budget."""
    if passes_done < min_passes:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def setup_sample() -> float:
    """A fresh interpreter timing import conwaykit plus a validated load_table()."""
    env = {k: v for k, v in os.environ.items() if k not in ("KNOT_TABLE", "PYTHONPATH")}
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    return float(proc.stdout)


def quantile(values: list[float], percent: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def run_plain(bench: Bench, workload: str, seconds: float):
    min_passes = MIN_PASSES[workload]
    setup_sample()  # compiles the bytecode, which users pay once per install
    setup: list[float] = []
    make_ops = getattr(bench, workload)
    passes: list[PassResult] = []
    walls: list[float] = []
    start = time.perf_counter()
    while keep_going(len(passes), min_passes, start, walls, seconds):
        t0 = time.perf_counter()
        passes.append(run_pass(make_ops(len(passes), None)))
        # set-up samples are spread over the run, between passes, so that
        # they see the same machine as the passes do
        due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < due:
            setup.append(setup_sample())
        walls.append(time.perf_counter() - t0)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    lat = [x for p in passes for x in p.latencies_ms]
    errors = [e for p in passes for e in p.errors]
    if not lat:
        raise RuntimeError("every op failed; first error: %s" % errors[0])
    attempted = sum(len(p.outputs) for p in passes)
    failed = len(errors)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, bench.child_rss_kb)
    q = tail_percentile(min_passes * len(passes[0].outputs))
    metrics = {
        "pass_s": (statistics.median(p.seconds for p in passes), len(passes), "passes"),
        "op_ms_p50": (statistics.median(lat), len(lat), "ops"),
        "op_ms_tail": (quantile(lat, q), len(lat), "ops, p%d" % q),
        "setup_s": (statistics.median(setup), len(setup), "fresh interpreters"),
        "peak_rss_mb": (rss_kb / 1024, 1, "process peak"),
        "ok_ratio": ((attempted - failed) / attempted, attempted, "ops"),
    }
    extra = {"failed_ratio": failed / attempted, "tail_percentile": q}
    return metrics, attempted, failed, errors, extra


# -- traced run -------------------------------------------------------------


def layer_metrics(t: Tracer, setup: Tracer) -> dict[str, float]:
    calls, counts = t.calls, t.counts
    nodes = counts["nodes"]
    reduce_calls = calls["diagram.reduce"]
    arith = ["poly." + name for name in ARITH]
    conway_s = t.total_ns["skein.conway"] / 1e9
    return {
        "diagram.reduce_calls": reduce_calls,
        "diagram.reduce_s": t.self_s("diagram.reduce"),
        "diagram.reduce_removed": counts["reduce_removed"],
        "diagram.reduce_noop_ratio": counts["reduce_noop"] / reduce_calls if reduce_calls else 0.0,
        "diagram.canonical_code_calls": calls["diagram.canonical_code"],
        "diagram.canonical_code_s": t.self_s("diagram.canonical_code"),
        "diagram.components_calls": calls["diagram.components"],
        "diagram.components_s": t.self_s("diagram.components"),
        "diagram.is_graph_connected_s": t.self_s("diagram.is_graph_connected"),
        "diagram.smooth_s": t.self_s("diagram.smooth_crossing"),
        "diagram.switch_s": t.self_s("diagram.switch_crossing"),
        "skein.self_s": t.layer_self_s("skein"),
        "skein.components_per_node": counts["engine_components"] / nodes if nodes else 0.0,
        "skein.nodes": nodes,
        "skein.cache_hits": counts["cache_hits"],
        "skein.hit_ratio": counts["cache_hits"] / nodes if nodes else 0.0,
        "skein.memo_entries": counts["memo_entries"],
        "skein.ms_per_node": 1000 * conway_s / nodes if nodes else 0.0,
        "skein.max_crossings": t.maxima["node_crossings"],
        "poly.arith_calls": sum(calls[name] for name in arith),
        "poly.arith_s": sum(t.self_ns[name] for name in arith) / 1e9,
        "poly.max_degree": t.maxima["poly_degree"],
        "diagram.parse_pd_calls": calls["diagram.parse_pd"],
        "diagram.parse_pd_s": t.self_s("diagram.parse_pd"),
        "table.load_calls": setup.calls["table.load_table"] + calls["table.load_table"],
        "table.load_s": setup.self_s("table.load_table") + t.self_s("table.load_table"),
        "verify.table_s": t.family_ns["table"] / 1e9,
        "verify.chain_s": t.family_ns["chain"] / 1e9,
        "verify.closed_form_s": t.family_ns["closed_form"] / 1e9,
        "verify.recurrence_s": t.family_ns["recurrence"] / 1e9,
        "verify.sum_s": t.family_ns["sum"] / 1e9,
        "verify.property_s": t.family_ns["property"] / 1e9,
        "cli.import_s": counts["cli_import_ns"] / 1e9,
        "cli.main_s": t.self_s("cli.main"),
    }


def run_traced(bench: Bench, workload: str, seconds: float):
    setup_tracer = Tracer()
    uninstall = install(setup_tracer)
    try:
        bench.ck.load_table()
    finally:
        uninstall()
    make_ops = getattr(bench, workload)
    rows: list[dict[str, float]] = []
    errors: list[str] = []
    walls: list[float] = []
    first: Tracer | None = None
    attempted = failed = 0
    start = time.perf_counter()
    while keep_going(len(rows), 1, start, walls, seconds):
        t0 = time.perf_counter()
        i = len(rows)
        plain = run_pass(make_ops(i, None))
        tracer = Tracer(SPAN_CAP if first is None else 0)
        first = first or tracer
        uninstall = install(tracer)
        try:
            traced = run_pass(make_ops(i, tracer))
        finally:
            uninstall()
        attempted += len(plain.outputs) + len(traced.outputs)
        failed += len(plain.errors) + len(traced.errors)
        errors += plain.errors + traced.errors
        if plain.outputs != traced.outputs:
            errors.append("pass %d: traced outputs or node counts differ from untraced" % i)
        row = layer_metrics(tracer, setup_tracer)
        row["tracing.overhead_ratio"] = traced.seconds / plain.seconds
        rows.append(row)
        walls.append(time.perf_counter() - t0)
    OUT_DIR.mkdir(exist_ok=True)
    first.write_spans(OUT_DIR / ("spans-%s-%d.jsonl" % (workload, bench.seed)))
    metrics = {
        name: (statistics.median_low(row[name] for row in rows), len(rows), "traced passes")
        for name in rows[0]
    }
    return metrics, attempted, failed, errors, {}


# -- output -----------------------------------------------------------------


def run_metadata(args, load_start: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def _git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "conwaykit" / "__init__.py").is_file():
        print("error: no conwaykit sources under %s" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    os.environ.pop("KNOT_TABLE", None)
    ck = importlib.import_module("conwaykit")
    if not Path(ck.__file__).resolve().is_relative_to(SRC.resolve()):
        print("error: conwaykit imported from %s" % ck.__file__, file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    bench = Bench(ck, args.seed)
    runner = run_traced if args.trace else run_plain
    metrics, attempted, failed, errors, extra = runner(bench, args.workload, args.seconds)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    meta = run_metadata(args, load_start)
    meta.update(extra)
    meta["samples"] = {}
    out = {}
    for m in wanted:
        value, n, what = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        meta["samples"][m["name"]] = {"n": n, "of": what, "unit": m["unit"]}
        print("%-30s %16.6f %-6s n=%d %s" % (m["name"], value, m["unit"], n, what))
    for error in errors[:20]:
        print("FAILED %s" % error)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
