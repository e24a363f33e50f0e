"""coarsedim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times operations for S seconds with tracing off and
reports the end-to-end metrics: ``op_s.p50`` (median wall seconds per
operation), ``setup_s`` (median over fresh interpreters of import, input
generation and lazy set-up) and ``peak_rss_mb``.  With ``--trace 1`` it
spends part of the time untraced and the rest traced, and reports the
per-layer metrics, the tracing overhead and how much of the untraced time
the layers' self times account for.  Every operation's output is checked
against the reference recorded in ``reference/``; a mismatch or an error
counts as a failed operation.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 5
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run
PROBE_TIMEOUT_S = 60
LAYER_FILES = {
    "metric_core": ["metric_core.py"],
    "covers": ["covers.py"],
    "polyhedra": ["polyhedra.py"],
    "hurewicz": ["hurewicz.py"],
    "group_spaces": ["group_spaces"],
    "cli": ["cli.py"],
}
CLI_COMMANDS = ("space_check", "cover_solve", "hurewicz_run", "group_ball_cold", "group_ball_warm")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    package = ROOT / "src" / "coarsedim" / "__init__.py"
    if not package.is_file():
        fail(f"no coarsedim sources at {package.parent}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import coarsedim

    if Path(coarsedim.__file__).resolve() != package.resolve():
        fail(f"imported coarsedim from {coarsedim.__file__}, not from this checkout")


# ---------------------------------------------------------------------------
# measurement


def setup_probe(workload: str, seed: int, workdir: Path, trace_file: Path | None = None) -> float:
    """Seconds from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)  # a hung set-up must not hang the run
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


class Loop:
    """Closed loop: one operation at a time while another one fits in the
    time budget (at least one operation).  Outputs are checked after the
    timer stops."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.times: list[float] = []
        self.results: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, state, seconds: float, tracer=None) -> list[float]:
        import refcheck

        times = []
        start = perf_counter()
        while True:
            gc.collect()  # every operation starts from the same heap, untimed
            self.attempted += 1
            if tracer is not None:
                tracer.begin_op(self.attempted)
            t0 = perf_counter()
            try:
                result = self.workload.run(state)
                error = None
            except Exception:  # an operation that raises is a failed operation
                result, error = None, traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            times.append(dt)
            if error is None:
                mismatches = refcheck.compare(self.reference, self.workload.digest(state, result))
                if mismatches:
                    error = "output differs from reference: " + "; ".join(mismatches[:5])
            if error is not None:
                self.failed += 1
                self.errors.append(error)
            summary = getattr(self.workload, "summary", None)
            self.results.append(summary(result) if summary and result is not None else None)
            result = None
            # stop when another operation of typical length would overrun the budget
            if perf_counter() - start + statistics.median(times) > seconds:
                break
        self.times += times
        return times


def high_percentile(times: list[float]):
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for p in (0.99, 0.9, 0.75, 0.5):
        if n * (1 - p) >= 10:
            return p, ordered[min(n - 1, int(round(p * (n - 1))))]
    return None, None


def src_lines() -> dict:
    """Non-blank, non-comment source lines per layer."""
    out = {}
    base = ROOT / "src" / "coarsedim"
    for layer, entries in LAYER_FILES.items():
        files = []
        for entry in entries:
            path = base / entry
            files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
        count = 0
        for path in files:
            for line in path.read_text(encoding="utf-8").splitlines():
                text = line.strip()
                if text and not text.startswith("#"):
                    count += 1
        out[f"{layer}.src_lines"] = ("lines", count)
    return out


# ---------------------------------------------------------------------------
# runs


def untraced(workload, reference, seed: int, seconds: float, work: Path):
    setups = [setup_probe(workload.name, seed, work / f"probe{i}") for i in range(SETUP_SAMPLES)]
    state = workload.setup(seed, work / "state")
    loop = Loop(workload, reference)
    loop.run(state, seconds)
    if workload.name == "cli_session":
        peak = max((r[c]["stats"]["peak_rss_mb"] for r in loop.results if r for c in CLI_COMMANDS),
                   default=0.0)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s.p50": ("s", statistics.median(loop.times)),
        "setup_s": ("s", statistics.median(setups)),
        "peak_rss_mb": ("MB", peak),
    }
    return loop, metrics, {"setup_samples": setups}


def traced(workload, reference, seed: int, seconds: float, work: Path):
    import tracer as tracing

    loop = Loop(workload, reference)
    state = workload.setup(seed, work / "state")
    plain_times = loop.run(state, seconds * UNTRACED_SHARE)
    loop.results.clear()

    tracer = tracing.Tracer()
    tracer.install()
    state = workload.setup(seed, work / "traced", tracer)
    tracer.reset()
    first_traced = loop.attempted + 1
    traced_times = loop.run(state, seconds * (1 - UNTRACED_SHARE), tracer)
    ops = len(traced_times)

    setup_file = work / "setup_trace.json"
    setup_probe(workload.name, seed, work / "probe_traced", setup_file)
    with setup_file.open(encoding="utf-8") as f:
        setup_totals = tracing.merge([json.load(f)])

    snapshots = [tracer.snapshot()]
    cli_metrics = {f"cli.{c}_s": ("s", 0.0) for c in CLI_COMMANDS}
    cli_metrics.update({"cli.import_s": ("s", 0.0), "cli.cache_hit_ratio": ("ratio", 0.0),
                        "cli.cache_bytes_written": ("bytes", 0.0)})
    oracle_calls = None
    accounted_extra = 0.0
    sessions = [r for r in loop.results if r]
    if sessions:  # cli_session; its sessions that raised left no summary
        for r in sessions:
            snapshots += [r[c]["stats"]["trace"] for c in CLI_COMMANDS if "trace" in r[c]["stats"]]
        imports = [r[c]["stats"]["import_s"] for r in sessions for c in CLI_COMMANDS]
        for c in CLI_COMMANDS:
            cli_metrics[f"cli.{c}_s"] = ("s", statistics.median(r[c]["wall_s"] for r in sessions))
        cli_metrics["cli.import_s"] = ("s", statistics.median(imports))
        cli_metrics["cli.cache_bytes_written"] = (
            "bytes", statistics.mean(r["cache_bytes"] for r in sessions))
        oracle_calls = statistics.mean(r["oracle_calls"] for r in sessions)
        accounted_extra = sum(imports) / ops
    totals = tracing.merge(snapshots)
    # the parent's root span waits on child processes; their self times are merged in
    if workload.name == "cli_session":
        totals["stats"].pop("op", None)
    metrics = tracing.layer_metrics(totals, ops, setup_totals)
    if oracle_calls is not None:
        metrics["group_spaces.oracle_calls"] = ("count", oracle_calls)
    counters = totals["counters"]
    if counters["cache_lookups"]:
        cli_metrics["cli.cache_hit_ratio"] = ("ratio", counters["cache_hits"] / counters["cache_lookups"])
    metrics.update(cli_metrics)
    metrics.update(src_lines())
    plain_p50 = statistics.median(plain_times)
    traced_p50 = statistics.median(traced_times)
    accounted = tracing.layer_self_total(totals, ops) + accounted_extra
    metrics["trace.overhead_ratio"] = ("ratio", traced_p50 / plain_p50)
    metrics["trace.accounted_ratio"] = ("ratio", accounted / plain_p50)

    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / f"trace_{workload.name}.jsonl"
    tracer.write_spans(trace_out, op_ids={loop.attempted})
    with trace_out.open("a", encoding="utf-8") as out:
        for spans in sorted((work / "traced").glob("stats_*.spans.jsonl")):
            process = spans.name[len("stats_"):-len(".spans.jsonl")]
            with spans.open(encoding="utf-8") as f:
                for line in f:
                    out.write(json.dumps({**json.loads(line), "process": process}) + "\n")
    info = {"untraced_op_s.p50": plain_p50, "traced_op_s.p50": traced_p50,
            "traced_ops": ops, "first_traced_op": first_traced, "trace_file": str(trace_out)}
    return loop, metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_program()
    import refcheck
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = refcheck.load_reference(workload.name)

    work = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else untraced
        loop, metrics, info = run(workload, reference, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in loop.errors[:3]:
        print(f"failed operation: {error}", file=sys.stderr)
    p_high, v_high = high_percentile(loop.times)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (unit, value) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':45s} {loop.failed / loop.attempted:14.6g} ratio "
          f"({loop.failed} of {loop.attempted} operations)")
    print(f"  {'operations timed':45s} {len(loop.times):14d}")
    if p_high is None:
        print(f"  {'high percentile':45s} {'none':>14s} (fewer than 10 samples beyond p50)")
    else:
        print(f"  {f'op_s.p{round(p_high * 100)}':45s} {v_high:14.6g} s")
    info["op_times_s"] = [round(t, 4) for t in loop.times]
    for key, value in info.items():
        print(f"  {key:45s} {value}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
