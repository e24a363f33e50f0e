"""Run one ``coarsedim`` command in this interpreter, as the console script
would, and write what the benchmark needs to a stats file: import time,
peak resident memory, exit code and, with ``--trace``, the layer totals.

    python3 perfbench/launch.py --stats STATS.json [--trace] -- ARGS...

Every group oracle process the command starts is closed before exit (the
CLI itself leaves custom-group oracles running).
"""

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _close_oracle(oracle) -> None:
    proc = oracle.proc
    if proc.poll() is not None:
        return
    if proc.stdin:
        proc.stdin.close()  # end of input: the oracle records its count and exits
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, args = argv[:split], argv[split + 1:]
    stats_path = opts[opts.index("--stats") + 1]
    trace = "--trace" in opts

    import coarsedim.cli as cli
    from coarsedim.group_spaces import groups

    import_s = perf_counter() - T_START

    oracles = []
    raw_init = groups.ExternalGroupOracle.__init__

    def tracked_init(self, *a, **k):
        raw_init(self, *a, **k)
        oracles.append(self)

    groups.ExternalGroupOracle.__init__ = tracked_init

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_op(1)
    try:
        try:
            rc = cli.main(args)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        if tracer is not None:
            tracer.end_op()
    finally:
        for oracle in oracles:
            _close_oracle(oracle)
    stats = {
        "returncode": rc,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        stats["trace"] = tracer.snapshot()
        spans_path = Path(stats_path).with_suffix(".spans.jsonl")
        tracer.write_spans(spans_path)
    with open(stats_path, "w", encoding="utf-8") as f:
        json.dump(stats, f)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
