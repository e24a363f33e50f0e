"""Fresh-interpreter set-up of one workload, for the ``setup_s`` metric.

Imports coarsedim, generates the workload's inputs and finishes lazy set-up,
then prints ``ready``; the parent times the interval from process start to
that line.  With ``--trace FILE`` the set-up runs traced and its layer
totals are written to FILE.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR [--trace FILE]
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    tracer = None
    if trace_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_op(0)
    from workloads import WORKLOADS

    WORKLOADS[workload].setup(seed, workdir, tracer)
    if tracer is not None:
        tracer.end_op()
    print("ready", flush=True)
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump(tracer.snapshot(), f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
