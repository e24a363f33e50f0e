"""Record the reference outputs every benchmark operation is checked against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one operation of each workload with seed 0 and writes its digest to
``reference/<workload>.json`` (float arrays to ``.npz`` beside it).  The
committed references were recorded from the program as it stood when the
benchmark was defined; re-record only for a change that is meant to alter
outputs, and say so in its description.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refcheck  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0


def main(names) -> int:
    import coarsedim

    work = HERE.parent / ".perfbench" / "record"
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        shutil.rmtree(work, ignore_errors=True)
        try:
            state = workload.setup(SEED, work)
            digest = workload.digest(state, workload.run(state))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        refcheck.save_reference(name, digest, {"seed": SEED, "coarsedim_version": coarsedim.__version__})
        print(f"recorded {refcheck.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
