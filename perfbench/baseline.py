"""Measure a baseline: several seeds per workload, then one traced run each.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--out FILE] [WORKLOAD ...]

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  A spread above a third of its bound is
flagged.  With ``--out`` the numbers, the per-layer metrics of the traced
run and a description of the machine are written as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "os": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    names = args.workloads or list(whys)
    doc = {
        "measured_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
        "machine": machine(),
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    steady = True
    for name in names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = [run_once(name, s, bench["run_seconds"], 0) for s in seeds]
        if not all(r["correct"] for r in results):
            print(f"{name}: some runs were not correct", file=sys.stderr)
            steady = False
        entry = {"why": whys[name], "seeds": seeds, "end_to_end": {}}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            s = summarize(values)
            s["unit"] = results[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            flag = ""
            if metric != "setup_s" and s["spread"] > bounds[metric] / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print(f"{name:20s} {metric:12s} median {s['median']:10.4f} {s['unit']:3s} "
                  f"spread {s['spread']:.4f} (bound {bounds[metric]}){flag}", flush=True)
        traced = run_once(name, args.first_seed + args.runs, bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
