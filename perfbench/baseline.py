"""Run the benchmark over several seeds and record the results.

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 25] [--out FILE]
        [workload ...]

For each workload this runs ``run.py`` once per seed untraced and once
traced (first seed), then writes every run's metrics, each end-to-end
metric's median and quartile spread (the distance between the first and
third quartiles over the median), and the machine it ran on, to
``perfbench/baseline.json`` unless ``--out`` names another file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    unscaled = [ln.split()[2] for ln in lines if ln.startswith("unscaled wall_s")]
    if unscaled:
        result["unscaled_wall_s"] = float(unscaled[0].rstrip(";"))
    print(workload, seed, trace, "correct" if result["correct"] else "FAILED",
          {k: round(v["value"], 4) for k, v in result["metrics"].items()}
          if not trace else "", flush=True)
    return result


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    ap.add_argument("workloads", nargs="*", default=["report", "adm", "branch"])
    args = ap.parse_args()
    doc = {"machine": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "platform": platform.platform()},
           "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, s, args.seconds, 0) for s in args.seeds]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[name] = {"median": med, "spread": (q3 - q1) / med,
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {workload} {name}: median {med:.4g}, spread {(q3 - q1) / med:.3f}")
        doc["workloads"][workload] = {
            "summary": summary, "runs": runs,
            "traced": run(workload, args.seeds[0], args.seconds, 1)}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
