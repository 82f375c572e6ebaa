"""Write ``pool.json``: every candidate command, its reference stdout digest
and its in-process cost (scaled to the reference speed, see run.py), from the
commit checked out at the repository root.

    python3 perfbench/record.py

Branch and char candidates the CLI rejects (non-dominant weights) are left
out of the pool; every other candidate must succeed and pass its semantic
check.  Re-record only in a change that redefines the benchmark: draws are
made from this file, so new costs give seeds new command lists.
"""

import hashlib
import json
import sys

import checks
import run
import workloads


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    runner = run.Runner()
    oracle = checks.Oracle()
    pool = {}
    try:
        for workload, entries in workloads.candidates().items():
            kept = []
            for e in entries:
                call = runner.cli(e["argv"])
                if call.rc != 0 and workload == "branch":
                    continue
                if call.rc != 0:
                    raise RuntimeError(f"{e['argv']}: exit {call.rc}: {call.err}")
                why = checks.failure(e, call.out, oracle)
                if why:
                    raise RuntimeError(f"{e['argv']}: {why}")
                child = runner.child("plain", e["argv"])
                plain = json.loads(child.out)
                if plain["stdout"].encode() != call.out:
                    raise RuntimeError(f"{e['argv']}: in-process stdout differs")
                e["sha256"] = hashlib.sha256(call.out).hexdigest()
                e["cost_s"] = round(plain["main_s"] * runner.scale(child), 4)
                if workload == "adm":
                    doc = json.loads(call.out)
                    e["size"], e["n_maxima"] = doc["size"], doc["n_maxima"]
                kept.append(e)
                print(workload, " ".join(e["argv"]), e["cost_s"], flush=True)
            pool[workload] = kept
    finally:
        runner.close()
    closure = {(e["preset"], tuple(e["mu"])): e["size"]
               for e in pool["adm"] if not e["facet"]}
    for e in pool["adm"]:
        e["closure"] = closure[(e["preset"], tuple(e["mu"]))]
    with open(workloads.POOL_FILE, "w") as f:
        f.write("{\n")
        for i, (workload, entries) in enumerate(pool.items()):
            f.write(f'"{workload}": [\n')
            f.write(",\n".join(json.dumps(e, sort_keys=True) for e in entries))
            f.write("\n]" + (",\n" if i < len(pool) - 1 else "\n"))
        f.write("}\n")


if __name__ == "__main__":
    main()
