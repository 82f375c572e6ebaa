"""Layered benchmark of the ``affweyl`` command-line tool.

    python3 perfbench/run.py --workload report|adm|branch --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A single client runs the seeded command list (see workloads.py)
in a closed loop, one ``python -m affweyl`` subprocess at a time, for at
least two passes and then while the next pass would end within about
``--seconds``.  Every command's stdout is checked, outside the timed region,
against its recorded sha256 and by a semantic check (checks.py).

``--trace 0`` prints the end-to-end metrics, medians over passes: the pass's
wall time and its children's CPU time (each child's own rusage, from
``os.wait4``), the median wall time per command, and the largest child
``ru_maxrss``; plus ``setup_s``, the median time for a fresh interpreter to
import affweyl and build the groups, data and foldings the workload uses.
Times are in seconds at the reference speed (see ``calibrate``); the
unscaled pass time is printed beside them.

``--trace 1`` runs each command twice per pass, each time in process in a
child (child.py), once plain and once with the per-layer tracer installed
(tracer.py), and prints per-layer metrics per pass, the tracing overhead and
the checks that each workload isolates the layers it claims to.  Spans are
written to ``.perfbench-out/``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
# a median over one pass of four long report commands is too noisy
TIMED_MIN_PASSES = 2

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("cmd_p50_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


# Calibration: a fixed pure-Python loop, timed in this process between
# children.  On a shared host each CPU's speed drifts by tens of percent over
# seconds; scaling a child's times by CALIBRATION_REF_S over the mean of the
# CALIBRATION_WINDOW calibrations on each side of it reports them in seconds
# at the reference speed, which removes the drift the program shares with
# the loop.  The runner and its children are pinned to one CPU, because the
# drift of one CPU says little about another's.  CALIBRATION_REF_S is the
# loop's median time on the reference machine (2-core sandbox, Python
# 3.11.7).
CALIBRATION_N = 120_000
CALIBRATION_REF_S = 0.04
CALIBRATION_WINDOW = 2


def calibrate():
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(CALIBRATION_N):
        key = (i & 1023, i % 7)
        acc += table.get(key, 0) + (i * i) % 13
        table[key] = acc & 0xFFFF
    return time.perf_counter() - t0


class Call:
    __slots__ = ("rc", "out", "err", "wall", "cpu", "rss_mb", "cal_index")


class Runner:
    """Runs one child at a time, reads its own rusage from wait4 and
    calibrates the machine's speed around it."""

    def __init__(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "AFFWEYL_PRESET_PATH")}
        env["PYTHONPATH"] = str(ROOT / "src")
        # fixed hashing makes set iteration, and so the work done, repeat
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        OUT.mkdir(exist_ok=True)
        self.errf = open(OUT / "stderr.txt", "w+b")
        self.cals = []
        # children inherit the affinity
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def close(self):
        self.errf.close()

    def invoke(self, argv):
        self.errf.seek(0)
        self.errf.truncate()
        if not self.cals:
            self.cals.append(calibrate())
        call = Call()
        call.cal_index = len(self.cals)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=self.errf, env=self.env, cwd=ROOT)
        call.out = proc.stdout.read()
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        call.wall = time.perf_counter() - t0
        proc.returncode = call.rc = os.waitstatus_to_exitcode(status)
        call.cpu = ru.ru_utime + ru.ru_stime
        call.rss_mb = ru.ru_maxrss / 1024
        self.errf.seek(0)
        call.err = self.errf.read().decode(errors="replace")
        self.cals.append(calibrate())
        return call

    def scale(self, call):
        """Reference-speed factor for a call, once the calibrations after it
        are taken."""
        i, k = call.cal_index, CALIBRATION_WINDOW
        window = self.cals[max(0, i - k):i + k]
        return CALIBRATION_REF_S * len(window) / sum(window)

    def cli(self, argv):
        return self.invoke([sys.executable, "-m", "affweyl", *argv])

    def child(self, mode, args):
        return self.invoke([sys.executable, str(HERE / "child.py"), mode, *args])


class Verifier:
    """Digest and semantic checks; semantic verdicts are cached by output."""

    def __init__(self):
        self.oracle = checks.Oracle()
        self.verdicts = {}
        self.messages = []

    def failed(self, entry, rc, out, err=""):
        if rc != 0:
            why = f"exit code {rc}: {err.strip()[-300:]}"
        elif hashlib.sha256(out).hexdigest() != entry["sha256"]:
            why = "stdout digest differs from the reference"
        else:
            key = (tuple(entry["argv"]), out)
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = checks.failure(entry, out, self.oracle)
                except Exception as e:  # a check that cannot run fails the command
                    self.verdicts[key] = f"check raised {e!r}"
            why = self.verdicts[key]
        if why:
            self.messages.append(f"FAIL {' '.join(entry['argv'])}: {why}")
        return why is not None


def keep_going(t_begin, n_passes, seconds, min_passes):
    """Start another pass until min_passes are done, then only if it is
    expected to end within half a pass of the time budget."""
    elapsed = time.perf_counter() - t_begin
    return n_passes < min_passes or elapsed + elapsed / n_passes / 2 <= seconds


def warm_up(runner, picked):
    """One untimed set-up child, which writes the bytecode caches; returns
    its argument for further set-up children."""
    spec = json.dumps(workloads.builds(picked))
    runner.child("setup", [spec])
    return spec


def measure_setup(runner, picked):
    spec = warm_up(runner, picked)
    calls = [runner.child("setup", [spec]) for _ in range(SETUP_REPEATS)]
    bad = [c for c in calls if c.rc != 0]
    if bad:
        raise RuntimeError(f"setup child failed: {bad[0].err.strip()[-300:]}")
    return statistics.median(c.wall * runner.scale(c) for c in calls)


def timed_run(runner, picked, seconds):
    setup_s = measure_setup(runner, picked)
    passes = []
    t_begin = time.perf_counter()
    while True:
        passes.append([runner.cli(e["argv"]) for e in picked])
        if not keep_going(t_begin, len(passes), seconds, TIMED_MIN_PASSES):
            break
    verifier = Verifier()
    failed = sum(verifier.failed(e, c.rc, c.out, c.err)
                 for calls in passes for e, c in zip(picked, calls))
    med = statistics.median
    metrics = {
        "wall_s": med(sum(c.wall * runner.scale(c) for c in calls) for calls in passes),
        "cpu_s": med(sum(c.cpu * runner.scale(c) for c in calls) for calls in passes),
        "cmd_p50_s": med(med(c.wall * runner.scale(c) for c in calls) for calls in passes),
        "setup_s": setup_s,
        "peak_rss_mb": med(max(c.rss_mb for c in calls) for calls in passes),
    }
    raw_wall = med(sum(c.wall for c in calls) for calls in passes)
    speed = med(runner.scale(c) for calls in passes for c in calls)
    notes = [f"passes {len(passes)}, invocations per pass {len(picked)}",
             f"unscaled wall_s {raw_wall:.6g} s; median speed scale {speed:.4f}"]
    return metrics, len(passes) * len(picked), failed, verifier.messages, notes


MODULES = ("cli", "presets", "smith", "root_data", "folding", "iwahori",
           "facets", "highest_weight")


def layer_metrics(traced, n_passes):
    """Per-layer metrics per pass from the traced children's records."""
    calls, total, self_s, module_self, errors, sizes = {}, {}, {}, {}, {}, {}
    by_caller = {}
    for doc in traced:
        tr = doc["trace"]
        for name, caller, n, tot, slf, true, products in tr["agg"]:
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0.0) + tot
            self_s[name] = self_s.get(name, 0.0) + slf
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + slf
            rec = by_caller.setdefault((name, caller), [0, 0, 0])
            rec[0] += n
            rec[1] += true
            rec[2] += products
        for module, n in tr["errors"].items():
            errors[module] = errors.get(module, 0) + n
        for name, n in tr["sizes"].items():
            sizes[name] = sizes.get(name, 0) + n
    import_s = sum(doc["import_s"] for doc in traced)
    module_self["cli"] = module_self.get("cli", 0.0) + import_s

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def caller(name, parent):
        return by_caller.get((name, parent), [0, 0, 0])

    adm_elements = sizes.get("facets.admissible_set", 0)
    closure_products = (caller("iwahori.element_from_word", "facets.admissible_set")[2]
                        + caller("iwahori.reduced_word", "facets.admissible_set")[2])
    leq = caller("iwahori.bruhat_leq", "facets.bruhat_maxima")
    m = {}
    for short in ("mul", "length", "reduced_word", "element_from_word",
                  "bruhat_leq", "dc_rep"):
        m[f"iwahori.{short}_calls"] = (c(f"iwahori.{short}"), "count")
        m[f"iwahori.{short}_s"] = (t(f"iwahori.{short}"), "s")
    m["iwahori.affine_ball_s"] = (t("iwahori.affine_ball"), "s")
    m["iwahori.group_build_s"] = (t("iwahori.group_build"), "s")
    m["folding.act_calls"] = (c("folding.act"), "count")
    m["folding.act_s"] = (t("folding.act"), "s")
    m["folding.fold_s"] = (t("folding.fold"), "s")
    m["folding.coinvariants_s"] = (t("folding.coinvariants"), "s")
    for short in ("admissible_set", "parity_check"):
        m[f"facets.{short}_calls"] = (c(f"facets.{short}"), "count")
        m[f"facets.{short}_s"] = (t(f"facets.{short}"), "s")
    m["facets.adm_elements"] = (adm_elements, "count")
    m["facets.closure_mul_per_element"] = (
        closure_products / adm_elements if adm_elements else 0.0, "ratio")
    m["facets.bruhat_maxima_s"] = (t("facets.bruhat_maxima"), "s")
    m["facets.maxima_leq_true_ratio"] = (leq[1] / leq[0] if leq[0] else 0.0, "ratio")
    m["facets.affine_ball_builds"] = (c("iwahori.affine_ball"), "count")
    m["facets.enumerate_facets_s"] = (t("facets.enumerate_facets"), "s")
    m["facets.speciality_report_s"] = (t("facets.speciality_report"), "s")
    m["presets.load_group_calls"] = (c("presets.load_group"), "count")
    m["presets.load_group_s"] = (t("presets.load_group"), "s")
    m["smith.smith_normal_form_calls"] = (c("smith.smith_normal_form"), "count")
    m["smith.smith_normal_form_s"] = (t("smith.smith_normal_form"), "s")
    m["root_data.weyl_build_s"] = (t("root_data.weyl_build"), "s")
    for short in ("freudenthal", "character_with_torsion"):
        m[f"highest_weight.{short}_calls"] = (c(f"highest_weight.{short}"), "count")
        m[f"highest_weight.{short}_s"] = (t(f"highest_weight.{short}"), "s")
    m["highest_weight.restrict_s"] = (t("highest_weight.restrict"), "s")
    m["highest_weight.peel_rounds"] = (
        caller("highest_weight.character_with_torsion", "highest_weight.restrict")[0],
        "count")
    m["highest_weight.dominant_of_char_calls"] = (
        c("highest_weight.dominant_of_char"), "count")
    m["cli.import_s"] = (import_s, "s")
    m["cli.main_self_s"] = (self_s.get("cli.main", 0.0), "s")
    for module in MODULES:
        m[f"{module}.self_s"] = (module_self.get(module, 0.0), "s")
        m[f"{module}.errors"] = (errors.get(module, 0), "count")
    per_pass = {k: (v / n_passes if unit != "ratio" else v, unit)
                for k, (v, unit) in m.items()}
    return per_pass, min(self_s.values(), default=0.0)


# workload -> metrics that must read zero there
ISOLATION = {
    "branch": ("iwahori.mul_calls", "presets.load_group_calls"),
    "adm": ("facets.parity_check_calls", "highest_weight.freudenthal_calls",
            "highest_weight.character_with_torsion_calls",
            "highest_weight.dominant_of_char_calls"),
    "report": ("highest_weight.freudenthal_calls",
               "highest_weight.character_with_torsion_calls",
               "highest_weight.dominant_of_char_calls"),
}
# smallest allowed gap between summed self time and in-process time
COVERAGE_FLOOR = 0.05
# workload -> modules whose self time must be the majority of traced time
MAJORITY = {"report": ("facets", "iwahori"), "adm": ("facets", "iwahori"),
            "branch": ("highest_weight", "cli")}


def traced_run(runner, picked, seconds, workload, seed):
    warm_up(runner, picked)
    verifier = Verifier()
    plain, traced = [], []
    attempted = failed = n_passes = 0
    t_begin = time.perf_counter()
    while True:
        n_passes += 1
        for e in picked:
            for mode, docs in (("plain", plain), ("trace", traced)):
                call = runner.child(mode, e["argv"])
                attempted += 1
                try:
                    doc = json.loads(call.out)
                except ValueError:
                    doc = {"rc": call.rc if call.rc else 1, "stdout": ""}
                if verifier.failed(e, doc["rc"], doc["stdout"].encode(), call.err):
                    failed += 1
                if "main_s" not in doc:
                    continue
                docs.append(doc)
        if not keep_going(t_begin, n_passes, seconds, 1):
            break
    if not traced or not plain:
        return {}, attempted, failed, verifier.messages, []
    metrics, min_self = layer_metrics(traced, n_passes)
    # in-process time: child wall time minus interpreter start and exit;
    # for traced children it includes installing the tracer
    traced_s = sum(d["inproc_s"] for d in traced)
    untraced_s = sum(d["inproc_s"] for d in plain)
    overhead = traced_s / untraced_s - 1
    covered = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s")) * n_passes
    metrics["trace.traced_s"] = (traced_s / n_passes, "s")
    metrics["trace.untraced_s"] = (untraced_s / n_passes, "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.coverage_frac"] = (covered / traced_s, "ratio")

    problems = []
    if min_self < -1e-6:
        problems.append(f"negative self time {min_self}")
    # the uncovered rest is the tracer's own set-up; a larger gap means the
    # wrappers lost time.  Plain and traced runs differ by noise, so the
    # allowance is never below 5%.
    if 1 - covered / traced_s > max(overhead, COVERAGE_FLOOR):
        problems.append(f"self times cover {covered:.3f} s of {traced_s:.3f} s "
                        f"in-process time, short by more than the tracing "
                        f"overhead {overhead:.1%}")
    for name in ISOLATION.get(workload, ()):
        if metrics[name][0] != 0:
            problems.append(f"{name} = {metrics[name][0]} on {workload}, expected 0")
    share = sum(metrics[f"{m}.self_s"][0] for m in MAJORITY[workload]) \
        * n_passes / traced_s
    metrics["trace.majority_share"] = (share, "ratio")
    if share <= 0.5:
        problems.append(f"{'+'.join(MAJORITY[workload])} self time is "
                        f"{share:.1%} of traced time, expected a majority")
    spans = [{"argv": e["argv"], "spans": d["trace"]["spans"]}
             for e, d in zip(picked * n_passes, traced)]
    with open(OUT / f"trace-{workload}-{seed}.json", "w") as f:
        json.dump(spans, f)
    notes = [f"passes {n_passes}, commands per pass {len(picked)}, "
             f"tracing overhead {overhead:.1%}"]
    notes += [f"check ok: {n} == 0" for n in ISOLATION.get(workload, ())
              if metrics[n][0] == 0]
    verifier.messages += [f"CHECK FAILED: {p}" for p in problems]
    return metrics, attempted, failed + len(problems), verifier.messages, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("report", "adm", "branch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "affweyl" / "cli.py").is_file():
        print(f"no affweyl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    picked = workloads.generate(args.workload, args.seed, workloads.load_pool())
    runner = Runner()
    try:
        if args.trace:
            metrics, attempted, failed, messages, notes = traced_run(
                runner, picked, args.seconds, args.workload, args.seed)
        else:
            values, attempted, failed, messages, notes = timed_run(
                runner, picked, args.seconds)
            metrics = {k: (values[k], unit) for k, unit in END_TO_END}
    finally:
        runner.close()
    for line in messages + notes:
        print(line)
    print(f"workload {args.workload}, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  {'fail_frac':42s} {failed / attempted:.6g} ({failed}/{attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
