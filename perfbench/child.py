"""One benchmark child process.

    python3 perfbench/child.py setup '<json list of builds>'
    python3 perfbench/child.py plain <affweyl argv...>
    python3 perfbench/child.py trace <affweyl argv...>

``setup`` imports affweyl and builds the given groups, data, actions and
foldings, with no queries.  ``plain`` and ``trace`` run ``affweyl.cli.main``
in process, ``trace`` with the per-layer tracer installed, and print one JSON
object: exit code, the command's stdout, the import and main times, the
in-process time from before the import to after main, and the trace.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def build(specs):
    from affweyl.folding import fold
    from affweyl.presets import load_action, load_datum, load_group
    for spec in specs:
        if spec[0] == "group":
            load_group(spec[1])
        else:
            load_datum(spec[1])
            fold(load_action(spec[1], spec[2]))


def run(mode, argv):
    t_start = time.perf_counter()
    import affweyl.cli as cli
    import_s = time.perf_counter() - t_start
    tracer = None
    if mode == "trace":
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = 1
    t_end = time.perf_counter()
    doc = {"rc": rc, "stdout": out.getvalue(), "import_s": import_s,
           "main_s": t_end - t1, "inproc_s": t_end - t_start}
    if tracer is not None:
        doc["trace"] = tracer.report()
    json.dump(doc, sys.stdout)


def main():
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        build(json.loads(rest[0]))
    elif mode in ("plain", "trace"):
        run(mode, rest)
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
