"""One timed gdlog CLI command in a fresh interpreter.

Usage: python3 child.py '{"argv": [...], "trace": false}'

Imports gdlog from the checkout's own ``src/`` (never an installed
copy), runs ``gdlog.cli.main(argv)`` so stdout carries exactly what the
``gdlog`` command prints, then appends one line of measurements:

- ``setup_s``: from before ``import gdlog`` until
  ``ChaseEngine.initial_state`` first returns;
- ``run_s``: from then until the command's JSON line has been written;
- ``import_s``: the ``import gdlog.cli`` part of set-up;
- ``peak_rss_mb``: this process's peak resident memory;
- ``trace``: the span aggregate, when ``trace`` is true.
"""
import json
import resource
import sys
import time
from pathlib import Path

MARK = "perfbench-child "


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import gdlog.cli

    t_import = time.perf_counter()
    if not Path(gdlog.__file__).resolve().is_relative_to(src):
        print(f"gdlog imported from {gdlog.__file__}, not {src}", file=sys.stderr)
        return 70

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    from gdlog.chase import ChaseEngine

    setup_end = []
    initial_state = ChaseEngine.initial_state

    def timed_initial_state(self, *args, **kwargs):
        state = initial_state(self, *args, **kwargs)
        if not setup_end:
            setup_end.append(time.perf_counter())
        return state

    ChaseEngine.initial_state = timed_initial_state
    code = gdlog.cli.main(spec["argv"])
    sys.stdout.flush()
    t_end = time.perf_counter()
    if code != 0 or not setup_end:
        print(f"exit code {code}, initial_state called: {bool(setup_end)}", file=sys.stderr)
        return code or 71
    out = {
        "setup_s": setup_end[0] - t0,
        "run_s": t_end - setup_end[0],
        "import_s": t_import - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    sys.stdout.write("\n" + MARK + json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
