"""Child processes of the benchmark; each one is a fresh interpreter.

    bench_child.py setup --plan PLAN
        import refine_es and validate the plan (what set-up costs a user).
    bench_child.py sweep --plan PLAN --out DIR --workers N --trace 0|1 --result FILE
        run `refine-es run` in-process, timing the sweep and its cells (and,
        with --trace 1, every layer, followed by a traced `refine-es report`);
        write the timings, peak RSS and environment record to FILE.

refine_es must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def cmd_setup(args) -> int:
    import refine_es.cli  # noqa: F401  (the entry point a user runs)
    from refine_es.pipeline import plan_from_dict
    with open(args.plan) as fh:
        plan_from_dict(json.load(fh))
    return 0


def environment() -> dict:
    """What the timings depend on besides the code. Thread variables are
    recorded as inherited; the benchmark never sets them."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "mp_start_method": multiprocessing.get_context().get_start_method(),
    }


def cmd_sweep(args) -> int:
    import bench_trace
    from refine_es import cli

    spans_dir = os.path.join(os.path.dirname(args.result), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    recorder = bench_trace.Recorder(spans_dir)
    installed = bench_trace.install(recorder, bool(args.trace))
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main(["run", "--plan", args.plan, "--out", args.out,
                              "--workers", str(args.workers)])
        if args.trace:
            cli.main(["report", "--dir", args.out])
    bench_trace.remove(installed)
    recorder.merge_dumps()

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "exit_code": exit_code,
        "wall_s": recorder.stats[bench_trace.SWEEP][1],
        "cell_s": [end - start for name, _p, start, end in recorder.spans
                   if name == bench_trace.CELL],
        "peak_rss_mb": peak_kb / 1024.0,
        "stats": recorder.stats,
        "spans": recorder.spans,
        "environment": environment(),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--plan", required=True)
    p_setup.set_defaults(fn=cmd_setup)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--plan", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--workers", type=int, required=True)
    p_sweep.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_sweep.add_argument("--result", required=True)
    p_sweep.set_defaults(fn=cmd_sweep)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
