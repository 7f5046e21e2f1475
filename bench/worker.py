"""One run of one workload, in a fresh single-threaded process.

Started by ``run.py``; not meant to be run by hand.  Set-up time runs from
the parent's spawn timestamp (``--t-spawn``, on the shared monotonic
clock) to the first timed call, so it covers interpreter start, imports
and input generation.

The run makes ``--passes`` passes over the workload's operations with the
same inputs, timing a calibration kernel between calls.  Before every call
the program's
``functools`` caches are cleared, so each call pays what it pays in a fresh
``python -m subcrit`` process (box and table building included).  Each
repetition is timed alone; the checks of an operation's outputs run once,
after the last pass, outside every timer.  With ``--trace 1`` the tracer
records the first pass only.  The result is written as JSON to
``<out>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def clear_caches() -> None:
    """Empty every lru_cache bound in a subcrit module."""
    for name, module in list(sys.modules.items()):
        if name == "subcrit" or name.startswith("subcrit."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


_CAL_DATA = None


def calibrate() -> float:
    """Seconds for a fixed mix of the program's kinds of work.

    Interpreter loops, many small numpy calls with Philox generator set-up,
    and one large-array pass.  Timed between calls; ``run.py`` scales every
    time by ``CALIBRATION_REF_S`` over the mean of the calibrations around
    it, which takes out most of the host's speed drift.
    """
    global _CAL_DATA
    import numpy as np
    if _CAL_DATA is None:
        _CAL_DATA = np.random.default_rng(0).random(100_000)
    start = time.perf_counter()
    table = {}
    for i in range(10_000):
        table[i % 97] = table.get(i % 97, 0) + i
    for i in range(150):
        gen = np.random.Generator(np.random.Philox(key=i))
        np.unique(np.concatenate((gen.integers(0, 50, 20), np.arange(10))))
    np.cumsum(np.sqrt(np.sort(_CAL_DATA)))
    return time.perf_counter() - start


def run_pass(ops) -> None:
    """Call every operation once; one that has raised is not called again."""
    before = calibrate()
    for op in ops:
        if op.error is not None:
            continue
        clear_caches()
        start = time.perf_counter()
        try:
            op.result = op.call()
        except Exception as exc:  # an operation that fails is counted
            op.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        op.times.append(time.perf_counter() - start)
        after = calibrate()
        op.cal.append(0.5 * (before + after))
        before = after


def describe(ops) -> list[dict]:
    """The operations as ``run.py`` reads them from ``result.json``."""
    return [{"name": op.name, "group": op.group, "times": op.times,
             "cal": op.cal, "work": op.work, "error": op.error,
             "failures": op.failures}
            for op in ops]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import subcrit.cli  # noqa: F401  (loads every layer, as the CLI does)
    import workloads

    ops = workloads.build(args.workload, args.seed, args.toy, args.out)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_s = time.monotonic() - args.t_spawn
    result = {"setup_s": setup_s,
              "setup_cal": sorted(calibrate() for _ in range(3))[1]}
    if not args.setup_only:
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        run_pass(ops)
        if tracer is not None:
            tracer.active = False
        for _ in range(args.passes - 1):
            run_pass(ops)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for op in ops:
            if op.error is None and op.check is not None:
                try:
                    op.failures = list(op.check(op.result))
                except Exception as exc:  # a check that cannot run fails
                    op.failures = [f"check raised {type(exc).__name__}: {exc}"]
        result.update({"peak_rss_mb": peak_kb / 1024.0,
                       "passes": args.passes, "ops": describe(ops)})
        if tracer is not None:
            result["trace"] = tracer.metrics()
            result["trace_missing"] = tracer.missing
            if args.spans:
                tracer.write_spans(args.spans)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
