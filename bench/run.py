"""subcrit benchmark: one workload, timed or traced, checked, one JSON line.

    python3 bench/run.py --workload exact-certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, so nothing is built.  A run is one fresh, single-threaded worker
process (``worker.py``) that makes several passes over the workload's
operations; how many follows from ``--seconds`` alone
(``workloads.passes``).  A calibration kernel is timed between calls, and
every time is scaled to the kernel's reference speed
(``CALIBRATION_REF_S``): on a shared host the speed of the whole machine
drifts by up to 2x within minutes, and the scaling takes most of that
out.  An operation's time is the median of its scaled repetitions.
``setup_s`` is the median over the worker and ``SETUP_PROBES`` extra
processes that only import and generate inputs.

``--trace 1`` runs one untraced and one traced pass, reports the per-layer
metrics of the traced one, the tracing overhead (traced minus untraced
wall time), and writes the spans to ``bench/out/trace/<workload>.jsonl``.

The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
# Typical duration of worker.calibrate() on the reference machine of the
# README; scaled times are in seconds at that speed.
CALIBRATION_REF_S = 0.008
WORKER_TIMEOUT_S = 150

# Every workload reports every metric: each runs every kind of operation.
GROUP_UNITS = {
    "perc_roots_s": "s", "ising_roots_s": "s", "checks_s": "s",
    "supercrit_exit_samples_per_s": "samples/s",
    "crit_exit_samples_per_s": "samples/s",
    "subcrit_chi_samples_per_s": "samples/s",
    "ghost_samples_per_s": "samples/s",
    "ordered_sweeps_per_s": "sweeps/s",
    "critical_sweeps_per_s": "sweeps/s",
    "hot_sweeps_per_s": "sweeps/s",
}

PER_LAYER_UNITS = {
    "lattice.ball_s": "s", "rng.streams": "count", "rng.stream_setup_us": "us",
    "exact.bond_configs": "count", "exact.table_build_s": "s",
    "exact.bond_configs_per_s": "1/s", "exact.spin_states": "count",
    "exact.ising_eval_s": "s", "exact.spin_states_per_s": "1/s",
    "certificates.phi_evals": "count", "certificates.phi_eval_ms": "ms",
    "certificates.root_s": "s", "perc_mc.sample_us": "us",
    "perc_mc.uniforms_per_sample": "count", "perc_mc.walk_us": "us",
    "perc_mc.sites_per_walk": "count", "perc_mc.draw_use_ratio": "ratio",
    "ising_mc.step_us": "us", "ising_mc.fk_us": "us",
    "ising_mc.cluster_sites": "count", "ising_mc.sites_per_s": "1/s",
    "ising_mc.burn_in_steps": "count", "currents.enum_s": "s",
    "verify.check_s": "s", "stats.s": "s", "cli.overhead_s": "s",
    "lattice.self_s": "s", "exact.self_s": "s", "certificates.self_s": "s",
    "perc_mc.self_s": "s", "ising_mc.self_s": "s", "verify.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args, out: str, *, passes: int = 1, trace: bool = False,
           setup_only: bool = False, spans: str | None = None) -> dict:
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(passes), "--out", out,
           "--trace", "1" if trace else "0"]
    if args.toy:
        cmd.append("--toy")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                          env=_worker_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with code "
                         f"{proc.returncode}")
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


def _scaled(seconds: float, calibration: float) -> float:
    """A time at the reference speed of the calibration kernel."""
    return seconds * CALIBRATION_REF_S / calibration


def _metrics(result: dict) -> dict:
    """End-to-end metrics from each operation's median scaled repetition.

    An operation that raised is left out: its times stop at the exception.
    A time or rate none of whose operations ran through is not reported.
    """
    ran = [op for op in result["ops"] if not op["error"]]
    typical = {op["name"]: statistics.median(map(_scaled, op["times"],
                                                 op["cal"]))
               for op in ran}
    out = {"wall_s": sum(typical.values()),
           "peak_rss_mb": result["peak_rss_mb"]}
    for name in GROUP_UNITS:
        members = [op for op in ran if op["group"] == name]
        if not members:
            continue
        seconds = sum(typical[op["name"]] for op in members)
        if name.endswith("_per_s"):
            out[name] = sum(op["work"] for op in members) / seconds
        else:
            out[name] = seconds
    return out


def _tally(results: list[dict]) -> tuple[int, int, bool]:
    """Calls attempted and failed, and whether every output was correct.

    Every operation is attempted once per pass.  One that raised, or whose
    check failed, fails on every pass (the passes share inputs and
    outputs; after raising it is not called again) and makes the run
    incorrect.
    """
    attempted = failed = 0
    correct = True
    for result in results:
        for op in result["ops"]:
            attempted += result["passes"]
            messages = [op["error"]] * bool(op["error"]) + op["failures"]
            if messages:
                failed += result["passes"]
                correct = False
            for message in messages:
                print(f"FAILED {op['name']}: {message}", file=sys.stderr)
    return attempted, failed, correct


def run(args) -> dict:
    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    start = time.monotonic()
    try:
        if args.trace:
            trace_dir = os.path.join(OUT, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            plain = _spawn(args, os.path.join(run_dir, "plain"))
            traced = _spawn(args, os.path.join(run_dir, "traced"), trace=True,
                            spans=os.path.join(trace_dir,
                                               f"{args.workload}.jsonl"))
            results = [plain, traced]
        else:
            results = [_spawn(args, os.path.join(run_dir, f"probe{probe}"),
                              setup_only=True)
                       for probe in range(SETUP_PROBES)]
            results.append(_spawn(args, os.path.join(run_dir, "run"),
                                  passes=workloads.passes(args.seconds,
                                                          args.toy)))
            setups = [_scaled(r["setup_s"], r["setup_cal"]) for r in results]
            results = results[-1:]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, correct = _tally(results)
    for result in results:
        print("raw times: " + " ".join(
            f"{op['name']}=" + "/".join(f"{t:.3f}" for t in op["times"])
            for op in result["ops"]), file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in traced["trace"].items()}
        plain_wall = _metrics(plain)["wall_s"]
        overhead = _metrics(traced)["wall_s"] - plain_wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / plain_wall,
                                           "unit": "ratio"}
        if traced.get("trace_missing"):
            print("trace targets not found: "
                  + ", ".join(traced["trace_missing"]), file=sys.stderr)
    else:
        units = {"wall_s": "s", "peak_rss_mb": "MB", **GROUP_UNITS}
        values = _metrics(results[0])
        metrics = {"setup_s": {"value": float(statistics.median(setups)),
                               "unit": "s"}}
        metrics.update({name: {"value": values[name], "unit": unit}
                        for name, unit in units.items() if name in values})
    print(f"{args.workload}: {time.monotonic() - start:.1f} s", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "subcrit", "__init__.py")):
        print(f"error: no subcrit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
