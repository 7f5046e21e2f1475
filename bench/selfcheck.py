"""Self-check of the benchmark: its oracles, its checks and a toy pass.

    python3 bench/selfcheck.py

1. The brute-force enumerators, the sampler and the closed forms in
   ``oracles`` must agree with each other.
2. The output checks must reject wrong values (a check that cannot fail
   shows nothing), and a call that raises must make the run incorrect.
3. Every workload runs on toy-sized inputs through ``run.py``, and one
   also traced; every operation must pass its checks and every metric
   must be reported, and ``BENCHMARK.json`` must list exactly those.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def check_oracles() -> None:
    ball0 = oracles.RegionGraph(oracles.diamond(0), (0, 0))
    ball1 = oracles.RegionGraph(oracles.diamond(1), (0, 0))
    perc0, perc1 = oracles.PercPhi(ball0), oracles.PercPhi(ball1)
    for p in (0.1, 0.25, 0.4, 0.6):
        expect(close(perc0(p), 4 * p), f"phi_perc(ball(0), {p}) = 4p")
        expect(close(perc1(p), 12 * p * p), f"phi_perc(ball(1), {p}) = 12p^2")
    for beta in (0.1, 0.3, 0.44):
        expect(close(oracles.ising_phi(ball0, beta), 4 * math.tanh(beta)),
               f"phi_ising(ball(0), {beta}) = 4 tanh beta")
        edge = oracles.ising_correlations(2, [(0, 1)], beta)[1]
        loop = oracles.spin_correlation(2, [(0, 1, 1.0)], beta, 0.0, 0, 1)
        expect(close(edge, math.tanh(beta)) and close(loop, math.tanh(beta)),
               f"single-edge correlation at {beta} = tanh beta (both oracles)")
    square = oracles.RegionGraph(oracles.rectangle(2, 3), (0, 1))
    vector = oracles.ising_correlations(len(square.nodes), square.edges, 0.35)
    plain = [oracles.spin_correlation(len(square.nodes),
                                      [(a, b, 1.0) for a, b in square.edges],
                                      0.35, 0.0, 0, x)
             for x in range(len(square.nodes))]
    expect(max(abs(a - b) for a, b in zip(vector, plain)) < 1e-12,
           "vectorised and plain-loop Ising correlations agree on a 2x3 box")
    for p in (0.3, 0.6):
        want = 1.0 - (1.0 - p * (1.0 - (1.0 - p) ** 3)) ** 4
        expect(close(oracles.exit_probability(1, p), want),
               f"exit enumeration of ball(1) at {p} matches the closed form")
    counts = oracles.perc_connect_counts(3, [(0, 1), (1, 2)])
    expect(close(oracles.polynomial_prob(counts[2], 0.3), 0.09),
           "path of two edges: P[0 <-> 2] = p^2")
    mean, err = oracles.sample_phi_perc(ball1, 0.25, 20_000,
                                        np.random.default_rng(5))
    expect(abs(mean - 0.75) <= 4 * err,
           f"sampled phi_perc(ball(1), 1/4) = {mean:.4f} +- {err:.4f} ~ 0.75")
    for (model, radius), root in oracles.CLOSED_FORM_ROOTS.items():
        region = oracles.RegionGraph(oracles.diamond(radius), (0, 0))
        phi = (oracles.PercPhi(region) if model == "percolation"
               else (lambda b, r=region: oracles.ising_phi(r, b)))
        expect(close(phi(root), 1.0, 1e-12),
               f"closed-form {model} root of ball({radius}) has phi = 1")
    expect(oracles.onsager_magnetization(0.4) == 0.0
           and 0.0 < oracles.onsager_magnetization(0.45)
           < oracles.onsager_magnetization(0.6) < 1.0,
           "Onsager magnetization vanishes below beta_c and rises above it")


def check_checks_reject() -> None:
    bracket = workloads._root_bracket_failures(
        "ball(1)", oracles.PercPhi(oracles.RegionGraph(oracles.diamond(1),
                                                       (0, 0))),
        12.0 ** -0.5 + 1e-6)
    expect(bool(bracket), "a root off by 1e-6 fails the oracle bracket")
    region = oracles.RegionGraph(oracles.rectangle(3, 3), (1, 1))
    sampled = workloads._check_perc_rect(region, 1)(0.2)
    expect(len(sampled) == 2,
           "a wrong percolation root fails the oracle bracket and the sampler")
    ising = workloads._check_ising_rect(oracles.rectangle(3, 3), (1, 1))(0.5)
    expect(len(ising) == 2, "an Ising root above beta_c fails both checks")


def check_call_that_raises() -> None:
    def crash():
        raise RuntimeError("deliberate")
    ops = [workloads.Op("fine", "checks_s", lambda: 0),
           workloads.Op("crash", "hot_sweeps_per_s", crash, work=100)]
    with contextlib.redirect_stderr(io.StringIO()):
        for _ in range(3):
            worker.run_pass(ops)
        result = {"passes": 3, "peak_rss_mb": 1.0,
                  "ops": worker.describe(ops)}
        attempted, failed, correct = run._tally([result])
    expect(not correct and (attempted, failed) == (6, 3),
           "a call that raises makes the run incorrect and fails on every "
           f"pass: correct={correct}, attempted={attempted}, failed={failed}")
    metrics = run._metrics(result)
    expect("hot_sweeps_per_s" not in metrics and "checks_s" in metrics,
           "a call that raises is left out of the times and rates")


def run_toy(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--toy", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    what = f"toy {workload} (trace {trace})"
    if proc.returncode != 0:
        expect(False, f"{what}: exit {proc.returncode}\n{proc.stderr}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] > 0,
           f"{what}: {result['attempted']} operations, "
           f"{result['failed']} failed")
    if trace:
        wanted = set(run.PER_LAYER_UNITS)
    else:
        wanted = {"setup_s", "wall_s", "peak_rss_mb", *run.GROUP_UNITS}
    got = result["metrics"]
    expect(set(got) == wanted, f"{what}: every metric reported")
    if not trace:
        expect(all(m["value"] > 0 for m in got.values()),
               f"{what}: every end-to-end metric is positive")


def check_benchmark_json() -> None:
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(end_to_end == {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                          **run.GROUP_UNITS},
           "BENCHMARK.json lists the end-to-end metrics run.py reports")
    expect(per_layer == run.PER_LAYER_UNITS,
           "BENCHMARK.json lists the per-layer metrics run.py reports")
    expect([w["name"] for w in spec["workloads"]]
           == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py accepts")


def main() -> int:
    check_benchmark_json()
    check_oracles()
    check_checks_reject()
    check_call_that_raises()
    for workload in workloads.WORKLOADS:
        run_toy(workload, 0)
    run_toy("exact-certify", 1)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
