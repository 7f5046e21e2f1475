"""The benchmark's three workloads: inputs, operations and output checks.

A workload is a fixed list of operations, the same list for every
workload with workload-specific sizes.  Each operation is one call into
subcrit, either the CLI (``subcrit.cli.main`` in-process, as
``python -m subcrit`` would run it) or the public API where the CLI has no
entry point.  ``build`` makes the inputs of a run from its seed: seeds for
the Monte Carlo subcommands, region and scenario files.  Sizes and sample
counts never depend on the seed, so a run costs the same on every seed.
Every check compares an output with a value computed apart from the
program (``oracles``) or with a property the method must have.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles
from oracles import BETA_C

WORKLOADS = ("exact-certify", "perc-mc", "wolff-mc")

# Every workload runs the same operations, so that each reports every
# end-to-end metric; they differ in sizes.  Each puts its weight on one
# part of the program ("focus") and keeps small companion instances of the
# other operations.  Every call is short enough to repeat within a run.
_SMALL_EXACT = {
    "perc_rect": (3, 4, (1, 1)),     # 17 internal edges
    "ising_rect": (3, 5, (1, 2)),    # 15 spins
}
_SMALL_PERC = {
    "exit_super": ("1,8,16", 800),
    "exit_crit": (16, 1600),
    "chi": (16, 12000),
    "ghost": (16, 3000, 0.01),
}
_SMALL_WOLFF = {
    "ordered": (6, 60),
    "critical": ("4,8", 80),
    "hot": (2, 1000),
}
SIZES = {
    "exact-certify": {
        "perc_rect": (2, 7, (0, 3)),     # focus: 19 internal edges
        "ising_rect": (4, 4, (1, 1)),    # focus: 16 spins
        **_SMALL_PERC, **_SMALL_WOLFF,
    },
    "perc-mc": {
        **_SMALL_EXACT,
        "exit_super": ("1,16,32,64", 25),    # focus
        "exit_crit": (64, 100),              # focus
        "chi": (96, 800),                    # focus
        "ghost": (96, 600, 0.01),            # focus
        **_SMALL_WOLFF,
    },
    "wolff-mc": {
        **_SMALL_EXACT, **_SMALL_PERC,
        "ordered": (24, 60),             # focus
        "critical": ("8,16", 80),        # focus
        "hot": (2, 1500),                # focus
    },
    # every operation and check on tiny inputs, for the self-check
    "toy": {
        "perc_rect": (3, 3, (1, 1)),
        "ising_rect": (3, 3, (1, 1)),
        "exit_super": ("1,4,8", 200),
        "exit_crit": (8, 200),
        "chi": (8, 500),
        "ghost": (8, 200, 0.01),
        "ordered": (8, 50),
        "critical": ("4,8", 100),
        "hot": (2, 500),
    },
}

# A run makes one pass per PASS_S seconds of --seconds, and at least
# MIN_PASSES; PASS_S is about one pass on the reference machine of the
# README when it is busy.
PASS_S = 9.0
MIN_PASSES = 3

ROOT_TOL = 1e-9          # critical_root's and best-bound's default tolerance
PHI_SAMPLES = 40_000     # oracle samples for the largest percolation region
TRIANGULAR = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


@dataclass
class Op:
    """One call, timed on every repetition, and the checks made on its
    outputs afterwards."""

    name: str
    group: str                 # the end-to-end metric its time feeds
    call: Callable[[], object]
    work: int = 0              # samples or sweeps, for rates
    check: Callable[[object], list] | None = None
    result: object = None
    times: list = field(default_factory=list)
    cal: list = field(default_factory=list)
    error: str | None = None
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> Callable[[], int]:
    import contextlib
    import io

    from subcrit import cli

    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {sink.getvalue().strip()}")
        return code
    return call


def _rows(path: str) -> dict[int, dict]:
    with open(path, newline="") as fh:
        return {int(row["n"]): row for row in csv.DictReader(fh)}


def _fail(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _sphere(offsets, k: int) -> list[tuple[int, int]]:
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    for step in range(1, k + 1):
        nxt = []
        for v in frontier:
            for dx, dy in offsets:
                w = (v[0] + dx, v[1] + dy)
                if w not in dist:
                    dist[w] = step
                    nxt.append(w)
        frontier = nxt
    return sorted(v for v, d in dist.items() if d == k)


def _ball(offsets, k: int) -> list[tuple[int, int]]:
    return [v for r in range(k + 1) for v in _sphere(offsets, r)]


def _root_bracket_failures(name, phi, root, tol=ROOT_TOL) -> list:
    low, high = phi(root), phi(root + 2.0 * tol)
    if low < 1.0 <= high:
        return []
    return [f"{name}: oracle phi({root!r}) = {low!r} and "
            f"phi(root + 2 tol) = {high!r} do not bracket 1"]


# ---------------------------------------------------------------------------
# roots and exact checks (the focus of exact-certify)
# ---------------------------------------------------------------------------

def _oracle_phi(model: str, vertices, origin) -> Callable[[float], float]:
    region = oracles.RegionGraph(vertices, origin)
    if model == "percolation":
        return oracles.PercPhi(region)
    return lambda beta: oracles.ising_phi(region, beta)


def _check_best_bound(model: str, path: str, tol: float = ROOT_TOL):
    def check(_):
        with open(path) as fh:
            rows = {r["radius"]: r["root"] for r in json.load(fh)["rows"]}
        failures = []
        critical = oracles.P_C if model == "percolation" else BETA_C
        _fail(failures, sorted(rows) == [0, 1, 2], f"radii {sorted(rows)}")
        for radius, root in sorted(rows.items()):
            _fail(failures, root < critical,
                  f"{model} ball({radius}) root {root!r} >= {critical!r}")
            want = oracles.CLOSED_FORM_ROOTS.get((model, radius))
            if want is not None:
                _fail(failures, abs(root - want) <= 1e-8,
                      f"{model} ball({radius}) root {root!r} != {want!r}")
            failures += _root_bracket_failures(
                f"{model} ball({radius})",
                _oracle_phi(model, oracles.diamond(radius), (0, 0)), root, tol)
        return failures
    return check


def _check_perc_rect(region: oracles.RegionGraph, seed: int):
    def check(root):
        failures = []
        _fail(failures, root < oracles.P_C, f"rectangle root {root!r} >= 1/2")
        failures += _root_bracket_failures("perc rectangle",
                                           oracles.PercPhi(region), root)
        mean, err = oracles.sample_phi_perc(region, root, PHI_SAMPLES,
                                            np.random.default_rng(seed))
        _fail(failures, abs(mean - 1.0) <= 4.0 * err,
              f"sampled phi at the rectangle root {mean:.5f} +- {err:.5f} "
              f"is not within 4 sigma of 1")
        return failures
    return check


def _check_ising_rect(vertices, origin):
    def check(root):
        failures = []
        _fail(failures, root < BETA_C, f"rectangle root {root!r} >= beta_c")
        failures += _root_bracket_failures(
            "ising rectangle", _oracle_phi("ising", vertices, origin), root)
        return failures
    return check


def _check_verify(path: str):
    def check(_):
        with open(path) as fh:
            reports = json.load(fh)
        return [f"verify {r['name']}: passed={r['passed']}, "
                f"min margin {r['min_margin']!r}"
                for r in reports
                if not (r["passed"] and r["min_margin"] >= -1e-6)]
    return check


def _check_report(report) -> list:
    if report.passed and report.min_margin >= -1e-6:
        return []
    return [f"{report.name}: passed={report.passed}, "
            f"min margin {report.min_margin!r}"]


def _check_switching(path: str):
    def check(_):
        with open(path) as fh:
            result = json.load(fh)["result"]
        lhs, rhs = result["lhs"], result["rhs"]
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        return [] if rel <= 1e-10 else [f"switching sides differ: {lhs!r} "
                                        f"vs {rhs!r} (rel {rel:.2e})"]
    return check


def _check_correlation(path: str, scenario: dict):
    def check(_):
        with open(path) as fh:
            value = json.load(fh)["result"]["value"]
        graph, task = scenario["graph"], scenario["task"]
        couplings = [(a, b, j) for a, b, j in graph["edges"]]
        want = oracles.spin_correlation(graph["n_vertices"], couplings,
                                        scenario["beta"], scenario["h"],
                                        task["x"], task["y"])
        return ([] if abs(value - want) <= 1e-6 else
                [f"current correlation {value!r} vs spin sum {want!r}"])
    return check


def _certify_ops(rng: random.Random, sizes: dict, out: str) -> list[Op]:
    from subcrit import certificates, lattice, verify

    width, height, origin = sizes["perc_rect"]
    shift = (rng.randint(-40, 40), rng.randint(-40, 40))
    perc_vertices = [oracles.translate(v, shift)
                     for v in oracles.rectangle(width, height)]
    perc_origin = oracles.translate(origin, shift)
    width, height, origin = sizes["ising_rect"]
    # the central sites of an even side are mirror images: same root
    if width % 2 == 0 and rng.random() < 0.5:
        origin = (width - 1 - origin[0], origin[1])
    if height % 2 == 0 and rng.random() < 0.5:
        origin = (origin[0], height - 1 - origin[1])
    shift = (rng.randint(-40, 40), rng.randint(-40, 40))
    ising_vertices = [oracles.translate(v, shift)
                      for v in oracles.rectangle(width, height)]
    ising_origin = oracles.translate(origin, shift)
    region_files = {}
    for name, vertices, base in (("perc_rect", perc_vertices, perc_origin),
                                 ("ising_rect", ising_vertices, ising_origin)):
        region_files[name] = os.path.join(out, f"{name}.json")
        with open(region_files[name], "w") as fh:
            json.dump({"vertices": [list(v) for v in vertices],
                       "origin": list(base)}, fh)

    def root_call(model: str, mode: str, path: str):
        def call():
            with open(path) as fh:
                data = json.load(fh)
            lat = lattice.LatticeSpec.square(mode)
            region = lattice.Region(lat, [tuple(v) for v in data["vertices"]],
                                    tuple(data["origin"]))
            return certificates.critical_root(model, lat, region)
        return call

    switch_graph = {"n_vertices": 3,
                    "edges": [[0, 1, round(rng.uniform(0.5, 1.5), 3)],
                              [1, 2, round(rng.uniform(0.5, 1.5), 3)],
                              [0, 2, round(rng.uniform(0.5, 1.5), 3)]]}
    scenarios = {
        "lab-switch-one": {
            "graph": switch_graph, "beta": round(rng.uniform(0.3, 0.5), 3),
            "h": round(rng.uniform(0.1, 0.3), 3), "truncation": 8,
            "task": {"kind": "switching", "sources": [0, 1], "u": 0, "v": 1,
                     "f": "one"}},
        "lab-switch-connect": {
            "graph": switch_graph, "beta": round(rng.uniform(0.3, 0.5), 3),
            "h": round(rng.uniform(0.1, 0.3), 3), "truncation": 8,
            "task": {"kind": "switching", "sources": [0, 1], "u": 0, "v": 1,
                     "f": ["connect", 0, 2]}},
        "lab-correlation": {
            "graph": {"n_vertices": 4,
                      "edges": [[a, b, round(rng.uniform(0.5, 1.5), 3)]
                                for a, b in ((0, 1), (1, 2), (2, 3), (0, 3),
                                             (0, 2))]},
            "beta": round(rng.uniform(0.2, 0.4), 3), "h": 0.0,
            "truncation": 12, "task": {"kind": "correlation", "x": 0, "y": 3}},
    }
    ops = [
        Op("best-bound-perc", "perc_roots_s",
           _cli(["best-bound", "--model", "percolation", "--max-radius", "2",
                 "--out", out, "--label", "bb-perc"]),
           check=_check_best_bound("percolation",
                                   os.path.join(out, "bb-perc.json"))),
        Op("best-bound-ising", "ising_roots_s",
           _cli(["best-bound", "--model", "ising", "--max-radius", "2",
                 "--out", out, "--label", "bb-ising"]),
           check=_check_best_bound("ising", os.path.join(out, "bb-ising.json"))),
        Op("root-perc-rect", "perc_roots_s",
           root_call("percolation", "p", region_files["perc_rect"]),
           check=_check_perc_rect(oracles.RegionGraph(perc_vertices,
                                                      perc_origin),
                                  rng.randrange(2 ** 32))),
        Op("root-ising-rect", "ising_roots_s",
           root_call("ising", "beta", region_files["ising_rect"]),
           check=_check_ising_rect(ising_vertices, ising_origin)),
    ]
    for name in ("perc-diff", "ising-diff", "simon", "ghs"):
        ops.append(Op(f"verify-{name}", "checks_s",
                      _cli(["verify", "--check", name, "--out", out,
                            "--label", f"verify-{name}"]),
                      check=_check_verify(os.path.join(out,
                                                       f"verify-{name}.json"))))
    # the two BK instances of acceptance criterion 10: S = {0}, A = ball(1),
    # B = the sphere of radius 2
    for family, offsets in (("square", oracles.STEPS),
                            ("triangular", TRIANGULAR)):
        def bk(family=family, offsets=offsets):
            lat = getattr(lattice.LatticeSpec, family)("p")
            return verify.check_bk_decomposition(
                lat, [(0, 0)], _ball(offsets, 1), _sphere(offsets, 2))
        ops.append(Op(f"bk-{family}", "checks_s", bk, check=_check_report))
    for name, scenario in scenarios.items():
        path = os.path.join(out, f"{name}-scenario.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        result = os.path.join(out, f"{name}.json")
        check = (_check_correlation(result, scenario)
                 if scenario["task"]["kind"] == "correlation"
                 else _check_switching(result))
        ops.append(Op(name, "checks_s",
                      _cli(["current-lab", "--scenario", path, "--out", out,
                            "--label", name]),
                      check=check))
    return ops


# ---------------------------------------------------------------------------
# percolation Monte Carlo (the focus of perc-mc)
# ---------------------------------------------------------------------------

def _perc_ops(rng: random.Random, sizes: dict, out: str) -> list[Op]:
    def run(label, observable, param, size_flag, size, samples, extra=()):
        return _cli(["simulate-perc", "--observable", observable,
                     "--param", repr(param), size_flag, str(size),
                     "--samples", str(samples),
                     "--seed", str(rng.randrange(2 ** 31)),
                     "--out", out, "--label", label, *extra])

    n_list, n_super = sizes["exit_super"]
    n_crit, samples_crit = sizes["exit_crit"]
    n_chi, samples_chi = sizes["chi"]
    n_ghost, samples_ghost, h = sizes["ghost"]

    def check_super(_):
        rows = _rows(os.path.join(out, "exit-super.csv"))
        failures = []
        exact = oracles.exit_probability(1, 0.6)
        sigma = math.sqrt(exact * (1.0 - exact) / n_super)
        got = float(rows[1]["mean"])
        _fail(failures, abs(got - exact) <= 4.0 * sigma,
              f"exit[n=1] {got!r} vs exact {exact!r} (4 sigma {4 * sigma:.4f})")
        top = max(rows)
        mean, err = float(rows[top]["mean"]), float(rows[top]["stderr"])
        floor = oracles.mean_field_theta_floor(0.6)
        _fail(failures, mean >= floor - 3.0 * err,
              f"exit[n={top}] {mean!r} below the mean-field floor {floor:.4f}")
        means = [float(rows[n]["mean"]) for n in sorted(rows)]
        _fail(failures, all(a >= b for a, b in zip(means, means[1:])),
              f"profile hits increase with radius: {means}")
        _fail(failures, all(int(r["samples"]) == n_super for r in rows.values()),
              "sample count not recorded")
        return failures

    def check_crit(_):
        row = _rows(os.path.join(out, "exit-crit.csv"))[n_crit]
        mean, err = float(row["mean"]), float(row["stderr"])
        # the exit event from ball(n) implies the one from ball(1)
        cap = oracles.exit_probability(1, 0.5)
        return ([] if 0.0 < mean <= cap + 4.0 * err else
                [f"critical exit[n={n_crit}] {mean!r} outside (0, {cap:.4f}]"])

    def check_chi(_):
        row = _rows(os.path.join(out, "chi-subcrit.csv"))[n_chi]
        mean, err = float(row["mean"]), float(row["stderr"])
        p = 0.25
        phi1 = 12.0 * p * p  # phi(ball(1)) in closed form
        cap = len(oracles.diamond(1)) / (1.0 - phi1)
        failures = []
        _fail(failures, mean <= cap + 3.0 * err,
              f"chi {mean!r} above the certified bound {cap!r}")
        _fail(failures, mean >= 1.0 + 4.0 * p - 4.0 * err,
              f"chi {mean!r} below 1 + 4p")
        return failures

    def check_ghost(_):
        row = _rows(os.path.join(out, "ghost.csv"))[n_ghost]
        mean = float(row["mean"])
        floor = -math.expm1(-h)
        return ([] if mean >= floor else
                [f"ghost magnetization {mean!r} below 1 - exp(-h) = {floor!r}"])

    return [
        Op("exit-super", "supercrit_exit_samples_per_s",
           run("exit-super", "exit", 0.6, "--n-list", n_list, n_super),
           work=n_super, check=check_super),
        Op("exit-crit", "crit_exit_samples_per_s",
           run("exit-crit", "exit", 0.5, "--n", n_crit, samples_crit),
           work=samples_crit, check=check_crit),
        Op("chi-subcrit", "subcrit_chi_samples_per_s",
           run("chi-subcrit", "susceptibility", 0.25, "--n", n_chi, samples_chi),
           work=samples_chi, check=check_chi),
        Op("ghost", "ghost_samples_per_s",
           run("ghost", "ghost", 0.5, "--n", n_ghost, samples_ghost,
               ("--h", repr(h))),
           work=samples_ghost, check=check_ghost),
    ]


# ---------------------------------------------------------------------------
# Wolff Monte Carlo (the focus of wolff-mc)
# ---------------------------------------------------------------------------

def _wolff_ops(rng: random.Random, sizes: dict, out: str) -> list[Op]:
    def run(label, args, sweeps):
        return _cli(["simulate-ising", *args, "--sweeps", str(sweeps),
                     "--seed", str(rng.randrange(2 ** 31)),
                     "--out", out, "--label", label])

    n_ordered, sweeps_ordered = sizes["ordered"]
    n_list, sweeps_critical = sizes["critical"]
    n_hot, sweeps_hot = sizes["hot"]
    beta_ordered = 1.1 * BETA_C
    beta_hot = 0.3

    def check_ordered(_):
        row = _rows(os.path.join(out, "ordered.csv"))[n_ordered]
        mean, err = float(row["mean"]), float(row["stderr"])
        onsager = oracles.onsager_magnetization(beta_ordered)
        # the standard error of a mean of 0/1 indicators is at least the
        # i.i.d. one; batch means on short runs can read below it
        sigma = max(err, math.sqrt(onsager * (1.0 - onsager) / sweeps_ordered))
        floor = oracles.mean_field_magnetization_floor(beta_ordered)
        failures = []
        _fail(failures, mean >= onsager - 4.0 * sigma,
              f"plus magnetization {mean!r} below Onsager {onsager:.4f} "
              f"- 4 sigma ({sigma:.4f})")
        _fail(failures, mean >= floor,
              f"plus magnetization {mean!r} below mean-field {floor:.4f}")
        return failures

    def check_critical(_):
        rows = _rows(os.path.join(out, "critical.csv"))
        sums = [float(rows[n]["mean"]) for n in sorted(rows)]
        failures = []
        _fail(failures, all(a <= b for a, b in zip(sums, sums[1:])),
              f"partial sums decrease with radius: {sums}")
        floor = 1.0 + 4.0 * math.tanh(BETA_C)
        _fail(failures, float(rows[8]["mean"]) >= floor,
              f"S_8 {rows[8]['mean']} below 1 + 4 tanh(beta_c) = {floor:.4f}")
        return failures

    def check_hot(_):
        region = oracles.RegionGraph(oracles.diamond(n_hot), (0, 0))
        corr = oracles.ising_correlations(len(region.nodes), region.edges,
                                          beta_hot)
        with open(os.path.join(out, "hot.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        failures = []
        _fail(failures, len(rows) == 2, f"{len(rows)} two-point rows")
        for row in rows:
            d = int(row["observable"].split("=")[1].rstrip("]"))
            exact = float(corr[region.index[(d, 0)]])
            mean, err = float(row["mean"]), float(row["stderr"])
            sigma = max(err, math.sqrt(exact * (1.0 - exact) / sweeps_hot))
            _fail(failures, abs(mean - exact) <= 4.0 * sigma,
                  f"two-point d={d}: {mean!r} vs exact {exact!r} "
                  f"(4 sigma {4 * sigma:.4f})")
        return failures

    return [
        Op("ordered", "ordered_sweeps_per_s",
           run("ordered", ["--observable", "magnetization",
                           "--param", repr(beta_ordered), "--n", str(n_ordered),
                           "--boundary", "plus"], sweeps_ordered),
           work=sweeps_ordered, check=check_ordered),
        Op("critical", "critical_sweeps_per_s",
           run("critical", ["--observable", "divergence",
                            "--param", repr(BETA_C), "--n-list", n_list],
               sweeps_critical),
           work=sweeps_critical, check=check_critical),
        Op("hot", "hot_sweeps_per_s",
           run("hot", ["--observable", "two-point", "--param", repr(beta_hot),
                       "--n", str(n_hot), "--distances", "1,2"], sweeps_hot),
           work=sweeps_hot, check=check_hot),
    ]


def build(workload: str, seed: int, toy: bool,
          out: str) -> list[Op]:
    """Inputs and operations of one run; writes input files into ``out``."""
    rng = random.Random(f"{workload}/{seed}")
    sizes = SIZES["toy" if toy else workload]
    os.makedirs(out, exist_ok=True)
    return (_certify_ops(rng, sizes, out) + _perc_ops(rng, sizes, out)
            + _wolff_ops(rng, sizes, out))


def passes(seconds: float, toy: bool) -> int:
    """Passes a run makes.  Fixed by the arguments alone, so every run
    attempts the same calls."""
    return 1 if toy else max(MIN_PASSES, int(seconds // PASS_S))
