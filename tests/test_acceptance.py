"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; without ``-s`` pytest shows them for failing criteria
only.  Every stochastic criterion uses a fixed seed, so the whole module
is deterministic.
"""

import contextlib
import functools
import io
import math

import numpy as np

from subcrit.certificates import (best_bound, chi_upper_bound, compute_phi,
                                  critical_root, decay_upper_bound)
from subcrit.cli import main as cli_main
from subcrit.currents import (CurrentGraph, correlation_via_currents,
                              switching_check)
from subcrit.ising_mc import check_critical_divergence, estimate_magnetization
from subcrit.lattice import LatticeSpec, ball
from subcrit.perc_mc import (estimate_ghost_magnetization, exit_profile,
                             fit_decay_rate, susceptibility_profile)
from subcrit.verify import check_bk_decomposition, default_report

P_LAT = LatticeSpec.square(mode="p")
B_LAT = LatticeSpec.square(mode="beta")
BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))


def criterion(num, desc):
    """Print exactly one pass/fail line for the criterion, then assert."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except Exception as exc:
                print(f"criterion {num:02d} FAIL — {desc}: "
                      f"raised {type(exc).__name__}: {exc}")
                raise
            print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — "
                  f"{desc}: {detail}")
            assert ok, f"criterion {num:02d} — {desc}: {detail}"
        return run
    return wrap


def sphere(lattice, k):
    inner = set(ball(lattice, k - 1).vertices) if k > 0 else set()
    return [v for v in ball(lattice, k).vertices if v not in inner]


@criterion(1, "exact certificate roots on the square lattice")
def test_criterion_01():
    targets = [
        (critical_root("percolation", P_LAT, ball(P_LAT, 0)), 0.25),
        (critical_root("percolation", P_LAT, ball(P_LAT, 1)), 12.0 ** -0.5),
        (critical_root("ising", B_LAT, ball(B_LAT, 0)), math.atanh(0.25)),
    ]
    worst = max(abs(got - want) for got, want in targets)
    roots = "/".join(f"{got:.9f}" for got, _ in targets)
    return worst < 1e-8, f"roots {roots}, worst error {worst:.2e}"


@criterion(2, "certified lower bounds stay below the true critical points")
def test_criterion_02():
    perc = best_bound("percolation", P_LAT, 2)
    ising = best_bound("ising", B_LAT, 2)
    checks = [
        all(r.method == "exact" and r.root <= 0.5 for r in perc.rows),
        all(r.method == "exact" and r.root <= 0.4406868 for r in ising.rows),
        perc.rows[2].root > perc.rows[1].root,
        ising.rows[2].root > ising.rows[1].root,
    ]
    detail = (f"perc roots {[round(r.root, 6) for r in perc.rows]} <= 0.5, "
              f"ising roots {[round(r.root, 6) for r in ising.rows]}"
              f" <= 0.4406868, radius-2 improves on radius-1")
    return all(checks), detail


@criterion(3, "phi at the known critical points is >= 1 on every ball")
def test_criterion_03():
    values = []
    for radius in (0, 1, 2):
        values.append(compute_phi("percolation", P_LAT, ball(P_LAT, radius),
                                  0.5).value)
        values.append(compute_phi("ising", B_LAT, ball(B_LAT, radius),
                                  0.4406868).value)
    ok = all(v >= 1.0 - 1e-6 for v in values)
    return ok, "min phi " + f"{min(values):.6f} over 6 exact evaluations"


@criterion(4, "MC susceptibility respects the certified bound at p=0.25")
def test_criterion_04():
    phi = compute_phi("percolation", P_LAT, ball(P_LAT, 1), 0.25)
    bound = chi_upper_bound(ball(P_LAT, 1), 0.25, phi)
    parts = []
    ok = abs(bound - 20.0) < 1e-12
    for n in (16, 32):
        est = susceptibility_profile(P_LAT, n, [n], 0.25, samples=20_000,
                                     seed=41)[n]
        ok = ok and est.mean <= bound + 3.0 * est.stderr
        parts.append(f"chi({n})={est.mean:.2f}")
    return ok, f"bound {bound:.1f}, " + ", ".join(parts)


@criterion(5, "exponential decay at p=0.4 within the certified rate; "
               "degraded fit at p=0.5")
def test_criterion_05():
    sizes = [8, 16, 24, 32, 40, 48]
    sub = exit_profile(P_LAT, 48, sizes, 0.4, 30_000, 11)
    fit_sub = fit_decay_rate(sorted(sub.items()))
    lam10 = ball(P_LAT, 10)
    phi10 = compute_phi("percolation", P_LAT, lam10, 0.4,
                        samples=200_000, seed=7)
    within = (phi10.upper_confidence < 1.0
              and all(est.mean <= decay_upper_bound(lam10, phi10, n)
                      + 3.0 * est.stderr for n, est in sub.items()))
    crit = exit_profile(P_LAT, 48, sizes, 0.5, 10_000, 11)
    fit_crit = fit_decay_rate(sorted(crit.items()))
    degraded = fit_crit.r2 < 0.95 or fit_crit.c < fit_sub.c / 3.0
    ok = (fit_sub.c > 0.0 and fit_sub.r2 >= 0.98 and within and degraded)
    return ok, (f"p=0.4: c={fit_sub.c:.4f}, r2={fit_sub.r2:.4f}, all "
                f"estimates within phi-certified envelope "
                f"(ucb {phi10.upper_confidence:.4f}); "
                f"p=0.5: c={fit_crit.c:.4f}, r2={fit_crit.r2:.4f}")


@criterion(6, "supercritical exit probability beats the mean-field bound")
def test_criterion_06():
    results = []
    ok = True
    for p, floor in ((0.6, 1.0 / 3.0), (0.55, 0.1818)):
        est = exit_profile(P_LAT, 64, [64], p, samples=8_000, seed=43)[64]
        ok = ok and est.mean >= floor - 3.0 * est.stderr
        results.append(f"theta64({p})={est.mean:.4f} vs floor {floor:.4f}")
    return ok, "; ".join(results)


@criterion(7, "ghost-field magnetization at p=0.5 grows at least like sqrt(h)")
def test_criterion_07():
    ratios = []
    ok = True
    for h in np.geomspace(0.002, 0.2, 5):
        est = estimate_ghost_magnetization(P_LAT, 96, 0.5, float(h),
                                           samples=20_000, seed=47)
        ratio = (est.mean - 3.0 * est.stderr) / math.sqrt(h)
        ok = ok and ratio >= 0.5
        ratios.append(ratio)
    return ok, (f"min (M - 3s)/sqrt(h) = {min(ratios):.2f} over 5 fields "
                f"(floor 0.5)")


@criterion(8, "plus-boundary magnetization above criticality beats the "
               "mean-field value")
def test_criterion_08():
    est = estimate_magnetization(B_LAT, 128, 1.1 * BETA_C, "plus",
                                 sweeps=1_000, seed=53)
    ok = est.mean >= 0.41666 - 3.0 * est.stderr
    return ok, (f"m(1.1 beta_c, n=128) = {est.mean:.4f} "
                f"+- {est.stderr:.4f} vs floor 0.41666")


@criterion(9, "random-current identities: switching exact, correlations "
               "match spin sums")
def test_criterion_09():
    triangle = CurrentGraph.complete(3)
    worst_switch = 0.0
    for f_spec in ("one", "even_total", ("connect", 0, 2)):
        lhs, rhs = switching_check(triangle, (0, 1), 0, 1, f_spec,
                                   0.4, 0.25, 8)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        worst_switch = max(worst_switch, rel)

    def connected_graphs(n):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for mask in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            adj = {v: [] for v in range(n)}
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            seen, stack = {0}, [0]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == n:
                yield CurrentGraph(n, tuple((a, b, 1.0) for a, b in edges))

    def spin_correlation(graph, x, y, beta):
        num = den = 0.0
        for bits in range(1 << graph.n_vertices):
            spins = [1 if bits >> i & 1 else -1
                     for i in range(graph.n_vertices)]
            w = math.exp(sum(beta * j * spins[a] * spins[b]
                             for a, b, j in graph.edges))
            den += w
            num += w * spins[x] * spins[y]
        return num / den

    worst_corr, count = 0.0, 0
    for n in (2, 3, 4):
        for graph in connected_graphs(n):
            got = correlation_via_currents(graph, 0, n - 1, 0.5, 0.0, 14)
            want = spin_correlation(graph, 0, n - 1, 0.5)
            worst_corr = max(worst_corr, abs(got - want))
            count += 1
    ok = worst_switch < 1e-10 and worst_corr < 1e-6 and count == 43
    return ok, (f"switching rel diff {worst_switch:.2e} (3 F's, cap 8); "
                f"correlation error {worst_corr:.2e} over {count} graphs")


@criterion(10, "all five exact inequality checks hold")
def test_criterion_10():
    reports = [default_report(name)
               for name in ("perc-diff", "bk", "ising-diff", "simon", "ghs")]
    tri = LatticeSpec.triangular(mode="p")
    reports.append(check_bk_decomposition(
        P_LAT, [(0, 0)], ball(P_LAT, 1).vertices, sphere(P_LAT, 2)))
    reports.append(check_bk_decomposition(
        tri, [(0, 0)], ball(tri, 1).vertices, sphere(tri, 2)))
    ok = all(r.passed and r.min_margin >= -1e-6 for r in reports)
    margins = ", ".join(f"{r.name}={r.min_margin:.2e}" for r in reports)
    return ok, f"min margins: {margins}"


@criterion(11, "susceptibility sums diverge at criticality and converge "
                "below the certified bound off criticality")
def test_criterion_11():
    prof = susceptibility_profile(P_LAT, 64, [16, 32, 64], 0.5, 6_000, 59)
    perc_ok = True
    for a, b in ((16, 32), (32, 64)):
        gap = prof[b].mean - prof[a].mean
        sigma = math.hypot(prof[a].stderr, prof[b].stderr)
        perc_ok = perc_ok and gap > 3.0 * sigma
    ising = check_critical_divergence(B_LAT, BETA_C, [16, 32, 64],
                                      sweeps=600, seed=61)
    phi2 = compute_phi("ising", B_LAT, ball(B_LAT, 2), 0.3)
    bound = chi_upper_bound(ball(B_LAT, 2), 0.3, phi2)
    control = check_critical_divergence(B_LAT, 0.3, [16, 32],
                                        sweeps=400, seed=67)
    last = control.estimates[32]
    control_ok = last.mean + 3.0 * last.stderr <= bound
    ok = perc_ok and ising.strictly_increasing_3sigma and control_ok
    return ok, (f"perc sums {[round(prof[n].mean, 1) for n in (16, 32, 64)]} "
                f"rise at 3 sigma; ising rise {ising.strictly_increasing_3sigma}; "
                f"control sum {last.mean:.2f} below bound {bound:.2f}")


@criterion(12, "same-seed reruns produce byte-identical CSV artifacts")
def test_criterion_12(tmp_path):
    runs = {
        "perc": ("simulate-perc", "--observable", "exit", "--param", "0.4",
                 "--n", "8", "--samples", "5000", "--seed", "71"),
        "ising": ("simulate-ising", "--observable", "magnetization",
                  "--param", "0.4", "--n", "4", "--boundary", "plus",
                  "--sweeps", "1000", "--seed", "73"),
    }
    identical = []
    for name, args in runs.items():
        outputs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}_{attempt}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(list(args) + ["--out", str(out),
                                              "--label", name])
            assert code == 0
            outputs.append((out / f"{name}.csv").read_bytes())
        identical.append(outputs[0] == outputs[1])
    return all(identical), (f"perc rerun identical: {identical[0]}; "
                            f"ising rerun identical: {identical[1]}")
