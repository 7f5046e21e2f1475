"""Percolation Monte Carlo against exact enumerations on small boxes."""

import math

import pytest

from subcrit.errors import DegenerateFit
from subcrit.exact import naive_event_prob, perc_connect_probs, perc_exit_prob
from subcrit.lattice import LatticeSpec, Region, ball
from subcrit.perc_mc import (check_mean_field, estimate_ghost_magnetization,
                             exit_profile, fit_decay_rate,
                             susceptibility_profile)
from subcrit.stats import MCEstimate

P_LAT = LatticeSpec.square(mode="p")


def assert_within_sigmas(estimate, truth, sigmas=4.0, floor=1e-3):
    width = max(sigmas * estimate.stderr, floor)
    assert abs(estimate.mean - truth) <= width, (
        f"estimate {estimate.mean} +- {estimate.stderr} vs exact {truth}")


def test_exit_matches_exact_small_radii():
    for n, p, seed in ((1, 0.3, 11), (1, 0.6, 12), (2, 0.45, 13)):
        est = exit_profile(P_LAT, n, [n], p, samples=60_000, seed=seed)[n]
        assert_within_sigmas(est, perc_exit_prob(P_LAT, n, p))


def test_exit_is_deterministic_per_seed():
    a = exit_profile(P_LAT, 2, [2], 0.4, samples=5_000, seed=77)[2]
    b = exit_profile(P_LAT, 2, [2], 0.4, samples=5_000, seed=77)[2]
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = exit_profile(P_LAT, 2, [2], 0.4, samples=5_000, seed=78)[2]
    assert a.mean != c.mean


def test_exit_profile_decreasing_and_consistent():
    profile = exit_profile(P_LAT, 8, [2, 4, 8], 0.35, samples=40_000, seed=21)
    assert set(profile) == {2, 4, 8}
    means = [profile[n].mean for n in (2, 4, 8)]
    assert means[0] >= means[1] >= means[2]
    assert_within_sigmas(profile[2], perc_exit_prob(P_LAT, 2, 0.35))


def test_susceptibility_matches_exact_box():
    # the sampling graph is ball(1) plus its shell (clusters may route
    # through shell sites); chi counts only members inside ball(1)
    p = 0.35
    lam1 = ball(P_LAT, 1)
    shell = {w for _, w, _ in lam1.boundary_pairs}
    graph = Region(P_LAT, set(lam1.vertices) | shell)
    # the shell of ball(1) on Z^2 has no internal adjacencies, so this
    # region reproduces the sampler's edge set exactly
    assert len(graph.internal_edges) == 16
    conn = perc_connect_probs(graph, p)
    chi = math.fsum(conn.probs[v] for v in lam1.vertices)
    est = susceptibility_profile(P_LAT, 1, [1], p, samples=60_000, seed=31)[1]
    assert_within_sigmas(est, chi, floor=5e-3)


def test_susceptibility_profile_increasing_in_box():
    profile = susceptibility_profile(P_LAT, 8, [2, 4, 8], 0.45,
                                     samples=30_000, seed=41)
    means = [profile[n].mean for n in (2, 4, 8)]
    assert means[0] <= means[1] <= means[2]


def test_ghost_magnetization_matches_exact_line():
    # 1d box [-1, 1] plus its shell {-2, 2}: 5 vertices, 4 bonds, and a
    # ghost bond at every vertex (shell included); node order matches the
    # sampler's layout (ball vertices in canonical order, then the shell)
    line = LatticeSpec.hypercubic(1, mode="p")
    p, h = 0.4, 0.3
    wh = 1.0 - math.exp(-h)
    edges = [(0, 1, p), (0, 2, p), (1, 3, p), (2, 4, p)]
    edges += [(i, 5, wh) for i in range(5)]
    truth = naive_event_prob(6, edges, 0, [5])[5]
    est = estimate_ghost_magnetization(line, 1, p, h, samples=60_000, seed=51)
    assert_within_sigmas(est, truth)


def test_ghost_magnetization_monotone_in_field():
    means = [estimate_ghost_magnetization(P_LAT, 4, 0.5, h, samples=20_000,
                                          seed=61).mean
             for h in (0.01, 0.1, 1.0)]
    assert means[0] < means[1] < means[2]
    assert means[2] > 0.9


def test_ghost_magnetization_rejects_bad_field():
    with pytest.raises(ValueError):
        estimate_ghost_magnetization(P_LAT, 4, 0.5, -0.1, samples=100, seed=1)


def test_check_mean_field_above_half():
    report = check_mean_field(P_LAT, 24, 0.6, samples=20_000, seed=71)
    assert report.bound == pytest.approx((0.6 - 0.5) / (0.6 * 0.5))
    assert report.theta_hat.mean > report.bound
    assert report.passed
    assert report.margin_sigmas > 0.0


def test_fit_decay_rate_recovers_synthetic_rate():
    c_true, a = 0.21, 0.9
    series = [(n, MCEstimate("exit", a * math.exp(-c_true * n), 1e-4,
                             10_000, 1)) for n in (4, 8, 12, 16, 24)]
    fit = fit_decay_rate(series)
    assert fit.c == pytest.approx(c_true, abs=1e-6)
    assert fit.r2 > 0.999999


def test_fit_decay_rate_degenerate_inputs():
    flat = [(n, MCEstimate("exit", 0.0, 1e-4, 100, 1)) for n in (2, 4, 8)]
    with pytest.raises(DegenerateFit):
        fit_decay_rate(flat)
    with pytest.raises(DegenerateFit):
        fit_decay_rate([(4, MCEstimate("exit", 0.5, 1e-4, 100, 1))])
