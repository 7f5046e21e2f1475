"""Percolation Monte Carlo against exact enumerations on small boxes."""

import math

import pytest

from subcrit.errors import DegenerateFit
from subcrit.exact import naive_event_prob, perc_connect_probs, perc_exit_prob
from subcrit.lattice import LatticeSpec, Region, ball
from subcrit.perc_mc import (PercBox, check_mean_field,
                             estimate_ghost_magnetization, exit_profile,
                             fit_decay_rate, susceptibility_profile)
from subcrit.stats import MCEstimate

P_LAT = LatticeSpec.square(mode="p")
T_LAT = LatticeSpec.triangular(mode="beta")


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


def reference_cluster(box, open_edges):
    adjacent = {}
    for a, b, is_open in zip(box.edge_a.tolist(), box.edge_b.tolist(),
                             open_edges.tolist()):
        if is_open:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
    seen, todo = {0}, [0]
    while todo:
        for w in adjacent.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@pytest.mark.parametrize("lattice", [P_LAT, T_LAT], ids=["square", "triangular"])
def test_early_exit_walk_decides_like_full_walk(lattice):
    # same draws walked to the end, stopped past the largest radius, and
    # stopped at the first ghost bond; the profile includes r = n_box
    n_box, radii = 6, [0, 1, 3, 6]
    box = PercBox(lattice, n_box)
    for param in (0.3, 0.5):
        weights = box.open_probabilities(param)
        for i in range(200):
            open_edges, ghost_open = box.sample(weights, 0.05, 5, 1, i)
            members, full, _ = box.origin_cluster(open_edges)
            cluster = reference_cluster(box, open_edges)
            assert set(members) == cluster
            assert full == max(box.layer[m] for m in cluster)
            _, early, _ = box.origin_cluster(open_edges,
                                             stop_layer=radii[-1] + 1)
            assert [early > r for r in radii] == [full > r for r in radii]
            _, _, hit = box.origin_cluster(open_edges, ghost_open)
            assert hit == any(ghost_open[m] for m in cluster)


def test_fixed_seed_outputs_are_pinned():
    # recorded before the numpy box layout and the early-exit walk; a change
    # of the draws (e.g. lazy per-edge uniforms) must move these on purpose
    exit_hits = {
        (P_LAT, 12, 0.5, 3000, 7): {2: 2605, 5: 2453, 12: 2253},
        (P_LAT, 10, 0.6, 2000, 8): {3: 1907, 10: 1902},
        (T_LAT, 6, 0.3, 2000, 9): {2: 1179, 6: 548},
    }
    for (lattice, n_box, param, samples, seed), hits in exit_hits.items():
        profile = exit_profile(lattice, n_box, list(hits), param, samples, seed)
        assert {r: round(e.mean * samples) for r, e in profile.items()} == hits
    chi_means = {
        (P_LAT, 8, 0.45, 2000, 41): {2: 7.302, 4: 17.005, 8: 36.9465},
        (T_LAT, 5, 0.25, 1000, 42): {1: 3.011, 5: 7.995},
    }
    for (lattice, n_box, param, samples, seed), means in chi_means.items():
        profile = susceptibility_profile(lattice, n_box, list(means), param,
                                         samples, seed)
        assert {r: e.mean for r, e in profile.items()} == means
    ghost = estimate_ghost_magnetization(P_LAT, 6, 0.45, 0.05, 2000, 61)
    assert round(ghost.mean * 2000) == 1235
    ghost = estimate_ghost_magnetization(T_LAT, 4, 0.2, 0.1, 1000, 62)
    assert round(ghost.mean * 1000) == 338


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
