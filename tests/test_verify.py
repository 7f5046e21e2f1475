"""Tests for the exact inequality checks."""

import math

import numpy as np
import pytest

from subcrit.certificates import phi_ising, phi_percolation
from subcrit.exact import (naive_connect_probs, naive_event_prob,
                           naive_ising_observables)
from subcrit.lattice import LatticeSpec, Region, ball, edge_weight
from subcrit.verify import (CHECK_NAMES, InequalityReport,
                            check_bk_decomposition, check_ghs_differential,
                            check_ising_differential, check_modified_simon,
                            check_perc_differential, default_report,
                            default_reports, phi_infimum)

P_LAT = LatticeSpec.square(mode="p")
B_LAT = LatticeSpec.square(mode="beta")


def hand_phi_percolation(lattice, subset, param, within=None):
    """Independent assembly: naive connection probs + neighbor scan."""
    region = Region(lattice, subset)
    probs = naive_connect_probs(region, param)
    members = set(region.vertices)
    total = 0.0
    for x in region.vertices:
        for y, j in lattice.neighbors(x):
            if y in members:
                continue
            if within is not None and y not in within:
                continue
            total += edge_weight(lattice, j, param) * probs[x]
    return total


def hand_phi_ising(lattice, subset, beta, within=None):
    region = Region(lattice, subset)
    corr = naive_ising_observables(region, beta, 0.0).correlations
    members = set(region.vertices)
    total = 0.0
    for x in region.vertices:
        for y, j in lattice.neighbors(x):
            if y in members:
                continue
            if within is not None and y not in within:
                continue
            total += math.tanh(beta * j) * corr[x]
    return total


def phi_p(subset, param, **kwargs):
    return phi_percolation(P_LAT, Region(P_LAT, subset), param, **kwargs).value


def phi_b(subset, beta, **kwargs):
    return phi_ising(B_LAT, Region(B_LAT, subset), beta, **kwargs).value


def random_subset(rng, lattice, max_extra=5):
    pool = [v for v in ball(lattice, 2).vertices if v != (0, 0)]
    k = int(rng.integers(0, max_extra + 1))
    picks = rng.choice(len(pool), size=k, replace=False) if k else []
    return [(0, 0)] + [pool[int(i)] for i in picks]  # may be disconnected


# --- phi on arbitrary subsets ---------------------------------------------------

def test_phi_on_subset_simple_values():
    assert phi_p([(0, 0)], 0.2) == pytest.approx(0.8)
    # disconnected subset: the far vertex never connects to the origin, so
    # only the origin's own boundary contributes
    value = phi_p([(0, 0), (2, 2)], 0.2)
    assert value == pytest.approx(0.8)


def test_phi_on_subset_matches_hand_assembly():
    rng = np.random.default_rng(4101)
    for _ in range(10):
        subset = random_subset(rng, P_LAT)
        p = float(rng.uniform(0.1, 0.9))
        assert phi_p(subset, p) == pytest.approx(
            hand_phi_percolation(P_LAT, subset, p), rel=1e-12, abs=1e-14)
    for _ in range(5):
        subset = random_subset(rng, B_LAT, max_extra=4)
        beta = float(rng.uniform(0.1, 0.7))
        assert phi_b(subset, beta) == pytest.approx(
            hand_phi_ising(B_LAT, subset, beta), rel=1e-12, abs=1e-14)


def test_phi_within_restriction():
    rng = np.random.default_rng(4102)
    inside = set(ball(P_LAT, 1).vertices)
    for _ in range(5):
        subset = random_subset(rng, P_LAT, max_extra=3)
        p = float(rng.uniform(0.2, 0.8))
        got = phi_p(subset, p, within=inside)
        assert got == pytest.approx(
            hand_phi_percolation(P_LAT, subset, p, within=inside),
            rel=1e-12, abs=1e-14)
        assert got <= phi_p(subset, p) + 1e-14
    # truncating to the region itself kills every boundary term
    lam = ball(B_LAT, 1)
    assert phi_b(lam.vertices, 0.5, within=lam.vertices) == 0.0


def test_phi_infimum_ising_needs_beta_mode():
    with pytest.raises(ValueError):
        phi_infimum("ising", P_LAT, Region(P_LAT, [(0, 0)]), 0.3)


def test_phi_infimum_consistency():
    region = ball(P_LAT, 1)
    value, subset = phi_infimum("percolation", P_LAT, region, 0.4)
    assert (0, 0) in subset
    assert phi_p(subset, 0.4) == pytest.approx(value)
    rng = np.random.default_rng(4103)
    for _ in range(5):
        probe = random_subset(rng, P_LAT, max_extra=2)
        if set(probe) <= set(region.vertices):
            assert phi_p(probe, 0.4) >= value - 1e-12


def test_phi_infimum_keeps_the_base_point():
    shape = [(0, 0), (1, 0), (0, 1)]
    moved = Region(P_LAT, [(5 + x, 5 + y) for x, y in shape], (5, 5))
    value, subset = phi_infimum("percolation", P_LAT, moved, 0.3)
    expected, at_origin = phi_infimum("percolation", P_LAT,
                                      Region(P_LAT, shape), 0.3)
    assert value == expected
    assert subset == tuple(sorted((5 + x, 5 + y) for x, y in at_origin))


def test_phi_infimum_guards():
    with pytest.raises(ValueError):
        phi_infimum("potts", P_LAT, ball(P_LAT, 1), 0.3)
    with pytest.raises(ValueError):
        phi_infimum("percolation", P_LAT, ball(P_LAT, 5), 0.3)


# --- report container -----------------------------------------------------------

def test_report_validates_consistency():
    ok = InequalityReport("demo", (0.1,), (2.0,), (1.0,), (1.0,), 1.0,
                          1e-9, True)
    assert ok.summary_line().startswith("PASS demo:")
    payload = ok.to_json()
    assert payload["margins"] == [1.0] and payload["passed"] is True
    with pytest.raises(ValueError):
        InequalityReport("demo", (0.1, 0.2), (2.0,), (1.0,), (1.0,), 1.0,
                         1e-9, True)
    with pytest.raises(ValueError):
        InequalityReport("demo", (0.1,), (2.0,), (1.0,), (1.0,), 0.5,
                         1e-9, True)
    with pytest.raises(ValueError):
        InequalityReport("demo", (0.1,), (2.0,), (1.0,), (1.0,), 1.0,
                         1e-9, False)


def test_failing_margin_summary_line():
    bad = InequalityReport("demo", (0.3,), (0.0,), (1.0,), (-1.0,), -1.0,
                           1e-9, False)
    assert bad.summary_line().startswith("FAIL demo:")


# --- percolation differential ---------------------------------------------------

def test_perc_differential_passes_on_small_grid():
    report = check_perc_differential(B_LAT, n=1, p_grid=(0.2, 0.5, 0.8))
    assert report.passed
    assert report.min_margin >= -1e-6
    assert report.fd_spread < 1e-8
    assert all(l > 0.0 for l in report.lhs)
    assert "ball(1)" in report.notes


def test_perc_differential_input_validation():
    with pytest.raises(ValueError):
        check_perc_differential(P_LAT, n=1)  # needs beta mode
    with pytest.raises(ValueError):
        check_perc_differential(B_LAT, n=1, p_grid=())
    with pytest.raises(ValueError):
        check_perc_differential(B_LAT, n=1, p_grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        check_perc_differential(B_LAT, n=1, p_grid=(0.5, 1.0))


# --- bk decomposition ------------------------------------------------------------

def small_bk_sets(lattice):
    s = [(0, 0)]
    a = ball(lattice, 1).vertices
    b = [v for v in ball(lattice, 2).vertices
         if v not in set(ball(lattice, 1).vertices)]
    return s, a, b


def test_bk_decomposition_small_scenario():
    s, a, b = small_bk_sets(P_LAT)
    report = check_bk_decomposition(P_LAT, s, a, b,
                                    params=(0.2, 0.5, 0.8, 1.0))
    assert report.passed
    assert report.min_margin >= 0.0
    # at p = 1 everything is open: lhs = 1 while the sum counts each of the
    # four boundary bonds with full weight
    assert report.lhs[-1] == pytest.approx(1.0)
    assert report.rhs[-1] == pytest.approx(4.0)
    assert "|S|=1" in report.notes


def test_bk_lhs_matches_unfolded_naive():
    # B as one node, with every coupled pair from A into B its own bond
    tri = LatticeSpec.triangular(mode="p")
    triangle = [(0, 0), (1, 0), (0, 1)]
    outside = sorted({w for v in triangle for w, _ in tri.neighbors(v)}
                     - set(triangle))
    scenarios = [(P_LAT,) + small_bk_sets(P_LAT),
                 (tri, [(0, 0)], triangle, outside[1:])]
    for lattice, s, a, b in scenarios:
        index = {v: i for i, v in enumerate(a)}
        pairs = [(index[v], len(a)) for v in a
                 for w, _ in lattice.neighbors(v) if w in b]
        pairs += [(index[v], index[w]) for v in a
                  for w, _ in lattice.neighbors(v)
                  if w in index and index[v] < index[w]]
        report = check_bk_decomposition(lattice, s, a, b, params=(0.2, 0.5))
        for p, lhs in zip(report.grid, report.lhs):
            edges = [(x, y, p) for x, y in pairs]
            want = naive_event_prob(len(a) + 1, edges, index[(0, 0)],
                                    [len(a)])[len(a)]
            assert lhs == pytest.approx(want, abs=1e-13)


def test_bk_decomposition_set_validation():
    s, a, b = small_bk_sets(P_LAT)
    with pytest.raises(ValueError):
        check_bk_decomposition(P_LAT, s, a, b, u=(5, 5))
    with pytest.raises(ValueError):
        check_bk_decomposition(P_LAT, [(0, 0), (3, 3)], a, b)
    with pytest.raises(ValueError):
        check_bk_decomposition(P_LAT, s, a, a)
    with pytest.raises(ValueError):
        check_bk_decomposition(P_LAT, s, list(a) + b, b)
    with pytest.raises(ValueError):
        check_bk_decomposition(P_LAT, s, a, b, params=())


# --- ising differential ----------------------------------------------------------

def test_ising_differential_passes_on_small_grid():
    report = check_ising_differential(B_LAT, n=1, beta_grid=(0.2, 0.5, 0.8),
                                      h=0.1)
    assert report.passed
    # the truncated infimum is <= 0 (S = region has empty boundary) while
    # the derivative of m0^2 is nonnegative, so both sides bracket zero
    assert all(l >= -1e-9 for l in report.lhs)
    assert all(r <= 1e-9 for r in report.rhs)


def test_ising_differential_single_vertex_is_flagged():
    report = check_ising_differential(B_LAT, n=0, beta_grid=(0.3,), h=0.2)
    assert report.passed
    assert "intended scope" in report.notes
    assert report.lhs[0] == pytest.approx(0.0, abs=1e-9)
    assert report.rhs[0] == pytest.approx(0.0, abs=1e-12)


def test_ising_differential_input_validation():
    with pytest.raises(ValueError):
        check_ising_differential(B_LAT, n=1, h=0.0)
    with pytest.raises(ValueError):
        check_ising_differential(P_LAT, n=1, h=0.1)
    with pytest.raises(ValueError):
        check_ising_differential(B_LAT, n=1, beta_grid=(1e-6,), h=0.1)


# --- modified simon ---------------------------------------------------------------

def test_modified_simon_default_scenario_passes():
    report = default_report("simon")
    assert report.passed
    assert report.min_margin > 0.0
    assert all(0.0 < l < r for l, r in zip(report.lhs, report.rhs))


def test_modified_simon_with_field():
    rectangle = [(x, y) for x in range(-1, 3) for y in range(-1, 2)]
    report = check_modified_simon(B_LAT, rectangle,
                                  ball(B_LAT, 1).vertices, (2, 1),
                                  betas=(0.3,), h=0.2)
    assert report.passed


def test_modified_simon_set_validation():
    lam = [(x, y) for x in range(-1, 3) for y in range(-1, 2)]
    s = ball(B_LAT, 1).vertices
    with pytest.raises(ValueError):
        check_modified_simon(B_LAT, lam, s, (0, 0))  # z inside S
    with pytest.raises(ValueError):
        check_modified_simon(B_LAT, lam, s, (9, 9))  # z outside Lam
    with pytest.raises(ValueError):
        check_modified_simon(B_LAT, lam, [(1, 1)], (2, 1))  # origin not in S
    with pytest.raises(ValueError):
        check_modified_simon(B_LAT, lam, s, (2, 1), betas=())
    with pytest.raises(ValueError):
        check_modified_simon(B_LAT, lam, s, (2, 1), h=-0.1)
    with pytest.raises(ValueError):
        check_modified_simon(B_LAT, [(0, 0), (9, 9)], s, (9, 9))  # S not in Lam


# --- ghs differential --------------------------------------------------------------

def test_ghs_differential_including_zero_beta():
    report = check_ghs_differential(B_LAT, n=1, betas=(0.0, 0.3),
                                    h_grid=(0.1, 0.3))
    assert report.passed
    assert report.grid == ((0.0, 0.1), (0.0, 0.3), (0.3, 0.1), (0.3, 0.3))
    # at beta = 0 the inequality is an identity, so that margin is ~0
    zero_margins = [m for (b, _), m in zip(report.grid, report.margins)
                    if b == 0.0]
    assert max(abs(m) for m in zero_margins) < 1e-6


def test_ghs_differential_input_validation():
    with pytest.raises(ValueError):
        check_ghs_differential(P_LAT, n=1)
    with pytest.raises(ValueError):
        check_ghs_differential(B_LAT, n=1, h_grid=())
    with pytest.raises(ValueError):
        check_ghs_differential(B_LAT, n=1, h_grid=(1e-6,))
    with pytest.raises(ValueError):
        check_ghs_differential(B_LAT, n=1, betas=(-0.1,))


# --- default scenarios ---------------------------------------------------------------

def test_default_report_names():
    assert CHECK_NAMES == ("perc-diff", "bk", "ising-diff", "simon", "ghs")
    with pytest.raises(ValueError):
        default_report("euler")


def test_default_reports_single_selection():
    reports = default_reports("ghs")
    assert len(reports) == 1
    assert reports[0].name == "ghs-differential"
    assert reports[0].passed
