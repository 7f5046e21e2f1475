"""Tests for the exact inequality checks."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from subcrit import exact, verify
from subcrit.certificates import (best_bound, critical_root, exact_phi,
                                  phi_sweep)
from subcrit.exact import (ising_observables, naive_connect_probs,
                           naive_event_prob, naive_ising_observables,
                           perc_connect_probs)
from subcrit.lattice import LatticeSpec, Region, ball, edge_weight
from subcrit.verify import (CHECK_NAMES, InequalityReport,
                            check_bk_decomposition, check_ghs_differential,
                            check_ising_differential, check_modified_simon,
                            check_perc_differential, default_report,
                            default_reports, phi_infimum)

P_LAT = LatticeSpec.square(mode="p")
B_LAT = LatticeSpec.square(mode="beta")
# anisotropic: every vertex mixes partners at J = 1 and J = 0.5
MIXED = LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0),
                            ((0, 1), 0.5), ((0, -1), 0.5)])


def hand_phi_percolation(lattice, subset, param):
    """Independent assembly: naive connection probs + neighbor scan."""
    region = Region(lattice, subset)
    probs = naive_connect_probs(region, param)
    members = set(region.vertices)
    total = 0.0
    for x in region.vertices:
        for y, j in lattice.neighbors(x):
            if y in members:
                continue
            total += edge_weight(lattice, j, param) * probs[region.index(x)]
    return total


def hand_phi_ising(lattice, subset, beta):
    region = Region(lattice, subset)
    corr = naive_ising_observables(region, beta, 0.0).correlations
    members = set(region.vertices)
    total = 0.0
    for x in region.vertices:
        for y, j in lattice.neighbors(x):
            if y in members:
                continue
            total += math.tanh(beta * j) * corr[region.index(x)]
    return total


def phi_p(subset, param):
    return exact_phi("percolation", P_LAT, Region(P_LAT, subset), param).value


def phi_b(subset, beta):
    return exact_phi("ising", B_LAT, Region(B_LAT, subset), beta).value


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


def test_phi_infimum_consistency():
    region = ball(P_LAT, 1)
    value, subset = phi_infimum(P_LAT, region, 0.4)
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
    value, subset = phi_infimum(P_LAT, moved, 0.3)
    expected, at_origin = phi_infimum(P_LAT, Region(P_LAT, shape), 0.3)
    assert value == expected
    assert subset == tuple(sorted((5 + x, 5 + y) for x, y in at_origin))


@pytest.mark.parametrize("lattice", [P_LAT, B_LAT], ids=["p", "beta"])
def test_disconnected_subsets_have_the_phi_of_their_base_component(lattice):
    # phi(S) = phi(S0), S0 the coupled component of S holding the base
    # point, over all 4,096 subsets of square ball(2) that hold it, with
    # the edge weight read as p or as 1 - e^{-beta}
    region = ball(lattice, 2)
    others = len(region) - 1
    masks = np.arange(1 << others)
    subsets = np.ones((len(masks), others + 1), dtype=bool)
    for k in range(others):
        subsets[:, k + 1] = masks >> k & 1
    components = np.zeros_like(subsets)
    for subset, component in zip(subsets, components):
        component[0], todo = True, [0]
        while todo:
            v = todo.pop()
            for a, b, _ in region.internal_edges:
                w = b if a == v else a if b == v else None
                if w is not None and subset[w] and not component[w]:
                    component[w] = True
                    todo.append(w)
    assert (components != subsets).any()
    phi = verify._subset_phi(region, [0.3], subsets)
    assert verify._subset_phi(region, [0.3], components) == (
        pytest.approx(phi, rel=0, abs=1e-12))


def test_phi_infimum_guards():
    with pytest.raises(ValueError):
        phi_infimum(P_LAT, ball(P_LAT, 5), 0.3)


# one parameter or a sequence: row q of a grid is the call at parameter q
DISCONNECTED = [(0, 0), (1, 0), (0, 1), (3, 3), (4, 3)]
CONTRACT_GRID = [0.15, 0.3, 0.45]


def test_connect_probs_grid_rows_equal_single_calls():
    for region in (ball(P_LAT, 2), Region(P_LAT, DISCONNECTED)):
        rows = perc_connect_probs(region, CONTRACT_GRID)
        assert rows.shape == (len(CONTRACT_GRID), len(region))
        for q, p in enumerate(CONTRACT_GRID):
            assert rows[q].tolist() == perc_connect_probs(region, p).tolist()


def test_ising_observables_grid_rows_equal_single_calls():
    hs = [0.0, 0.2, 0.1]
    for region in (ball(B_LAT, 2), Region(B_LAT, DISCONNECTED)):
        grid = ising_observables(region, CONTRACT_GRID, hs)
        assert grid.correlations.shape == (len(hs), len(region))
        for q, (beta, h) in enumerate(zip(CONTRACT_GRID, hs)):
            one = ising_observables(region, beta, h)
            assert grid.correlations[q].tolist() == one.correlations.tolist()
            assert (grid.magnetizations[q].tolist()
                    == one.magnetizations.tolist())
            assert grid.log_z[q] == one.log_z


def test_phi_infimum_grid_rows_equal_single_calls():
    for lattice in (P_LAT, B_LAT):
        for region in (ball(lattice, 1), Region(lattice, DISCONNECTED),
                       ball(lattice, 2)):
            rows = phi_infimum(lattice, region, CONTRACT_GRID)
            assert rows == [phi_infimum(lattice, region, t)
                            for t in CONTRACT_GRID]


# --- subset lanes: one plan of the region for every subset -----------------------

def every_subset(region):
    """Row m marks the subset of mask m: the base point, and region vertex
    k + 1 where bit k of m is set."""
    n = len(region) - 1
    masks = np.arange(1 << n)
    subsets = np.ones((len(masks), n + 1), dtype=bool)
    subsets[:, 1:] = masks[:, None] >> np.arange(n) & 1
    return subsets


def own_plan_phi(lattice, region, row, grid):
    """phi of the subset ``row`` marks, from a region and plan of its own."""
    subset = [v for v, kept in zip(region.vertices, row) if kept]
    return phi_sweep("percolation", Region(lattice, subset, region.origin),
                     grid)


def lane_regions(lattice):
    shape = [(0, 0), (1, 0), (0, 1)]
    return (ball(lattice, 1), Region(lattice, DISCONNECTED),
            Region(lattice, [(5 + x, 5 + y) for x, y in shape], (5, 5)))


@pytest.mark.parametrize("lattice", [P_LAT, B_LAT, MIXED],
                         ids=["p", "beta", "mixed"])
def test_subset_lanes_equal_own_plan_sweeps(lattice):
    # every subset of the small regions, bit for bit on the square lattice.
    # With mixed couplings a subset's own plan adds the same terms in
    # another order (ball(1) less (-1, 0) at 0.3 comes out one ulp apart),
    # so there they agree to rounding; their coefficients agree bit for bit
    # (test_boundary_coefficients_equal_the_pairwise_sum).  The infimum is
    # the first minimum in mask order, as a loop over the subsets finds it
    for region in lane_regions(lattice):
        subsets = every_subset(region)
        lanes = verify._subset_phi(region, CONTRACT_GRID, subsets)
        own = [own_plan_phi(lattice, region, row, CONTRACT_GRID).tolist()
               for row in subsets]
        if lattice is MIXED:
            assert lanes == pytest.approx(np.array(own), rel=1e-15, abs=0.0)
        else:
            assert lanes.tolist() == own
        # one parameter: the column of the grid's lanes
        at_one = verify._subset_phi(region, CONTRACT_GRID[2:3], subsets)
        assert at_one.tolist() == lanes[:, 2:3].tolist()
        want = []
        for q in range(len(CONTRACT_GRID)):
            best = (math.inf, None)
            for row, values in zip(subsets, lanes.tolist()):
                if values[q] < best[0]:
                    best = (values[q], tuple(sorted(
                        v for v, kept in zip(region.vertices, row) if kept)))
            want.append(best)
        assert phi_infimum(lattice, region, CONTRACT_GRID) == want


@pytest.mark.parametrize("lattice", [P_LAT, B_LAT], ids=["p", "beta"])
def test_subset_lanes_on_ball_two_agree_with_own_plans(lattice):
    region = ball(lattice, 2)
    picks = np.random.default_rng(2402).choice(1 << 12, 200, replace=False)
    subsets = every_subset(region)[np.sort(picks)]
    lanes = verify._subset_phi(region, CONTRACT_GRID, subsets)
    for row, values in zip(subsets, lanes):
        own = own_plan_phi(lattice, region, row, CONTRACT_GRID)
        assert values == pytest.approx(own, rel=1e-13, abs=1e-13)


def test_phi_infimum_plans_only_the_region(monkeypatch, fresh_plans):
    # the percolation plan is laid out with _sweep, so the regions it is
    # called with are the regions swept
    planned = []
    sweep = exact._sweep

    def record(region, *args, **kwargs):
        planned.append(region)
        return sweep(region, *args, **kwargs)

    monkeypatch.setattr(exact, "_sweep", record)
    for lattice in (P_LAT, B_LAT):
        region = ball(lattice, 2)
        planned.clear()
        fresh_plans()
        phi_infimum(lattice, region, CONTRACT_GRID)
        assert planned and set(planned) == {region}


@pytest.mark.parametrize("compute, plans, layouts", [
    (lambda: critical_root("percolation", P_LAT, ball(P_LAT, 2)), 1, 0),
    (lambda: critical_root("ising", B_LAT, ball(B_LAT, 2)), 0, 1),
    (lambda: best_bound("percolation", P_LAT, 2), 3, 0),
    (lambda: default_report("perc-diff"), 2, 0),
    (lambda: default_report("bk"), 2, 0),
    (lambda: default_report("ising-diff"), 0, 1),
    (lambda: default_report("simon"), 0, 3),
    (lambda: default_report("ghs"), 0, 1)],
    ids=["perc-root", "ising-root", "perc-best-bound", *CHECK_NAMES])
def test_one_kept_plan_builds_each_plan_once(fresh_plans, compute, plans,
                                             layouts):
    # each engine keeps its last plan or layout only, and every computation
    # sweeps its regions (and tie sets) one at a time: each is built once
    compute()
    assert exact._frontier_plan.cache_info().misses == plans
    assert exact._spin_steps.cache_info().misses == layouts


def test_phi_infimum_refuses_a_region_of_another_lattice():
    # every lane runs on the region's own lattice, so a region built on
    # another one than the lattice named is refused, not evaluated on it
    region = ball(LatticeSpec.square(mode="p"), 1)
    with pytest.raises(ValueError, match="^region was built on a different"):
        phi_infimum(B_LAT, region, 0.3)


def test_only_percolation_lanes_take_subset_masks():
    # the one subset infimum is percolation's, so neither the spin engine
    # nor phi_sweep takes a mask or a set of subsets, and the infimum takes
    # no model
    region = ball(B_LAT, 1)
    keep = np.ones((2, len(region.internal_edges)), dtype=bool)
    coeffs = np.ones((len(region), 1))
    with pytest.raises(TypeError):
        exact.ising_sums(region, [0.3, 0.4], 0.0, coeffs, keep)
    with pytest.raises(TypeError):
        exact.ising_sums(region, [0.3, 0.4], 0.0, coeffs, keep=keep)
    with pytest.raises(TypeError):
        phi_sweep("ising", region, [0.3, 0.4],
                  subsets=every_subset(region))
    with pytest.raises(TypeError):
        phi_infimum("percolation", B_LAT, region, 0.3)
    assert "bonds" not in exact._SpinLayout._fields


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
    # the derivative of m0^2 is nonnegative against a right side of 0
    assert all(l >= -1e-9 for l in report.lhs)
    assert report.rhs == (0.0, 0.0, 0.0)


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


# SHA-256 of json.dumps(report.to_json()) for each default report, as the
# checks wrote them with one exact sweep per grid point and stencil point
DEFAULT_REPORT_SHA256 = {
    "perc-diff": "94612bf11f440d13840a70c9f41ddd58e69feb5885009cb53a969af0ffeaaedd",
    "bk": "016ce2473f1bf90e01ce58c5629066715c83fd4a2f0c83a37f0098c9e5333759",
    "ising-diff": "45574b0e86773160e746181f348bf5e8c1cd1621684084ddc21eef415ce6e2a1",
    "simon": "db1abc1a3df67aea67f0367f67b3294f9e4f8930031a54ddbdce4e22154066f6",
    "ghs": "5a8387e486c6c1e0ac82fbb9e3ab1fd1b4e2c951ea1fdec68295624978d88143",
}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_default_reports_are_byte_identical(name):
    payload = json.dumps(default_report(name).to_json())
    assert (hashlib.sha256(payload.encode()).hexdigest()
            == DEFAULT_REPORT_SHA256[name])


def test_each_check_sweeps_a_region_once_for_its_grid(monkeypatch):
    sweeps = {"perc": 0, "spin": 0}

    def counted(name, sweep):
        def run(*args):
            sweeps[name] += 1
            return sweep(*args)
        return run

    monkeypatch.setattr(exact, "_perc_sweep",
                        counted("perc", exact._perc_sweep))
    monkeypatch.setattr(exact, "_spin_sweep",
                        counted("spin", exact._spin_sweep))
    # (perc, spin) sweeps: the exit grid plus one for all subsets of
    # ball(1) at every grid point; BK's two regions; the magnetization
    # grid; the Simon check's S, Lam and one coupled pair
    expected = {"perc-diff": (2, 0), "bk": (2, 0), "ising-diff": (0, 1),
                "simon": (0, 3), "ghs": (0, 1)}
    for name, counts in expected.items():
        sweeps.update(perc=0, spin=0)
        default_report(name)
        assert (sweeps["perc"], sweeps["spin"]) == counts, name


def test_ising_differential_on_ball_two():
    report = check_ising_differential(B_LAT, n=2)
    assert report.passed
    assert report.min_margin == pytest.approx(0.1938773064457874, abs=1e-9)


# lhs and fd_spread of the default ising-diff report (ball(1)), bit for bit
# as the check wrote them when it also swept the point itself and a subset
# infimum of the truncated phi
ISING_DIFF_LHS = (
    "0x1.b84e6f23cf193p-4", "0x1.0ceb7b5b5d460p-3", "0x1.2ff1dd1bf4720p-3",
    "0x1.43cea8f492544p-3", "0x1.491393abea870p-3", "0x1.41d0d0f46ed60p-3",
    "0x1.30e95c6455150p-3", "0x1.1972a8178bbb8p-3")
ISING_DIFF_FD_SPREAD = "0x1.b774000000000p-37"


def test_ising_differential_values_are_pinned():
    report = default_report("ising-diff")
    assert tuple(x.hex() for x in report.lhs) == ISING_DIFF_LHS
    assert report.fd_spread.hex() == ISING_DIFF_FD_SPREAD
    assert report.margins == report.lhs
    assert report.rhs == (0.0,) * 8


def test_ising_differential_on_ball_three():
    # 25 spins: one sweep of the magnetization grid, no subset infimum
    report = check_ising_differential(B_LAT, n=3)
    assert report.passed
    assert report.min_margin > 0.0
    assert report.fd_spread < 1e-8
    assert "ball(3)" in report.notes


def test_perc_differential_on_ball_two():
    # 4,096 subsets at 9 grid points, 36,864 lanes of one plan
    tracemalloc.start()
    try:
        report = check_perc_differential(B_LAT, n=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert report.min_margin == pytest.approx(2.604189551976058e-4, abs=1e-9)
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("check, kwargs", [
    (check_perc_differential, {"p_grid": (0.3, 1.5)}),
    (check_perc_differential, {"n": 3}),  # 2^24 subsets
    (check_ising_differential, {"beta_grid": (0.3, 1e-6)}),
    (check_ising_differential, {"h": 0.0}),
    (check_ghs_differential, {"betas": (0.2, -0.1)}),
    (check_ghs_differential, {"h_grid": (0.3, 0.0)}),
    # beta = 1e-6 lies below the difference step
    (check_perc_differential, {"p_grid": (1e-6, 0.5)}),
])
def test_a_bad_grid_point_computes_nothing(monkeypatch, check, kwargs):
    def refuse(*args):
        raise AssertionError("swept before validating the grid")

    monkeypatch.setattr(exact, "_perc_sweep", refuse)
    monkeypatch.setattr(exact, "_spin_sweep", refuse)
    with pytest.raises(ValueError) as info:
        check(B_LAT, **kwargs)
    assert "\n" not in str(info.value)


NAN = math.nan
LAM = [(x, y) for x in range(-1, 3) for y in range(-1, 2)]


@pytest.mark.parametrize("run", [
    lambda: check_perc_differential(B_LAT, 1, p_grid=(0.3, NAN)),
    lambda: check_ising_differential(B_LAT, 1, beta_grid=(0.3, NAN)),
    lambda: check_ising_differential(B_LAT, 1, beta_grid=(0.3, math.inf)),
    lambda: check_ising_differential(B_LAT, 1, h=NAN),
    lambda: check_bk_decomposition(B_LAT, *small_bk_sets(B_LAT),
                                   params=(0.2, NAN)),
    lambda: check_bk_decomposition(B_LAT, *small_bk_sets(B_LAT),
                                   params=(0.2, math.inf)),
    lambda: check_modified_simon(B_LAT, LAM, ball(B_LAT, 1).vertices,
                                 (2, 1), betas=(0.2, NAN)),
    lambda: check_modified_simon(B_LAT, LAM, ball(B_LAT, 1).vertices,
                                 (2, 1), h=NAN),
    lambda: check_ghs_differential(B_LAT, betas=(0.2, NAN)),
    lambda: check_ghs_differential(B_LAT, h_grid=(0.3, NAN)),
    lambda: phi_infimum(B_LAT, ball(B_LAT, 1), NAN),
    lambda: phi_infimum(B_LAT, ball(B_LAT, 1), [0.3, math.inf]),
    lambda: phi_infimum(B_LAT, ball(B_LAT, 1), []),
    lambda: check_ising_differential(B_LAT, 1, beta_grid=()),
], ids=["perc-diff", "ising-diff", "ising-diff-inf", "ising-diff-h", "bk",
        "bk-inf", "simon", "simon-h", "ghs", "ghs-h", "phi-infimum",
        "phi-infimum-inf", "phi-infimum-empty", "ising-diff-empty"])
def test_a_nan_or_empty_grid_is_refused_before_sweeping(monkeypatch, run):
    def refuse(*args):
        raise AssertionError("swept before validating the grid")

    monkeypatch.setattr(exact, "_perc_sweep", refuse)
    monkeypatch.setattr(exact, "_spin_sweep", refuse)
    with pytest.raises(ValueError) as info:
        run()
    assert "\n" not in str(info.value)


def test_a_nan_margin_never_passes():
    report = InequalityReport("demo", (0.1, 0.2), (2.0, NAN), (1.0, 1.0),
                              (1.0, NAN), NAN, 1e-9, False)
    assert report.summary_line().startswith("FAIL demo: min margin nan")
    with pytest.raises(ValueError):
        InequalityReport("demo", (0.1, 0.2), (2.0, NAN), (1.0, 1.0),
                         (1.0, NAN), 1.0, 1e-9, True)
    made = verify._make_report("demo", (0.1, 0.2, 0.3), (2.0, NAN, 3.0),
                               (1.0, 1.0, 1.0), 1e-9)
    assert math.isnan(made.min_margin) and not made.passed


def test_simon_and_bk_validate_their_grids_before_sweeping(monkeypatch):
    def refuse(*args):
        raise AssertionError("swept before validating the grid")

    monkeypatch.setattr(exact, "_perc_sweep", refuse)
    monkeypatch.setattr(exact, "_spin_sweep", refuse)
    lam = [(x, y) for x in range(-1, 3) for y in range(-1, 2)]
    with pytest.raises(ValueError, match="beta grid must be non-negative"):
        check_modified_simon(B_LAT, lam, ball(B_LAT, 1).vertices, (2, 1),
                             betas=(0.3, -0.2))
    s, a, b = small_bk_sets(P_LAT)
    with pytest.raises(ValueError, match=r"p=1.5 outside \[0, 1\]"):
        check_bk_decomposition(P_LAT, s, a, b, params=(0.2, 1.5))


def test_default_reports_single_selection():
    reports = default_reports("ghs")
    assert len(reports) == 1
    assert reports[0].name == "ghs-differential"
    assert reports[0].passed
