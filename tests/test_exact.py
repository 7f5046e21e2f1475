"""Exact engine versus naive reference enumerations."""

import hashlib
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from subcrit import exact
from subcrit.certificates import critical_root, exact_phi, phi_sweep
from subcrit.errors import CapExceeded
from subcrit.exact import (all_plus_energy, ising_observables,
                           naive_connect_probs, naive_event_prob,
                           naive_ising_observables, perc_connect_probs,
                           perc_exit_prob, perc_reach)
from subcrit.lattice import LatticeSpec, Region, ball, edge_weight
from subcrit.rng import STREAM_TEST, sample_stream

# three distinct couplings, so the tables carry three coupling classes
THREE_J = LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0),
                              ((0, 1), 0.5), ((0, -1), 0.5),
                              ((1, 1), 0.25), ((-1, -1), 0.25)])
RANGE_TWO = LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0),
                                ((0, 1), 1.0), ((0, -1), 1.0),
                                ((2, 0), 0.5), ((-2, 0), 0.5),
                                ((0, 2), 0.5), ((0, -2), 0.5)])


def random_region(lattice, rng, n_vertices):
    """A random connected region grown by a lazy walk from the origin."""
    vertices = {lattice.origin()}
    frontier = [lattice.origin()]
    while len(vertices) < n_vertices:
        v = frontier[rng.integers(len(frontier))]
        nbrs = [w for w, _ in lattice.neighbors(v)]
        w = nbrs[rng.integers(len(nbrs))]
        if w not in vertices:
            vertices.add(w)
            frontier.append(w)
    return Region(lattice, vertices)


def box(lattice, width, height, origin):
    """The width x height box of ``lattice`` at (0, 0), based at
    ``origin``."""
    return Region(lattice, [(x, y) for x in range(width)
                            for y in range(height)], origin)


def test_connect_probs_match_naive_on_random_instances():
    # the range-2 lattice is not planar: its frontier blocks can cross
    for trial in range(75):
        rng = sample_stream(20250817, STREAM_TEST, trial)
        mode = "p" if trial % 2 == 0 else "beta"
        lattice = (LatticeSpec.square(mode=mode) if trial < 50
                   else THREE_J if trial < 60 else RANGE_TWO)
        region = random_region(lattice, rng, int(rng.integers(2, 8)))
        if len(region.internal_edges) > 10:
            continue
        param = float(rng.uniform(0.05, 0.95 if lattice.mode == "p" else 1.5))
        fast = perc_connect_probs(region, param)
        slow = naive_connect_probs(region, param)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_connect_probs_handles_disconnected_region():
    lattice = LatticeSpec.square(mode="p")
    region = Region(lattice, [(0, 0), (1, 0), (4, 4)])
    conn = perc_connect_probs(region, 0.6)
    assert conn[region.index((0, 0))] == 1.0
    assert conn[region.index((1, 0))] == pytest.approx(0.6)
    assert conn[region.index((4, 4))] == 0.0


def test_exit_prob_closed_form_radius_zero():
    lattice = LatticeSpec.square(mode="p")
    for p in (0.0, 0.12, 0.5, 0.87, 1.0):
        assert perc_exit_prob(lattice, 0, p) == pytest.approx(
            1.0 - (1.0 - p) ** 4, abs=1e-13)
    # 1 - (1 - p)**4 cancels for small p; the four ties keep full accuracy
    for p in (1e-6, 1e-9, 1e-15):
        assert perc_exit_prob(lattice, 0, p) == pytest.approx(
            -math.expm1(4.0 * math.log1p(-p)), rel=1e-12, abs=0.0)


def test_exit_prob_radius_one_matches_unfolded_naive():
    # rebuild the escape event without merging parallel boundary bonds
    lattice = LatticeSpec.square(mode="p")
    region = ball(lattice, 1)
    for p in (0.15, 0.4, 0.75):
        edges = [(a, b, p) for a, b, _ in region.internal_edges]
        ext = len(region)
        for i, _, _ in region.boundary_pairs:
            edges.append((i, ext, p))
        want = naive_event_prob(ext + 1, edges, 0, [ext])[ext]
        assert perc_exit_prob(lattice, 1, p) == pytest.approx(want, abs=1e-12)


def test_exit_prob_monotone_in_radius_and_param():
    lattice = LatticeSpec.square(mode="p")
    values = [perc_exit_prob(lattice, n, 0.3) for n in range(3)]
    assert values[0] > values[1] > values[2]
    sweep = [perc_exit_prob(lattice, 1, p) for p in np.linspace(0.05, 0.95, 7)]
    assert all(a < b for a, b in zip(sweep, sweep[1:]))


def test_weight_class_fold_equals_parallel_edges():
    # one vertex tied to the outside by 3 parallel bonds of weight w
    w = 0.35
    lattice = LatticeSpec.square(mode="p")
    reach = perc_reach(Region(lattice, [(0, 0)]), ((0, 1.0),) * 3, w,
                       np.ones((1, 1)))
    explicit = naive_event_prob(2, [(0, 1, w)] * 3, 0, [1])[1]
    assert reach[0] == pytest.approx(explicit, abs=1e-14)
    # the exit event of ball(0) is its four parallel ties
    four = naive_event_prob(2, [(0, 1, w)] * 4, 0, [1])[1]
    assert perc_exit_prob(lattice, 0, w) == pytest.approx(four, abs=1e-14)


def tied_instance(lattice, rng):
    """A random region, possibly disconnected, with random ties: several
    on one vertex, and sometimes an always-open one."""
    region = random_region(lattice, rng, int(rng.integers(1, 7)))
    extra = [v for v in ball(lattice, 3).vertices if v not in region]
    picks = rng.choice(len(extra), size=int(rng.integers(0, 3)), replace=False)
    region = Region(lattice, list(region.vertices)
                    + [extra[int(i)] for i in picks])
    js = sorted({j for _, j in lattice.couplings})
    n = len(region)
    ties = [(int(rng.integers(n)), js[int(rng.integers(len(js)))])
            for _ in range(int(rng.integers(0, 5)))]
    if ties:
        ties.append((ties[0][0], js[0]))  # a second tie on one vertex
    if rng.random() < 0.3:
        ties.append((int(rng.integers(n)), math.inf))
    return region, tuple(ties)


def test_reach_matches_naive_with_ties():
    lattices = [LatticeSpec.square(mode="p"), LatticeSpec.square(mode="beta"),
                THREE_J, RANGE_TWO]
    for trial in range(80):
        rng = sample_stream(20261018, STREAM_TEST, trial)
        lattice = lattices[trial % 4]
        region, ties = tied_instance(lattice, rng)
        if len(region.internal_edges) + len(ties) > 14:
            continue
        param = float(rng.uniform(0.05, 0.95 if lattice.mode == "p" else 1.5))
        n = len(region)
        edges = [(a, b, edge_weight(lattice, j, param))
                 for a, b, j in region.internal_edges]
        edges += [(v, n, 1.0 if j == math.inf
                   else edge_weight(lattice, j, param)) for v, j in ties]
        coeffs = rng.uniform(0.0, 2.0, size=(n, 2))
        got = perc_reach(region, ties, param, coeffs)
        reach = naive_event_prob(n + 1, edges, n, list(range(n)))
        want = [math.fsum(reach[v] * coeffs[v, k] for v in range(n))
                for k in range(2)]
        assert got == pytest.approx(want, abs=1e-12), (trial, region, ties)


def reverse_the_sweep(monkeypatch, fresh_plans):
    """Sweep every region in the reverse of its usual vertex order, with
    no plan built in the usual one left in the caches."""
    reverse_order = exact._vertex_order
    monkeypatch.setattr(exact, "_vertex_order",
                        lambda region: reverse_order(region)[::-1])
    fresh_plans()


def test_phi_does_not_depend_on_the_sweep_order(monkeypatch, fresh_plans):
    lattice = LatticeSpec.square(mode="p")
    regions = [ball(lattice, 2), ball(lattice, 3),
               Region(lattice, [(x, y) for x in range(3) for y in range(4)],
                      (1, 1))]
    forward = [exact_phi("perc", lattice, r, 0.33).value for r in regions]
    reverse_the_sweep(monkeypatch, fresh_plans)
    backward = [exact_phi("perc", lattice, r, 0.33).value for r in regions]
    for a, b in zip(forward, backward):
        assert abs(a - b) <= 1e-14


# --- the parameter axis: K parameters in one sweep, bit for bit ---------------

GRID = [0.05, 0.2, 0.33, 0.5, 0.77, 0.95]


def grid_instances():
    """(region, ties) on square and triangular ball(2): an always-open tie
    at the base point, the exit ties and a random mix."""
    rng = sample_stream(20261019, STREAM_TEST, 0)
    for lattice in (LatticeSpec.square(mode="p"),
                    LatticeSpec.triangular(mode="p"),
                    LatticeSpec.square(mode="beta")):
        region = ball(lattice, 2)
        yield region, ((0, math.inf),)
        yield region, tuple((i, j) for i, _, j in region.boundary_pairs)
        yield tied_instance(lattice, rng)


def test_perc_grid_equals_single_sweeps():
    for region, ties in grid_instances():
        coeffs = sample_stream(7, STREAM_TEST, len(ties)).uniform(
            0.0, 2.0, size=(len(GRID), len(region), 3))
        grid = perc_reach(region, ties, GRID, coeffs)
        assert grid.shape == (len(GRID), 3)
        for q, param in enumerate(GRID):
            assert (grid[q] == perc_reach(region, ties, param,
                                          coeffs[q])).all()
    lattice = LatticeSpec.square(mode="beta")
    exits = perc_exit_prob(lattice, 2, GRID)
    assert exits.tolist() == [perc_exit_prob(lattice, 2, b) for b in GRID]


def test_phi_grid_equals_single_sweeps():
    cases = [("perc", LatticeSpec.square(mode="p")),
             ("perc", LatticeSpec.triangular(mode="p")),
             ("ising", LatticeSpec.square(mode="beta"))]
    for model, lattice in cases:
        region = ball(lattice, 2)
        values = phi_sweep(model, region, GRID)
        assert values.tolist() == [exact_phi(model, lattice, region, t).value
                                   for t in GRID]


def test_ising_grid_equals_single_sweeps_at_positive_field():
    for lattice in (LatticeSpec.square(mode="beta"), THREE_J):
        region = ball(lattice, 2)
        betas = [0.0, 0.1, 0.3, 0.45, 1.2, 0.3]
        hs = [0.0, 0.2, 0.05, 0.3, 0.0, 0.7]
        coeffs = sample_stream(11, STREAM_TEST, 0).uniform(
            -1.0, 2.0, size=(len(betas), len(region), 4))
        z, acc = exact.ising_sums(region, betas, hs, coeffs)
        assert z.shape == (6, 2) and acc.shape == (6, 2, 4)
        for q, (beta, h) in enumerate(zip(betas, hs)):
            z1, acc1 = exact.ising_sums(region, beta, h, coeffs[q])
            assert (z[q] == z1).all() and (acc[q] == acc1).all()
        # one field shared by every beta
        _, shared = exact.ising_sums(region, betas, 0.25, coeffs)
        for q, beta in enumerate(betas):
            assert (shared[q] == exact.ising_sums(region, beta, 0.25,
                                                  coeffs[q])[1]).all()


def test_full_mask_lanes_are_the_plain_sweeps():
    # a lane whose mask keeps every bond is bit for bit the sweep without
    # masks, also beside lanes that close bonds; a lane that closes every
    # bond leaves each vertex its own tie alone
    lattice = LatticeSpec.square(mode="beta")
    region = ball(lattice, 2)
    ties = tuple((i, j) for i, _, j in region.boundary_pairs)
    coeffs = sample_stream(13, STREAM_TEST, 0).uniform(
        0.0, 2.0, size=(len(GRID), len(region), 2))
    keep = sample_stream(13, STREAM_TEST, 1).random(
        (len(GRID), len(region.internal_edges))) < 0.5
    keep[::2] = True
    keep[1] = False
    reach = perc_reach(region, ties, GRID, coeffs, keep)
    for q in range(0, len(GRID), 2):
        assert (reach[q] == perc_reach(region, ties, GRID[q],
                                       coeffs[q])).all()
    alone = [1.0 - math.prod(1.0 - edge_weight(lattice, j, GRID[1])
                             for i, j in ties if i == v)
             for v in range(len(region))]
    assert reach[1] == pytest.approx(alone @ coeffs[1], rel=1e-14)


@pytest.mark.parametrize("lattice, n", [(LatticeSpec.square(), 2),
                                        (LatticeSpec.triangular(), 1)],
                         ids=["square", "triangular"])
def test_one_parameter_sequence_is_the_scalar_sweep(lattice, n):
    # the row of a one-element sequence is bit for bit the call at that
    # parameter: the lane path sweeps one lane in floats
    region = ball(lattice, n)
    ties = tuple((i, j) for i, _, j in region.boundary_pairs)
    coeffs = sample_stream(14, STREAM_TEST, 0).uniform(
        0.0, 2.0, size=(len(region), 3))
    for t in (exact.BASE_POINT_TIE, ties):
        for p in (0.2, 0.45):
            row = perc_reach(region, t, [p], coeffs)
            assert row.shape == (1, 3)
            assert row[0].tobytes() == perc_reach(region, t, p,
                                                  coeffs).tobytes()
            assert (perc_reach(region, t, [p], coeffs[None]).tobytes()
                    == row.tobytes())


def test_plan_cache_keeps_the_last_plan(fresh_plans):
    # one plan is kept: a repeated (region, ties) returns the plan object
    # built for it, a new one replaces it, and cache_clear drops it
    region = ball(LatticeSpec.square(), 2)
    exit_ties = tuple((i, j) for i, _, j in region.boundary_pairs)
    first = exact._tied_plan(region, exit_ties)
    assert exact._tied_plan(region, exit_ties) is first
    second = exact._tied_plan(region, exact.BASE_POINT_TIE)
    assert second is not first
    assert exact._tied_plan(region, exact.BASE_POINT_TIE) is second
    assert exact._frontier_plan.cache_info().currsize == 1
    rebuilt = exact._tied_plan(region, exit_ties)
    assert rebuilt is not first and rebuilt.rows == first.rows
    exact._frontier_plan.cache_clear()
    assert exact._frontier_plan.cache_info().currsize == 0
    assert exact._tied_plan(region, exit_ties) is not rebuilt


def test_a_bond_mask_needs_a_parameter_sequence():
    # a single parameter has no lane axis for the mask to ride on, so a
    # mask beside it is refused rather than dropped
    region = ball(LatticeSpec.square(mode="beta"), 1)
    keep = np.zeros((1, len(region.internal_edges)), dtype=bool)
    coeffs = np.ones((len(region), 1))
    with pytest.raises(ValueError, match="^a bond mask needs a sequence"):
        perc_reach(region, exact.BASE_POINT_TIE, 0.3, coeffs, keep)


@pytest.mark.parametrize("rows, bonds", [(1, 4), (2, 3), (3, 4)],
                         ids=["one-row", "a-bond-short", "a-row-more"])
def test_bond_masks_of_the_wrong_shape_are_refused(rows, bonds):
    # a (1, bonds) mask was broadcast to every lane, and a mask a bond
    # short left that bond open
    region = ball(LatticeSpec.square(mode="beta"), 1)
    keep = np.ones((rows, bonds), dtype=bool)
    coeffs = np.ones((len(region), 1))
    want = re.escape(f"a bond mask must have shape (2, 4), not "
                     f"{(rows, bonds)}")
    with pytest.raises(ValueError, match=want):
        perc_reach(region, exact.BASE_POINT_TIE, [0.3, 0.4], coeffs, keep)


@pytest.mark.parametrize("engine, param, shape, want", [
    ("ising", [0.3, 0.4], (5, 0), "(2, 5, columns) or (5, columns)"),
    ("perc", 0.3, (5, 0), "(5, columns)"),
    ("perc", [0.3, 0.4], (6, 2), "(2, 5, columns) or (5, columns)"),
    ("ising", 0.3, (4, 2), "(5, columns)")],
    ids=["ising-no-column", "perc-no-column", "perc-extra-row",
         "ising-missing-row"])
def test_coefficients_of_the_wrong_shape_are_refused(engine, param, shape,
                                                      want):
    # each was a ZeroDivisionError, an IndexError or, for an extra row, a
    # value that silently left the row out
    region = ball(LatticeSpec.square(mode="beta"), 1)
    coeffs = np.ones(shape)
    with pytest.raises(ValueError, match=re.escape(
            f"coefficients must have shape {want} with at least one "
            f"column, not {shape}")):
        if engine == "perc":
            perc_reach(region, exact.BASE_POINT_TIE, param, coeffs)
        else:
            exact.ising_sums(region, param, 0.0, coeffs)


def test_grid_past_the_caps_is_chunked_not_refused(monkeypatch):
    lattice = LatticeSpec.square(mode="beta")
    region = ball(lattice, 2)
    ties = tuple((i, j) for i, _, j in region.boundary_pairs)
    coeffs = np.ones((len(GRID), len(region), 2))
    perc_want = perc_reach(region, ties, GRID, coeffs)
    spin_want = exact.ising_sums(region, GRID, 0.1, coeffs)
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
    # room for one lane of the widest layer and a half, not for the grid
    widest = exact._tied_plan(region, ties).rows
    monkeypatch.setattr(exact, "LANE_CELLS", widest * 2 * 3 // 2)
    assert exact.sweep_lanes(region, 2, ties) == 1
    assert (perc_reach(region, ties, GRID, coeffs) == perc_want).all()
    rows = 1 << max(exact._sweep(region, stay=0)[3])
    monkeypatch.setattr(exact, "LANE_CELLS", rows * 2 * 3 // 2)
    assert exact._lanes(exact._spin_steps(region).rows, 2) == 1
    z, acc = exact.ising_sums(region, GRID, 0.1, coeffs)
    assert (z == spin_want[0]).all() and (acc == spin_want[1]).all()
    assert sweeps == {"perc": len(GRID), "spin": len(GRID)}


def test_square_percolation_roots_past_radius_two():
    lattice = LatticeSpec.square(mode="p")
    assert critical_root("perc", lattice, ball(lattice, 3)) == pytest.approx(
        0.344234115, abs=1e-8)
    assert critical_root("perc", lattice, ball(lattice, 4)) == pytest.approx(
        0.360479723, abs=1e-8)


def test_edge_cap_raises():
    # a state key holds the frontier's labels as base-(w + 1) digits of an
    # int64, so w = 15 is the widest: square ball(8) sweeps 17 vertices
    # at once and the exit plan of ball(10) 21, each refused before any
    # state is built
    lattice = LatticeSpec.square(mode="p")
    with pytest.raises(CapExceeded, match="need 17, cap is 15"):
        perc_connect_probs(ball(lattice, 8), 0.3)
    with pytest.raises(CapExceeded, match="need 21, cap is 15"):
        perc_exit_prob(lattice, 10, 0.3)


def plan_peak(call):
    """The CapExceeded that ``call`` raises, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as refused:
            call()
        return refused.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model, lattice, width, height, what", [
    ("perc", LatticeSpec.square(mode="p"), 40, 8, "percolation plan bytes"),
    ("perc", RANGE_TWO, 4, 6, "percolation plan bytes"),
    ("ising", LatticeSpec.square(mode="beta"), 30, 20, "sweep lane bytes")],
    ids=["percolation-40x8", "range-two-4x6", "ising-30x20"])
def test_plan_budget_bounds_plan_memory(monkeypatch, fresh_plans, model,
                                        lattice, width, height, what):
    # whole, the 40x8 plan would hold 692 MiB and the range-2 4x6 plan (its
    # layers branch 2^5 ways) 227 MiB; a budget of 64 MiB refuses each a
    # layer short of it.  The spin sweep of the 30x20 box, 2^22 rows wide,
    # is refused before any state is built
    monkeypatch.setattr(exact, "PLAN_BYTES", 64 << 20)
    region = box(lattice, width, height, (0, 0))
    refused, peak = plan_peak(lambda: exact_phi(model, lattice, region, 0.3))
    assert refused.what == what
    assert refused.cap == 64 << 20 < refused.needed
    assert peak <= 80 << 20


def test_spin_lane_bytes_refuse_a_wide_ball(fresh_plans):
    # phi on square ball(11) sweeps 23 spins at once: 2^23 rows at 256
    # bytes, past the budget, refused before any state is built; ball(10),
    # 2^21 rows, is exactly at it.  A 100x100 box (102 spins at once) is
    # refused before its sweep's bookkeeping is built
    lattice = LatticeSpec.square(mode="beta")
    assert exact._lanes(exact._spin_steps(ball(lattice, 10)).rows, 1) == 1
    refused, peak = plan_peak(
        lambda: exact_phi("ising", lattice, ball(lattice, 11), 0.3))
    assert str(refused) == (f"sweep lane bytes: need {256 << 23}, cap is "
                            f"{exact.PLAN_BYTES}")
    assert peak < 10 * 2 ** 20
    region = box(lattice, 100, 100, (0, 0))
    refused, peak = plan_peak(lambda: exact._spin_steps(region))
    assert refused.needed == 256 << 102
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("vertices", [
    ball(LatticeSpec.square(mode="beta"), 7).vertices,
    [(x, y) for x in range(13) for y in range(9)]],
    ids=["ball-7", "box-13x9"])
def test_spin_lane_bytes_bound_a_sweeps_traced_peak(monkeypatch, fresh_plans,
                                                    vertices):
    # the count the budget is checked against, 256 bytes per row and
    # column, is at least what a spin sweep allocates
    region = Region(LatticeSpec.square(mode="beta"), vertices)
    coeffs = np.ones((len(region), 1))
    monkeypatch.setattr(exact, "PLAN_BYTES", 0)
    counted = plan_peak(lambda: exact.ising_sums(region, 0.4, 0.0,
                                                 coeffs))[0].needed
    monkeypatch.undo()
    fresh_plans()
    tracemalloc.start()
    try:
        exact.ising_sums(region, 0.4, 0.0, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counted


def test_ising_matches_naive_on_random_instances():
    for trial in range(60):
        rng = sample_stream(633791, STREAM_TEST, trial)
        lattice = LatticeSpec.square(mode="beta") if trial < 50 else THREE_J
        region = random_region(lattice, rng, int(rng.integers(1, 9)))
        beta = float(rng.uniform(0.0, 1.0))
        h = float(rng.uniform(0.0, 0.8)) if trial % 3 or trial >= 50 else 0.0
        fast = ising_observables(region, beta, h)
        slow = naive_ising_observables(region, beta, h)
        assert fast.log_z == pytest.approx(slow.log_z, abs=1e-11)
        assert fast.correlations == pytest.approx(slow.correlations,
                                                  abs=1e-12)
        assert fast.magnetizations == pytest.approx(slow.magnetizations,
                                                    abs=1e-12)


def disconnected_instance(lattice, rng):
    """A random region of up to 9 vertices, sometimes with up to two far
    vertices that no bond reaches."""
    region = random_region(lattice, rng, int(rng.integers(1, 10)))
    if rng.random() < 0.4:
        far = [(9, 9), (-9, 7), (11, -8)][:int(rng.integers(1, 3))]
        region = Region(lattice, list(region.vertices) + far)
    return region


# sha256 of the bytes of ising_sums' z and acc, with a coefficient column
# per vertex: the engine's arithmetic, sign bits included, is pinned
SPIN_SUM_DIGESTS = {
    ("square-ball-2", 0.3, 0.0):
        "88dc594ea66248c11dd796a8b2769e4b5b2859acc0d3bf77f0b097a684ec680c",
    ("square-ball-2", 0.41, 0.1):
        "47b38fbe24971a251cf399995863125a7112305054008f605eeb73135ae875c9",
    ("triangular-ball-2", 0.3, 0.0):
        "e578dac21094bcf6c04cf512ac22830ebc0367f72cb69bb7057a307582c3d612",
    ("triangular-ball-2", 0.41, 0.1):
        "860a7e0ba11ba713f0b393d57f5db546a14ba42f8ad0017d01da36874801d799",
    ("box-4x4", 0.3, 0.0):
        "9add4da19f0b1def703f2bd69e8de737082811316fe1d0086ac04c579d93fd50",
    ("box-4x4", 0.41, 0.1):
        "cc4bf3b50ef15fc62c352d071c2961ab3521308646474056a2997693ed997116",
    ("box-13x9", 0.3, 0.0):
        "5deef41741861dad701cfae1c45d1cbdbe9548986ea1b21193cfa05c7fc016b1",
    ("box-13x9", 0.41, 0.1):
        "99894553f717e4d2da4dfeab75c5c12896c5060971e09510264739600f128c8e",
}


def spin_sum_digest(z, acc):
    return hashlib.sha256(z.tobytes() + acc.tobytes()).hexdigest()


def test_ising_sums_are_pinned_to_the_byte():
    square, triangular = (LatticeSpec.square(mode="beta"),
                          LatticeSpec.triangular(mode="beta"))
    regions = {"square-ball-2": ball(square, 2),
               "triangular-ball-2": ball(triangular, 2),
               "box-4x4": box(square, 4, 4, (1, 1)),
               "box-13x9": box(square, 13, 9, (6, 4))}
    for (name, beta, h), digest in SPIN_SUM_DIGESTS.items():
        region = regions[name]
        assert spin_sum_digest(*exact.ising_sums(
            region, beta, h, np.eye(len(region)))) == digest, (name, beta, h)


def test_ising_sums_match_naive_on_random_instances():
    # the range-2 lattice is not planar; the far vertices of a disconnected
    # region stay on the frontier for one step only
    lattices = [LatticeSpec.square(mode="beta"),
                LatticeSpec.triangular(mode="beta"), THREE_J, RANGE_TWO]
    for trial in range(80):
        rng = sample_stream(20261019, STREAM_TEST, trial)
        lattice = lattices[trial % 4]
        region = disconnected_instance(lattice, rng)
        beta = float(rng.uniform(0.0, 1.2))
        h = 0.0 if trial % 3 == 0 else float(rng.uniform(0.0, 0.8))
        coeffs = rng.uniform(0.0, 2.0, size=(len(region), 2))
        z, acc = exact.ising_sums(region, beta, h, coeffs)
        slow = naive_ising_observables(region, beta, h)
        total = z[0] + z[1]
        mags, corrs = slow.magnetizations, slow.correlations
        assert math.log(total) - all_plus_energy(region, beta, h) == (
            pytest.approx(slow.log_z, abs=1e-12))
        assert (z[0] - z[1]) / total == pytest.approx(mags[0], abs=1e-12)
        assert (acc[0] + acc[1]) / total == pytest.approx(mags @ coeffs,
                                                          abs=1e-12)
        assert (acc[0] - acc[1]) / total == pytest.approx(corrs @ coeffs,
                                                          abs=1e-12)
        fast = ising_observables(region, beta, h)
        assert fast.correlations == pytest.approx(corrs, abs=1e-12)
        assert fast.magnetizations == pytest.approx(mags, abs=1e-12)
        if h == 0.0:
            assert (fast.magnetizations == 0.0).all()


def test_ising_does_not_depend_on_the_sweep_order(monkeypatch, fresh_plans):
    lattice = LatticeSpec.square(mode="beta")
    regions = [ball(lattice, 2), ball(lattice, 4),
               Region(lattice, [(x, y) for x in range(3) for y in range(4)],
                      (1, 1)),
               Region(THREE_J, [(x, y) for x in range(3) for y in range(3)])]

    def values():
        out = [exact_phi("ising", r.lattice, r, 0.41).value for r in regions]
        for r in regions[2:]:
            obs = ising_observables(r, 0.35, 0.2)
            out += list(obs.correlations)
            out += list(obs.magnetizations) + [obs.log_z]
        return out

    forward = values()
    reverse_the_sweep(monkeypatch, fresh_plans)
    backward = values()
    for a, b in zip(forward, backward):
        assert abs(a - b) <= 1e-14


def test_square_ising_roots_past_radius_two(fresh_plans):
    # each root was confirmed under the reversed sweep order as well
    lattice = LatticeSpec.square(mode="beta")
    pinned = [0.346447087, 0.359606496, 0.369248012, 0.376647553]
    for r, root in enumerate(pinned, start=3):
        assert critical_root("ising", lattice, ball(lattice, r)) == (
            pytest.approx(root, abs=1e-8))
    assert critical_root("ising", lattice, ball(lattice, 8)) == (
        pytest.approx(0.387319420, abs=1e-8))
    # a bound on speed, not a correctness check: CPU time of this process,
    # so load from other processes on the host does not count against it
    fresh_plans()
    start = time.process_time()
    root = critical_root("ising", lattice, ball(lattice, 7), tol=1e-9)
    elapsed = time.process_time() - start
    assert root == pytest.approx(0.382525280, abs=1e-8)
    assert elapsed < 2.0


@pytest.mark.parametrize("reverse", [False, True], ids=["forward",
                                                       "reverse"])
def test_square_box_roots_beat_the_best_balls(monkeypatch, fresh_plans,
                                              reverse):
    # each root holds in both sweep orders.  Percolation ball(5) (a 35 MiB
    # plan) beats ball(4)'s 0.360480, the Ising 25x13 box, the first exact
    # witness past beta = 0.40, beats ball(8)'s 0.387319, and the 41x15
    # box beats the 25x13 box
    p_lattice, beta_lattice = (LatticeSpec.square(mode="p"),
                               LatticeSpec.square(mode="beta"))
    regions = [
        ("perc", ball(p_lattice, 5), 0.372858691),
        ("perc", box(p_lattice, 7, 7, (3, 3)), 0.373152683),
        ("ising", box(beta_lattice, 13, 9, (6, 4)), 0.385496615),
        ("ising", box(beta_lattice, 25, 13, (12, 6)), 0.400076948)]
    if reverse:
        reverse_the_sweep(monkeypatch, fresh_plans)
    for model, region, root in regions:
        assert critical_root(model, region.lattice, region) == (
            pytest.approx(root, abs=1e-8)), (model, len(region))
        fresh_plans()  # one large plan cached at a time
    # the 41x15 box sweeps 17 spins at once: a bound on speed and memory
    # as well, in CPU time of this process and traced allocation
    region = box(beta_lattice, 41, 15, (20, 7))
    start = time.process_time()
    tracemalloc.start()
    try:
        root = critical_root("ising", beta_lattice, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert root == pytest.approx(0.405284080, abs=1e-8)
    assert time.process_time() - start < 30.0
    assert peak < 64 << 20


def test_single_edge_two_point_is_tanh():
    lattice = LatticeSpec.square(mode="beta")
    region = Region(lattice, [(0, 0), (1, 0)])
    for beta in (0.0, 0.2, 0.7, 1.3):
        obs = ising_observables(region, beta, 0.0)
        assert obs.correlations[region.index((1, 0))] == pytest.approx(
            math.tanh(beta), abs=1e-13)
        assert obs.magnetizations[0] == 0.0


def test_single_vertex_magnetization_is_tanh_h():
    lattice = LatticeSpec.square(mode="beta")
    region = Region(lattice, [(0, 0)])
    for h in (0.0, 0.1, 0.9):
        obs = ising_observables(region, 0.4, h)
        assert obs.magnetizations[0] == pytest.approx(math.tanh(h),
                                                      abs=1e-13)
    assert ising_observables(region, 0.0, 0.3).log_z == pytest.approx(
        math.log(2.0 * math.cosh(0.3)), abs=1e-12)


def test_all_plus_energy_convention():
    lattice = LatticeSpec.square(mode="beta")
    region = ball(lattice, 1)
    assert all_plus_energy(region, 0.3, 0.2) == pytest.approx(
        -0.3 * 4.0 - 0.2 * 5.0)


def test_ising_correlations_monotone_in_beta_and_volume():
    # Griffiths: correlations grow with coupling strength and with volume
    lattice = LatticeSpec.square(mode="beta")
    lam1, lam2 = ball(lattice, 1), ball(lattice, 2)
    target = (1, 0)
    sweep = [ising_observables(lam1, b, 0.0).correlations[lam1.index(target)]
             for b in (0.1, 0.3, 0.5, 0.8)]
    assert all(a < b for a, b in zip(sweep, sweep[1:]))
    for beta in (0.2, 0.5):
        small = ising_observables(lam1, beta, 0.0).correlations[
            lam1.index(target)]
        large = ising_observables(lam2, beta, 0.0).correlations[
            lam2.index(target)]
        assert small <= large + 1e-15
    mags = [ising_observables(lam1, 0.4, h).magnetizations[0]
            for h in (0.0, 0.1, 0.3, 0.7)]
    assert mags[0] == pytest.approx(0.0, abs=1e-13)
    assert all(a < b for a, b in zip(mags, mags[1:]))


def test_ising_caps_and_validation():
    lattice = LatticeSpec.square(mode="beta")
    # one lane of 2^22 coefficient columns (a broadcast view, no memory)
    # would hold 8 rows times 2^22 columns at 256 bytes each, past the
    # budget: refused before the sweep
    many = np.broadcast_to(1.0, (5, 1 << 22))
    with pytest.raises(CapExceeded, match="^sweep lane bytes: need "
                       f"{256 * 8 << 22}, cap is {exact.PLAN_BYTES}$"):
        exact.ising_sums(ball(lattice, 1), 0.3, 0.0, many)
    with pytest.raises(CapExceeded):
        naive_ising_observables(ball(lattice, 3), 0.3, 0.0)  # 25 > naive cap 14
    with pytest.raises(ValueError):
        ising_observables(ball(lattice, 1), -0.2, 0.0)
    # NaN is not a non-negative beta, and an infinite beta or NaN field
    # gives NaN weights: each is refused in one line
    for beta, h in ((math.nan, 0.0), (math.inf, 0.0), ([0.3, math.nan], 0.0),
                    ([0.3, math.inf], 0.1), (0.3, math.nan)):
        with pytest.raises(ValueError, match="^beta and h must be finite$"):
            ising_observables(ball(lattice, 1), beta, h)
    with pytest.raises(ValueError, match="^beta=nan must be non-negative$"):
        edge_weight(lattice, 1.0, math.nan)
