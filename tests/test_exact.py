"""Exact engine versus naive reference enumerations."""

import math

import numpy as np
import pytest

from subcrit.errors import CapExceeded
from subcrit.exact import (ReachTables, all_plus_energy, ising_observables,
                           naive_connect_probs, naive_event_prob,
                           naive_ising_observables, perc_connect_probs,
                           perc_exit_prob)
from subcrit.lattice import LatticeSpec, Region, ball
from subcrit.rng import STREAM_TEST, sample_stream

# three distinct couplings, so the tables carry three coupling classes
THREE_J = LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0),
                              ((0, 1), 0.5), ((0, -1), 0.5),
                              ((1, 1), 0.25), ((-1, -1), 0.25)])


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


def test_connect_probs_match_naive_on_random_instances():
    for trial in range(60):
        rng = sample_stream(20250817, STREAM_TEST, trial)
        mode = "p" if trial % 2 == 0 else "beta"
        lattice = LatticeSpec.square(mode=mode) if trial < 50 else THREE_J
        region = random_region(lattice, rng, int(rng.integers(2, 8)))
        if len(region.internal_edges) > 10:
            continue
        param = float(rng.uniform(0.05, 0.95 if lattice.mode == "p" else 1.5))
        fast = perc_connect_probs(region, param)
        slow = naive_connect_probs(region, param)
        for v in region.vertices:
            assert fast.probs[v] == pytest.approx(slow[v], abs=1e-12)


def test_connect_probs_handles_disconnected_region():
    lattice = LatticeSpec.square(mode="p")
    region = Region(lattice, [(0, 0), (1, 0), (4, 4)])
    conn = perc_connect_probs(region, 0.6)
    assert conn.probs[(0, 0)] == 1.0
    assert conn.probs[(1, 0)] == pytest.approx(0.6)
    assert conn.probs[(4, 4)] == 0.0


def test_exit_prob_closed_form_radius_zero():
    lattice = LatticeSpec.square(mode="p")
    for p in (0.0, 0.12, 0.5, 0.87, 1.0):
        assert perc_exit_prob(lattice, 0, p) == pytest.approx(
            1.0 - (1.0 - p) ** 4, abs=1e-13)
    # 1 - (1 - p)**4 cancels for small p; the four ties keep full accuracy
    for p in (1e-6, 1e-9):
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
    tables = ReachTables(Region(lattice, [(0, 0)]), ((0, 1.0),) * 3)
    explicit = naive_event_prob(2, [(0, 1, w)] * 3, 0, [1])[1]
    assert tables.probs(w)[0] == pytest.approx(explicit, abs=1e-14)


def test_edge_cap_raises():
    lattice = LatticeSpec.square(mode="p")
    with pytest.raises(CapExceeded):
        perc_connect_probs(ball(lattice, 3), 0.3)  # 24 edges > cap 12
    # hits the exit construction cap as well
    with pytest.raises(CapExceeded):
        perc_exit_prob(lattice, 4, 0.3, cap=10)


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
        for v in region.vertices:
            assert fast.correlations[v] == pytest.approx(
                slow.correlations[v], abs=1e-12)
            assert fast.magnetizations[v] == pytest.approx(
                slow.magnetizations[v], abs=1e-12)


def test_single_edge_two_point_is_tanh():
    lattice = LatticeSpec.square(mode="beta")
    region = Region(lattice, [(0, 0), (1, 0)])
    for beta in (0.0, 0.2, 0.7, 1.3):
        obs = ising_observables(region, beta, 0.0)
        assert obs.correlations[(1, 0)] == pytest.approx(math.tanh(beta),
                                                         abs=1e-13)
        assert obs.magnetizations[(0, 0)] == 0.0


def test_single_vertex_magnetization_is_tanh_h():
    lattice = LatticeSpec.square(mode="beta")
    region = Region(lattice, [(0, 0)])
    for h in (0.0, 0.1, 0.9):
        obs = ising_observables(region, 0.4, h)
        assert obs.magnetizations[(0, 0)] == pytest.approx(math.tanh(h),
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
    sweep = [ising_observables(lam1, b, 0.0).correlations[target]
             for b in (0.1, 0.3, 0.5, 0.8)]
    assert all(a < b for a, b in zip(sweep, sweep[1:]))
    for beta in (0.2, 0.5):
        small = ising_observables(lam1, beta, 0.0).correlations[target]
        large = ising_observables(lam2, beta, 0.0).correlations[target]
        assert small <= large + 1e-15
    mags = [ising_observables(lam1, 0.4, h).magnetizations[(0, 0)]
            for h in (0.0, 0.1, 0.3, 0.7)]
    assert mags[0] == pytest.approx(0.0, abs=1e-13)
    assert all(a < b for a, b in zip(mags, mags[1:]))


def test_ising_caps_and_validation():
    lattice = LatticeSpec.square(mode="beta")
    with pytest.raises(CapExceeded):
        ising_observables(ball(lattice, 3), 0.3, 0.0)
    with pytest.raises(CapExceeded):
        naive_ising_observables(ball(lattice, 3), 0.3, 0.0)  # 25 > naive cap 14
    with pytest.raises(ValueError):
        ising_observables(ball(lattice, 1), -0.2, 0.0)
