"""Wolff-dynamics Monte Carlo against exact spin enumerations."""

import math

import pytest

from subcrit.exact import ising_observables
from subcrit.ising_mc import (SpinSystem, WolffChain, check_critical_divergence,
                              equilibrate, estimate_magnetization,
                              estimate_two_point)
from subcrit.lattice import LatticeSpec, ball

B_LAT = LatticeSpec.square(mode="beta")
BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))


def assert_within_sigmas(estimate, truth, sigmas=4.0, floor=2e-3):
    width = max(sigmas * estimate.stderr, floor)
    assert abs(estimate.mean - truth) <= width, (
        f"estimate {estimate.mean} +- {estimate.stderr} vs exact {truth}")


def exact_ball_region(n):
    # the samplers run on ball(n); the oracle must use the same geometry
    return ball(B_LAT, n)


def test_two_point_matches_exact_small_box():
    # free-boundary ball(2) is exactly enumerable (13 spins) and contains
    # both target vertices (1, 0) and (2, 0)
    beta = 0.45
    obs = ising_observables(exact_ball_region(2), beta, 0.0)
    estimates = estimate_two_point(B_LAT, 2, beta, [1, 2], sweeps=30_000,
                                   seed=19)
    assert_within_sigmas(estimates[1], obs.correlations[(1, 0)])
    assert_within_sigmas(estimates[2], obs.correlations[(2, 0)])


def test_field_magnetization_matches_exact_small_box():
    # h > 0 with free boundary: the ghost estimator measures exactly the
    # single-site magnetization of ball(1) in a field
    beta, h = 0.3, 0.2
    obs = ising_observables(exact_ball_region(1), beta, h)
    est = estimate_magnetization(B_LAT, 1, beta, "free", sweeps=30_000,
                                 seed=23, h=h)
    assert_within_sigmas(est, obs.magnetizations[(0, 0)])


def test_plus_boundary_magnetization_matches_exact_small_box():
    # plus boundary acts through a ghost spin pinned to +1, one bond per
    # crossing coupling: enumerate ball(1) with a per-site field equal to
    # the number of crossing bonds times J
    beta = 0.3
    region = exact_ball_region(1)
    crossing = {}
    for i, _, j in region.boundary_pairs:
        crossing[i] = crossing.get(i, 0.0) + j
    fields = [beta * crossing.get(i, 0.0) for i in range(len(region))]
    num = den = 0.0
    for bits in range(1 << len(region)):
        spins = [1 if bits >> i & 1 else -1 for i in range(len(region))]
        energy = sum(beta * j * spins[a] * spins[b]
                     for a, b, j in region.internal_edges)
        energy += sum(f * s for f, s in zip(fields, spins))
        weight = math.exp(energy)
        den += weight
        num += weight * spins[0]
    est = estimate_magnetization(B_LAT, 1, beta, "plus", sweeps=30_000,
                                 seed=41)
    assert_within_sigmas(est, num / den)


def test_free_boundary_magnetization_vanishes():
    est = estimate_magnetization(B_LAT, 4, 0.3, "free", sweeps=10_000, seed=29)
    assert abs(est.mean) <= max(4.0 * est.stderr, 2e-2)


def test_plus_boundary_deep_in_ordered_phase():
    # at 1.1 * beta_c the spontaneous magnetization is 0.887193...; the
    # finite plus-boundary box sits at or above it (monotone in volume)
    est = estimate_magnetization(B_LAT, 16, 1.1 * BETA_C, "plus",
                                 sweeps=6_000, seed=31)
    assert est.mean >= 0.887 - 4.0 * est.stderr - 0.02


def test_magnetization_deterministic_per_seed():
    a = estimate_magnetization(B_LAT, 4, 0.4, "plus", sweeps=2_000, seed=7)
    b = estimate_magnetization(B_LAT, 4, 0.4, "plus", sweeps=2_000, seed=7)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_wolff_chain_preserves_spin_support():
    import numpy as np
    system = SpinSystem.box(B_LAT, 3, boundary="plus")
    chain = WolffChain(system, 0.6, 0.0, 3, boundary="plus")
    equilibrate(chain, min_steps=50)
    for _ in range(50):
        chain.step()
    assert set(np.unique(chain.spins)) <= {-1, 1}


def test_divergence_report_structure():
    report = check_critical_divergence(B_LAT, BETA_C, [2, 4], sweeps=2_000,
                                       seed=37)
    assert set(report.estimates) == {2, 4}
    assert len(report.increments) == 1
    n1, n2, delta, sigma = report.increments[0]
    assert (n1, n2) == (2, 4)
    assert delta == pytest.approx(report.estimates[4].mean
                                  - report.estimates[2].mean)
    assert sigma > 0.0
    # partial sums over growing balls can only grow (Griffiths), and the
    # flag is consistent with the recorded increments
    assert report.strictly_increasing_3sigma == (delta > 3.0 * sigma)


def test_two_point_distances_validated():
    with pytest.raises(ValueError):
        estimate_two_point(B_LAT, 2, 0.4, [5], sweeps=100, seed=1)


def test_boundary_name_validated():
    with pytest.raises(ValueError):
        estimate_magnetization(B_LAT, 2, 0.4, "minus", sweeps=100, seed=1)


def test_fixed_seed_outputs_are_pinned():
    # values recorded before SpinSystem's incidence CSR was built with
    # numpy; any change to the Wolff draws must re-record them on purpose
    mag = estimate_magnetization(B_LAT, 4, 0.4, "plus", sweeps=1_500, seed=101)
    assert (mag.mean, mag.stderr) == (0.73, 0.013593529265744506)
    two_point = estimate_two_point(B_LAT, 3, 0.35, [1, 2], sweeps=1_500,
                                   seed=103)
    assert ((two_point[1].mean, two_point[1].stderr),
            (two_point[2].mean, two_point[2].stderr)) == (
        (0.43733333333333335, 0.015030578390323757),
        (0.182, 0.010568876334930206))
    report = check_critical_divergence(B_LAT, BETA_C, [1, 3], sweeps=1_000,
                                       seed=107)
    assert ((report.estimates[1].mean, report.estimates[1].stderr),
            (report.estimates[3].mean, report.estimates[3].stderr)) == (
        (3.426, 0.0544532455510437), (9.911, 0.2520756303327568))
