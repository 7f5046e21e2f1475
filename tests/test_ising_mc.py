"""Wolff-dynamics Monte Carlo against exact spin enumerations."""

import math

import numpy as np
import pytest

from subcrit import ising_mc
from subcrit import rng as rngmod
from subcrit.exact import ising_observables
from subcrit.ising_mc import (SpinSystem, WolffChain, check_critical_divergence,
                              equilibrate, estimate_magnetization,
                              estimate_two_point)
from subcrit.lattice import LatticeSpec, ball
from subcrit.perc_mc import ClusterWalker
from subcrit.stats import MCEstimate, batch_means_stderr

B_LAT = LatticeSpec.square(mode="beta")
BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))


@pytest.fixture
def burned_in(monkeypatch):
    # every chain that the estimators burn in, in order, so that a run can
    # tell which walk budget its whole-cluster walks took
    chains = []

    def recording(chain):
        sweeps = equilibrate(chain)
        chains.append(chain)
        return sweeps

    monkeypatch.setattr(ising_mc, "equilibrate", recording)
    return chains


def budget(chains):
    # the walk budget of the one chain of the last run, which its burn-in
    # set: None walks every cluster, 0 labels every whole cluster
    (chain,) = chains
    chains.clear()
    return chain.budget


@pytest.fixture
def labels_calls(monkeypatch):
    # every ClusterWalker.labels call, counted: a walk that stays within
    # its budget makes none
    calls = []
    labels = ClusterWalker.labels

    def counting(self, *args):
        calls.append(self)
        return labels(self, *args)

    monkeypatch.setattr(ClusterWalker, "labels", counting)
    return calls


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
    region = exact_ball_region(2)
    obs = ising_observables(region, beta, 0.0)
    estimates = estimate_two_point(B_LAT, 2, beta, [1, 2], sweeps=30_000,
                                   seed=19)
    assert_within_sigmas(estimates[1], obs.correlations[region.index((1, 0))])
    assert_within_sigmas(estimates[2], obs.correlations[region.index((2, 0))])


def test_field_magnetization_matches_exact_small_box():
    # h > 0 with free boundary: the ghost estimator measures exactly the
    # single-site magnetization of ball(1) in a field
    beta, h = 0.3, 0.2
    obs = ising_observables(exact_ball_region(1), beta, h)
    est = estimate_magnetization(B_LAT, 1, beta, "free", sweeps=30_000,
                                 seed=23, h=h)
    assert_within_sigmas(est, obs.magnetizations[0])


def exact_plus_magnetization(n, beta):
    # plus boundary acts through a ghost spin pinned to +1, one bond per
    # crossing coupling: enumerate ball(n) with a per-site field equal to
    # the number of crossing bonds times J
    region = exact_ball_region(n)
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
    return num / den


def test_plus_boundary_magnetization_matches_exact_small_box():
    beta = 0.3
    est = estimate_magnetization(B_LAT, 1, beta, "plus", sweeps=30_000,
                                 seed=41)
    assert_within_sigmas(est, exact_plus_magnetization(1, beta))


@pytest.mark.parametrize("observable,boundary,beta,h,seed",
                         [("two-point", "free", 0.3, 0.0, 43),
                          ("magnetization", "plus", 0.5, 0.0, 47),
                          ("magnetization", "free", 0.3, 0.2, 53)],
                         ids=["free", "plus", "field"])
def test_swendsen_wang_chain_matches_exact_small_box(observable, boundary,
                                                     beta, h, seed):
    # a chain advanced by Swendsen-Wang updates alone, burn-in included,
    # samples the Gibbs measure of ball(2) (13 spins): the plain averages
    # of sigma_0 sigma_e1 and of sigma_0
    region = exact_ball_region(2)
    system = SpinSystem.box(B_LAT, 2, boundary=boundary, h=h)
    if observable == "two-point":
        exact = ising_observables(region, beta, h).correlations[
            region.index((1, 0))]
        partner = system.vertex_index[(1, 0)]
    elif boundary == "plus":
        exact = exact_plus_magnetization(2, beta)
    else:
        exact = ising_observables(region, beta, h).magnetizations[0]
    chain = WolffChain(system, beta, seed)
    equilibrate(chain)
    spins = chain.spins.tolist
    values = []
    for _ in range(30_000):
        chain.swendsen_wang()
        s = spins()
        values.append(float(s[0] * s[partner] if observable == "two-point"
                            else s[0]))
    est = MCEstimate(observable, math.fsum(values) / len(values),
                     batch_means_stderr(values), len(values), seed)
    assert_within_sigmas(est, exact)


def test_two_point_respects_griffiths_floor_on_large_box():
    # <sigma_0 sigma_e1> >= tanh(beta) on every ferromagnetic graph holding
    # the bond (Griffiths).  On the free ball(32) a Wolff cluster has about
    # 7 of 2113 sites, so the burn-in runs Swendsen-Wang updates, each of
    # which covers the lattice, not Wolff updates.  Between two
    # measurements the spins near the origin rarely change, so 4,000
    # sweeps leave the mean about 0.1 wide while the batch-means stderr
    # reads 0.04; 20,000 make the check meaningful
    beta = 0.3
    est = estimate_two_point(B_LAT, 32, beta, [1], sweeps=20_000, seed=1)[1]
    assert est.mean >= math.tanh(beta) - 3.0 * est.stderr


@pytest.mark.parametrize("boundary,h", [("plus", 0.0), ("free", 0.1)],
                         ids=["plus", "field"])
def test_ghost_stopped_measurement_decides_like_full_walk(boundary, h):
    # the Edwards-Sokal analogue of the percolation early exit: on the same
    # draws, the magnetization walk stopped at the ghost layer reaches the
    # ghost exactly when the whole cluster of the origin contains it
    system = SpinSystem.box(B_LAT, 4, boundary=boundary, h=h)
    chain = WolffChain(system, 0.4, 5)
    gen = rngmod.sample_stream(5, rngmod.STREAM_TEST, 0)
    start = np.where(gen.random(system.n_sites) < 0.5, 1, -1).astype(np.int8)
    chain.spins = start
    # the chain runs from the assigned spins: the origin's clusters are
    # aligned in them, and the next update flips one aligned cluster (or
    # the complement of one)
    largest = 0
    for _ in range(5):
        members = chain.measure()[:system.n_sites]
        assert (start[members] == start[0]).all()
        largest = max(largest, members.sum())
    assert largest > 1
    size = chain.step()
    cluster = chain.spins != start
    if cluster.sum() != size:  # the ghost's cluster: the rest flipped
        cluster = ~cluster
    assert cluster.sum() == size
    assert len(set(start[cluster].tolist())) == 1
    hits = 0
    for _ in range(300):
        chain.step()
        index = chain.stream_index
        full = bool(chain.measure()[system.ghost])
        chain.stream_index = index
        stopped = bool(chain.measure(stop_layer=system.ghost_layer)[system.ghost])
        assert stopped == full
        hits += full
    assert 0 < hits < 300


@pytest.mark.parametrize("n,beta,boundary,h",
                         [(24, 1.1 * BETA_C, "plus", 0.0),
                          (8, BETA_C, "free", 0.0),
                          (12, BETA_C, "free", 0.05)],
                         ids=["ordered-plus", "critical-free", "field-free"])
def test_labeling_chain_equals_walking_chain(n, beta, boundary, h):
    # chains that label every whole cluster (budget 0), hand a walk over to
    # the labeler past 1 or 8 members, or walk every cluster depth-first
    # (no budget) flip the same spins and read the same words, whatever
    # their mean cluster size; with a field, labeling crosses the field's
    # ghost bonds.  A chain left to its own rule takes a budget from its
    # burn-in, small on these systems
    system = SpinSystem.box(B_LAT, n, boundary=boundary, h=h)
    chains = [WolffChain(system, beta, 17) for _ in range(4)]
    for chain, walk_budget in zip(chains, (None, 0, 1, 8)):
        chain.budget = walk_budget
    walking = chains[0]
    for k in range(300):
        sizes = [chain.step() for chain in chains]
        assert sizes == [sizes[0]] * 4
        if k % 10 == 0:
            expected = walking.measure().tolist()
            for chain in chains[1:]:
                assert chain.measure().tolist() == expected
    for chain in chains[1:]:
        assert chain.spins.tolist() == walking.spins.tolist()
        assert chain.stream_index == walking.stream_index
    burned = WolffChain(system, beta, 17)
    equilibrate(burned)
    assert burned.budget is not None and burned.budget <= 8


def test_first_update_after_the_burn_in_labels(labels_calls):
    # on the plus ball(24) at 1.1 beta_c a cluster holds most of the box,
    # so the burn-in sets a budget of a few members and the first whole
    # cluster after it, and the next whole measurement, are labeled.  A
    # chain never burned in has no budget and walks
    system = SpinSystem.box(B_LAT, 24, boundary="plus")
    fresh = WolffChain(system, 1.1 * BETA_C, 17)
    assert fresh.budget is None
    fresh.step()
    assert labels_calls == []
    chain = WolffChain(system, 1.1 * BETA_C, 17)
    equilibrate(chain)
    labels_calls.clear()
    assert chain.step() > chain.budget
    assert chain.measure().sum() > chain.budget
    assert len(labels_calls) == 2


def test_a_step_within_its_budget_makes_no_labeling(labels_calls):
    # criterion 08's chain, the plus ball(128) at 1.1 beta_c from seed 53:
    # a cluster holds most of the box or is an island of a few sites, so
    # the burn-in sets a budget of a few members.  A step whose cluster is
    # within it is walked, with no labeling call; a larger one makes one
    system = SpinSystem.box(B_LAT, 128, boundary="plus")
    chain = WolffChain(system, 1.1 * BETA_C, 53)
    equilibrate(chain)
    assert 0 < chain.budget <= 64
    walked = labeled = 0
    for _ in range(300):
        labels_calls.clear()
        size = chain.step()
        if size <= chain.budget:
            assert labels_calls == []
            walked += 1
        else:
            assert len(labels_calls) <= 1
            labeled += len(labels_calls)
        if walked >= 3 and labeled >= 3:
            break
    assert walked >= 3 and labeled >= 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_ball_two_chain_never_labels_after_its_burn_in(labels_calls, seed):
    # ball(2) at beta = 0.3 has 14 nodes and clusters of about 3: walking
    # any of them costs less than one labeling, so the burn-in sets no
    # budget, and no update or measurement after it labels
    chain = WolffChain(SpinSystem.box(B_LAT, 2), 0.3, seed)
    equilibrate(chain)
    assert chain.budget is None
    labels_calls.clear()
    for _ in range(1_000):
        chain.step()
        chain.measure()
    assert labels_calls == []


@pytest.mark.parametrize("walk_budget", [None, 0], ids=["walked", "labeled"])
def test_each_update_and_measurement_opens_one_stream(walk_budget,
                                                      monkeypatch):
    # free ball(16) has 1,024 bonds; each Swendsen-Wang update of the
    # burn-in, and each update and measurement after it, whether it walks
    # or labels, draws its bond words and its coin or seed-site words from
    # the one Philox stream of its sample, opened at word 0
    chain = WolffChain(SpinSystem.box(B_LAT, 16), BETA_C, 17)
    opened, taus = [], []
    sample_stream = rngmod.sample_stream
    autocorr_time = ising_mc.integrated_autocorr_time

    def counting(*args, **kwargs):
        opened.append((args, kwargs.get("start", 0)))
        return sample_stream(*args, **kwargs)

    def recording(series):
        taus.append(autocorr_time(series))
        return taus[-1]

    monkeypatch.setattr(rngmod, "sample_stream", counting)
    monkeypatch.setattr(ising_mc, "integrated_autocorr_time", recording)
    burn_in = equilibrate(chain)
    assert 20.0 * taus[0] <= 100.0 and burn_in == 100
    assert opened == [((17, rngmod.STREAM_WOLFF, k), 0) for k in range(100)]
    chain.budget = walk_budget
    for _ in range(200):
        chain.step()
    assert len(opened) == 300
    for _ in range(200):
        chain.measure()
    assert opened == [((17, rngmod.STREAM_WOLFF, k), 0) for k in range(500)]
    # a longer tau_int extends the burn-in to 20 tau_int updates, each on
    # one more sample
    chain = WolffChain(SpinSystem.box(B_LAT, 16), BETA_C, 17)
    opened.clear()
    monkeypatch.setattr(ising_mc, "integrated_autocorr_time",
                        lambda series: 6.0)
    assert equilibrate(chain) == 120
    assert opened == [((17, rngmod.STREAM_WOLFF, k), 0) for k in range(120)]


def test_assigned_spins_must_be_signs():
    chain = WolffChain(SpinSystem.box(B_LAT, 2), 0.3, seed=1)
    before = chain.spins.copy()
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        chain.spins = np.zeros(chain.system.n_sites, dtype=np.int8)
    assert chain.spins.tolist() == before.tolist()


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
    system = SpinSystem.box(B_LAT, 3, boundary="plus")
    chain = WolffChain(system, 0.6, 3)
    equilibrate(chain)
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


def test_divergence_counts_a_repeated_radius_once():
    # a repeated 4 once doubled S_4 and added a zero increment 4 -> 4
    once = check_critical_divergence(B_LAT, BETA_C, [2, 4], sweeps=200,
                                     seed=37)
    twice = check_critical_divergence(B_LAT, BETA_C, [4, 2, 4], sweeps=200,
                                      seed=37)
    assert twice == once


@pytest.mark.parametrize("n_list", [[4], [4, 4]])
def test_divergence_needs_two_distinct_radii(monkeypatch, n_list):
    # one radius has no increment, so "strictly increasing" would hold
    # vacuously; the check refuses before any chain runs
    def refuse(*args):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(ising_mc, "WolffChain", refuse)
    with pytest.raises(ValueError, match="at least two distinct radii"):
        check_critical_divergence(B_LAT, 0.44, n_list, 50, 1)


def test_two_point_distances_validated():
    with pytest.raises(ValueError):
        estimate_two_point(B_LAT, 2, 0.4, [5], sweeps=100, seed=1)


def test_boundary_name_validated():
    with pytest.raises(ValueError):
        estimate_magnetization(B_LAT, 2, 0.4, "minus", sweeps=100, seed=1)


@pytest.mark.parametrize("beta,h", [(math.nan, 0.0), (0.4, math.nan),
                                    (-0.1, 0.0), (0.4, -0.1)])
def test_chain_refuses_a_negative_or_nan_parameter(beta, h):
    # a NaN field once ran the chain quietly at zero field, and a box built
    # at h = NaN or -1 once dropped its field bonds: the chain refuses beta
    # and the box, which carries the field, refuses h
    if h == 0.0:
        with pytest.raises(ValueError, match="beta must be non-negative"):
            WolffChain(SpinSystem.box(B_LAT, 2), beta, seed=1)
    else:
        with pytest.raises(ValueError, match="h must be non-negative"):
            SpinSystem.box(B_LAT, 2, h=h)
    with pytest.raises(ValueError, match="must be non-negative"):
        estimate_magnetization(B_LAT, 2, beta, "free", sweeps=100, seed=1, h=h)


def test_fixed_seed_outputs_are_pinned(burned_in):
    # re-recorded when the burn-in moved to Swendsen-Wang updates, which
    # moved every draw after it on purpose (burn-in update k reads sample k,
    # word e is bond e and word n_bonds + L the coin of the cluster whose
    # smallest node is L); any later change to the Wolff draws must
    # re-record them on purpose too.  The plus ball(4) labels every whole
    # cluster, the ball(3) runs walk every cluster, and the ball(16) run
    # hands its walks over to the labeler past a few members
    mag = estimate_magnetization(B_LAT, 4, 0.4, "plus", sweeps=1_500, seed=101)
    assert (mag.mean, mag.stderr) == (0.7133333333333334, 0.01664368631055655)
    assert budget(burned_in) == 0
    two_point = estimate_two_point(B_LAT, 3, 0.35, [1, 2], sweeps=1_500,
                                   seed=103)
    assert ((two_point[1].mean, two_point[1].stderr),
            (two_point[2].mean, two_point[2].stderr)) == (
        (0.41533333333333333, 0.013445972613505565),
        (0.18533333333333332, 0.0103697945125501))
    assert budget(burned_in) is None
    report = check_critical_divergence(B_LAT, BETA_C, [1, 3], sweeps=1_000,
                                       seed=107)
    assert ((report.estimates[1].mean, report.estimates[1].stderr),
            (report.estimates[3].mean, report.estimates[3].stderr)) == (
        (3.389, 0.04120036699585085), (9.685, 0.21119993489284325))
    assert budget(burned_in) is None
    report = check_critical_divergence(B_LAT, BETA_C, [8, 16], sweeps=300,
                                       seed=131)
    assert ((report.estimates[8].mean, report.estimates[8].stderr),
            (report.estimates[16].mean, report.estimates[16].stderr)) == (
        (57.06666666666667, 3.701787301951973),
        (125.96666666666667, 9.368954309773425))
    assert 0 < budget(burned_in) <= 16


def test_fixed_seed_outputs_that_label_are_pinned(burned_in):
    # n=24 chains at 1.1 beta_c have clusters that hold most of the box and
    # budgets of a few members, so these runs go through
    # ClusterWalker.component; re-recorded when the burn-in moved to
    # Swendsen-Wang updates
    mag = estimate_magnetization(B_LAT, 24, 1.1 * BETA_C, "plus", sweeps=300,
                                 seed=113)
    assert (mag.mean, mag.stderr) == (0.87, 0.018956696234802894)
    assert budget(burned_in) <= 8
    two_point = estimate_two_point(B_LAT, 24, 1.1 * BETA_C, [1, 12],
                                   sweeps=300, seed=127)
    assert ((two_point[1].mean, two_point[1].stderr),
            (two_point[12].mean, two_point[12].stderr)) == (
        (0.84, 0.023853319668747038), (0.7166666666666667, 0.028194676182461305))
    assert budget(burned_in) <= 8
