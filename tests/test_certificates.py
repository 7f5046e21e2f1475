"""Boundary functional, certificates, roots, and their consequences."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from subcrit import certificates, exact
from subcrit.certificates import (Certificate, PhiResult, Refusal,
                                  _phi_percolation_mc, best_bound,
                                  boundary_coefficients, certify_subcritical,
                                  chi_upper_bound, compute_phi, critical_root,
                                  decay_upper_bound, exact_phi, region_id)
from subcrit.errors import CapExceeded
from subcrit.lattice import LatticeSpec, Region, ball, edge_weight
from subcrit.perc_mc import ClusterWalker

P_LAT = LatticeSpec.square(mode="p")
B_LAT = LatticeSpec.square(mode="beta")


# ---------------------------------------------------------------------------
# exact phi values
# ---------------------------------------------------------------------------

def pairwise_coefficients(model, region, param):
    """phi's coefficients as a plain in-order sum over
    ``region.boundary_pairs``, one pair weight at a time from +0."""
    coeff = [0.0] * len(region)
    for i, _, j in region.boundary_pairs:
        coeff[i] += (math.tanh(param * j) if model == "ising"
                     else edge_weight(region.lattice, j, param))
    return coeff


# anisotropic: every vertex mixes partners at J = 1 and J = 0.5
MIXED = LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0),
                            ((0, 1), 0.5), ((0, -1), 0.5)])


@pytest.mark.parametrize("model,lattice", [
    ("percolation", MIXED), ("ising", MIXED),
    ("percolation", LatticeSpec.triangular(mode="p")),
    ("ising", LatticeSpec.triangular(mode="beta")),
], ids=["perc-mixed", "ising-mixed", "perc-tri", "ising-tri"])
def test_boundary_coefficients_equal_the_pairwise_sum(model, lattice):
    # one builder for the whole region and for subset rows: bit for bit
    # the per-pair sum, at one parameter and on a grid; a subset row's
    # entries on its subset are the pairwise sum of the subset's own region
    region = ball(lattice, 2)
    grid = [0.05, 0.3, 0.7, 1.0]
    assert boundary_coefficients(model, region, [0.3]).tolist() == [
        pairwise_coefficients(model, region, 0.3)]
    assert boundary_coefficients(model, region, grid).tolist() == [
        pairwise_coefficients(model, region, t) for t in grid]
    picks = np.random.default_rng(39).random((8, len(region))) < 0.6
    picks[:, 0] = True
    picks[0] = True
    rows = boundary_coefficients(model, region, grid, picks)
    assert rows.shape == (len(picks), len(grid), len(region))
    for row, coeffs in zip(picks, rows.tolist()):
        inside = [i for i, kept in enumerate(row) if kept]
        own = Region(lattice, [region.vertices[i] for i in inside])
        for t, values in zip(grid, coeffs):
            want = pairwise_coefficients(model, own, t)
            assert [values[i] for i in inside] == [
                want[own.index(region.vertices[i])] for i in inside]


def test_phi_single_vertex_percolation():
    region = ball(P_LAT, 0)
    result = exact_phi("percolation", P_LAT, region, 0.2)
    assert result.value == pytest.approx(0.8, abs=1e-14)
    assert result.method == "exact"
    assert result.upper_confidence == result.value


def test_phi_ball1_percolation():
    # 4 boundary vertices, each reached with prob p, each with 3 exits: 12 p^2
    region = ball(P_LAT, 1)
    for p in (0.1, 0.25, 0.5):
        result = exact_phi("percolation", P_LAT, region, p)
        assert result.value == pytest.approx(12.0 * p * p, abs=1e-12)
    assert exact_phi("percolation", P_LAT, region, 0.25).value == (
        pytest.approx(0.75))
    assert exact_phi("percolation", P_LAT, region, 0.5).value == (
        pytest.approx(3.0))


def test_phi_single_vertex_ising():
    region = ball(B_LAT, 0)
    for beta in (0.1, 0.25541281188299536, 0.6):
        result = exact_phi("ising", B_LAT, region, beta)
        assert result.value == pytest.approx(4.0 * math.tanh(beta), abs=1e-13)


def test_phi_parameterization_consistency():
    # same bond weight => same percolation phi, p-mode or beta-mode
    region_p, region_b = ball(P_LAT, 1), ball(B_LAT, 1)
    for p in (0.15, 0.4, 0.7):
        beta = -math.log1p(-p)
        a = exact_phi("percolation", P_LAT, region_p, p).value
        b = exact_phi("percolation", B_LAT, region_b, beta).value
        assert a == pytest.approx(b, abs=1e-12)


def test_phi_ising_needs_beta_mode():
    with pytest.raises(ValueError):
        exact_phi("ising", P_LAT, ball(P_LAT, 0), 0.3)


def test_phi_ising_refuses_negative_beta():
    with pytest.raises(ValueError, match="beta must be non-negative"):
        exact_phi("ising", B_LAT, ball(B_LAT, 1), -0.1)


# ---------------------------------------------------------------------------
# critical roots (closed-form oracles for radius 0 and 1)
# ---------------------------------------------------------------------------

def test_percolation_roots_closed_forms():
    assert critical_root("perc", P_LAT, ball(P_LAT, 0)) == pytest.approx(
        0.25, abs=1e-8)
    assert critical_root("perc", P_LAT, ball(P_LAT, 1)) == pytest.approx(
        12.0 ** -0.5, abs=1e-8)


def test_ising_roots_closed_forms():
    assert critical_root("ising", B_LAT, ball(B_LAT, 0)) == pytest.approx(
        math.atanh(0.25), abs=1e-8)
    assert critical_root("ising", B_LAT, ball(B_LAT, 1)) == pytest.approx(
        math.atanh(12.0 ** -0.5), abs=1e-8)


def test_roots_radius_two_regression_pins():
    # no closed form; values pinned from the exact enumeration engine
    assert critical_root("perc", P_LAT, ball(P_LAT, 2)) == pytest.approx(
        0.3217371266307605, abs=1e-7)
    assert critical_root("ising", B_LAT, ball(B_LAT, 2)) == pytest.approx(
        0.3272930958203095, abs=1e-7)


def test_percolation_root_mode_consistency():
    beta_star = critical_root("perc", B_LAT, ball(B_LAT, 1))
    assert 1.0 - math.exp(-beta_star) == pytest.approx(12.0 ** -0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# certificates and refusals
# ---------------------------------------------------------------------------

def test_certificate_and_refusal():
    region = ball(P_LAT, 1)
    cert = certify_subcritical("perc", P_LAT, region, 0.25)
    assert isinstance(cert, Certificate)
    assert cert.phi.method == "exact"
    assert cert.phi.value == pytest.approx(0.75)
    assert cert.statement == "param <= critical point"
    refusal = certify_subcritical("perc", P_LAT, region, 0.5)
    assert isinstance(refusal, Refusal)
    assert "not below" in refusal.reason


def test_certificate_refused_exactly_at_one():
    # phi({0}, p=0.25) = 4p = 1: not strictly below 1, must refuse
    result = certify_subcritical("perc", P_LAT, ball(P_LAT, 0), 0.25)
    assert isinstance(result, Refusal)


def test_certificate_json_round_trip_fields():
    cert = certify_subcritical("perc", P_LAT, ball(P_LAT, 1), 0.25)
    blob = json.loads(json.dumps(cert.to_json()))
    assert blob["kind"] == "certificate"
    assert blob["model"] == "percolation"
    assert blob["param"] == 0.25
    assert blob["phi"]["value"] == pytest.approx(0.75)
    assert blob["statement"] == "param <= critical point"
    assert len(blob["region"]) == 5


def test_region_id_format():
    rid = region_id(ball(P_LAT, 1))
    size, reach, digest = rid.split(":")
    assert size == "v5" and reach == "L2" and len(digest) == 8


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_roots_refuse_a_non_positive_tolerance(tol):
    # a tolerance no bracket can reach would run all 200 search steps
    with pytest.raises(ValueError, match="tol must be positive"):
        critical_root("ising", B_LAT, ball(B_LAT, 1), tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        best_bound("perc", P_LAT, 1, tol=tol)


@pytest.mark.parametrize("tol", [2.0, 0.6])
def test_roots_refuse_a_tolerance_that_certifies_nothing(tol):
    # a bracket closed before any evaluated parameter certified once
    # returned its lower end, 0, as a root
    for model, lattice in (("perc", P_LAT), ("ising", B_LAT)):
        with pytest.raises(ValueError, match=f"tol={tol:g} is too coarse"):
            critical_root(model, lattice, ball(lattice, 1), tol)
        with pytest.raises(ValueError, match=f"tol={tol:g} is too coarse"):
            best_bound(model, lattice, 1, tol=tol)


def test_certificates_need_exact_regions():
    # square ball(8) sweeps a frontier of 17 vertices and triangular
    # ball(7) one of 16, past the 15 that the plan's state keys hold
    with pytest.raises(CapExceeded,
                       match="percolation frontier: need 17, cap is 15"):
        certify_subcritical("perc", P_LAT, ball(P_LAT, 8), 0.28)
    tri = LatticeSpec.triangular(mode="p")
    with pytest.raises(CapExceeded,
                       match="percolation frontier: need 16, cap is 15"):
        critical_root("percolation", tri, ball(tri, 7))


def test_best_bound_roots_certify_at_fine_tolerance():
    # the roots and certify share one decision rule, so each reported root
    # certifies even when the bracket is far narrower than EPSILON_CERT
    for lattice in (LatticeSpec.square, LatticeSpec.triangular):
        for model, mode in (("percolation", "p"), ("ising", "beta")):
            lat = lattice(mode)
            for row in best_bound(model, lat, 2, tol=1e-10).rows:
                if row.method == "skipped":
                    continue
                result = certify_subcritical(model, lat, ball(lat, row.radius),
                                             row.root)
                assert isinstance(result, Certificate), (model, row)


# ---------------------------------------------------------------------------
# the root search: phi evaluations and the certified bracket
# ---------------------------------------------------------------------------

def _certifies_at(model, lattice, region, param):
    return isinstance(certify_subcritical(model, lattice, region, param),
                      Certificate)


def _bisection_root(model, lattice, region, tol):
    # reference: plain bisection on the certify rule, lo certified
    lo, hi = 0.0, 1.0 if model == "perc" and lattice.mode == "p" else 64.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _certifies_at(model, lattice, region, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _rectangle(lattice, width, height, origin):
    return Region(lattice, [(x, y) for x in range(width)
                            for y in range(height)], origin)


# weaker vertical couplings, mildly (1 and 0.4) and strongly anisotropic
# (2.5 and 0.2: tanh of the larger coupling saturates near the root); and
# a range-2 lattice with weaker second-neighbour couplings
J_04 = LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0),
                           ((0, 1), 0.4), ((0, -1), 0.4)])
ANISO = LatticeSpec.custom([((1, 0), 2.5), ((-1, 0), 2.5),
                            ((0, 1), 0.2), ((0, -1), 0.2)])
RANGE_TWO = LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0),
                                ((0, 1), 1.0), ((0, -1), 1.0),
                                ((2, 0), 0.5), ((-2, 0), 0.5),
                                ((0, 2), 0.5), ((0, -2), 0.5)])

# phi sweeps per root at tol 1e-9 and 1e-10 when the secant ran on the
# raw parameter, the search before the log-log coordinates
_LINEAR_SECANT_SWEEPS = {
    "perc-tri-ball2": (18, 19),
    "perc-ball0": (3, 3), "perc-ball1": (13, 13), "perc-ball2": (15, 17),
    "perc-ball3": (17, 17), "perc-2x7": (17, 17), "perc-3x4": (15, 15),
    "perc-3x5": (16, 17), "perc-4x4": (17, 17),
    "ising-ball0": (11, 11), "ising-ball1": (11, 12), "ising-ball2": (11, 13),
    "ising-ball3": (14, 14), "ising-2x7": (10, 10), "ising-3x4": (9, 9),
    "ising-3x5": (12, 12), "ising-4x4": (12, 12),
    "perc-beta-ball2": (11, 13),
    "perc-j04-ball2": (11, 12), "perc-aniso-ball2": (10, 10),
    "perc-range2-ball1": (13, 14),
    "ising-j04-ball2": (13, 13), "ising-aniso-ball2": (10, 10),
    "ising-range2-ball1": (16, 16),
}


def _root_cases():
    tri = LatticeSpec.triangular(mode="p")
    cases = [("perc-tri-ball2", "perc", tri, ball(tri, 2))]
    for model, lat in (("perc", P_LAT), ("ising", B_LAT)):
        cases += [(f"{model}-ball{r}", model, lat, ball(lat, r))
                  for r in range(4)]
        cases += [(f"{model}-{w}x{h}", model, lat,
                   _rectangle(lat, w, h, origin))
                  for w, h, origin in ((2, 7, (0, 3)), (3, 4, (1, 1)),
                                       (3, 5, (1, 2)), (4, 4, (1, 1)))]
    cases.append(("perc-beta-ball2", "perc", B_LAT, ball(B_LAT, 2)))
    for model in ("perc", "ising"):
        cases += [(f"{model}-j04-ball2", model, J_04, ball(J_04, 2)),
                  (f"{model}-aniso-ball2", model, ANISO, ball(ANISO, 2)),
                  (f"{model}-range2-ball1", model, RANGE_TWO,
                   ball(RANGE_TWO, 1))]
    return [pytest.param(model, lat, region, _LINEAR_SECANT_SWEEPS[name],
                         id=name) for name, model, lat, region in cases]


def _counted_phi(monkeypatch):
    params = []
    evaluate = certificates.phi_sweep

    def counted(model, region, param, **kwargs):
        params.append(param)
        return evaluate(model, region, param, **kwargs)

    monkeypatch.setattr(certificates, "phi_sweep", counted)
    return params


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
@pytest.mark.parametrize("model, lattice, region, linear_sweeps",
                         _root_cases())
def test_root_search_keeps_a_certified_bracket(model, lattice, region,
                                               linear_sweeps, tol):
    root = critical_root(model, lattice, region, tol)
    assert _certifies_at(model, lattice, region, root)
    assert not _certifies_at(model, lattice, region, root + 2 * tol)
    assert abs(root - _bisection_root(model, lattice, region, tol)) <= tol


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
@pytest.mark.parametrize("model, lattice, region, linear_sweeps",
                         _root_cases())
def test_root_search_takes_no_more_sweeps_than_the_linear_secant(
        monkeypatch, model, lattice, region, linear_sweeps, tol):
    params = _counted_phi(monkeypatch)
    critical_root(model, lattice, region, tol)
    assert len(params) <= linear_sweeps[(1e-9, 1e-10).index(tol)]


def test_root_search_takes_few_phi_evaluations(monkeypatch):
    params = _counted_phi(monkeypatch)
    for model, lat in (("perc", P_LAT), ("ising", B_LAT)):
        params.clear()
        critical_root(model, lat, ball(lat, 2), 1e-9)
        # bisection took 31 (percolation) and 37 (Ising) evaluations, the
        # secant on the raw parameter 15 and 11
        assert len(params) <= 10, (model, len(params))
        assert 0.0 not in params  # phi(0) = 0 is known, not evaluated


def test_root_search_ising_ball4_takes_few_phi_evaluations(monkeypatch):
    # phi rises steeply past the root: the secant on the raw parameter
    # crept up from the bracket [0, 64] and took 23 sweeps
    params = _counted_phi(monkeypatch)
    root = critical_root("ising", B_LAT, ball(B_LAT, 4), 1e-9)
    assert root == pytest.approx(0.359606496, abs=1e-8)
    assert len(params) <= 10


def test_root_search_stops_when_no_float_is_left_inside(monkeypatch):
    params = _counted_phi(monkeypatch)
    region = ball(P_LAT, 2)
    root = critical_root("perc", P_LAT, region, 1e-300)
    assert len(params) <= 60
    assert _certifies_at("perc", P_LAT, region, root)
    assert not _certifies_at("perc", P_LAT, region, math.nextafter(root, 1.0))


# ---------------------------------------------------------------------------
# the Monte Carlo estimates behind compute_phi agree with the exact path
# ---------------------------------------------------------------------------

def test_phi_percolation_mc_matches_exact():
    region = ball(P_LAT, 2)
    exact = exact_phi("percolation", P_LAT, region, 0.3).value
    mc = _phi_percolation_mc(region, 0.3, 40_000, 91)
    assert mc.method == "monte_carlo"
    assert mc.samples == 40_000
    assert mc.upper_confidence > mc.value
    assert abs(mc.value - exact) < 0.08
    assert exact < mc.upper_confidence
    # deterministic under the same seed
    again = _phi_percolation_mc(region, 0.3, 40_000, 91)
    assert again.value == mc.value
    assert again.upper_confidence == mc.upper_confidence


def test_phi_percolation_mc_is_pinned():
    # each sample's coefficients are summed with fsum, so the value does
    # not depend on the order in which the walk finds the members: a
    # change here means the draws moved; the upper value is the Hoeffding
    # bound mean + 6 sqrt(ln(1000) / 80000)
    phi = _phi_percolation_mc(ball(P_LAT, 2), 0.3, 40_000, 91)
    assert (phi.value, phi.upper_confidence) == (0.8104275, 0.8661813328327476)


def test_phi_percolation_mc_does_not_depend_on_walk_order(monkeypatch):
    # on triangular ball(8) at p = 0.6, plain sums over each sample's
    # members in increasing node order read a few ulp above the sums in
    # walk order; the fsum of each sample reads the same in any order
    region = ball(LatticeSpec.triangular(mode="p"), 8)
    expected = _phi_percolation_mc(region, 0.6, 200, 1)
    walk = ClusterWalker.origin_cluster

    def sorted_walk(self, *args, **kwargs):
        members, max_layer = walk(self, *args, **kwargs)
        return sorted(members), max_layer

    monkeypatch.setattr(ClusterWalker, "origin_cluster", sorted_walk)
    phi = _phi_percolation_mc(region, 0.6, 200, 1)
    assert (phi.value, phi.upper_confidence) == (expected.value,
                                                 expected.upper_confidence)


def test_phi_percolation_mc_upper_bound_not_below_mean(monkeypatch,
                                                       fresh_plans):
    # at p = 1 every sample is the full boundary weight W ~ 28, and the
    # per-sample sums can average to a hair above the fsum of W; the
    # Hoeffding bound adds to the mean, so it stays above it.  ball(3)'s
    # plan is put past a budget of 64 KiB, so compute_phi samples.
    monkeypatch.setattr(exact, "PLAN_BYTES", 1 << 16)
    phi = compute_phi("perc", P_LAT, ball(P_LAT, 3), 1.0, samples=2000, seed=1)
    assert phi.method == "monte_carlo"
    assert phi.upper_confidence >= phi.value


def test_phi_percolation_mc_disabled_raises():
    # exact_phi is exact-only; the estimate lives in compute_phi
    with pytest.raises(CapExceeded):
        exact_phi("percolation", P_LAT, ball(P_LAT, 8), 0.3)  # frontier 17 > 15


def test_certificates_do_not_load_the_wolff_layer():
    # phi and certificates are exact, or sampled for percolation only
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, subcrit.certificates; "
         "print(sorted(m for m in sys.modules if m.startswith('subcrit.')))"],
        capture_output=True, text=True, check=True)
    assert "subcrit.certificates" in proc.stdout
    assert "subcrit.ising_mc" not in proc.stdout


# ---------------------------------------------------------------------------
# consequences of a certificate
# ---------------------------------------------------------------------------

def test_chi_upper_bound_value_and_errors():
    region = ball(P_LAT, 1)
    phi = exact_phi("percolation", P_LAT, region, 0.25)
    assert chi_upper_bound(region, 0.25, phi) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        chi_upper_bound(region, 0.3, phi)  # parameter mismatch
    hot = exact_phi("percolation", P_LAT, region, 0.5)
    with pytest.raises(ValueError):
        chi_upper_bound(region, 0.5, hot)  # phi >= 1 certifies nothing


def test_decay_upper_bound_value_and_errors():
    region = ball(P_LAT, 1)  # radius_l = 2
    phi = exact_phi("percolation", P_LAT, region, 0.25)
    assert decay_upper_bound(region, phi, 20) == pytest.approx(0.75 ** 10)
    assert decay_upper_bound(region, phi, 1) == 1.0  # below one step
    with pytest.raises(ValueError):
        decay_upper_bound(region, phi, -1)
    hot = exact_phi("percolation", P_LAT, region, 0.5)
    with pytest.raises(ValueError):
        decay_upper_bound(region, hot, 20)


# ---------------------------------------------------------------------------
# search helpers
# ---------------------------------------------------------------------------

def test_best_bound_table_percolation():
    result = best_bound("perc", P_LAT, 2)
    roots = [row.root for row in result.rows]
    assert roots == sorted(roots)
    assert roots[0] == pytest.approx(0.25, abs=1e-8)
    assert roots[1] == pytest.approx(12.0 ** -0.5, abs=1e-8)
    assert all(row.method == "exact" for row in result.rows)
    assert result.param_star == roots[-1]
    assert len(result.region.vertices) == 13


def test_best_bound_skips_over_cap_radii_without_budget(monkeypatch,
                                                        fresh_plans):
    # ball(5)'s plan (35 MiB) is past a budget of 16 MiB; ball(3) and
    # ball(4) (2.2 MiB) are exact
    monkeypatch.setattr(exact, "PLAN_BYTES", 16 << 20)
    result = best_bound("perc", P_LAT, 5)
    assert [row.method for row in result.rows] == ["exact"] * 5 + ["skipped"]
    assert math.isnan(result.rows[-1].root)
    assert result.param_star == pytest.approx(0.360479723, abs=1e-8)
    assert len(result.region.vertices) == 41


def test_best_bound_ising_is_exact_to_radius_five():
    # the old 22-spin enumeration stopped at ball(2)
    result = best_bound("ising", B_LAT, 5)
    assert [row.method for row in result.rows] == ["exact"] * 6
    roots = [row.root for row in result.rows]
    assert roots == sorted(roots)
    assert result.param_star == pytest.approx(0.369248012, abs=1e-8)
    assert len(result.region.vertices) == 61


def test_best_bound_triangular_percolation_is_exact_to_radius_two():
    tri = LatticeSpec.triangular(mode="p")
    rows = best_bound("perc", tri, 2).rows
    assert [row.method for row in rows] == ["exact"] * 3
    roots = [row.root for row in rows]
    assert roots == sorted(roots)
    assert roots[0] == pytest.approx(1.0 / 6.0, abs=1e-8)


def test_model_aliases_and_unknown_model():
    region = ball(P_LAT, 0)
    for alias in ("perc", "percolation", "bond"):
        assert compute_phi(alias, P_LAT, region, 0.2).value == pytest.approx(0.8)
    with pytest.raises(ValueError):
        compute_phi("potts", P_LAT, region, 0.2)
