"""Exact finite-volume checks of the core inequalities.

Each check evaluates both sides of one inequality exactly on a small
region, with the engines of ``exact``, and reports the margin in the
inequality's favorable direction (so every margin should be ``>= -tol``).
The differential checks use central finite differences of exact
function values; a step-halving comparison is recorded so derivative
quality can be asserted independently of the inequality itself.  A check
collects every stencil point of its whole grid and evaluates them in one
exact sweep, and sweeps every other region once for its grid:
``exact.perc_reach``, ``exact.perc_connect_probs``, ``exact.perc_exit_prob``
and ``exact.ising_observables`` each take one parameter or a sequence, and
a sequence gives one row per parameter, with per-vertex values in
region-index order.  Every grid is validated, finite and in range, before
the first sweep, and a NaN margin fails its report.

The subset infimum of ``perc-diff`` (:func:`phi_infimum`, percolation
only: no other check takes an infimum) is taken over *all* subsets of the
region that contain the base point, disconnected ones included, though
phi(S) = phi(S0) for S0 the coupled component of S that holds the base
point (no vertex of S0 is coupled to the rest of S, which adds zero).  One
sweep of the region serves them all: each (parameter, subset) pair is a
lane of its sweep, with the subset's coefficients from
``certificates.boundary_coefficients``, in which every bond leaving the
subset is closed, so an infimum over ball(1) at a whole grid is one
sweep.  ``ising-diff`` takes no infimum (see its docstring).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .certificates import boundary_coefficients
from .exact import (BASE_POINT_TIE, ising_observables, perc_connect_probs,
                    perc_exit_prob, perc_reach, sweep_lanes)
from .lattice import LatticeSpec, Region, Vertex, ball, edge_weight, layers

__all__ = [
    "InequalityReport",
    "phi_infimum",
    "check_perc_differential",
    "check_bk_decomposition",
    "check_ising_differential",
    "check_modified_simon",
    "check_ghs_differential",
    "CHECK_NAMES",
    "default_report",
    "default_reports",
]

DELTA = 1e-5  # finite-difference step of the differential checks
TOL_DIFFERENTIAL = 1e-6
TOL_EXACT = 1e-9

_SUBSET_ENUM_CAP = 20  # at most 2^20 subsets in an infimum


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of one inequality over a parameter grid.

    ``margins[i]`` is positive when the inequality holds strictly at
    ``grid[i]``; the report passes when ``min_margin >= -tolerance``.
    ``fd_spread`` is the largest change of any margin when the
    finite-difference step is halved (0 for fully exact checks).
    """

    name: str
    grid: tuple
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    margins: tuple[float, ...]
    min_margin: float
    tolerance: float
    passed: bool
    fd_spread: float = 0.0
    notes: str = ""

    def __post_init__(self):
        if not (len(self.grid) == len(self.lhs) == len(self.rhs)
                == len(self.margins)):
            raise ValueError("grid and value arrays must have equal length")
        if self.margins and not np.array_equal(
                self.min_margin, _least(self.margins), equal_nan=True):
            raise ValueError("min_margin inconsistent with margins")
        if self.passed != (self.min_margin >= -self.tolerance):
            raise ValueError("pass flag inconsistent with margins/tolerance")

    def summary_line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (f"{word} {self.name}: min margin {self.min_margin:.3e} "
                f"(tolerance {self.tolerance:.1e}, {len(self.grid)} points)")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "grid": [list(g) if isinstance(g, tuple) else g for g in self.grid],
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "margins": list(self.margins),
            "min_margin": self.min_margin,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "fd_spread": self.fd_spread,
            "notes": self.notes,
        }


def _least(margins: Sequence[float]) -> float:
    """The least margin, NaN if any is NaN (``min`` skips a NaN that is
    not first), so a NaN margin never passes."""
    return float(np.min(margins))


def _make_report(name: str, grid: Sequence, lhs: Sequence[float],
                 rhs: Sequence[float], tolerance: float,
                 fd_spread: float = 0.0, notes: str = "",
                 flip: bool = False) -> InequalityReport:
    """Assemble a report; ``flip`` selects margins = rhs - lhs."""
    if not grid:
        raise ValueError("empty parameter grid")
    if flip:
        margins = tuple(r - l for l, r in zip(lhs, rhs))
    else:
        margins = tuple(l - r for l, r in zip(lhs, rhs))
    mm = _least(margins)
    return InequalityReport(name, tuple(grid), tuple(lhs), tuple(rhs),
                            margins, mm, tolerance, mm >= -tolerance,
                            fd_spread, notes)


# ---------------------------------------------------------------------------
# subset infimum of phi
# ---------------------------------------------------------------------------

def phi_infimum(lattice: LatticeSpec, region: Region, param):
    """Exact infimum of percolation phi(S) over every subset S of
    ``region`` containing the base point (2^(|region|-1) of them), with the
    minimizing subset: ``(value, subset)`` at one parameter, or a list of
    them at every parameter of a sequence.  It equals, up to rounding, the
    infimum over the connected subsets (see the module docstring).

    The values come from :func:`_subset_phi`.  Bit k of a subset's mask
    includes region vertex k + 1; a tie goes to the first mask.  Every
    parameter is checked, finite and in range, before the first sweep;
    ``region`` must be built on ``lattice``.
    """
    if len(region) - 1 > _SUBSET_ENUM_CAP:
        raise ValueError(f"subset infimum over 2^{len(region) - 1} sets is "
                         f"too large")
    if region.lattice != lattice:
        raise ValueError("region was built on a different lattice")
    params = [param] if isinstance(param, numbers.Real) else list(param)
    if not params:
        raise ValueError("empty parameter grid")
    for t in params:
        if not 0.0 <= t < math.inf:
            raise ValueError(f"parameter {t} must be non-negative and finite")
        edge_weight(lattice, 1.0, t)  # a ValueError past p = 1
    n_others = len(region) - 1
    masks = np.arange(1 << n_others)
    subsets = np.ones((len(masks), n_others + 1), dtype=bool)
    for k in range(n_others):
        subsets[:, k + 1] = masks >> k & 1
    values = _subset_phi(region, params, subsets)
    # argmin takes the first least value: a tie goes to the lower mask
    found = [(float(values[m, q]), tuple(sorted(
        v for v, inside in zip(region.vertices, subsets[m]) if inside)))
        for q, m in enumerate(np.argmin(values, axis=0).tolist())]
    return found[0] if isinstance(param, numbers.Real) else found


def _subset_phi(region: Region, params: list,
                subsets: np.ndarray) -> np.ndarray:
    """Percolation phi of the subsets of ``region`` that the rows of the
    (M, vertices) boolean array ``subsets`` mark, each holding the base
    point, at every parameter of ``params``: an (M, K) array whose entry
    (m, q) is phi of the subset of row m at ``params[q]``.

    All come from the sweeps of ``region``, as lanes of them, as many
    (subset, parameter) lanes per sweep as ``exact.sweep_lanes`` allows.
    Each sweep takes its lanes' coefficients from
    ``certificates.boundary_coefficients`` and closes every bond with an
    end outside the lane's subset.  A full row gives
    ``certificates.phi_sweep`` of ``region`` bit for bit.
    """
    ends = np.array([(a, b) for a, b, _ in region.internal_edges],
                    dtype=np.int64).reshape(-1, 2)
    chunk = max(1, sweep_lanes(region, 1, BASE_POINT_TIE) // len(params))
    values = []
    for i in range(0, len(subsets), chunk):
        part = subsets[i:i + chunk]
        coeffs = boundary_coefficients("percolation", region, params, part)
        # lane m * K + q: subset m of the part at parameter q
        values.append(perc_reach(
            region, BASE_POINT_TIE, params * len(part),
            coeffs.reshape(-1, len(region), 1),
            np.repeat(part[:, ends[:, 0]] & part[:, ends[:, 1]],
                      len(params), axis=0))[:, 0])
    return np.concatenate(values).reshape(len(subsets), len(params))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _stencil(x: float, delta: float,
             lower: float | None = None) -> tuple[float, ...]:
    """The points at which :func:`_derivative_pair` reads f.

    Central differences with steps delta and delta/2, except when ``x -
    delta`` would cross ``lower`` (e.g. a beta = 0 grid point): there a
    second-order one-sided formula keeps the O(delta^2) truncation error.
    """
    if lower is not None and x - delta < lower:
        return tuple(t for d in (delta, 0.5 * delta)
                     for t in (x, x + d, x + 2.0 * d))
    return (x + delta, x - delta, x + 0.5 * delta, x - 0.5 * delta)


def _derivative_pair(values: Sequence[float],
                     delta: float) -> tuple[float, float]:
    """Derivative with steps delta and delta/2 from f at the points of
    :func:`_stencil`, in its order (six points for the one-sided form)."""
    if len(values) == 4:
        f_plus, f_minus, h_plus, h_minus = values
        return (f_plus - f_minus) / (2.0 * delta), (h_plus - h_minus) / delta
    return tuple((-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * d)
                 for d, (f0, f1, f2) in ((delta, values[:3]),
                                         (0.5 * delta, values[3:])))


# ---------------------------------------------------------------------------
# the five checks; each evaluates its whole grid, finite-difference
# stencils included, in one exact sweep per region
# ---------------------------------------------------------------------------

def check_perc_differential(lattice: LatticeSpec, n: int = 1,
                            p_grid: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5,
                                                       0.6, 0.7, 0.8, 0.9)
                            ) -> InequalityReport:
    """d/dbeta P[0 <-> ball(n)^c] >= inf_S phi(S) * (1 - P) / beta.

    The grid is given as bond densities p = 1 - exp(-beta) and converted to
    the beta at which both sides are evaluated; a p whose beta is not above
    the difference step ``DELTA`` is refused before any sweep.  The infimum
    runs over all subsets of ball(n) containing the origin, with the full
    boundary functional (outside endpoints unrestricted).
    """
    if lattice.mode != "beta":
        raise ValueError("the beta-derivative needs a beta-mode lattice")
    if not p_grid:
        raise ValueError("empty parameter grid")
    if not all(0.0 < p < 1.0 for p in p_grid):
        raise ValueError("p grid must stay strictly inside (0, 1)")
    betas = [-math.log1p(-p) for p in p_grid]
    for p, beta in zip(p_grid, betas):
        if not beta > DELTA:
            raise ValueError(f"p={p} gives beta={beta:.3g}, not above the "
                             f"difference step {DELTA}")
    region = ball(lattice, n)
    infima = phi_infimum(lattice, region, betas)
    # per grid point: its stencil, then the point itself
    points = [t for beta in betas for t in _stencil(beta, DELTA) + (beta,)]
    exits = perc_exit_prob(lattice, n, points).tolist()
    lhs, rhs, spread = [], [], 0.0
    for i, (beta, (inf_phi, _)) in enumerate(zip(betas, infima)):
        *stencil, prob = exits[5 * i:5 * i + 5]
        d_full, d_half = _derivative_pair(stencil, DELTA)
        lhs.append(d_full)
        rhs.append(inf_phi * (1.0 - prob) / beta)
        spread = max(spread, abs(d_full - d_half))
    return _make_report(
        "perc-differential", tuple(p_grid), lhs, rhs, TOL_DIFFERENTIAL,
        fd_spread=spread,
        notes=(f"exit probability of ball({n}); grid in p = 1 - exp(-beta); "
               f"infimum over {1 << (len(region) - 1)} subsets"))


def check_bk_decomposition(lattice: LatticeSpec, s_vertices: Iterable[Vertex],
                           a_vertices: Iterable[Vertex],
                           b_vertices: Iterable[Vertex],
                           u: Vertex | None = None,
                           params: Sequence[float] = (0.2, 0.5, 0.8)
                           ) -> InequalityReport:
    """P[u <->_A B] <= sum over coupled x in S, y not in S of
    w * P[u <->_S x] * P[y <->_A B].

    ``P[y <->_A B]`` means: y is joined to some vertex of B by an open path
    whose intermediate vertices all lie in A (1 if y is itself in B, 0 if y
    lies outside A and B).  Each coupled pair from A into B is a tie of A:
    y joins B exactly when its cluster in A carries an open tie.
    """
    s_set = {tuple(v) for v in s_vertices}
    a_set = {tuple(v) for v in a_vertices}
    b_set = {tuple(v) for v in b_vertices}
    u = lattice.origin() if u is None else tuple(u)
    if u not in s_set:
        raise ValueError("u must lie in S")
    if not s_set <= a_set:
        raise ValueError("S must be contained in A")
    if b_set & s_set:
        raise ValueError("B must be disjoint from S")
    if b_set & a_set:
        raise ValueError("B must be disjoint from A")
    if not params:
        raise ValueError("empty parameter grid")
    for p in params:
        edge_weight(lattice, 1.0, p)  # a ValueError outside the range
    if not all(map(math.isfinite, params)):
        raise ValueError("parameter grid must be finite")

    region_s = Region(lattice, s_set, origin=u)
    region_a = Region(lattice, a_set, origin=u)
    ties = tuple((i, j) for i, y, j in region_a.boundary_pairs if y in b_set)
    conn_s = perc_connect_probs(region_s, params).tolist()
    reach = perc_reach(region_a, ties, params, np.eye(len(region_a))).tolist()
    lhs, rhs = [], []
    for p, conn, into_b in zip(params, conn_s, reach):
        lhs.append(into_b[0])
        terms = []
        for i, y, j in region_s.boundary_pairs:
            if y in b_set:
                q = 1.0
            elif y in a_set:
                q = into_b[region_a.index(y)]
            else:
                continue
            if q == 0.0:
                continue
            terms.append(edge_weight(lattice, j, p) * conn[i] * q)
        rhs.append(math.fsum(terms))
    return _make_report(
        "bk-decomposition", tuple(params), lhs, rhs, TOL_EXACT, flip=True,
        notes=(f"|S|={len(s_set)}, |A|={len(a_set)}, |B|={len(b_set)}; "
               f"{len(region_a.internal_edges)} bonds in A, "
               f"{len(ties)} ties into B"))


def check_ising_differential(lattice: LatticeSpec, n: int = 1,
                             beta_grid: Sequence[float] = (0.1, 0.2, 0.3, 0.4,
                                                           0.5, 0.6, 0.7, 0.8),
                             h: float = 0.1) -> InequalityReport:
    """d/dbeta <sigma_0>^2 >= 0 on ball(n) at field h > 0, Griffiths' (GKS)
    monotonicity; the right side is identically 0.0.

    The paper's right side, inf_S phi(S), is 0 here: with phi truncated to
    pairs inside ball(n), S = ball(n) has an empty boundary.
    """
    if not 0.0 < h < math.inf:
        raise ValueError("h must be positive (both sides vanish at h = 0) "
                         "and finite")
    if lattice.mode != "beta":
        raise ValueError("the ising magnetization needs a beta-mode lattice")
    if not beta_grid:
        raise ValueError("empty parameter grid")
    if not all(DELTA < b < math.inf for b in beta_grid):
        raise ValueError("beta grid must be finite and stay above the "
                         "difference step")
    region = ball(lattice, n)
    # per grid point: its four stencil points
    points = [t for beta in beta_grid for t in _stencil(beta, DELTA)]
    m0 = ising_observables(region, points, h).magnetizations[:, 0].tolist()
    lhs, spread = [], 0.0
    for i in range(0, len(m0), 4):
        d_full, d_half = _derivative_pair([m ** 2 for m in m0[i:i + 4]], DELTA)
        lhs.append(d_full)
        spread = max(spread, abs(d_full - d_half))
    notes = f"h={h}; d<sigma_0>^2/dbeta on ball({n}) against 0 (Griffiths)"
    if not region.internal_edges:
        notes += ("; region has no interacting pairs, which is outside the "
                  "inequality's intended scope (both sides vanish)")
    return _make_report("ising-differential", tuple(beta_grid), lhs,
                        [0.0] * len(lhs), TOL_DIFFERENTIAL, fd_spread=spread,
                        notes=notes)


def check_modified_simon(lattice: LatticeSpec, lam_vertices: Iterable[Vertex],
                         s_vertices: Iterable[Vertex], z: Vertex,
                         betas: Sequence[float] = (0.2, 0.3, 0.4),
                         h: float = 0.0) -> InequalityReport:
    """<sigma_0 sigma_z>_Lam <= sum over coupled x in S, y in Lam \\ S of
    <sigma_0 sigma_x>_S * <sigma_x sigma_y>_{x,y} * <sigma_y sigma_z>_Lam.

    All three factors carry the same (beta, h); the middle factor lives on
    the two-vertex system {x, y} alone and reduces to tanh(beta J) at h = 0.
    """
    lam_set = {tuple(v) for v in lam_vertices}
    s_set = {tuple(v) for v in s_vertices}
    z = tuple(z)
    origin = lattice.origin()
    if not 0.0 <= h < math.inf:
        raise ValueError("h must be non-negative and finite")
    if origin not in s_set:
        raise ValueError("S must contain the origin")
    if not s_set <= lam_set:
        raise ValueError("S must be contained in the outer region")
    if z not in lam_set or z in s_set:
        raise ValueError("z must lie in the outer region but outside S")
    if not betas:
        raise ValueError("empty parameter grid")
    if not all(0.0 <= b < math.inf for b in betas):
        raise ValueError("beta grid must be non-negative and finite")

    region_s = Region(lattice, s_set, origin=origin)
    region_lam_z = Region(lattice, lam_set, origin=z)
    corr_s = ising_observables(region_s, betas, h).correlations.tolist()
    corr_lam = ising_observables(region_lam_z, betas, h).correlations.tolist()
    pairs = [(i, y, j) for i, y, j in region_s.boundary_pairs if y in lam_set]
    # <sigma_x sigma_y> on the isolated coupled pair, per coupling
    pair_corr = {}
    for j in dict.fromkeys(j for _, _, j in pairs):
        offset = next(o for o, jj in lattice.couplings if jj == j)
        pair_region = Region(lattice, (origin, offset), origin=origin)
        corr = ising_observables(pair_region, betas, h).correlations
        pair_corr[j] = corr[:, pair_region.index(offset)].tolist()

    lhs, rhs = [], []
    for q in range(len(betas)):
        lam_row = corr_lam[q]
        lhs.append(lam_row[region_lam_z.index(origin)])
        rhs.append(math.fsum(corr_s[q][i] * pair_corr[j][q]
                             * lam_row[region_lam_z.index(y)]
                             for i, y, j in pairs))
    return _make_report(
        "modified-simon", tuple(betas), lhs, rhs, TOL_EXACT, flip=True,
        notes=f"|Lam|={len(lam_set)}, |S|={len(s_set)}, z={z}, h={h}")


def check_ghs_differential(lattice: LatticeSpec, n: int = 1,
                           betas: Sequence[float] = (0.2, 0.4),
                           h_grid: Sequence[float] = (0.05, 0.14, 0.23,
                                                      0.32, 0.41, 0.5)
                           ) -> InequalityReport:
    """dM/dbeta <= (sum_y J_{0,y}) * M * dM/dh on ball(n) at h > 0."""
    if lattice.mode != "beta":
        raise ValueError("the ising magnetization needs a beta-mode lattice")
    if not betas or not h_grid:
        raise ValueError("empty parameter grid")
    if not all(DELTA < h < math.inf for h in h_grid):
        raise ValueError("h grid must be finite and stay above the "
                         "difference step")
    if not all(0.0 <= b < math.inf for b in betas):
        raise ValueError("beta grid must be non-negative and finite")
    region = ball(lattice, n)
    total_j = lattice.total_coupling
    grid = [(beta, h) for beta in betas for h in h_grid]
    # per grid point: the beta stencil, the h stencil, then the point
    stencils = [([(b, h) for b in _stencil(beta, DELTA, lower=0.0)],
                 [(beta, x) for x in _stencil(h, DELTA)])
                for beta, h in grid]
    points = [pair for (by_beta, by_h), at in zip(stencils, grid)
              for pair in by_beta + by_h + [at]]
    mags = ising_observables(region, *zip(*points)).magnetizations
    m_at = iter(mags[:, 0].tolist())

    lhs, rhs, spread = [], [], 0.0
    for by_beta, by_h in stencils:
        db_full, db_half = _derivative_pair(
            [next(m_at) for _ in by_beta], DELTA)
        dh_full, dh_half = _derivative_pair([next(m_at) for _ in by_h], DELTA)
        m = next(m_at)
        lhs.append(db_full)
        rhs.append(total_j * m * dh_full)
        margin_full = total_j * m * dh_full - db_full
        margin_half = total_j * m * dh_half - db_half
        spread = max(spread, abs(margin_full - margin_half))
    return _make_report(
        "ghs-differential", tuple(grid), lhs, rhs, TOL_DIFFERENTIAL, flip=True,
        fd_spread=spread,
        notes=f"M on ball({n}); coupling sum {total_j}")


# ---------------------------------------------------------------------------
# default scenarios
# ---------------------------------------------------------------------------

CHECK_NAMES = ("perc-diff", "bk", "ising-diff", "simon", "ghs")


def _sphere_vertices(lattice: LatticeSpec, n: int) -> list[Vertex]:
    """Vertices at graph distance exactly n from the origin, sorted."""
    return next(islice(layers(lattice, lattice.origin()), n, None))


def default_report(name: str) -> InequalityReport:
    """Run one named check on its standard small-region scenario."""
    lattice = LatticeSpec.square(mode="beta")
    if name == "perc-diff":
        return check_perc_differential(lattice, n=1)
    if name == "bk":
        return check_bk_decomposition(
            lattice, ball(lattice, 1).vertices, ball(lattice, 2).vertices,
            _sphere_vertices(lattice, 3))
    if name == "ising-diff":
        return check_ising_differential(lattice, n=1, h=0.1)
    if name == "simon":
        rectangle = [(x, y) for x in range(-1, 3) for y in range(-1, 2)]
        return check_modified_simon(lattice, rectangle,
                                    ball(lattice, 1).vertices, (2, 1))
    if name == "ghs":
        return check_ghs_differential(lattice, n=1)
    raise ValueError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")


def default_reports(which: str = "all") -> list[InequalityReport]:
    names = CHECK_NAMES if which == "all" else (which,)
    return [default_report(name) for name in names]
