"""Exact finite-volume checks of the core inequalities.

Each check evaluates both sides of one inequality on a small region where
the exact engine enumerates everything, and reports the margin in the
inequality's favorable direction (so every margin should be ``>= -tol``).
The two differential checks use central finite differences of exact
function values; a step-halving comparison is recorded so derivative
quality can be asserted independently of the inequality itself.

The subset infima are taken over *all* subsets of the region that contain
the base point, including disconnected ones (a disconnected subset can
have a strictly smaller boundary functional).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .certificates import phi_ising, phi_percolation
from .exact import (
    EDGE_CAP_DEFAULT,
    SPIN_CAP_DEFAULT,
    ReachTables,
    ising_observables,
    perc_connect_probs,
    perc_exit_prob,
)
from .lattice import LatticeSpec, Region, Vertex, ball, edge_weight

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

DELTA_DEFAULT = 1e-5
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
        if self.margins and self.min_margin != min(self.margins):
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
    mm = min(margins)
    return InequalityReport(name, tuple(grid), tuple(lhs), tuple(rhs),
                            margins, mm, tolerance, mm >= -tolerance,
                            fd_spread, notes)


# ---------------------------------------------------------------------------
# subset infimum of phi
# ---------------------------------------------------------------------------

def phi_infimum(model: str, lattice: LatticeSpec, region: Region,
                param: float, *, within: Iterable[Vertex] | None = None
                ) -> tuple[float, tuple[Vertex, ...]]:
    """Exact infimum of phi(S) over every subset S of ``region`` containing
    the base point (2^(|region|-1) evaluations), with the minimizing subset.
    """
    origin = region.origin
    others = [v for v in region.vertices if v != origin]
    if len(others) > _SUBSET_ENUM_CAP:
        raise ValueError(f"subset infimum over 2^{len(others)} sets is too large")
    if model == "percolation":
        phi = phi_percolation
    elif model == "ising":
        phi = phi_ising
    else:
        raise ValueError(f"unknown model {model!r}")
    best = math.inf
    best_subset: tuple[Vertex, ...] = (origin,)
    for mask in range(1 << len(others)):
        subset = [origin] + [v for k, v in enumerate(others) if mask >> k & 1]
        value = phi(lattice, Region(lattice, subset, origin), param,
                    within=within, allow_mc=False).value
        if value < best:
            best = value
            best_subset = tuple(sorted(subset))
    return best, best_subset


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _central_pair(f: Callable[[float], float], x: float, delta: float,
                  lower: float | None = None) -> tuple[float, float]:
    """Derivative of ``f`` at ``x`` with steps delta and delta/2.

    Central differences, except when ``x - delta`` would cross ``lower``
    (e.g. a beta = 0 grid point): there a second-order one-sided formula
    keeps the O(delta^2) truncation error.
    """
    def one_sided(d: float) -> float:
        return (-3.0 * f(x) + 4.0 * f(x + d) - f(x + 2.0 * d)) / (2.0 * d)

    if lower is not None and x - delta < lower:
        return one_sided(delta), one_sided(0.5 * delta)
    full = (f(x + delta) - f(x - delta)) / (2.0 * delta)
    half = (f(x + 0.5 * delta) - f(x - 0.5 * delta)) / delta
    return full, half


# ---------------------------------------------------------------------------
# the five checks
# ---------------------------------------------------------------------------

def check_perc_differential(lattice: LatticeSpec, n: int = 1,
                            p_grid: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5,
                                                       0.6, 0.7, 0.8, 0.9),
                            *, delta: float = DELTA_DEFAULT,
                            tolerance: float = TOL_DIFFERENTIAL,
                            cap: int = EDGE_CAP_DEFAULT) -> InequalityReport:
    """d/dbeta P[0 <-> ball(n)^c] >= inf_S phi(S) * (1 - P) / beta.

    The grid is given as bond densities p = 1 - exp(-beta) and converted to
    the beta at which both sides are evaluated.  The infimum runs over all
    subsets of ball(n) containing the origin, with the full boundary
    functional (outside endpoints unrestricted).
    """
    if lattice.mode != "beta":
        raise ValueError("the beta-derivative needs a beta-mode lattice")
    if not p_grid:
        raise ValueError("empty parameter grid")
    if min(p_grid) <= 0.0 or max(p_grid) >= 1.0:
        raise ValueError("p grid must stay strictly inside (0, 1)")
    region = ball(lattice, n)
    exit_at = lambda b: perc_exit_prob(lattice, n, b, cap)
    lhs, rhs, spread = [], [], 0.0
    for p in p_grid:
        beta = -math.log1p(-p)
        d_full, d_half = _central_pair(exit_at, beta, delta)
        prob = exit_at(beta)
        inf_phi, _ = phi_infimum("percolation", lattice, region, beta)
        lhs.append(d_full)
        rhs.append(inf_phi * (1.0 - prob) / beta)
        spread = max(spread, abs(d_full - d_half))
    return _make_report(
        "perc-differential", tuple(p_grid), lhs, rhs, tolerance,
        fd_spread=spread,
        notes=(f"exit probability of ball({n}); grid in p = 1 - exp(-beta); "
               f"infimum over {1 << (len(region) - 1)} subsets"))


def check_bk_decomposition(lattice: LatticeSpec, s_vertices: Iterable[Vertex],
                           a_vertices: Iterable[Vertex],
                           b_vertices: Iterable[Vertex],
                           u: Vertex | None = None,
                           params: Sequence[float] = (0.2, 0.5, 0.8),
                           *, tolerance: float = TOL_EXACT,
                           cap: int = EDGE_CAP_DEFAULT) -> InequalityReport:
    """P[u <->_A B] <= sum over coupled x in S, y not in S of
    w * P[u <->_S x] * P[y <->_A B].

    ``P[y <->_A B]`` means: y is joined to some vertex of B by an open path
    whose intermediate vertices all lie in A (1 if y is itself in B, 0 if y
    lies outside A and B).  The bonds inside A are enumerated, and each
    coupled pair from A into B is a tie of A: y joins B exactly when its
    cluster in A carries an open tie.
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

    region_s = Region(lattice, s_set, origin=u)
    region_a = Region(lattice, a_set, origin=u)
    ties = tuple((i, j) for i, y, j in region_a.boundary_pairs if y in b_set)
    tables = ReachTables(region_a, ties, cap)

    lhs, rhs = [], []
    for p in params:
        conn_s = perc_connect_probs(region_s, p, cap)
        reach = tables.probs(p)

        def reach_b(y: Vertex) -> float:
            if y in b_set:
                return 1.0
            if y not in a_set:
                return 0.0
            return reach[region_a.index(y)]

        lhs.append(reach[0])
        terms = []
        for i, y, j in region_s.boundary_pairs:
            q = reach_b(y)
            if q == 0.0:
                continue
            terms.append(edge_weight(lattice, j, p)
                         * conn_s.probs[region_s.vertices[i]] * q)
        rhs.append(math.fsum(terms))
    return _make_report(
        "bk-decomposition", tuple(params), lhs, rhs, tolerance, flip=True,
        notes=(f"|S|={len(s_set)}, |A|={len(a_set)}, |B|={len(b_set)}; "
               f"{len(region_a.internal_edges)} bonds in A, "
               f"{len(ties)} ties into B"))


def check_ising_differential(lattice: LatticeSpec, n: int = 1,
                             beta_grid: Sequence[float] = (0.1, 0.2, 0.3, 0.4,
                                                           0.5, 0.6, 0.7, 0.8),
                             h: float = 0.1, *,
                             delta: float = DELTA_DEFAULT,
                             tolerance: float = TOL_DIFFERENTIAL,
                             cap: int = SPIN_CAP_DEFAULT) -> InequalityReport:
    """d/dbeta <sigma_0>^2 >= (2 c / beta) * inf_S phi^(trunc)(S) * (1 - <sigma_0>^2).

    Here c = min_y <sigma_0>/<sigma_y> over the region at (beta, h), and the
    boundary functional is truncated to the region: only coupled pairs with
    both endpoints inside ball(n) enter (the form produced by
    differentiating the finite-volume magnetization in beta).  S = ball(n)
    itself contributes an empty boundary, so the infimum is at most 0 and
    the check is sharp only through the nonnegativity of the derivative.
    """
    if h <= 0.0:
        raise ValueError("h must be positive (both sides vanish at h = 0)")
    if lattice.mode != "beta":
        raise ValueError("the ising functional needs a beta-mode lattice")
    if not beta_grid:
        raise ValueError("empty parameter grid")
    if min(beta_grid) <= delta:
        raise ValueError("beta grid must stay above the difference step")
    region = ball(lattice, n)
    origin = region.origin
    inside = region.vertices

    def m0_squared(b: float) -> float:
        return ising_observables(region, b, h, cap).magnetizations[origin] ** 2

    lhs, rhs, spread = [], [], 0.0
    for beta in beta_grid:
        d_full, d_half = _central_pair(m0_squared, beta, delta)
        obs = ising_observables(region, beta, h, cap)
        mags = obs.magnetizations
        m0 = mags[origin]
        c = min(m0 / mags[y] for y in inside)
        inf_phi, _ = phi_infimum("ising", lattice, region, beta, within=inside)
        lhs.append(d_full)
        rhs.append((2.0 * c / beta) * inf_phi * (1.0 - m0 * m0))
        spread = max(spread, abs(d_full - d_half))
    notes = (f"h={h}; boundary pairs truncated to ball({n}); "
             f"infimum over {1 << (len(region) - 1)} subsets")
    if not region.internal_edges:
        notes += ("; region has no interacting pairs, which is outside the "
                  "inequality's intended scope (both sides vanish)")
    return _make_report("ising-differential", tuple(beta_grid), lhs, rhs,
                        tolerance, fd_spread=spread, notes=notes)


def check_modified_simon(lattice: LatticeSpec, lam_vertices: Iterable[Vertex],
                         s_vertices: Iterable[Vertex], z: Vertex,
                         betas: Sequence[float] = (0.2, 0.3, 0.4),
                         h: float = 0.0, *, tolerance: float = TOL_EXACT,
                         cap: int = SPIN_CAP_DEFAULT) -> InequalityReport:
    """<sigma_0 sigma_z>_Lam <= sum over coupled x in S, y in Lam \\ S of
    <sigma_0 sigma_x>_S * <sigma_x sigma_y>_{x,y} * <sigma_y sigma_z>_Lam.

    All three factors carry the same (beta, h); the middle factor lives on
    the two-vertex system {x, y} alone and reduces to tanh(beta J) at h = 0.
    """
    lam_set = {tuple(v) for v in lam_vertices}
    s_set = {tuple(v) for v in s_vertices}
    z = tuple(z)
    origin = lattice.origin()
    if h < 0.0:
        raise ValueError("h must be non-negative")
    if origin not in s_set:
        raise ValueError("S must contain the origin")
    if not s_set <= lam_set:
        raise ValueError("S must be contained in the outer region")
    if z not in lam_set or z in s_set:
        raise ValueError("z must lie in the outer region but outside S")
    if not betas:
        raise ValueError("empty parameter grid")

    region_s = Region(lattice, s_set, origin=origin)
    region_lam_z = Region(lattice, lam_set, origin=z)

    pair_cache: dict[tuple[float, float], float] = {}

    def pair_correlation(j: float, beta: float) -> float:
        """<sigma_x sigma_y> on the isolated coupled pair at (beta, h)."""
        key = (j, beta)
        if key not in pair_cache:
            offset = next(o for o, jj in lattice.couplings if jj == j)
            pair_region = Region(lattice, (origin, offset), origin=origin)
            obs = ising_observables(pair_region, beta, h, cap)
            pair_cache[key] = obs.correlations[offset]
        return pair_cache[key]

    lhs, rhs = [], []
    for beta in betas:
        obs_s = ising_observables(region_s, beta, h, cap)
        obs_lam = ising_observables(region_lam_z, beta, h, cap)
        lhs.append(obs_lam.correlations[origin])
        terms = []
        for i, y, j in region_s.boundary_pairs:
            if y not in lam_set:
                continue
            x = region_s.vertices[i]
            terms.append(obs_s.correlations[x] * pair_correlation(j, beta)
                         * obs_lam.correlations[y])
        rhs.append(math.fsum(terms))
    return _make_report(
        "modified-simon", tuple(betas), lhs, rhs, tolerance, flip=True,
        notes=f"|Lam|={len(lam_set)}, |S|={len(s_set)}, z={z}, h={h}")


def check_ghs_differential(lattice: LatticeSpec, n: int = 1,
                           betas: Sequence[float] = (0.2, 0.4),
                           h_grid: Sequence[float] = (0.05, 0.14, 0.23,
                                                      0.32, 0.41, 0.5),
                           *, delta: float = DELTA_DEFAULT,
                           tolerance: float = TOL_DIFFERENTIAL,
                           cap: int = SPIN_CAP_DEFAULT) -> InequalityReport:
    """dM/dbeta <= (sum_y J_{0,y}) * M * dM/dh on ball(n) at h > 0."""
    if lattice.mode != "beta":
        raise ValueError("the ising magnetization needs a beta-mode lattice")
    if not betas or not h_grid:
        raise ValueError("empty parameter grid")
    if min(h_grid) <= delta:
        raise ValueError("h grid must stay above the difference step")
    region = ball(lattice, n)
    origin = region.origin
    total_j = lattice.total_coupling

    def magnetization(b: float, hh: float) -> float:
        return ising_observables(region, b, hh, cap).magnetizations[origin]

    grid, lhs, rhs, spread = [], [], [], 0.0
    for beta in betas:
        if beta < 0.0:
            raise ValueError("beta grid must be non-negative")
        for h in h_grid:
            db_full, db_half = _central_pair(lambda b: magnetization(b, h),
                                             beta, delta, lower=0.0)
            dh_full, dh_half = _central_pair(lambda x: magnetization(beta, x),
                                             h, delta)
            m = magnetization(beta, h)
            grid.append((beta, h))
            lhs.append(db_full)
            rhs.append(total_j * m * dh_full)
            margin_full = total_j * m * dh_full - db_full
            margin_half = total_j * m * dh_half - db_half
            spread = max(spread, abs(margin_full - margin_half))
    return _make_report(
        "ghs-differential", tuple(grid), lhs, rhs, tolerance, flip=True,
        fd_spread=spread,
        notes=f"M on ball({n}); coupling sum {total_j}")


# ---------------------------------------------------------------------------
# default scenarios
# ---------------------------------------------------------------------------

CHECK_NAMES = ("perc-diff", "bk", "ising-diff", "simon", "ghs")


def _sphere_vertices(lattice: LatticeSpec, n: int) -> list[Vertex]:
    """Vertices at graph distance exactly n from the origin."""
    inner = set(ball(lattice, n - 1).vertices) if n > 0 else set()
    return [v for v in ball(lattice, n).vertices if v not in inner]


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
