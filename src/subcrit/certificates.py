"""Subcriticality certificates built on the finite-volume quantity phi.

For bond percolation on a region S containing the origin,

    phi(S, t) = sum_{x in S} sum_{y outside S} w(x, y; t) * P[0 <-> x in S]

where w is the open probability of the pair (p in p mode, 1 - e^{-beta J}
in beta mode).  For the Ising model the weight is tanh(beta J) and the
connection probability is replaced by the free-boundary correlation
<sigma_0 sigma_x> on S at zero field.  Whenever phi < 1 for some finite S
the parameter is at or below the critical point, so the root of
phi(S, t) = 1 in t is a certified lower bound on the critical point.

:func:`phi_sweep` is the one evaluation of phi, for either model, at one
parameter or at every parameter of a sequence in one sweep, with the
coefficients of :func:`boundary_coefficients`, which the Monte Carlo phi
and the subset lanes of ``verify.phi_infimum`` take too.
:func:`exact_phi` gives one of its values as a :class:`PhiResult`.  Both
are exact only and raise ``CapExceeded`` where a percolation plan or a
sweep's lane would hold more than ``exact.PLAN_BYTES`` (or a percolation
frontier passes 15 vertices); certificates, roots and best-bound tables
call :func:`exact_phi`.  Only :func:`compute_phi` falls back, and
for percolation only, to a Monte Carlo estimate labelled
``method="monte_carlo"``, which proves nothing.
Certificates are floating-point honest rather than interval arithmetic:
EPSILON_CERT absorbs the rounding budget of the exact engine in the one
decision rule, :func:`_certifies`.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import rng as rngmod
from .errors import CapExceeded, NoRoot
from .exact import BASE_POINT_TIE, ising_sums, perc_reach
from .lattice import LatticeSpec, Region, ball, edge_weight
from .perc_mc import ClusterWalker
from .stats import check_counts

EPSILON_CERT = 1e-9

# beta large enough that every edge weight is within 1e-27 of its cap, so
# phi at the bracket top is indistinguishable from its monotone limit
_BETA_MAX = 64.0
_DEFAULT_MC_SAMPLES = 100_000
_MAX_STEPS = 200


def _normalize_model(model: str) -> str:
    name = model.lower()
    if name in ("perc", "percolation", "bond"):
        return "percolation"
    if name == "ising":
        return "ising"
    raise ValueError(f"unknown model {model!r}")


def region_id(region: Region) -> str:
    """Short stable descriptor of a region: size, reach and a digest."""
    digest = hashlib.sha1(repr(region.vertices).encode()).hexdigest()[:8]
    return f"v{len(region.vertices)}:L{region.radius_l}:{digest}"


@dataclass(frozen=True)
class PhiResult:
    """Value of phi with its evaluation method and error budget."""

    value: float
    method: str  # "exact" | "monte_carlo"
    upper_confidence: float
    param: float
    region_id: str
    samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("phi is a sum of non-negative terms")
        if self.upper_confidence < self.value:
            raise ValueError("upper confidence below the point estimate")

    def to_json(self) -> dict:
        return {"value": self.value, "method": self.method,
                "upper_confidence": self.upper_confidence,
                "param": self.param, "region_id": self.region_id,
                "samples": self.samples, "seed": self.seed}


@dataclass(frozen=True)
class Certificate:
    """A certified statement that ``param`` is at or below criticality."""

    model: str
    lattice: LatticeSpec
    region: Region
    param: float
    phi: PhiResult
    statement: str = "param <= critical point"

    def to_json(self) -> dict:
        return {"kind": "certificate", "model": self.model,
                "lattice": self.lattice.to_json(),
                "region": [list(v) for v in self.region.vertices],
                "param": self.param, "phi": self.phi.to_json(),
                "method": self.phi.method, "epsilon": EPSILON_CERT,
                "statement": self.statement,
                "seed": self.phi.seed}


@dataclass(frozen=True)
class Refusal:
    """phi failed to fall below 1 - epsilon; says nothing about supercriticality."""

    model: str
    lattice: LatticeSpec
    region: Region
    param: float
    phi: PhiResult
    reason: str

    def to_json(self) -> dict:
        return {"kind": "refusal", "model": self.model,
                "lattice": self.lattice.to_json(),
                "region": [list(v) for v in self.region.vertices],
                "param": self.param, "phi": self.phi.to_json(),
                "method": self.phi.method, "epsilon": EPSILON_CERT,
                "reason": self.reason,
                "seed": self.phi.seed}


def _pair_weight(model: str, lattice: LatticeSpec, j: float,
                 param: float) -> float:
    """The weight of a coupled pair in phi: ``edge_weight``, or tanh(beta J)
    for Ising."""
    if model == "ising":
        return math.tanh(param * j)
    return edge_weight(lattice, j, param)


def boundary_coefficients(model: str, region: Region, params,
                          subsets: np.ndarray | None = None) -> np.ndarray:
    """phi's coefficients c_i, phi = sum_i c_i P[0 <-> v_i] (for Ising,
    <sigma_0 sigma_v_i>): the pair weights of vertex i's partners outside S
    in coupling order.  A (K, vertices) array, a row per parameter, for S
    the region, or (M, K, vertices) for the subsets that the rows of the
    (M, vertices) boolean ``subsets`` mark (a vertex outside one reaches
    nothing, whatever its c_i)."""
    model = _normalize_model(model)
    lattice = region.lattice
    weights = np.array([[_pair_weight(model, lattice, j, t) for t in params]
                        for _, j in lattice.couplings], dtype=float)[..., None]
    outside = region.partners < 0  # ([subsets,] couplings, vertices)
    if subsets is not None:  # a partner -1 is outside already
        outside = outside | ~subsets[:, region.partners]
    terms = np.where(outside[..., None, :], weights, 0.0)
    # summed in coupling order; + 0.0 makes a sum of -0.0 (p = -0.0) +0
    return np.add.accumulate(terms, axis=-3)[..., -1, :, :] + 0.0


def phi_sweep(model: str, region: Region, param):
    """Exact phi of ``region`` at ``param``, or an array of it at every
    parameter of a sequence, from one sweep with the coefficients of
    :func:`boundary_coefficients` as the column: their sums over the base
    point's cluster (percolation) or its correlations (Ising).

    ``model`` is "percolation" or "ising" (in any accepted spelling); Ising
    phi needs a beta-mode lattice and takes its correlations at zero field
    with free boundary.  ``region`` may be disconnected; connection
    probabilities (correlations) are then zero beyond the base point's
    component.
    """
    model = _normalize_model(model)
    if model == "ising" and region.lattice.mode != "beta":
        raise ValueError("the Ising phi needs a beta-mode lattice")
    one = isinstance(param, numbers.Real)
    coeffs = boundary_coefficients(model, region, [param] if one else param)
    coeffs = (coeffs[0] if one else coeffs)[..., None]
    if model == "percolation":
        return perc_reach(region, BASE_POINT_TIE, param, coeffs)[..., 0]
    z, acc = ising_sums(region, param, 0.0, coeffs)
    return (acc[..., 0, 0] - acc[..., 1, 0]) / (z[..., 0] + z[..., 1])


def _phi_percolation_mc(region: Region, param: float, samples: int,
                        seed: int) -> PhiResult:
    """Sample-average of sum_i c_i 1[0 <-> v_i], one cluster walk per sample.

    Every sample X lies in [0, W] with W = sum_i c_i, so the upper
    confidence bound is the one-sided Hoeffding bound at 99.9%,
    mean + W sqrt(ln(1000) / (2 samples)), which is never below the mean.
    """
    check_counts(samples=samples)
    coeff = boundary_coefficients("percolation", region, [param])[0].tolist()
    total_w = math.fsum(coeff)
    edges = region.internal_edges
    weights = np.array([edge_weight(region.lattice, j, param)
                        for _, _, j in edges])
    walker = ClusterWalker(len(region.vertices),
                           np.array([a for a, _, _ in edges], dtype=np.int64),
                           np.array([b for _, b, _ in edges], dtype=np.int64),
                           np.zeros(len(region.vertices), dtype=np.int64))
    # every cluster walked, with no budget: on these regions (ball(10) at
    # p = 0.4: 221 nodes, a budget of 32 members) the clusters just past any
    # budget are common, and labeling them cost 26 us a sample against 20
    values = []
    for s in range(samples):
        members, _ = walker.origin_cluster(weights, seed, rngmod.STREAM_PHI, s)
        # a plain sum in discovery order: the fixed-seed values depend on it
        values.append(sum(coeff[m] for m in members))
    mean = math.fsum(values) / samples
    upper = mean + total_w * math.sqrt(math.log(1000.0) / (2.0 * samples))
    return PhiResult(value=mean, method="monte_carlo", upper_confidence=upper,
                     param=param, region_id=region_id(region),
                     samples=samples, seed=seed)


def exact_phi(model: str, lattice: LatticeSpec, region: Region,
              param: float) -> PhiResult:
    """Exact phi of ``region`` at ``param`` from one :func:`phi_sweep`, as
    a :class:`PhiResult`; ``CapExceeded`` past the budget of ``exact``."""
    if region.lattice != lattice:
        raise ValueError("region was built on a different lattice")
    value = float(phi_sweep(model, region, param))
    return PhiResult(value=value, method="exact", upper_confidence=value,
                     param=param, region_id=region_id(region))


def compute_phi(model: str, lattice: LatticeSpec, region: Region,
                param: float, *, samples: int = _DEFAULT_MC_SAMPLES,
                seed: int = 0) -> PhiResult:
    """phi by :func:`exact_phi` within the memory budget of ``exact``.

    Past it, percolation falls back to a Monte Carlo estimate
    (``method="monte_carlo"``): ``samples`` cluster walks from ``seed``,
    with a Hoeffding upper bound.  It is an estimate only: certificates
    never call this.  Ising phi is exact only and raises ``CapExceeded``
    past the budget, as :func:`certify_subcritical` does.
    """
    model = _normalize_model(model)
    try:
        return exact_phi(model, lattice, region, param)
    except CapExceeded:
        if model == "ising":
            raise
        return _phi_percolation_mc(region, param, samples, seed)


def _certifies(upper: float) -> bool:
    """The one decision rule: phi's upper bound is below 1 - epsilon."""
    return upper < 1.0 - EPSILON_CERT


def certify_subcritical(model: str, lattice: LatticeSpec, region: Region,
                        param: float) -> Certificate | Refusal:
    """Certificate iff the exact phi is < 1 - epsilon.

    A Refusal is not evidence of supercriticality; it only reports that
    this region failed to witness phi < 1 at this parameter.  A region
    beyond the exact budget raises ``CapExceeded``.
    """
    model = _normalize_model(model)
    phi = exact_phi(model, lattice, region, param)
    if _certifies(phi.upper_confidence):
        return Certificate(model=model, lattice=lattice, region=region,
                           param=param, phi=phi)
    return Refusal(model=model, lattice=lattice, region=region, param=param,
                   phi=phi,
                   reason=(f"phi upper bound {phi.upper_confidence:.12g} is "
                           f"not below 1 - {EPSILON_CERT:g}"))


def _param_max(model: str, lattice: LatticeSpec) -> float:
    if model == "percolation" and lattice.mode == "p":
        return 1.0
    return _BETA_MAX


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _weight_axis(model: str, lattice: LatticeSpec):
    """The pair weight at the lattice's mean coupling as a function of the
    parameter, and its inverse on [0, 1)."""
    j_bar = lattice.total_coupling / len(lattice.couplings)
    weight = partial(_pair_weight, model, lattice, j_bar)
    if model == "ising":
        return weight, (lambda w: math.atanh(w) / j_bar)
    if lattice.mode == "p":
        return weight, (lambda w: w)
    return weight, (lambda w: -math.log1p(-w) / j_bar)


def critical_root(model: str, lattice: LatticeSpec, region: Region,
                  tol: float = 1e-9) -> float:
    """Illinois root of phi = 1; a certified lower bound on criticality.

    phi is non-decreasing in the parameter (monotone coupling of bond
    configurations for percolation, coupling monotonicity of ferromagnetic
    correlations for Ising).  The search keeps a bracket whose lower end
    certifies under the rule of :func:`certify_subcritical` and whose upper
    end does not, and returns the lower end.  Each step evaluates phi
    exactly at the Illinois point, at least tol/2 inside the bracket, or at
    the midpoint once three steps have not halved it, so it takes at most
    about four times the steps of bisection.  It stops at width ``tol``
    (which must be positive), when no float lies inside the bracket, or
    after 200 steps.  Past the exact budget it raises ``CapExceeded``.

    The bracket stays in the parameter t, but the secant runs in log-log
    coordinates s = log w(t) and g = log(phi / (1 - epsilon)), where w is
    the pair weight at the lattice's mean coupling J (p in p mode,
    1 - e^{-tJ} for beta-mode percolation, tanh(tJ) for Ising).  phi is
    close to a power law in w: percolation phi is a polynomial in it with
    non-negative coefficients (4p on ball(0), 12p^2 on ball(1)), and Ising
    phi a sum of tanh-weighted correlations.  So g is nearly linear in s,
    where on the raw parameter the secant creeps up from a bracket that
    starts far above the root.  While the lower end is 0 (g = -inf) the
    trial point is the degree-1 power law through the upper end,
    s = s_hi - g_hi.  The mean coupling rather than the largest keeps w
    from saturating on strongly anisotropic lattices.
    """
    model = _normalize_model(model)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if region.lattice != lattice:
        raise ValueError("region was built on a different lattice")
    target = 1.0 - EPSILON_CERT
    lo, g_lo = 0.0, -math.inf  # phi = 0 at parameter 0 for both models
    hi = _param_max(model, lattice)
    phi = float(phi_sweep(model, region, hi))
    if _certifies(phi):
        raise NoRoot(f"phi stays below 1 - {EPSILON_CERT:g} up to "
                     f"param={hi:g}")
    g_hi = _log(phi / target)
    weight, param_of = _weight_axis(model, lattice)
    kept, slow, width = None, 0, hi - lo
    for _ in range(_MAX_STEPS):
        if hi - lo <= tol or math.nextafter(lo, hi) == hi:
            break
        if slow >= 3:
            t = 0.5 * (lo + hi)
        else:
            s_lo, s_hi = _log(weight(lo)), _log(weight(hi))
            s = (s_hi - g_hi if g_lo == -math.inf
                 else s_lo - g_lo * (s_hi - s_lo) / (g_hi - g_lo))
            w = math.exp(s)
            t = param_of(w) if w < 1.0 else hi
        t = min(max(t, lo + 0.5 * tol, math.nextafter(lo, hi)),
                hi - 0.5 * tol, math.nextafter(hi, lo))
        phi = float(phi_sweep(model, region, t))
        g_t = _log(phi / target)
        # Illinois: halve g at an end that stays for a second step running
        if _certifies(phi):
            if kept == "hi":
                g_hi *= 0.5
            lo, g_lo, kept = t, g_t, "hi"
        else:
            if kept == "lo":
                g_lo *= 0.5
            hi, g_hi, kept = t, g_t, "lo"
        slow = 0 if hi - lo <= 0.5 * width else slow + 1
        width = width if slow else hi - lo  # width when last halved
    return lo


@dataclass(frozen=True)
class BoundRow:
    """One line of the best_bound table."""

    radius: int
    root: float
    method: str  # "exact" | "skipped"
    region_size: int


@dataclass(frozen=True)
class BestBound:
    """Best certified lower bound over the ball family."""

    model: str
    region: Region
    param_star: float
    rows: tuple[BoundRow, ...] = field(repr=False)


def best_bound(model: str, lattice: LatticeSpec, max_radius: int, *,
               tol: float = 1e-9) -> BestBound:
    """Max of critical_root over balls of radius 0..max_radius.

    Every root is exact; a ball beyond the exact budget gets a ``skipped``
    row with a NaN root.  ball(0) always fits (no bonds, one spin).
    """
    model = _normalize_model(model)
    if max_radius < 0:
        raise ValueError("max_radius must be >= 0")
    rows = []
    best_region = None
    best_root = -math.inf
    for r in range(max_radius + 1):
        region = ball(lattice, r)
        try:
            root = critical_root(model, lattice, region, tol)
        except CapExceeded:
            rows.append(BoundRow(r, math.nan, "skipped", len(region.vertices)))
            continue
        rows.append(BoundRow(r, root, "exact", len(region.vertices)))
        if root > best_root:
            best_root = root
            best_region = region
    return BestBound(model=model, region=best_region, param_star=best_root,
                     rows=tuple(rows))


def chi_upper_bound(region: Region, param: float, phi: PhiResult) -> float:
    """|S| / (1 - phi), an upper bound on the expected origin cluster size
    (summed two-point function for Ising) at any volume.

    The bound is certified for an exact phi; for a ``monte_carlo`` phi it
    holds only at the 99.9% confidence of that phi's upper bound.
    """
    if phi.param != param:
        raise ValueError("phi was evaluated at a different parameter")
    if not _certifies(phi.upper_confidence):
        raise ValueError("phi >= 1 - epsilon certifies nothing")
    return len(region.vertices) / (1.0 - phi.upper_confidence)


def decay_upper_bound(region: Region, phi: PhiResult, n: int) -> float:
    """phi^floor(n / L): bound on P[0 reaches distance n], certified for
    an exact phi and a 99.9% confidence bound for a ``monte_carlo`` one.

    L is the region's reach (max vertex distance plus the coupling range);
    for n < L the floor is zero and the bound is the trivial 1.
    """
    if not _certifies(phi.upper_confidence):
        raise ValueError("phi >= 1 - epsilon certifies nothing")
    if n < 0:
        raise ValueError("n must be >= 0")
    return phi.upper_confidence ** (n // region.radius_l)
