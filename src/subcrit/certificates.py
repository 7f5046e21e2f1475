"""Subcriticality certificates built on the finite-volume quantity phi.

For bond percolation on a region S containing the origin,

    phi(S, t) = sum_{x in S} sum_{y outside S} w(x, y; t) * P[0 <-> x in S]

where w is the open probability of the pair (p in p mode, 1 - e^{-beta J}
in beta mode).  For the Ising model the weight is tanh(beta J) and the
connection probability is replaced by the free-boundary correlation
<sigma_0 sigma_x> on S at zero field.  Whenever phi < 1 for some finite S
the parameter is at or below the critical point, so the root of
phi(S, t) = 1 in t is a certified lower bound on the critical point.

Exact evaluation is used whenever the region fits under the enumeration
caps; otherwise a Monte Carlo estimate with a one-sided 99.9% upper
confidence bound stands in, and the resulting certificate is labelled
statistical.  Certificates are floating-point honest rather than interval
arithmetic: EPSILON_CERT absorbs the rounding budget of the exact engine.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import rng as rngmod
from .errors import CapExceeded, NoRoot
from .exact import (EDGE_CAP_DEFAULT, SPIN_CAP_DEFAULT, ising_observables,
                    perc_connect_probs)
from .ising_mc import SpinSystem, WolffChain, equilibrate
from .lattice import LatticeSpec, Region, Vertex, ball, edge_weight
from .perc_mc import ClusterWalker
from .stats import Z_999, batch_means_stderr, wilson_upper

EPSILON_CERT = 1e-9
MODELS = ("percolation", "ising")

# beta large enough that every edge weight is within 1e-27 of its cap, so
# phi at the bracket top is indistinguishable from its monotone limit
_BETA_MAX = 64.0
_DEFAULT_MC_SAMPLES = 100_000
_DEFAULT_MC_SWEEPS = 20_000


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

    @property
    def exact(self) -> bool:
        return self.phi.method == "exact"

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


def _check_region(lattice: LatticeSpec, region: Region) -> None:
    if region.lattice != lattice:
        raise ValueError("region was built on a different lattice")


def _boundary_coefficients(region: Region, param: float, model: str,
                           within: Iterable[Vertex] | None = None
                           ) -> dict[int, float]:
    """Per inside-vertex sum of boundary weights.

    phi collapses to sum_i c_i * P[0 <-> v_i]: each inside endpoint x
    contributes once per outside partner, weighted by the pair weight.
    ``within`` optionally restricts the outside partners to a vertex set.
    """
    keep = None if within is None else {tuple(v) for v in within}
    coeff: dict[int, float] = {}
    for i, outside, j in region.boundary_pairs:
        if keep is not None and outside not in keep:
            continue
        if model == "percolation":
            w = edge_weight(region.lattice, j, param)
        else:
            w = math.tanh(param * j)
        coeff[i] = coeff.get(i, 0.0) + w
    return coeff


def phi_percolation(lattice: LatticeSpec, region: Region, param: float, *,
                    samples: int = _DEFAULT_MC_SAMPLES, seed: int = 0,
                    allow_mc: bool = True,
                    edge_cap: int = EDGE_CAP_DEFAULT,
                    within: Iterable[Vertex] | None = None) -> PhiResult:
    """phi for bond percolation; exact under the edge cap, MC above it.

    ``region`` may be disconnected; connection probabilities are then zero
    beyond the origin's component.  ``within`` optionally restricts the
    outside endpoint of each boundary pair to a given vertex set.
    """
    _check_region(lattice, region)
    coeff = _boundary_coefficients(region, param, "percolation", within)
    try:
        conn = perc_connect_probs(region, param, cap=edge_cap)
    except CapExceeded:
        if not allow_mc:
            raise
        return _phi_percolation_mc(region, param, coeff, samples, seed)
    terms = [c * conn.probs[region.vertices[i]] for i, c in sorted(coeff.items())]
    value = math.fsum(terms)
    return PhiResult(value=value, method="exact", upper_confidence=value,
                     param=param, region_id=region_id(region))


def _phi_percolation_mc(region: Region, param: float,
                        coeff: dict[int, float], samples: int,
                        seed: int) -> PhiResult:
    """Sample-average of sum_i c_i 1[0 <-> v_i], one cluster walk per sample.

    The upper confidence bound is Wilson at 99.9% applied to the mean of
    X / W where W = sum_i c_i bounds every sample; for the non-Bernoulli
    sum this is a conservative labelled approximation.
    """
    total_w = math.fsum(coeff.values())
    if total_w == 0.0:
        return PhiResult(0.0, "monte_carlo", 0.0, param, region_id(region),
                         samples=samples, seed=seed)
    edges = region.internal_edges
    weights = np.array([edge_weight(region.lattice, j, param)
                        for _, _, j in edges])
    walker = ClusterWalker(len(region.vertices),
                           np.array([a for a, _, _ in edges], dtype=np.int64),
                           np.array([b for _, b, _ in edges], dtype=np.int64),
                           np.zeros(len(region.vertices), dtype=np.int64))
    values = []
    for s in range(samples):
        members, _, _ = walker.origin_cluster(weights, seed, rngmod.STREAM_PHI,
                                              s)
        # a plain sum in discovery order: the fixed-seed values depend on it
        values.append(sum(coeff.get(m, 0.0) for m in members))
    mean = math.fsum(values) / samples
    upper = total_w * wilson_upper(mean / total_w, samples)
    return PhiResult(value=mean, method="monte_carlo", upper_confidence=upper,
                     param=param, region_id=region_id(region),
                     samples=samples, seed=seed)


def phi_ising(lattice: LatticeSpec, region: Region, beta: float, *,
              sweeps: int = _DEFAULT_MC_SWEEPS, seed: int = 0,
              allow_mc: bool = True,
              spin_cap: int = SPIN_CAP_DEFAULT,
              within: Iterable[Vertex] | None = None) -> PhiResult:
    """phi for the Ising model; exact transfer-free sum under the spin cap.

    Correlations inside the region are taken at zero field with free
    boundary; ``within`` restricts outside endpoints as in
    :func:`phi_percolation`.
    """
    _check_region(lattice, region)
    if lattice.mode != "beta":
        raise ValueError("the Ising phi needs a beta-mode lattice")
    coeff = _boundary_coefficients(region, beta, "ising", within)
    try:
        obs = ising_observables(region, beta, 0.0, cap=spin_cap)
    except CapExceeded:
        if not allow_mc:
            raise
        return _phi_ising_mc(region, beta, coeff, sweeps, seed)
    terms = [c * obs.correlations[region.vertices[i]]
             for i, c in sorted(coeff.items())]
    value = math.fsum(terms)
    return PhiResult(value=value, method="exact", upper_confidence=value,
                     param=beta, region_id=region_id(region))


def _phi_ising_mc(region: Region, beta: float, coeff: dict[int, float],
                  sweeps: int, seed: int) -> PhiResult:
    """Wolff chain on the region itself; per sweep the origin's
    Edwards-Sokal cluster gives every 1[0 <-> v_i] at once.

    Sweeps are correlated, so the upper bound is mean + z * batch stderr
    rather than a Wilson bound.
    """
    system = SpinSystem.from_region(region, h=0.0)
    chain = WolffChain(system, beta, 0.0, seed, boundary="free")
    equilibrate(chain)
    values = []
    for _ in range(sweeps):
        chain.step()
        mask = chain.measure()
        values.append(math.fsum(c for i, c in coeff.items() if mask[i]))
    mean = math.fsum(values) / sweeps
    upper = mean + Z_999 * batch_means_stderr(values)
    return PhiResult(value=mean, method="monte_carlo", upper_confidence=upper,
                     param=beta, region_id=region_id(region),
                     samples=sweeps, seed=seed)


def compute_phi(model: str, lattice: LatticeSpec, region: Region,
                param: float, **kwargs) -> PhiResult:
    model = _normalize_model(model)
    if model == "percolation":
        return phi_percolation(lattice, region, param, **kwargs)
    return phi_ising(lattice, region, param, **kwargs)


def certify_subcritical(model: str, lattice: LatticeSpec, region: Region,
                        param: float, **kwargs) -> Certificate | Refusal:
    """Certificate iff the upper confidence bound on phi is < 1 - epsilon.

    A Refusal is not evidence of supercriticality; it only reports that
    this region failed to witness phi < 1 at this parameter.
    """
    model = _normalize_model(model)
    phi = compute_phi(model, lattice, region, param, **kwargs)
    if phi.upper_confidence < 1.0 - EPSILON_CERT:
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


def critical_root(model: str, lattice: LatticeSpec, region: Region,
                  tol: float = 1e-9, *, max_iter: int = 200,
                  **kwargs) -> float:
    """Bisection root of phi = 1; a certified lower bound on criticality.

    phi is non-decreasing in the parameter (monotone coupling of bond
    configurations for percolation, coupling monotonicity of ferromagnetic
    correlations for Ising), so bisection applies.  Monte Carlo fallbacks
    reuse one fixed seed across the sweep: with common draws the sampled
    percolation phi is monotone in the parameter as well.  Returns the
    certified (lower) end of the final bracket.
    """
    model = _normalize_model(model)

    def phi_upper(t: float) -> float:
        return compute_phi(model, lattice, region, t, **kwargs).upper_confidence

    lo = 0.0
    hi = _param_max(model, lattice)
    if phi_upper(hi) < 1.0:
        raise NoRoot(f"phi stays below 1 up to param={hi:g}")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if phi_upper(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class BoundRow:
    """One line of the best_bound table."""

    radius: int
    root: float
    method: str  # "exact" | "monte_carlo" | "skipped"
    region_size: int


@dataclass(frozen=True)
class BestBound:
    """Best certified lower bound over the ball family."""

    model: str
    region: Region
    param_star: float
    rows: tuple[BoundRow, ...] = field(repr=False)


def best_bound(model: str, lattice: LatticeSpec, max_radius: int,
               budget: int = 0, *, tol: float = 1e-9,
               seed: int = 0) -> BestBound:
    """Max of critical_root over balls of radius 0..max_radius.

    ``budget`` is the Monte Carlo sample allowance per phi evaluation for
    balls beyond the exact caps; with budget 0 those balls are skipped and
    the table stays purely exact.
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
            root = critical_root(model, lattice, region, tol, allow_mc=False)
            method = "exact"
        except CapExceeded:
            if budget <= 0:
                rows.append(BoundRow(r, math.nan, "skipped",
                                     len(region.vertices)))
                continue
            if model == "percolation":
                root = critical_root(model, lattice, region, tol,
                                     samples=budget, seed=seed)
            else:
                root = critical_root(model, lattice, region, tol,
                                     sweeps=budget, seed=seed)
            method = "monte_carlo"
        rows.append(BoundRow(r, root, method, len(region.vertices)))
        if root > best_root:
            best_root = root
            best_region = region
    if best_region is None:
        raise NoRoot("no ball produced a certified root under the budget")
    return BestBound(model=model, region=best_region, param_star=best_root,
                     rows=tuple(rows))


def greedy_grow(model: str, lattice: LatticeSpec, param: float,
                max_size: int, **kwargs) -> Region:
    """Grow a witness region one vertex at a time, greedily minimizing phi.

    Starts from the origin; each step scores every outside neighbour of
    the current region and keeps the one whose inclusion lowers phi the
    most.  Stops at ``max_size`` or when no candidate helps, so the best
    phi seen never increases along the trajectory.
    """
    model = _normalize_model(model)
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    region = ball(lattice, 0)
    best_phi = compute_phi(model, lattice, region, param, **kwargs).value
    while len(region.vertices) < max_size:
        members = set(region.vertices)
        candidates = sorted({w for v in members
                             for w, _ in lattice.neighbors(v)
                             if w not in members})
        best_candidate = None
        candidate_phi = best_phi
        for w in candidates:
            grown = Region(lattice, members | {w}, region.origin)
            value = compute_phi(model, lattice, grown, param, **kwargs).value
            if value < candidate_phi:
                candidate_phi = value
                best_candidate = w
        if best_candidate is None:
            break
        region = Region(lattice, members | {best_candidate}, region.origin)
        best_phi = candidate_phi
    return region


def chi_upper_bound(region: Region, param: float, phi: PhiResult) -> float:
    """|S| / (1 - phi), an upper bound on the expected origin cluster size
    (summed two-point function for Ising) at any volume."""
    if phi.param != param:
        raise ValueError("phi was evaluated at a different parameter")
    if phi.upper_confidence >= 1.0:
        raise ValueError("phi >= 1 certifies nothing")
    return len(region.vertices) / (1.0 - phi.upper_confidence)


def decay_upper_bound(region: Region, phi: PhiResult, n: int) -> float:
    """phi^floor(n / L): certified bound on P[0 reaches distance n].

    L is the region's reach (max vertex distance plus the coupling range);
    for n < L the floor is zero and the bound is the trivial 1.
    """
    if phi.upper_confidence >= 1.0:
        raise ValueError("phi >= 1 certifies nothing")
    if n < 0:
        raise ValueError("n must be >= 0")
    return phi.upper_confidence ** (n // region.radius_l)
