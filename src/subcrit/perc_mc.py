"""Monte Carlo percolation on finite boxes.

Boxes are graph-distance balls ``ball(n)`` together with the one-vertex
shell outside them; every lattice edge with at least one endpoint inside the
box is sampled.  An optional ghost vertex models an external field: each box
vertex joins the ghost independently with probability ``1 - exp(-h)``.

Per-sample randomness comes from a counter-based stream keyed by
(seed, observable stream, sample index); inside a sample, uniforms are
consumed in edge-index order, then ghost-vertex order.  Estimates are
reduced with compensated summation in sample order, so results are
bit-reproducible regardless of batching.

The box's arrays come from ``lattice.ball_layout``.  Estimators walk the
open cluster of the origin depth-first and stop once the event is decided:
exit profiles at the first site beyond the largest radius, the ghost
estimate at the first open ghost bond.  The susceptibility walks whole
clusters.  Which edges are open does not depend on the walk, so no estimate
depends on the walk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import rng as rngmod
from .errors import DegenerateFit
from .lattice import LatticeSpec, ball_layout, edge_weight
from .stats import MCEstimate, batch_means_stderr, binomial_stderr


class PercBox:
    """Sampling layout for ``ball(n)`` plus its outer shell."""

    def __init__(self, lattice: LatticeSpec, n: int):
        self.lattice = lattice
        self.n = n
        layout = ball_layout(lattice, n)
        self.layer = layout.layer
        self.n_inside = layout.n_inside
        self.n_nodes = len(layout.layer)
        self.edge_a = layout.edge_a
        self.edge_b = layout.edge_b
        self.edge_j = layout.edge_j
        self.n_edges = len(layout.edge_a)

        # adjacency CSR: each node's (neighbor, edge id) in edge-id order
        ends = np.concatenate([self.edge_a, self.edge_b])
        eids = np.tile(np.arange(self.n_edges), 2)
        order = np.lexsort((eids, ends))
        ptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n_nodes), out=ptr[1:])
        self._ptr = ptr.tolist()
        self._nbr = np.concatenate([self.edge_b, self.edge_a])[order].tolist()
        self._eid = eids[order].tolist()
        self._layer = self.layer.tolist()

    def open_probabilities(self, param: float) -> np.ndarray:
        # one edge_weight call per distinct coupling
        js, inverse = np.unique(self.edge_j, return_inverse=True)
        weights = [edge_weight(self.lattice, j, param) for j in js.tolist()]
        return np.array(weights)[inverse]

    def sample(self, weights: np.ndarray, h: float, seed: int, stream: int,
               index: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Open-edge mask (and ghost mask if h > 0) for one sample index."""
        gen = rngmod.sample_stream(seed, stream, index)
        open_edges = gen.random(self.n_edges) < weights
        ghost_open = None
        if h > 0.0:
            ghost_open = gen.random(self.n_nodes) < -math.expm1(-h)
        elif h < 0.0:
            raise ValueError("h must be non-negative")
        return open_edges, ghost_open

    def origin_cluster(self, open_edges, ghost_open=None, stop_layer=None):
        """Depth-first walk over the origin's open cluster.

        Returns ``(members, max_layer, hit_ghost)``; ``members`` lists node
        indices in discovery order.  The walk returns as soon as the event
        is decided: when a ghost bond of a member is open (if ``ghost_open``
        is given; ``hit_ghost`` is then True), or when it reaches a node of
        layer ``stop_layer`` or beyond (``max_layer`` is then that node's
        layer).  Otherwise it covers the whole cluster and ``max_layer`` is
        the cluster's largest layer.
        """
        is_open = open_edges.tobytes()
        ghost = None if ghost_open is None else ghost_open.tobytes()
        members = [0]
        if ghost is not None and ghost[0]:
            return members, 0, True
        stop = self.n + 2 if stop_layer is None else stop_layer
        ptr, nbr, eid, layer = self._ptr, self._nbr, self._eid, self._layer
        seen = bytearray(self.n_nodes)
        seen[0] = 1
        max_layer = 0
        stack = [0]
        while stack:
            v = stack.pop()
            for t in range(ptr[v], ptr[v + 1]):
                if is_open[eid[t]]:
                    w = nbr[t]
                    if not seen[w]:
                        seen[w] = 1
                        members.append(w)
                        if layer[w] > max_layer:
                            max_layer = layer[w]
                        if ghost is not None and ghost[w]:
                            return members, max_layer, True
                        if max_layer >= stop:
                            return members, max_layer, False
                        stack.append(w)
        return members, max_layer, False


@lru_cache(maxsize=32)
def _box(lattice: LatticeSpec, n: int) -> PercBox:
    return PercBox(lattice, n)


def exit_profile(lattice: LatticeSpec, n_box: int, radii: Sequence[int],
                 param: float, samples: int, seed: int) -> dict[int, MCEstimate]:
    """Exit estimates for every radius in one pass over box ``n_box`` samples.

    For r < n_box the witness path for "origin leaves ball(r)" lies inside
    the box edge set, so the shared-sample indicators are exact per radius
    (and nested, which the decay diagnostics rely on).
    """
    radii = sorted(radii)
    if radii[-1] > n_box:
        raise ValueError("profile radius exceeds box radius")
    box = _box(lattice, n_box)
    weights = box.open_probabilities(param)
    stop = radii[-1] + 1  # every indicator max_layer > r is decided there
    hits = {r: 0 for r in radii}
    for i in range(samples):
        open_edges, _ = box.sample(weights, 0.0, seed, rngmod.STREAM_EXIT, i)
        _, max_layer, _ = box.origin_cluster(open_edges, stop_layer=stop)
        for r in radii:
            if max_layer > r:
                hits[r] += 1
    out = {}
    for r in radii:
        mean = hits[r] / samples
        out[r] = MCEstimate(f"exit[n={r}]", mean, binomial_stderr(mean, samples),
                            samples, seed)
    return out


def susceptibility_profile(lattice: LatticeSpec, n_box: int,
                           radii: Sequence[int], param: float, samples: int,
                           seed: int) -> dict[int, MCEstimate]:
    """Partial sums |cluster(0) ∩ ball(r)| for each r, shared samples.

    Cluster sizes are heavy-tailed near criticality, so the standard error
    comes from batch means rather than the naive i.i.d. formula.
    """
    radii = sorted(radii)
    if radii[-1] > n_box:
        raise ValueError("profile radius exceeds box radius")
    box = _box(lattice, n_box)
    weights = box.open_probabilities(param)
    counts: dict[int, list[float]] = {r: [] for r in radii}
    layer = box._layer
    for i in range(samples):
        open_edges, _ = box.sample(weights, 0.0, seed,
                                   rngmod.STREAM_SUSCEPTIBILITY, i)
        members, _, _ = box.origin_cluster(open_edges)
        # counted in plain Python: on small clusters a numpy call per
        # sample costs more than the count itself
        ml = [layer[m] for m in members]
        for r in radii:
            counts[r].append(len([x for x in ml if x <= r]))
    out = {}
    for r in radii:
        vals = counts[r]
        out[r] = MCEstimate(f"susceptibility[n={r}]", math.fsum(vals) / samples,
                            batch_means_stderr(vals), samples, seed)
    return out


def estimate_ghost_magnetization(lattice: LatticeSpec, n: int, param: float,
                                 h: float, samples: int, seed: int) -> MCEstimate:
    """P[origin connected to the ghost] with field h on box ball(n)."""
    if h <= 0.0:
        raise ValueError("ghost magnetization needs h > 0")
    box = _box(lattice, n)
    weights = box.open_probabilities(param)
    hits = 0
    for i in range(samples):
        open_edges, ghost_open = box.sample(weights, h, seed,
                                            rngmod.STREAM_GHOST, i)
        _, _, hit = box.origin_cluster(open_edges, ghost_open)
        if hit:
            hits += 1
    mean = hits / samples
    return MCEstimate(f"ghost_m[n={n},h={h:g}]", mean,
                      binomial_stderr(mean, samples), samples, seed)


@dataclass(frozen=True)
class MeanFieldReport:
    """Finite-box check of theta(p) >= (p - p_c) / (p (1 - p_c)) on Z^2."""

    theta_hat: MCEstimate
    bound: float
    margin_sigmas: float
    passed: bool
    n: int
    note: str


def check_mean_field(lattice: LatticeSpec, n: int, p: float, samples: int,
                     seed: int) -> MeanFieldReport:
    if lattice.family != "square" or lattice.mode != "p":
        raise ValueError("mean-field check is calibrated to Z^2 bond "
                         "percolation, where p_c = 1/2 is known")
    p_c = 0.5
    if p <= p_c:
        raise ValueError("mean-field lower bound applies for p > p_c")
    theta_hat = exit_profile(lattice, n, [n], p, samples, seed)[n]
    bound = (p - p_c) / (p * (1.0 - p_c))
    sigma = theta_hat.stderr if theta_hat.stderr > 0 else float("inf")
    margin = (theta_hat.mean - bound) / sigma
    return MeanFieldReport(
        theta_hat=theta_hat,
        bound=bound,
        margin_sigmas=margin,
        passed=theta_hat.mean >= bound - 3.0 * theta_hat.stderr,
        n=n,
        note=(f"theta_hat uses the exit event from ball({n}) and "
              f"over-approximates theta; the bound is asymptotic in n"),
    )


class DecayFit(NamedTuple):
    c: float
    r2: float


def fit_decay_rate(series: Sequence[tuple[int, MCEstimate]]) -> DecayFit:
    """Least-squares slope of -log(mean) against n.

    Raises DegenerateFit when fewer than 4 points are given or any mean is
    non-positive (the offending points are reported on the exception).
    """
    if len(series) < 4:
        raise DegenerateFit(f"need >= 4 points, got {len(series)}")
    dropped = [(n, est.mean) for n, est in series if est.mean <= 0.0]
    if dropped:
        raise DegenerateFit(
            f"non-positive means at n={[n for n, _ in dropped]}; "
            f"increase samples or shrink the radius grid", dropped)
    xs = np.array([n for n, _ in series], dtype=float)
    ys = np.array([-math.log(est.mean) for _, est in series])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(float(slope), r2)
