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

Estimators walk the open cluster of the origin by BFS, which is cheap in
the subcritical regime and adequate at criticality for the box sizes used
here.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import rng as rngmod
from .errors import DegenerateFit
from .lattice import LatticeSpec, Region, Vertex, ball, edge_weight
from .stats import MCEstimate, batch_means_stderr, binomial_stderr


class PercBox:
    """Sampling layout for ``ball(n)`` plus its outer shell."""

    def __init__(self, lattice: LatticeSpec, n: int):
        self.lattice = lattice
        self.n = n
        region = ball(lattice, n)
        self.region = region
        shell = sorted({w for _, w, _ in region.boundary_pairs})
        self.nodes: list[Vertex] = list(region.vertices) + shell
        self.n_inside = len(region)
        self.n_nodes = len(self.nodes)
        index = {v: i for i, v in enumerate(self.nodes)}
        ea, eb, ej = [], [], []
        for a, b, j in region.internal_edges:
            ea.append(a); eb.append(b); ej.append(j)
        for i, w, j in region.boundary_pairs:
            ea.append(i); eb.append(index[w]); ej.append(j)
        self.edge_a = np.array(ea, dtype=np.int32)
        self.edge_b = np.array(eb, dtype=np.int32)
        self.edge_j = np.array(ej, dtype=float)
        self.n_edges = len(ea)

        dist = lattice.distances_from_origin(self.nodes)
        self.layer = np.array([dist[v] for v in self.nodes], dtype=np.int32)

        nbr: list[list[int]] = [[] for _ in range(self.n_nodes)]
        eid: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for k in range(self.n_edges):
            a, b = int(self.edge_a[k]), int(self.edge_b[k])
            nbr[a].append(b); eid[a].append(k)
            nbr[b].append(a); eid[b].append(k)
        self._nbr = [tuple(x) for x in nbr]
        self._eid = [tuple(x) for x in eid]

    def open_probabilities(self, param: float) -> np.ndarray:
        return np.array([edge_weight(self.lattice, j, param) for j in self.edge_j])

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

    def origin_cluster(self, open_edges, ghost_open=None,
                       stop_at_ghost: bool = False):
        """BFS over the origin's open cluster.

        Returns ``(members, max_layer, hit_ghost)``; ``members`` lists node
        indices in discovery order.  With ``stop_at_ghost`` the walk returns
        as soon as an open ghost bond is seen (the connection event needs no
        more).
        """
        seen = np.zeros(self.n_nodes, dtype=bool)
        seen[0] = True
        members = [0]
        max_layer = 0
        hit_ghost = ghost_open is not None and bool(ghost_open[0])
        if hit_ghost and stop_at_ghost:
            return members, max_layer, True
        queue = deque([0])
        nbr, eid, layer = self._nbr, self._eid, self.layer
        while queue:
            v = queue.popleft()
            for w, k in zip(nbr[v], eid[v]):
                if open_edges[k] and not seen[w]:
                    seen[w] = True
                    members.append(w)
                    if layer[w] > max_layer:
                        max_layer = int(layer[w])
                    if ghost_open is not None and ghost_open[w]:
                        hit_ghost = True
                        if stop_at_ghost:
                            return members, max_layer, True
                    queue.append(w)
        return members, max_layer, hit_ghost


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
    hits = {r: 0 for r in radii}
    for i in range(samples):
        open_edges, _ = box.sample(weights, 0.0, seed, rngmod.STREAM_EXIT, i)
        _, max_layer, _ = box.origin_cluster(open_edges)
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
    layer = box.layer.tolist()
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
        _, _, hit = box.origin_cluster(open_edges, ghost_open,
                                       stop_at_ghost=True)
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
