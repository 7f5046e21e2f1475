"""Exact finite-volume computations by exhaustive enumeration.

One chunked enumerator (``_bit_chunks``) and one evaluator of integer count
tables (``_table_sum``) serve both models.  The tables do not depend on the
parameter, so one enumeration per region supports any number of
evaluations (bisection on p or beta costs nothing extra), each one
compensated sum of count * monomial terms.  Plain-Python enumerators
(``naive_*``) are kept alongside as the oracles.

Percolation: ``ReachTables`` enumerates the configurations of a region's
internal bonds and labels their clusters by min-label propagation.  *Ties*
are extra bonds (vertex, coupling) into a set the internal bonds cannot
reach.  Tallying, for each target t, the open bonds k_c per coupling class
and the ties b_d per coupling class carried by t's cluster gives

    P[t reaches the tied set]
        = sum count * prod_c w_c^k_c (1 - w_c)^(n_c - k_c)
                    * -expm1(sum_d b_d log1p(-q_d)),

which keeps its relative accuracy for small tie weights q.  Connection to
the base point is one always-open tie there; the exit event ties every
boundary pair of ball(n).

Ising: with H(sigma) = -beta * sum_{internal pairs {x,y}} J_xy sigma_x
sigma_y - h * sum_x sigma_x (each unordered pair counted once), a spin
assignment weighs prod_c u_c^k_c * v^m relative to the all-plus state,
where k_c counts the unsatisfied pairs of coupling class c, m the minus
spins, u_c = exp(-2 beta J_c) and v = exp(-2h).  ``SpinTables`` tabulates
by (k, m) the number of assignments and their sums of sigma_x and of
sigma_base sigma_x.

Both engines refuse (``CapExceeded``) beyond fixed caps, ``EDGE_CAP``
internal bonds and ``SPIN_CAP`` spins, chosen so the worst-case
enumeration stays near 1e8 elementary steps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded
from .lattice import LatticeSpec, Region, Vertex, ball, edge_weight

EDGE_CAP = 26
SPIN_CAP = 22

_CHUNK_BITS = 18  # configurations per vectorized chunk


# ---------------------------------------------------------------------------
# the enumerator and the evaluator shared by both models
# ---------------------------------------------------------------------------

def _bit_chunks(n_bits: int):
    """Every assignment of ``n_bits`` bits, as (n_bits, chunk) bool arrays
    with at most 2^_CHUNK_BITS configurations per chunk."""
    n_cfg = 1 << n_bits
    chunk = min(n_cfg, 1 << _CHUNK_BITS)
    for start in range(0, n_cfg, chunk):
        idx = np.arange(start, min(start + chunk, n_cfg), dtype=np.uint64)
        bits = np.empty((n_bits, idx.size), dtype=bool)
        for e in range(n_bits):
            bits[e] = (idx >> np.uint64(e)) & np.uint64(1) != 0
        yield bits


def _table_sum(counts: np.ndarray, factors: list[np.ndarray]) -> float:
    """Compensated sum of counts[k0, k1, ...] * factors[0][k0] * factors[1][k1] ..."""
    nz = np.nonzero(counts)
    terms = counts[nz].astype(float)
    for axis, factor in enumerate(factors):
        terms = terms * factor[nz[axis]]
    return math.fsum(terms.tolist())


def _coupling_classes(js) -> tuple[list[float], list[int]]:
    """Distinct couplings in order of first appearance, and their counts."""
    classes: dict[float, int] = {}
    for j in js:
        classes[j] = classes.get(j, 0) + 1
    return list(classes), list(classes.values())


def _strides(shape: tuple[int, ...]) -> list[int]:
    """Flat-index step of each axis of a C-ordered array of ``shape``."""
    return [math.prod(shape[k + 1:]) for k in range(len(shape))]


# ---------------------------------------------------------------------------
# percolation inside a region
# ---------------------------------------------------------------------------

def _log_closed(lattice: LatticeSpec, j: float, param: float) -> float:
    """log P[a tie of coupling ``j`` is closed]; ``j = inf`` is always open."""
    w = 1.0 if j == math.inf else edge_weight(lattice, j, param)
    return math.log1p(-w) if w < 1.0 else -math.inf


class ReachTables:
    """Count tables for "vertex t reaches the tied set" inside a region.

    ``ties`` are bonds ``(vertex index, coupling)`` into a set the region's
    bonds cannot reach; coupling ``math.inf`` marks an always-open tie.
    ``counts[t][k_0, ..., k_{C-1}, b]`` counts the configurations with
    ``k_c`` open bonds of coupling class c in which t's cluster carries
    ``b_d`` ties of tie class d (``b`` is the vector (b_d) in mixed radix).
    Clusters that carry no tie are not counted.
    """

    def __init__(self, region: Region, ties: tuple[tuple[int, float], ...]):
        edges = region.internal_edges
        if len(edges) > EDGE_CAP:
            raise CapExceeded("bond enumeration", len(edges), EDGE_CAP)
        n = len(region)
        self.region = region
        self.bond_js, self.bond_sizes = _coupling_classes(j for _, _, j in edges)
        self.tie_js, tie_sizes = _coupling_classes(j for _, j in ties)
        tie_shape = tuple(s + 1 for s in tie_sizes)
        # row d: the number of class-d ties under each flat tie index
        self.tie_digits = np.indices(tie_shape).reshape(len(tie_shape),
                                                        math.prod(tie_shape))
        shape = (tuple(s + 1 for s in self.bond_sizes)
                 + (math.prod(tie_shape),))
        strides, tie_strides = _strides(shape), _strides(tie_shape)
        bond_step = [strides[self.bond_js.index(j)] for _, _, j in edges]
        tie_step = np.zeros(n, dtype=np.int64)
        for v, j in ties:
            tie_step[v] += tie_strides[self.tie_js.index(j)]
        tied = np.flatnonzero(tie_step)
        counts = np.zeros((n, math.prod(shape)), dtype=np.int64)
        for open_edges in _bit_chunks(len(edges)):
            labels = np.repeat(np.arange(n, dtype=np.int16)[:, None],
                               open_edges.shape[1], axis=1)
            # min-label propagation to a fixed point: an open bond whose
            # ends disagree gives both ends the smaller label
            changed = True
            while changed:
                changed = False
                for (a, b, _), is_open in zip(edges, open_edges):
                    la, lb = labels[a], labels[b]
                    differ = is_open & (la != lb)
                    if differ.any():
                        low = np.minimum(la, lb)
                        np.copyto(la, low, where=differ)
                        np.copyto(lb, low, where=differ)
                        changed = True
            flat = np.zeros(open_edges.shape[1], dtype=np.int64)
            for step, is_open in zip(bond_step, open_edges):
                flat += step * is_open
            tied_labels = labels[tied]
            for t in range(n):
                carried = tie_step[tied] @ (tied_labels == labels[t])
                hit = carried != 0
                counts[t] += np.bincount(flat[hit] + carried[hit],
                                         minlength=counts.shape[1])
        self.counts = counts.reshape((n,) + shape)

    def probs(self, param: float) -> list[float]:
        """P[t reaches the tied set] for every vertex index t."""
        lattice = self.region.lattice
        factors = []
        for j, n in zip(self.bond_js, self.bond_sizes):
            w = edge_weight(lattice, j, param)
            k = np.arange(n + 1, dtype=float)
            factors.append(np.power(w, k) * np.power(1.0 - w, n - k))
        log_closed = np.array([_log_closed(lattice, j, param)
                               for j in self.tie_js])
        finite = np.isfinite(log_closed)
        reach = -np.expm1(log_closed[finite] @ self.tie_digits[finite])
        reach[self.tie_digits[~finite].any(axis=0)] = 1.0
        return [_table_sum(c, factors + [reach]) for c in self.counts]


@lru_cache(maxsize=256)
def _reach_tables(region: Region, ties: tuple) -> ReachTables:
    return ReachTables(region, ties)


def perc_connect_probs(region: Region, param: float) -> dict[Vertex, float]:
    """Exact P[base point <-> x inside S] for every x in S.

    The base point (index 0 in canonical order) carries one always-open
    tie.  The count tables are built once per region and reused across
    parameters.
    """
    tables = _reach_tables(region, ((0, math.inf),))
    return dict(zip(region.vertices, tables.probs(param)))


def perc_exit_prob(lattice: LatticeSpec, n: int, param: float) -> float:
    """Exact P[origin <-> complement of ball(n)]: every boundary pair of
    ball(n) is a tie, and the origin's cluster must carry an open one."""
    region = ball(lattice, n)
    ties = tuple((i, j) for i, _, j in region.boundary_pairs)
    return _reach_tables(region, ties).probs(param)[0]


# ---------------------------------------------------------------------------
# naive reference enumerators (oracles; no vectorization, no count tables)
# ---------------------------------------------------------------------------

def naive_event_prob(n_nodes: int, edges: list[tuple[int, int, float]],
                     base: int, targets: list[int]) -> dict[int, float]:
    """Reference P[base <-> t] by direct product-of-weights enumeration.

    ``edges`` carry explicit open-probabilities.  Connectivity is decided by
    BFS, independently of the optimized path's label propagation.
    """
    m = len(edges)
    probs = {t: [] for t in targets}
    for config in itertools.product((0, 1), repeat=m):
        weight = 1.0
        adj: dict[int, list[int]] = {}
        for bit, (a, b, w) in zip(config, edges):
            weight *= w if bit else (1.0 - w)
            if bit:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
        reached = {base}
        queue = [base]
        while queue:
            v = queue.pop()
            for w_ in adj.get(v, ()):
                if w_ not in reached:
                    reached.add(w_)
                    queue.append(w_)
        for t in targets:
            if t in reached:
                probs[t].append(weight)
    return {t: math.fsum(v) for t, v in probs.items()}


def naive_connect_probs(region: Region, param: float) -> dict[Vertex, float]:
    edges = [(a, b, edge_weight(region.lattice, j, param))
             for a, b, j in region.internal_edges]
    raw = naive_event_prob(len(region), edges, 0, list(range(len(region))))
    return {v: raw[i] for i, v in enumerate(region.vertices)}


# ---------------------------------------------------------------------------
# Ising observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactIsing:
    """Finite-volume Gibbs expectations on a region.

    ``correlations[x]`` = <sigma_base sigma_x>, ``magnetizations[x]`` =
    <sigma_x>, ``log_z`` the log partition function relative to exp(-H) of
    the all-plus configuration.
    """

    region: Region
    beta: float
    h: float
    correlations: dict[Vertex, float]
    magnetizations: dict[Vertex, float]
    log_z: float


def all_plus_energy(region: Region, beta: float, h: float) -> float:
    """H of the all-plus configuration: -beta * sum_int J - h * |S|.

    Guards the single-count pair convention; the tables count weights
    relative to this ground-state weight.
    """
    j_sum = math.fsum(j for _, _, j in region.internal_edges)
    return -beta * j_sum - h * len(region)


class SpinTables:
    """Integer tables of the Gibbs sums of one region.

    Axis c < C counts the unsatisfied pairs (sigma_a != sigma_b) of
    coupling class c, the last axis the minus spins.  Over the spin
    assignments with those counts, ``z`` is their number, ``mags[x]`` the
    sum of sigma_x and ``corrs[x]`` the sum of sigma_base sigma_x.
    """

    def __init__(self, region: Region):
        edges = region.internal_edges
        n = len(region)
        self.region = region
        self.js, self.sizes = _coupling_classes(j for _, _, j in edges)
        shape = tuple(s + 1 for s in self.sizes) + (n + 1,)
        strides = _strides(shape)
        pair_step = [strides[self.js.index(j)] for _, _, j in edges]
        # row 0: all assignments; row 1 + x: sigma_x = -1;
        # row 1 + n + x: sigma_x != sigma_base
        tallies = np.zeros((1 + 2 * n, math.prod(shape)), dtype=np.int64)
        for down in _bit_chunks(n):
            flat = down.sum(axis=0, dtype=np.int64)  # the last axis has step 1
            for (a, b, _), step in zip(edges, pair_step):
                flat += step * (down[a] != down[b])
            tallies[0] += np.bincount(flat, minlength=tallies.shape[1])
            for x in range(n):
                tallies[1 + x] += np.bincount(flat[down[x]],
                                              minlength=tallies.shape[1])
                tallies[1 + n + x] += np.bincount(flat[down[x] != down[0]],
                                                  minlength=tallies.shape[1])
        tallies = tallies.reshape((1 + 2 * n,) + shape)
        self.z = tallies[0]
        self.mags = self.z - 2 * tallies[1:1 + n]
        self.corrs = self.z - 2 * tallies[1 + n:]

    def observables(self, beta: float, h: float) -> ExactIsing:
        factors = [np.exp(-2.0 * beta * j * np.arange(s + 1))
                   for j, s in zip(self.js, self.sizes)]
        factors.append(np.exp(-2.0 * h * np.arange(len(self.region) + 1)))
        z = _table_sum(self.z, factors)
        vertices = self.region.vertices
        return ExactIsing(
            self.region, beta, h,
            correlations={v: _table_sum(t, factors) / z
                          for v, t in zip(vertices, self.corrs)},
            magnetizations={v: _table_sum(t, factors) / z
                            for v, t in zip(vertices, self.mags)},
            log_z=math.log(z) - all_plus_energy(self.region, beta, h),
        )


@lru_cache(maxsize=256)
def _spin_tables(region: Region) -> SpinTables:
    return SpinTables(region)


def ising_observables(region: Region, beta: float, h: float) -> ExactIsing:
    """Exact expectations from the region's tables over all 2^|S| spin states."""
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    n = len(region)
    if n > SPIN_CAP:
        raise CapExceeded("spin enumeration", n, SPIN_CAP)
    return _spin_tables(region).observables(beta, h)


def naive_ising_observables(region: Region, beta: float, h: float) -> ExactIsing:
    """Reference implementation: plain Python loop over spin assignments."""
    n = len(region)
    if n > 14:
        raise CapExceeded("naive spin enumeration", n, 14)
    z_terms, mag_terms, corr_terms = [], [[] for _ in range(n)], [[] for _ in range(n)]
    e_plus = all_plus_energy(region, beta, h)
    for assignment in itertools.product((1, -1), repeat=n):
        energy = 0.0
        for a, b, j in region.internal_edges:
            energy -= beta * j * assignment[a] * assignment[b]
        energy -= h * sum(assignment)
        w = math.exp(e_plus - energy)
        z_terms.append(w)
        for v in range(n):
            mag_terms[v].append(w * assignment[v])
            corr_terms[v].append(w * assignment[0] * assignment[v])
    z = math.fsum(z_terms)
    return ExactIsing(
        region, beta, h,
        correlations={v: math.fsum(corr_terms[i]) / z
                      for i, v in enumerate(region.vertices)},
        magnetizations={v: math.fsum(mag_terms[i]) / z
                        for i, v in enumerate(region.vertices)},
        log_z=math.log(z) - e_plus,
    )
