"""Exact finite-volume computations.

Percolation: a frontier DP (frontier-based search, Knuth TAOCP 7.1.4)
sweeps a region's vertices in a fixed order (lexicographic, with the axis
of largest extent as the primary key), each with its bonds to the vertices
swept before it.  *Ties* are extra bonds (vertex, coupling) into a set the
internal bonds cannot reach; they become bonds to one permanent
pseudo-vertex T, all ties of a vertex merged into one bond of open
probability -expm1(sum log1p(-q_i)), which keeps its relative accuracy for
small weights.  A state is the partition into connected blocks of the
swept vertices that still have unswept neighbours (the frontier), T's
block labelled 0, with each block's pending coefficient sum; a block's sum
moves into T's slot when it joins T and is dropped when it leaves the
frontier without T.  One sweep gives sum_v c_v P[v reaches the tied set]
for every column of coefficients c.  The transitions do not depend on the
parameter: ``_frontier_plan`` builds them once per (region, ties), and an
evaluation is a few ``np.bincount`` calls per vertex.  Connection to the
base point is one always-open tie there; the exit event ties every
boundary pair of ball(n).

Ising: with H(sigma) = -beta * sum_{internal pairs {x,y}} J_xy sigma_x
sigma_y - h * sum_x sigma_x (each unordered pair counted once), a spin
assignment weighs prod_c u_c^k_c * v^m relative to the all-plus state,
where k_c counts the unsatisfied pairs of coupling class c, m the minus
spins, u_c = exp(-2 beta J_c) and v = exp(-2h).  ``SpinTables`` enumerates
all 2^|S| assignments once per region (``_bit_chunks``) and tabulates by
(k, m) their number and their sums of sigma_x and of sigma_base sigma_x;
each evaluation is a compensated sum of count * monomial terms
(``_table_sum``).

Both engines refuse (``CapExceeded``) beyond fixed caps: a percolation
frontier wider than ``FRONTIER_CAP`` vertices, checked before any state
is built, a layer of more than ``BRANCH_CAP`` branch rows, checked before
the layer is built, and more than ``SPIN_CAP`` spins.  Plain-Python enumerators
(``naive_*``) are kept alongside as the oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded
from .lattice import LatticeSpec, Region, Vertex, ball, edge_weight

# admits square ball(4) and triangular ball(3); bounds a layer by Bell(10) =
# 115,975 states on any lattice
FRONTIER_CAP = 9
# branch rows (states x 2^ops) of one layer of the plan, about 1.5 KB of
# temporaries each: a vertex with m ops branches 2^m ways, which the width
# cap does not bound off the planar lattices.  The largest layer in use is
# the exit plan of triangular ball(3), 22,880 rows
BRANCH_CAP = 1 << 15
SPIN_CAP = 22

_CHUNK_BITS = 18  # configurations per vectorized chunk


# ---------------------------------------------------------------------------
# percolation inside a region: the frontier DP
# ---------------------------------------------------------------------------

def _vertex_order(region: Region) -> list[int]:
    """Region indices in sweep order: lexicographic, with the axis of
    largest extent (the first such axis) as the primary key."""
    vertices = region.vertices
    extent = [max(c) - min(c) for c in zip(*vertices)]
    axis = extent.index(max(extent))
    return sorted(range(len(vertices)),
                  key=lambda i: (vertices[i][axis],) + vertices[i])


class _Step(NamedTuple):
    """The sweep of one vertex, over every state of a layer.

    The vertex joins the frontier in a block of its own, or in the tied
    set's block if its tie is always open.  Then each of ``ops`` (a tie
    that is not always open, as the number of bonds plus the vertex index,
    and the vertex's bonds to swept vertices) is closed or open: branch b
    opens op i iff bit i of b is set.  Last, the vertices whose last
    neighbour is swept leave the frontier.

    ``p_dst[b * n + s]`` is the next state of state s on branch b.  A
    state's slot 0 holds the pending weight already joined to the tied
    set, slot k >= 1 that of its frontier block k.  Entry i adds slot
    ``w_src[i]`` on branch ``w_branch[i]`` to next slot ``w_dst[i]``; a
    source index past the layer's slots, their number plus s, stands for
    the vertex's coefficient on state s.  ``n_states`` and ``n_slots``
    count the next layer's states and slots.
    """

    vertex: int
    ops: tuple[int, ...]
    p_dst: np.ndarray
    w_src: np.ndarray
    w_dst: np.ndarray
    w_branch: np.ndarray
    n_states: int
    n_slots: int


@lru_cache(maxsize=32)
def _frontier_plan(region: Region, tied: tuple[int, ...],
                   always_open: frozenset[int]) -> tuple[_Step, ...]:
    """The parameter-free steps of the sweep of ``region`` with a tie on
    every vertex of ``tied``, always open on those of ``always_open``;
    ``CapExceeded`` past ``FRONTIER_CAP``, before any state is built, and
    past ``BRANCH_CAP`` rows in a layer, before that layer is built.

    A state is the partition of the frontier into blocks, in canonical
    labels: 0 for the block joined to the tied set, then 1, 2, ... in
    order of first appearance.
    """
    edges = region.internal_edges
    n_bonds = len(edges)
    order = _vertex_order(region)
    pos = [0] * len(order)
    for t, v in enumerate(order):
        pos[v] = t
    last = pos[:]  # the sweep position after which a vertex leaves
    back: list[list[tuple[int, int]]] = [[] for _ in order]
    for e, (a, b, _) in enumerate(edges):
        if pos[a] > pos[b]:
            a, b = b, a
        back[b].append((pos[a], e))
        last[a] = max(last[a], pos[b])
    cover = [0] * (len(order) + 1)
    for v in order:
        cover[pos[v]] += 1
        cover[last[v] + 1] -= 1
    width = max(itertools.accumulate(cover))
    if width > FRONTIER_CAP:
        raise CapExceeded("percolation frontier", width, FRONTIER_CAP)

    frontier: list[int] = []
    layer = np.zeros((1, 0), dtype=np.int64)  # one row of labels per state
    sizes = np.ones(1, dtype=np.int64)  # slots per state: 1 + largest label
    offsets = np.arange(2)  # of each state's slots, and their total
    steps = []
    for t, v in enumerate(order):
        ops = [e for _, e in sorted(back[v])]
        if v in tied and v not in always_open:
            ops.insert(0, n_bonds + v)
        n = len(layer)
        if n << len(ops) > BRANCH_CAP:
            raise CapExceeded("percolation frontier branches", n << len(ops),
                              BRANCH_CAP)
        entry = 0 * sizes if v in always_open else sizes
        labels = np.tile(np.hstack((layer, entry[:, None])),
                         (1 << len(ops), 1))
        index = np.arange(len(labels))
        rows = index[:, None]
        source, branch = index % n, index // n
        old = np.arange(int(sizes.max()))
        slot_of = old  # where each old slot's block went
        inside = frontier + [v]
        for i, op in enumerate(ops):
            # open: merge block hi into block lo; closed: lo = hi = 0
            if op >= n_bonds:
                hi = labels[:, -1]
                lo = 0 * hi
            else:
                ends = labels[:, [inside.index(x) for x in edges[op][:2]]]
                lo, hi = ends.min(axis=1), ends.max(axis=1)
            shut = (branch >> i & 1 == 0)[:, None]
            lo = np.where(shut, 0, lo[:, None])
            hi = np.where(shut, 0, hi[:, None])
            labels = np.where(labels == hi, lo, labels)
            slot_of = np.where(slot_of == hi, lo, slot_of)
        keep = [i for i, x in enumerate(inside) if last[x] > t]
        frontier = [inside[i] for i in keep]
        merged = labels[:, keep]
        # canonical labels: 0 stays, the others by first appearance
        canon = np.full((len(index), len(old) + 1), -1)
        canon[:, 0] = 0
        count = np.ones(len(index), dtype=np.int64)
        for column in merged.T:
            new = canon[index, column] < 0
            canon[index[new], column[new]] = count[new]
            count += new
        # a row read as base-(len(keep) + 1) digits; below 2^63 for the
        # widths FRONTIER_CAP admits
        base = len(keep) + 1
        digits = base ** np.arange(len(keep))
        keys, dst = np.unique(canon[rows, merged] @ digits,
                              return_inverse=True)
        layer = keys[:, None] // digits % base
        # every slot of a state, and the vertex's coefficient, goes to its
        # block's new slot, or is dropped with a block that left
        slot = canon[rows, slot_of]
        r, k = np.nonzero((old < sizes[source][:, None]) & (slot >= 0))
        mine = canon[index, labels[:, -1]]
        (c,) = np.nonzero(mine >= 0)
        sizes = 1 + layer.max(axis=1, initial=0)
        next_offsets = np.concatenate(([0], np.cumsum(sizes)))
        steps.append(_Step(
            vertex=v, ops=tuple(ops), p_dst=dst,
            w_src=np.concatenate((offsets[source[r]] + k,
                                  offsets[-1] + source[c])),
            w_dst=np.concatenate((next_offsets[dst[r]] + slot[r, k],
                                  next_offsets[dst[c]] + mine[c])),
            w_branch=np.concatenate((branch[r], branch[c])),
            n_states=len(layer), n_slots=int(next_offsets[-1])))
        offsets = next_offsets
    return tuple(steps)


def perc_reach(region: Region, ties: tuple[tuple[int, float], ...],
               param: float, coeffs: np.ndarray) -> np.ndarray:
    """sum_v coeffs[v, k] * P[v reaches the tied set], for every column k.

    ``ties`` are bonds ``(vertex index, coupling)`` into a set the region's
    bonds cannot reach; coupling ``math.inf`` marks an always-open tie.
    All ties of a vertex merge into one bond of open probability
    -expm1(sum log1p(-q_i)), which keeps small weights accurate.
    """
    lattice = region.lattice
    log_closed: dict[int, float] = {}
    for v, j in ties:
        w = 1.0 if j == math.inf else edge_weight(lattice, j, param)
        log_closed[v] = (log_closed.get(v, 0.0)
                         + (math.log1p(-w) if w < 1.0 else -math.inf))
    steps = _frontier_plan(region, tuple(sorted(log_closed)),
                           frozenset(v for v, j in ties if j == math.inf))
    opened = [edge_weight(lattice, j, param)
              for _, _, j in region.internal_edges]
    closed = [1.0 - w for w in opened]
    for v in range(len(region)):
        lc = log_closed.get(v, 0.0)
        opened.append(-math.expm1(lc))
        closed.append(math.exp(lc))
    coeffs = np.asarray(coeffs, dtype=float)
    k = coeffs.shape[1]
    columns = np.arange(k)
    prob = np.ones(1)
    pending = np.zeros(k)  # column c of slot i at i * k + c
    for step in steps:
        weights = [1.0]  # of each branch
        for op in step.ops:
            weights = ([w * closed[op] for w in weights]
                       + [w * opened[op] for w in weights])
        weights = np.array(weights)
        pending = np.concatenate((pending,
                                  np.outer(prob, coeffs[step.vertex]).ravel()))
        src, dst, branch = step.w_src, step.w_dst, step.w_branch
        if k > 1:
            src = (src[:, None] * k + columns).ravel()
            dst = (dst[:, None] * k + columns).ravel()
            branch = np.repeat(branch, k)
        pending = np.bincount(dst, pending[src] * weights[branch],
                              minlength=step.n_slots * k)
        prob = np.bincount(step.p_dst, np.outer(weights, prob).ravel(),
                           minlength=step.n_states)
    return pending


def perc_connect_probs(region: Region, param: float) -> dict[Vertex, float]:
    """Exact P[base point <-> x inside S] for every x in S.

    The base point (index 0 in canonical order) carries one always-open
    tie; the sweep carries one coefficient column per vertex.
    """
    reach = perc_reach(region, ((0, math.inf),), param, np.eye(len(region)))
    return dict(zip(region.vertices, reach.tolist()))


def perc_exit_prob(lattice: LatticeSpec, n: int, param: float) -> float:
    """Exact P[origin <-> complement of ball(n)]: every boundary pair of
    ball(n) is a tie, and the origin's cluster must carry an open one."""
    region = ball(lattice, n)
    ties = tuple((i, j) for i, _, j in region.boundary_pairs)
    origin = np.zeros((len(region), 1))
    origin[0] = 1.0
    return float(perc_reach(region, ties, param, origin)[0])


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
