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
parameter: ``_frontier_plan`` builds them once per (region, ties); an
evaluation is a few ``np.bincount`` calls per vertex.  Connection to the
base point is one always-open tie there (``BASE_POINT_TIE``); the exit
event ties every boundary pair of ball(n).

Ising: with H(sigma) = -beta * sum_{internal pairs {x,y}} J_xy sigma_x
sigma_y - h * sum_x sigma_x (each unordered pair counted once), a spin
assignment weighs exp(-2 (beta * E + h * m)) relative to the all-plus
state, E summing J over the unsatisfied pairs and m counting minus spins.
A transfer matrix (Kramers-Wannier) sweeps the same order, carrying Z
and, per coefficient column c, sum_x c_x sigma_x Z in one array with a
length-2 axis per frontier spin (the base point's kept to the end); a
bond's energy is a 2x2 block on its ends' axes.  A leaving spin's axis is
summed out, so a state and its flipped partner get the same sums in the
same order: at h = 0 every magnetization is exactly 0.

Both engines take a sequence of K parameters (for Ising, K (beta, h)
pairs) in place of one, a lane each, with one coefficient matrix per
parameter or one for all of them.  A lane is an axis of the spin state;
in percolation parameter q's column c is column q * columns + c of one
sweep, with branch weights per parameter (scalar ones for one parameter).
Each column is summed in the same order as in a sweep of its own, so the
values are bit for bit the same.  So does every observable built on them:
``perc_connect_probs``, ``perc_exit_prob`` and ``ising_observables`` take
one parameter or a sequence, and a sequence gives each array a leading
parameter axis whose row q is bit for bit the call at parameter q.
Per-vertex observables are arrays in region-index order (``Region.index``).

A percolation lane may also carry a mask over the region's bonds
(``keep``): a bond the mask leaves out is closed in that lane, and a lane
that keeps every bond is bit for bit its parameter's plain sweep.  A mask
needs a sequence of parameters, one row each.  So one sweep serves every
subset S of a region: with the bonds leaving S masked out and zero
coefficients outside S, a lane computes on S.

Both engines refuse (``CapExceeded``) work past ``PLAN_BYTES`` before it
is done: the percolation plan counts its bytes so far plus the next
layer's before each layer (and a state key holds 15 frontier vertices at
most), and ``_lanes`` splits a grid into sweeps of lanes that fit,
refused only where one lane, counted from the widest layer's rows
(2^(frontier spins) for Ising), would pass it; ``sweep_lanes`` gives
that number of lanes for a percolation sweep.  Each engine keeps only its
last plan or spin layout: every caller sweeps one region (and tie set) at
a time, so the one plan held is within ``PLAN_BYTES`` as built.
Plain-Python enumerators (``naive_*``) are kept alongside as the oracles.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded
from .lattice import LatticeSpec, Region, ball, edge_weight

# bytes a percolation plan, or a sweep's lane at 256 per row and column,
# may hold: triangular ball(4)'s plan (208 MiB) and one column of 2^21
# spin rows (square ball(10)) fit, for a peak RSS of about 700 MB at most;
# only the last plan and the last spin layout are kept
PLAN_BYTES = 512 << 20
# rows of the widest layer times coefficient columns times lanes per sweep
LANE_CELLS = 1 << 16
# the tie that makes "reaches the tied set" mean "is connected to the base
# point": an always-open bond from the base point (index 0)
BASE_POINT_TIE = ((0, math.inf),)


# ---------------------------------------------------------------------------
# the sweep both models share, and percolation's frontier DP
# ---------------------------------------------------------------------------

def _vertex_order(region: Region) -> list[int]:
    """Region indices in sweep order: lexicographic, with the axis of
    largest extent (the first such axis) as the primary key."""
    vertices = region.vertices
    extent = [max(c) - min(c) for c in zip(*vertices)]
    axis = extent.index(max(extent))
    return sorted(range(len(vertices)),
                  key=lambda i: (vertices[i][axis],) + vertices[i])


def _sweep(region: Region, stay: int | None = None):
    """The skeleton both frontier sweeps of ``region`` share: the region
    indices in sweep order; per vertex, its bonds to vertices swept before
    it (in their sweep order) and the sweep position after which it leaves
    the frontier, its last neighbour's or its own (never, for ``stay``);
    and per sweep position, how many vertices are on the frontier, the one
    swept included.
    """
    order = _vertex_order(region)
    pos = [0] * len(order)
    for t, v in enumerate(order):
        pos[v] = t
    last = pos[:]
    if stay is not None:
        last[stay] = len(order)
    back: list[list[tuple[int, int]]] = [[] for _ in order]
    for e, (a, b, _) in enumerate(region.internal_edges):
        if pos[a] > pos[b]:
            a, b = b, a
        back[b].append((pos[a], e))
        last[a] = max(last[a], pos[b])
    cover = [0] * (len(order) + 2)
    for v in order:
        cover[pos[v]] += 1
        cover[last[v] + 1] -= 1
    return (order, [[e for _, e in sorted(b)] for b in back], last,
            list(itertools.accumulate(cover[:len(order)])))


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


class _Plan(NamedTuple):
    """The steps of a percolation sweep, and the branch rows of its widest
    layer, against which a lane's columns are counted."""

    steps: tuple
    rows: int


@lru_cache(maxsize=1)
def _frontier_plan(region: Region, tied: tuple[int, ...],
                   always_open: frozenset[int]) -> _Plan:
    """The parameter-free plan of the sweep of ``region`` with a tie on
    every vertex of ``tied``, always open on those of ``always_open``;
    ``CapExceeded`` past 15 frontier vertices, before any state is built,
    and where the plan so far and the next layer's build would pass
    ``PLAN_BYTES``, before that layer is built.  The last plan is kept.

    A state is the partition of the frontier into blocks, in canonical
    labels: 0 for the block joined to the tied set, then 1, 2, ... in
    order of first appearance.
    """
    edges = region.internal_edges
    n_bonds = len(edges)
    order, back, last, widths = _sweep(region)
    width = max(widths)
    # a state key reads the labels as base-(width + 1) digits of an int64,
    # so (width + 1) ** width must stay below 2^63: 15 vertices at most
    if (width + 1) ** width >= 1 << 63:
        raise CapExceeded("percolation frontier", width, 15)

    frontier: list[int] = []
    layer = np.zeros((1, 0), dtype=np.int64)  # one row of labels per state
    sizes = np.ones(1, dtype=np.int64)  # slots per state: 1 + largest label
    offsets = np.arange(2)  # of each state's slots, and their total
    steps = []
    held = 0  # bytes of the steps built
    for t, v in enumerate(order):
        ops = list(back[v])
        if v in tied and v not in always_open:
            ops.insert(0, n_bonds + v)
        n = len(layer)
        # at most 8 (6 w + 32) bytes per branch row to build a layer of w
        # frontier vertices, its step included (tracemalloc)
        need = held + (n << len(ops)) * 8 * (6 * widths[t] + 32)
        if need > PLAN_BYTES:
            raise CapExceeded("percolation plan bytes", need, PLAN_BYTES)
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
        # a row read as base-(len(keep) + 1) digits
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
        held += sum(a.nbytes for a in steps[-1] if isinstance(a, np.ndarray))
        offsets = next_offsets
    return _Plan(tuple(steps), max(len(step.p_dst) for step in steps))


def _op_weights(region: Region, ties: tuple[tuple[int, float], ...],
                param: float) -> tuple[list[float], list[float]]:
    """Open and closed probability of every op at ``param``: the region's
    bonds, then one merged tie per vertex (open with probability 0 on a
    vertex without ties)."""
    lattice = region.lattice
    log_closed: dict[int, float] = {}
    for v, j in ties:
        w = 1.0 if j == math.inf else edge_weight(lattice, j, param)
        log_closed[v] = (log_closed.get(v, 0.0)
                         + (math.log1p(-w) if w < 1.0 else -math.inf))
    opened = [edge_weight(lattice, j, param)
              for _, _, j in region.internal_edges]
    closed = [1.0 - w for w in opened]
    for v in range(len(region)):
        lc = log_closed.get(v, 0.0)
        opened.append(-math.expm1(lc))
        closed.append(math.exp(lc))
    return opened, closed


def perc_reach(region: Region, ties: tuple[tuple[int, float], ...],
               param, coeffs: np.ndarray, keep=None) -> np.ndarray:
    """sum_v coeffs[v, k] * P[v reaches the tied set], for every column k.

    ``ties`` are bonds ``(vertex index, coupling)`` into a set the region's
    bonds cannot reach; coupling ``math.inf`` marks an always-open tie.
    All ties of a vertex merge into one bond of open probability
    -expm1(sum log1p(-q_i)), which keeps small weights accurate.

    ``param`` may be a sequence of K parameters, with ``coeffs`` of shape
    (K, vertices, columns), one matrix per parameter, or (vertices,
    columns) for all of them; row q of the (K, columns) result is then bit
    for bit the value at ``param[q]`` alone.  ``keep``, a (K, bonds)
    boolean array over ``region.internal_edges``, closes in lane q every
    bond that its row q leaves unmarked (open weight 0, closed weight 1);
    every other op keeps its weight, so a full row changes nothing.
    """
    one = isinstance(param, numbers.Real)
    params = None if one else list(param)
    coeffs, keep = _lane_inputs(region, params, coeffs, keep)
    plan = _tied_plan(region, ties)
    chunk = _lanes(plan.rows, coeffs.shape[-1])
    if one:
        return _perc_sweep(plan.steps, *_op_weights(region, ties, param),
                           coeffs)
    n_params, n_vertices, k = coeffs.shape
    return np.concatenate([
        _perc_sweep(plan.steps, *_lane_weights(
            region, ties, params[i:i + chunk],
            None if keep is None else keep[i:i + chunk]),
            coeffs[i:i + chunk].transpose(1, 0, 2)
            .reshape(n_vertices, -1)).reshape(-1, k)
        for i in range(0, n_params, chunk)])


def _tied_plan(region: Region, ties: tuple[tuple[int, float], ...]
               ) -> _Plan:
    """The plan of ``region`` for the tied vertices of ``ties``."""
    return _frontier_plan(region, tuple(sorted({v for v, _ in ties})),
                          frozenset(v for v, j in ties if j == math.inf))


def _lane_inputs(region: Region, params, coeffs, keep=None):
    """``coeffs`` as floats of shape (vertices, columns) at one parameter
    (``params`` None), or (K, vertices, columns) at the K of ``params``, a
    (vertices, columns) matrix serving all K, and ``keep`` (or None) as a
    (K, bonds) boolean array; ValueError, naming the shape, unless each
    has it (with a column at least), if K is 0, or for a mask beside one
    parameter."""
    coeffs, n = np.asarray(coeffs, dtype=float), len(region)
    lead = () if params is None else (len(params),)
    if lead == (0,):
        raise ValueError("need at least one parameter")
    given = coeffs.shape
    if lead and coeffs.ndim == 2:
        coeffs = np.broadcast_to(coeffs, lead + given)
    if coeffs.shape[:-1] != lead + (n,) or coeffs.shape[-1] == 0:
        want = f"({n}, columns)"
        if lead:
            want = f"({lead[0]}, {n}, columns) or {want}"
        raise ValueError(f"coefficients must have shape {want} with at "
                         f"least one column, not {given}")
    if keep is None:
        return coeffs, None
    if not lead:
        raise ValueError("a bond mask needs a sequence of parameters")
    want = lead + (len(region.internal_edges),)
    if np.shape(keep) != want:
        raise ValueError(f"a bond mask must have shape {want}, not "
                         f"{np.shape(keep)}")
    return coeffs, np.asarray(keep, dtype=bool)


def sweep_lanes(region: Region, columns: int,
                ties: tuple[tuple[int, float], ...]) -> int:
    """:func:`_lanes` of the percolation sweep of ``region`` with
    ``ties``."""
    return _lanes(_tied_plan(region, ties).rows, columns)


def _lanes(rows: int, columns: int) -> int:
    """Lanes of ``columns`` columns per sweep whose widest layer has
    ``rows`` rows: rows times columns times lanes within ``LANE_CELLS``,
    one at least; ``CapExceeded`` if one lane, at 256 bytes per row and
    column (tracemalloc), passes ``PLAN_BYTES``."""
    cells = rows * columns
    if 256 * cells > PLAN_BYTES:
        raise CapExceeded("sweep lane bytes", 256 * cells, PLAN_BYTES)
    return max(1, LANE_CELLS // cells)


def _lane_weights(region: Region, ties: tuple[tuple[int, float], ...],
                  params: list, keep) -> tuple[np.ndarray, np.ndarray]:
    """The open and closed probability of every op (row) in every lane
    (column): :func:`_op_weights` at the lane's parameter, taken once per
    distinct parameter, with the bonds that ``keep`` leaves unmarked in a
    lane closed."""
    values, lane = np.unique(np.asarray(params, dtype=float),
                             return_inverse=True)
    opened, closed = (np.array(w).T[:, lane] for w in zip(
        *(_op_weights(region, ties, t) for t in values.tolist())))
    if keep is not None:
        kept = keep.T
        opened[:len(kept)] = np.where(kept, opened[:len(kept)], 0.0)
        closed[:len(kept)] = np.where(kept, closed[:len(kept)], 1.0)
    return opened, closed


def _perc_sweep(steps: tuple[_Step, ...], opened, closed,
                coeffs: np.ndarray) -> np.ndarray:
    """The frontier sweep of ``steps`` in K lanes, given the open and
    closed probability of every op: lists over the ops for one lane, or
    (ops, K) arrays; ``coeffs[v, q * k + c]`` is lane q's coefficient
    column c, and so is entry q * k + c of the result.

    With one lane the branch weights are plain floats; otherwise each is
    an array over the lanes.
    """
    if isinstance(opened, np.ndarray) and opened.shape[1] == 1:
        opened, closed = opened[:, 0].tolist(), closed[:, 0].tolist()
    n_params = 1 if isinstance(opened, list) else opened.shape[1]
    m = coeffs.shape[1]
    k = m // n_params
    if n_params == 1:
        one = 1.0
        prob = np.ones(1)
    else:
        one = np.ones(n_params)
        prob = np.ones((1, n_params))
        lanes = np.arange(n_params)
    columns = np.arange(m)
    pending = np.zeros(m)  # column c of slot i at i * m + c
    for step in steps:
        weights = [one]  # of each branch
        for op in step.ops:
            weights = ([w * closed[op] for w in weights]
                       + [w * opened[op] for w in weights])
        weights = np.array(weights)
        if n_params == 1:
            entering = np.outer(prob, coeffs[step.vertex])
            prob = np.bincount(step.p_dst, np.outer(weights, prob).ravel(),
                               minlength=step.n_states)
        else:
            entering = np.repeat(prob, k, axis=1) * coeffs[step.vertex]
            prob = np.bincount((step.p_dst[:, None] * n_params
                                + lanes).ravel(),
                               (weights[:, None] * prob).ravel(),
                               minlength=step.n_states * n_params
                               ).reshape(-1, n_params)
        pending = np.concatenate((pending, entering.ravel()))
        src, dst, factor = step.w_src, step.w_dst, weights[step.w_branch]
        if m > 1:
            src = (src[:, None] * m + columns).ravel()
            dst = (dst[:, None] * m + columns).ravel()
            factor = (np.repeat(factor, k, axis=-1) if k > 1
                      else factor).ravel()
        pending = np.bincount(dst, pending[src] * factor,
                              minlength=step.n_slots * m)
    return pending


def perc_connect_probs(region: Region, param) -> np.ndarray:
    """Exact P[base point <-> x inside S] for every x in S, in region
    order, or one such row per parameter of a sequence, from one sweep
    with a coefficient column per vertex."""
    return perc_reach(region, BASE_POINT_TIE, param, np.eye(len(region)))


def perc_exit_prob(lattice: LatticeSpec, n: int, param):
    """Exact P[origin <-> complement of ball(n)]: every boundary pair of
    ball(n) is a tie, and the origin's cluster must carry an open one.
    A sequence of parameters gives an array, from one sweep."""
    region = ball(lattice, n)
    ties = tuple((i, j) for i, _, j in region.boundary_pairs)
    origin = np.zeros((len(region), 1))
    origin[0] = 1.0
    reach = perc_reach(region, ties, param, origin)[..., 0]
    return float(reach) if isinstance(param, numbers.Real) else reach


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


def naive_connect_probs(region: Region, param: float) -> np.ndarray:
    """Reference :func:`perc_connect_probs` at one parameter."""
    edges = [(a, b, edge_weight(region.lattice, j, param))
             for a, b, j in region.internal_edges]
    raw = naive_event_prob(len(region), edges, 0, list(range(len(region))))
    return np.array([raw[i] for i in range(len(region))])


# ---------------------------------------------------------------------------
# Ising observables
# ---------------------------------------------------------------------------

class _SpinLayout(NamedTuple):
    """The spin sweep of a region as O(vertices) bookkeeping.  The state is
    C-contiguous: lane, column, then a length-2 axis per frontier spin.

    Per vertex, ``steps`` holds its region index; the transpose putting
    the m spins it has bonds to first, in sweep order; the state's shape
    past lane and column, as (2^m, 1, 2^rest) before the vertex's axis goes
    in after the m and as length-2 axes once it is in; its window of 2^m
    pairs; and the indexes of the two halves of each spin that leaves, the
    last first.  Per pair and spin of the vertex, ``energy`` is the sum
    of -2 J [sigma_a != sigma_v] over its back bonds, added in order.
    ``rows`` is 2^(widest frontier, the vertex swept included).
    """

    steps: tuple
    rows: int
    energy: np.ndarray


@lru_cache(maxsize=1)
def _spin_steps(region: Region) -> _SpinLayout:
    """The spin sweep of ``region``, the base point (index 0) kept on the
    frontier to the end."""
    edges = region.internal_edges
    order, back, last, widths = _sweep(region, stay=0)
    _lanes(1 << max(widths), 1)  # refuse a region too wide for one column
    frontier: list[int] = []  # the state's spin axes, outermost first
    steps, window = [], slice(0, 0)
    for t, v in enumerate(order):
        # back bonds run in sweep order, and every far end is on the frontier
        near = [a if b == v else b for a, b, _ in (edges[e] for e in back[v])]
        rest = [x for x in frontier if x not in near]
        m, inside = len(near), near + [v]
        window = slice(window.stop, window.stop + (1 << m))
        steps.append((
            v, (0, 1) + tuple(2 + frontier.index(x) for x in near + rest),
            (1 << m, 1, 1 << len(rest)), (2,) * (m + 1 + len(rest)), window,
            [((slice(None),) * (2 + i) + (0,), (slice(None),) * (2 + i) + (1,))
             for i in reversed(range(m + 1)) if last[inside[i]] <= t]))
        frontier = [x for x in inside if last[x] > t] + rest
    # per pair of the windows: its step, its index in its window, and per
    # back bond i of the step's vertex (J = 0 past the last) the far end's
    # spin, bit m - 1 - i of that index
    ms = np.array([len(back[v]) for v in order])
    step = np.repeat(np.arange(len(order)), 1 << ms)
    index = np.concatenate([np.arange(1 << m) for m in ms])
    shift = np.maximum(ms[step] - 1 - np.arange(ms.max())[:, None], 0)
    unequal = (index >> shift & 1)[..., None] != np.arange(2)
    bonds = np.array([back[v] + [-1] * (ms.max() - len(back[v]))
                      for v in order], dtype=int)[step].T
    couplings = np.array([j for _, _, j in edges] + [0.0])
    terms = -2.0 * couplings[bonds, None] * unequal
    # starting from +0 can only turn a -0 sum into +0: the same exp
    energy = sum(terms, np.zeros(terms.shape[1:]))
    return _SpinLayout(tuple(steps), 1 << max(widths), energy[..., None])


def ising_sums(region: Region, beta, h,
               coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z and sum_x coeffs[x, k] sigma_x Z for every column k, split by the
    base point's spin (s = 0 for +1, 1 for -1): ``z[s]`` and ``acc[s, k]``,
    weights relative to the all-plus state; ``CapExceeded`` as
    :func:`_lanes` says.  At h = 0, ``z[1] == z[0]`` and ``acc[1] ==
    -acc[0]`` exactly.

    ``beta`` and ``h`` may be sequences (or one a sequence, the other a
    number) giving K pairs, with ``coeffs`` of shape (K, vertices, columns),
    or (vertices, columns) for all of them: then ``z`` has shape (K, 2) and
    ``acc`` (K, 2, columns), row q bit for bit the sums at the q-th pair
    alone, from as few sweeps as :func:`_lanes` allows.
    """
    one = isinstance(beta, numbers.Real) and isinstance(h, numbers.Real)
    betas, hs = (a.reshape(-1, 1, 1, 1, 1) for a in np.broadcast_arrays(
        np.asarray(beta, dtype=float), np.asarray(h, dtype=float)))
    values = betas.ravel().tolist()
    if any(b < 0.0 for b in values):  # NaN is neither this nor finite
        raise ValueError("beta must be non-negative")
    if not all(map(math.isfinite, values + hs.ravel().tolist())):
        raise ValueError("beta and h must be finite")
    coeffs, _ = _lane_inputs(region, None if one else betas, coeffs)
    coeffs = coeffs.reshape(len(betas), len(region), -1)
    layout = _spin_steps(region)
    chunk = _lanes(layout.rows, coeffs.shape[-1])
    z, acc = (np.concatenate(part) for part in zip(*(
        _spin_sweep(layout, betas[i:i + chunk], hs[i:i + chunk],
                    coeffs[i:i + chunk])
        for i in range(0, len(betas), chunk))))
    return (z[0], acc[0]) if one else (z, acc)


def _spin_sweep(layout: _SpinLayout, beta: np.ndarray, h: np.ndarray,
                coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spin sweep of ``layout`` at K (beta, h) pairs, (K, 1, 1, 1, 1)
    arrays, with ``coeffs`` (K, vertices, columns): ``z`` (K, 2) and
    ``acc`` (K, 2, columns).  The state holds Z in column 0 and the sums
    after it.  A vertex adds its axis and Z sigma_v c_v to the sums (c = 0
    leaves Z as it is; Z (sigma_v c_v) = (Z sigma_v) c_v for sigma_v =
    +-1), multiplies by exp(beta E + h (sigma_v - 1)), E the layout's
    energy of its bonds (one exp for all vertices), and sums out each
    leaving spin, + half plus - half.
    """
    lanes, n, columns = coeffs.shape
    padded = np.zeros((n, lanes, 1 + columns, 1, 1, 1))
    padded[:, :, 1:, 0, 0, 0] = coeffs.transpose(1, 0, 2)
    sigma = np.array([[1.0], [-1.0]])
    flips = padded * sigma
    weight = np.exp(beta * layout.energy + h * (sigma - 1.0))
    lead = padded.shape[1:3]
    state = np.eye(1, 1 + columns).repeat(lanes, axis=0)
    for v, perm, tail, spins, window, leave in layout.steps:
        state = state.transpose(perm).reshape(lead + tail)
        grown = state[:, :1] * flips[v]  # one temporary, updated in place
        grown += state
        grown *= weight[:, :, window]
        state = grown.reshape(lead + spins)
        for plus, minus in leave:
            state = state[plus] + state[minus]
    return state[:, 0], state[:, 1:].transpose(0, 2, 1)


@dataclass(frozen=True)
class ExactIsing:
    """Finite-volume Gibbs expectations on a region, in region order.

    ``correlations[i]`` = <sigma_base sigma_x> and ``magnetizations[i]`` =
    <sigma_x> for x the region's vertex i, ``log_z`` the log partition
    function relative to exp(-H) of the all-plus configuration.  At K
    (beta, h) pairs ``beta`` and ``h`` are the sequences as given, and each
    array has a leading axis of K.
    """

    region: Region
    beta: float
    h: float
    correlations: np.ndarray
    magnetizations: np.ndarray
    log_z: float


def all_plus_energy(region: Region, beta, h):
    """H of the all-plus configuration: -beta * sum_int J - h * |S|, also
    elementwise over arrays of beta and h.

    Guards the single-count pair convention; the spin sweep counts
    weights relative to this ground-state weight.
    """
    j_sum = math.fsum(j for _, _, j in region.internal_edges)
    return -beta * j_sum - h * len(region)


def ising_observables(region: Region, beta, h) -> ExactIsing:
    """Exact expectations at one (beta, h) pair, or at K pairs as
    :func:`ising_sums` takes them, from one spin sweep with a coefficient
    column per vertex."""
    z, acc = ising_sums(region, beta, h, np.eye(len(region)))
    total = z[..., 0] + z[..., 1]
    norm = total[..., None]
    return ExactIsing(region, beta, h,
                      (acc[..., 0, :] - acc[..., 1, :]) / norm,
                      (acc[..., 0, :] + acc[..., 1, :]) / norm,
                      np.log(total) - all_plus_energy(
                          region, np.asarray(beta), np.asarray(h)))


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
        correlations=np.array([math.fsum(t) / z for t in corr_terms]),
        magnetizations=np.array([math.fsum(t) / z for t in mag_terms]),
        log_z=math.log(z) - e_plus,
    )
