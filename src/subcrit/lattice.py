"""Lattice geometry: coupling tables, balls, and finite regions.

A lattice is ``Z^d`` together with a finite, symmetric table of coupling
offsets.  The coupling graph has an edge ``{x, x+o}`` for every offset ``o``
with ``J(o) > 0``; all distances (in particular the balls ``ball(n)``) are
graph distances in that coupling graph.  Only translation symmetry is
assumed anywhere in the package.

One breadth-first walk, :func:`layers`, yields that graph's distance
layers; ``ball``, the canonical vertex order of a :class:`Region` and
``LatticeSpec.distances_from_origin`` (hence ``Region.radius_l``) all read
it.  ``BallBuilder`` is the numpy walk that lays out large balls as arrays.

Two parameterizations are supported and kept deliberately explicit:

* ``mode="p"``   -- Bernoulli(p) bond percolation, all couplings unit;
* ``mode="beta"`` -- inverse temperature, a bond between ``x`` and ``y``
  is open with probability ``1 - exp(-beta * J(x, y))``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import add
from typing import Iterable, Iterator, NamedTuple

import numpy as np

Vertex = tuple[int, ...]

_FAMILIES = ("square", "triangular", "hypercubic")

# Triangular lattice embedded in Z^2 (A2 embedding): the six neighbors of the
# origin.  Closed under negation.
_TRIANGULAR_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

# Most nodes (ball plus shell) a BallBuilder builds; the largest square ball
# within it is ball(1446).  A box's arrays and its walker's Python rows
# take a few hundred bytes a node, so the cap keeps a box near a gigabyte.
LAYOUT_VERTEX_CAP = 1 << 22


@dataclass(frozen=True)
class LatticeSpec:
    """An infinite translation-invariant lattice with finite-range couplings.

    Attributes:
        family: one of ``square``, ``triangular``, ``hypercubic`` (or
            ``custom`` for explicit coupling tables).
        dim: embedding dimension of the vertex coordinates.
        couplings: tuple of ``(offset, J)`` pairs, closed under negation,
            every ``J > 0``.
        mode: ``"p"`` or ``"beta"`` (see module docstring).
    """

    family: str
    dim: int
    couplings: tuple[tuple[Vertex, float], ...]
    mode: str

    def __post_init__(self):
        if self.mode not in ("p", "beta"):
            raise ValueError(f"unknown parameterization mode {self.mode!r}")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        seen = {}
        for offset, j in self.couplings:
            if len(offset) != self.dim:
                raise ValueError(f"offset {offset} has wrong dimension")
            if all(c == 0 for c in offset):
                raise ValueError("zero offset (self-coupling) not allowed")
            if not (j > 0.0) or not math.isfinite(j):
                raise ValueError(f"coupling J={j} must be positive and finite")
            if offset in seen:
                raise ValueError(f"duplicate offset {offset}")
            seen[offset] = j
        for offset, j in self.couplings:
            neg = tuple(-c for c in offset)
            if seen.get(neg) != j:
                raise ValueError(f"coupling table not symmetric at {offset}")
            if self.mode == "p" and j != 1.0:
                raise ValueError("p-mode requires unit couplings")

    # -- constructors ------------------------------------------------------

    @classmethod
    def square(cls, mode: str = "p") -> "LatticeSpec":
        """Nearest-neighbor Z^2."""
        offsets = ((1, 0), (-1, 0), (0, 1), (0, -1))
        return cls("square", 2, tuple((o, 1.0) for o in offsets), mode)

    @classmethod
    def triangular(cls, mode: str = "p") -> "LatticeSpec":
        """Triangular lattice as Z^2 with six neighbor offsets."""
        return cls("triangular", 2, tuple((o, 1.0) for o in _TRIANGULAR_OFFSETS), mode)

    @classmethod
    def hypercubic(cls, d: int, mode: str = "p") -> "LatticeSpec":
        """Nearest-neighbor Z^d."""
        offsets = []
        for axis in range(d):
            for sign in (1, -1):
                o = [0] * d
                o[axis] = sign
                offsets.append(tuple(o))
        return cls("hypercubic", d, tuple((o, 1.0) for o in offsets), mode)

    @classmethod
    def custom(cls, offsets_with_j: Iterable[tuple[Vertex, float]],
               mode: str = "beta") -> "LatticeSpec":
        couplings = tuple((tuple(o), float(j)) for o, j in offsets_with_j)
        dim = len(couplings[0][0]) if couplings else 1
        return cls("custom", dim, couplings, mode)

    @classmethod
    def from_json(cls, text_or_obj) -> "LatticeSpec":
        """Load a lattice from a JSON object (or its serialized text).

        Either ``{"family": ..., "mode": ..., ["dim": ...]}`` for a named
        family, or ``{"couplings": [[offset, J], ...], "mode": ...}`` for an
        explicit table.
        """
        obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
        mode = obj.get("mode", "p")
        family = obj.get("family")
        if family == "custom":
            family = None
        if family is not None:
            if family == "square":
                return cls.square(mode)
            if family == "triangular":
                return cls.triangular(mode)
            if family == "hypercubic":
                return cls.hypercubic(int(obj.get("dim", 3)), mode)
            raise ValueError(f"unknown lattice family {family!r}; "
                             f"expected one of {_FAMILIES}")
        if "couplings" in obj:
            pairs = [(tuple(int(c) for c in off), float(j))
                     for off, j in obj["couplings"]]
            return cls.custom(pairs, mode)
        raise ValueError("lattice JSON needs either 'family' or 'couplings'")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "dim": self.dim,
            "mode": self.mode,
            "couplings": [[list(o), j] for o, j in self.couplings],
        }

    # -- geometry ----------------------------------------------------------

    @property
    def total_coupling(self) -> float:
        """``sum_y J(0, y)`` over all neighbors of the origin."""
        return math.fsum(j for _, j in self.couplings)

    def neighbors(self, v: Vertex) -> Iterator[tuple[Vertex, float]]:
        for offset, j in self.couplings:
            yield tuple(a + b for a, b in zip(v, offset)), j

    def origin(self) -> Vertex:
        return (0,) * self.dim

    def distances_from_origin(self, targets: Iterable[Vertex]) -> dict[Vertex, int]:
        """Graph distances from the origin to each target, read off
        :func:`layers`.

        Raises ValueError if some target is unreachable.  The walk stops at
        the first layer with no vertex in the box |v|_inf <= (d + 1)(R + m),
        R the largest |t|_inf of a target, m the largest |offset|_inf and d
        the dimension: the steps of a shortest path to a target t, less t/L
        each, sum to zero, so by the Steinitz lemma in the sharp form of
        Grinberg and Sevastyanov (1980) some order of them keeps every
        prefix within d(R + m) of the segment to t.  That order is again a
        shortest path, and its k-th prefix lies in layer k inside the box,
        so every layer up to a reachable target's meets the box.
        """
        todo = set(targets)
        reach = max((abs(c) for v in todo for c in v), default=0)
        step = max((abs(c) for o, _ in self.couplings for c in o), default=0)
        box = (self.dim + 1) * (reach + step)
        dist: dict[Vertex, int] = {}
        for k, layer in enumerate(layers(self, self.origin())):
            for v in todo.intersection(layer):
                dist[v] = k
            todo.difference_update(layer)
            if not todo or all(max(map(abs, v)) > box for v in layer):
                break
        if todo:
            raise ValueError(f"vertices unreachable from origin: {sorted(todo)[:4]}")
        return dist


def edge_weight(lattice: LatticeSpec, j: float, param: float) -> float:
    """Probability that one bond with coupling ``j`` is open at ``param``.

    ``p`` mode: the parameter itself (requires ``0 <= p <= 1``).
    ``beta`` mode: ``1 - exp(-beta * j)`` (requires ``beta >= 0``, which
    NaN is not).
    """
    if lattice.mode == "p":
        if not 0.0 <= param <= 1.0:
            raise ValueError(f"p={param} outside [0, 1]")
        return float(param)
    if not param >= 0.0:
        raise ValueError(f"beta={param} must be non-negative")
    return -math.expm1(-param * j)


class Region:
    """A finite vertex set with its internal edges and boundary pairs.

    ``vertices`` are kept in a canonical deterministic order (BFS from the
    base point, lexicographic within a layer) so regions serialize and hash
    stably.  ``internal_edges`` lists each unordered coupled pair inside the
    region exactly once; ``boundary_pairs`` lists every ordered
    (inside index, outside vertex) coupled pair leaving the region.
    ``partners`` is the region's adjacency table, a read-only int64 array
    of shape (couplings, vertices): entry (c, i) is the index of vertex i's
    partner along coupling c, or -1 if that partner lies outside.

    ``radius_l`` is the smallest ``n`` such that the region fits inside
    ``ball(n - 1)`` around its base point, so every coupled pair leaving it
    ends inside ``ball(n)``; it is the step length of the exit-probability
    decay bound.
    """

    def __init__(self, lattice: LatticeSpec, vertices: Iterable[Vertex],
                 origin: Vertex | None = None):
        self.lattice = lattice
        self.origin: Vertex = tuple(origin) if origin is not None else lattice.origin()
        vset = {tuple(v) for v in vertices}
        if self.origin not in vset:
            raise ValueError("region must contain its base point")
        for v in vset:
            if len(v) != lattice.dim:
                raise ValueError(f"vertex {v} has wrong dimension")
        # vertices the base point cannot reach inside the set come last
        order = [v for layer in layers(lattice, self.origin, vset) for v in layer]
        self.vertices: tuple[Vertex, ...] = tuple(
            order + sorted(vset.difference(order)))
        self._index = {v: i for i, v in enumerate(self.vertices)}
        # taken once: every plan lookup of the exact engines hashes a region
        self._hash = hash((lattice, self.origin, self.vertices))

        internal: list[tuple[int, int, float]] = []
        boundary: list[tuple[int, Vertex, float]] = []
        rows = []
        for i, v in enumerate(self.vertices):
            row = []
            for w, j in lattice.neighbors(v):
                k = self._index.get(w, -1)
                row.append(k)
                if k < 0:
                    boundary.append((i, w, j))
                elif i < k:
                    internal.append((i, k, j))
            rows.append(row)
        self.internal_edges: tuple[tuple[int, int, float], ...] = tuple(internal)
        self.boundary_pairs: tuple[tuple[int, Vertex, float], ...] = tuple(boundary)
        self.partners: np.ndarray = np.array(rows, dtype=np.int64).T
        self.partners.flags.writeable = False

    # -- derived quantities -------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def index(self, v: Vertex) -> int:
        return self._index[v]

    def __contains__(self, v) -> bool:
        return tuple(v) in self._index

    def __eq__(self, other) -> bool:
        return (isinstance(other, Region)
                and self.lattice == other.lattice
                and self.origin == other.origin
                and self.vertices == other.vertices)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"Region(|S|={len(self.vertices)}, edges={len(self.internal_edges)}, "
                f"boundary={len(self.boundary_pairs)}, origin={self.origin})")

    @cached_property
    def radius_l(self) -> int:
        shifted = [tuple(a - b for a, b in zip(v, self.origin)) for v in self.vertices]
        dist = self.lattice.distances_from_origin(shifted)
        # every coupling offset is one step of the coupling graph
        return max(dist.values()) + 1


def layers(lattice: LatticeSpec, start: Vertex,
           within: set[Vertex] | None = None) -> Iterator[list[Vertex]]:
    """The breadth-first layers of the coupling graph from ``start``, each
    sorted: layer k holds the vertices at graph distance k.  With
    ``within``, the walk never leaves that vertex set.  Without it, the
    walk never ends on a lattice with couplings."""
    offsets = [o for o, _ in lattice.couplings]
    seen = {start}
    layer = [start]
    while layer:
        yield layer
        nxt = {tuple(map(add, v, o)) for v in layer for o in offsets}
        nxt -= seen
        if within is not None:
            nxt &= within
        seen |= nxt
        layer = sorted(nxt)


def ball(lattice: LatticeSpec, n: int) -> Region:
    """The graph-distance ball of radius ``n`` around the origin."""
    if n < 0:
        raise ValueError("radius must be non-negative")
    origin = lattice.origin()
    walk = islice(layers(lattice, origin), n + 1)
    return Region(lattice, [v for layer in walk for v in layer], origin)


class BallChunk(NamedTuple):
    """The nodes and edges one :meth:`BallBuilder.extend` step adds, each
    numbered on from the last step's."""

    keys: np.ndarray     # int64 keys of the new nodes
    layer: np.ndarray    # int32 layer of each new node
    edge_a: np.ndarray   # int32, the endpoint whose row numbered the edge
    edge_b: np.ndarray   # int32
    edge_j: np.ndarray   # float couplings
    n_internal: int      # new edges before this index are internal
    rows: int            # nodes before this index have every edge numbered
    first_edge: int      # the lowest id of an edge of the rows added


class BallBuilder:
    """The layout of ``ball(lattice, n)`` and its shell, a few BFS layers at
    a time.

    Nodes are numbered in ``Region`` order (BFS layers, lexicographic
    within a layer), then the shell in sorted order.  ``extend(n + 1)`` on
    a new builder lays the whole ball out in one step.

    Vertices are int64 keys (coordinates in a mixed radix, so key order is
    lexicographic order).  A neighbor of BFS layer k lies in layer k - 1, k
    or k + 1, so each new layer is the set of neighbors of the last one,
    sorted in place and deduplicated by adjacent differences, minus the
    last two layers.

    ``extend(radius)`` numbers every edge of the nodes of layers below
    ``radius`` (of every node, the shell's included, once ``radius``
    exceeds n).  A node's edges are numbered in the order of ``ball(n)``'s
    edges: internal edges by their lower endpoint, then offset; the edges
    to the shell after all of them.  So for m < n the nodes of layers
    <= m, and the edges of the nodes of layers < m with their ids, are the
    same in ball(m) and ball(n): a prefix built for ball(n) is final, and
    only the last step, which numbers the edges to the shell, waits for the
    whole ball.  The builder keeps the keys of its last two layers and its
    node and edge counts, and builds each layer once.

    Raises ValueError when the keys would overflow int64 (on
    construction), and when the layers built so far hold more than
    ``LAYOUT_VERTEX_CAP`` nodes; that is checked before each next layer is
    built, so a refused ball costs about what a ball at the cap costs.
    """

    def __init__(self, lattice: LatticeSpec, n: int):
        if n < 0:
            raise ValueError("radius must be non-negative")
        dim = lattice.dim
        offsets = [o for o, _ in lattice.couplings]
        reach = (n + 1) * max((abs(c) for o in offsets for c in o), default=0)
        base = 2 * reach + 1
        if base ** dim > np.iinfo(np.int64).max:
            raise ValueError(f"ball({n}) spans {base}^{dim} coordinate values, "
                             f"too many for int64 keys")
        self.n = n
        # every node, the shell's included, lies in the key cube
        self.node_bound = base ** dim
        self.radius = 0  # layers whose nodes have every edge numbered
        self.n_inside = None  # known once the shell is built
        self._place = np.array([base ** (dim - 1 - i) for i in range(dim)],
                               dtype=np.int64)
        self._base, self._reach = base, reach
        self._okeys = (np.array(offsets, dtype=np.int64).reshape(-1, dim)
                       @ self._place)
        self._js = np.array([j for _, j in lattice.couplings], dtype=float)
        self._origin = np.array([reach * int(self._place.sum())],
                                dtype=np.int64)
        # the last two layers (an empty layer -1 first), from node _first on
        self._layers = [self._origin[:0], self._origin]
        self._first = 0
        self._nodes = 1  # nodes built
        self._reported = 0  # nodes returned by extend
        self._edges = 0  # edges numbered
        self._tail_edge = 0  # first edge of the last layer numbered

    @property
    def done(self) -> bool:
        return self.radius > self.n

    def _next_layer(self, previous: np.ndarray,
                    current: np.ndarray) -> np.ndarray:
        """The sorted keys of the BFS layer after ``current``, whose layer
        before is ``previous``."""
        reached = (current[:, None] + self._okeys).ravel()
        reached.sort()
        reached = reached[np.concatenate(([True],
                                          reached[1:] != reached[:-1]))]
        fresh = ~_sorted_member(current, reached)
        if previous.size:
            fresh &= ~_sorted_member(previous, reached)
        return reached[fresh]

    def coords(self, keys: np.ndarray) -> np.ndarray:
        """The coordinates of node keys, as a (len(keys), dim) array."""
        return keys[:, None] // self._place % self._base - self._reach

    def extend(self, radius: int) -> BallChunk:
        """Number the edges of every node of the layers below ``radius``,
        or of every node if ``radius`` exceeds n, building the layers they
        reach; returns the nodes and edges added."""
        n = self.n
        if self.done:
            raise ValueError(f"ball({n}) is built")
        if radius <= self.radius:
            raise ValueError(f"the layers below {self.radius} are built")
        radius = min(radius, n + 1)
        window = list(self._layers)
        while len(window) - 2 < radius - self.radius:
            window.append(self._next_layer(*window[-2:]))
            self._nodes += window[-1].size
            if self._nodes > LAYOUT_VERTEX_CAP:
                raise ValueError(f"ball({n}) with its shell has more than "
                                 f"{LAYOUT_VERTEX_CAP} nodes, the layout cap")
        # window holds layers radius_before - 1 ... radius, from node _first;
        # the rows numbered now are those of every layer but the first and
        # the last
        sizes = [w.size for w in window]
        keys = np.concatenate(window)
        lo, hi = sizes[0], keys.size - sizes[-1]
        shell = radius > n
        inside_end = self._first + (hi if shell else keys.size)

        # every neighbor of a row's node is in the window; look it up in
        # the sorted keys, one offset at a time with sorted queries
        order = np.argsort(keys)
        sorted_keys = keys[order]
        rows = order[(order >= lo) & (order < hi)]  # row nodes in key order
        nbr = np.empty((hi - lo, self._okeys.size), dtype=np.int64)
        for k, okey in enumerate(self._okeys.tolist()):
            nbr[rows - lo, k] = order[np.searchsorted(sorted_keys,
                                                      keys[rows] + okey)]
        nbr += self._first
        src = np.broadcast_to(
            np.arange(self._first + lo, self._first + hi)[:, None], nbr.shape)
        jay = np.broadcast_to(self._js, nbr.shape)
        internal = (nbr > src) & (nbr < inside_end)
        boundary = nbr >= inside_end
        n_internal = int(np.count_nonzero(internal))
        edge_a = np.concatenate([src[internal], src[boundary]]).astype(np.int32)

        layer_ids = np.arange(self.radius - 1, self.radius - 1 + len(window),
                              dtype=np.int32)
        new = self._reported - self._first
        chunk = BallChunk(
            keys=keys[new:],
            layer=np.repeat(layer_ids, sizes)[new:],
            edge_a=edge_a,
            edge_b=np.concatenate([nbr[internal],
                                   nbr[boundary]]).astype(np.int32),
            edge_j=np.concatenate([jay[internal], jay[boundary]]),
            n_internal=n_internal,
            rows=self._first + (keys.size if shell else hi),
            first_edge=self._tail_edge)
        if shell:
            self.n_inside = self._first + hi
        # the next rows' edges start at those of the last row layer
        self._tail_edge = self._edges + int(
            np.count_nonzero(internal[:hi - lo - sizes[-2]]))
        self._edges += edge_a.size
        self._first += hi - sizes[-2]
        self._layers = window[-2:]
        self._reported = self._nodes
        self.radius = radius
        return chunk


def _sorted_member(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``np.isin(queries, sorted_keys)`` for a sorted, non-empty key array."""
    pos = np.searchsorted(sorted_keys, queries)
    return sorted_keys[np.minimum(pos, sorted_keys.size - 1)] == queries


def incidence_csr(n_nodes: int, edge_a: np.ndarray, edge_b: np.ndarray,
                  first_node: int = 0, first_edge: int = 0
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency of an edge list as CSR, each row in edge-id order.

    Returns ``(ptr, partner, edge_id)``: node v's incident edges are
    ``edge_id[ptr[v]:ptr[v + 1]]``, leading to ``partner[ptr[v]:ptr[v + 1]]``.
    With ``first_node``, only the rows of nodes ``first_node`` to
    ``n_nodes - 1`` are built (row i for node ``first_node + i``), and the
    edges are numbered from ``first_edge`` on.
    """
    ends = np.concatenate([edge_a, edge_b])
    partner = np.concatenate([edge_b, edge_a])
    eids = np.tile(np.arange(first_edge, first_edge + len(edge_a)), 2)
    if first_node:
        ends = ends - first_node
    mine = (ends >= 0) & (ends < n_nodes - first_node)
    if not mine.all():
        ends, partner, eids = ends[mine], partner[mine], eids[mine]
    order = np.lexsort((eids, ends))
    ptr = np.zeros(n_nodes - first_node + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n_nodes - first_node), out=ptr[1:])
    return ptr, partner[order], eids[order]


def translate_region(region: Region, shift: Vertex) -> Region:
    """The region shifted by a lattice vector (couplings are translation-invariant)."""
    if len(shift) != region.lattice.dim:
        raise ValueError("shift has wrong dimension")
    moved = [tuple(a + b for a, b in zip(v, shift)) for v in region.vertices]
    new_origin = tuple(a + b for a, b in zip(region.origin, shift))
    return Region(region.lattice, moved, new_origin)
