"""Lattice geometry: coupling tables, balls, and finite regions.

A lattice is ``Z^d`` together with a finite, symmetric table of coupling
offsets.  The coupling graph has an edge ``{x, x+o}`` for every offset ``o``
with ``J(o) > 0``; all distances (in particular the balls ``ball(n)``) are
graph distances in that coupling graph.  Only translation symmetry is
assumed anywhere in the package.

Two parameterizations are supported and kept deliberately explicit:

* ``mode="p"``   -- Bernoulli(p) bond percolation, all couplings unit;
* ``mode="beta"`` -- inverse temperature, a bond between ``x`` and ``y``
  is open with probability ``1 - exp(-beta * J(x, y))``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

Vertex = tuple[int, ...]

_FAMILIES = ("square", "triangular", "hypercubic")

# Triangular lattice embedded in Z^2 (A2 embedding): the six neighbors of the
# origin.  Closed under negation.
_TRIANGULAR_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


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

        Either ``{"family": ..., "mode": ..., ["d": ...]}`` for a named
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
                return cls.hypercubic(int(obj.get("d", 3)), mode)
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
    def coordination(self) -> int:
        """Number of couplings leaving one vertex (e.g. 4 on Z^2)."""
        return len(self.couplings)

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
        """Graph distances from the origin to each target (BFS).

        Raises ValueError if some target is unreachable within a generous
        search radius (cannot happen for the built-in families).
        """
        todo = set(targets)
        dist: dict[Vertex, int] = {}
        origin = self.origin()
        seen = {origin: 0}
        frontier = deque([origin])
        if origin in todo:
            dist[origin] = 0
            todo.discard(origin)
        guard = 0
        while todo and frontier:
            v = frontier.popleft()
            d = seen[v]
            for w, _ in self.neighbors(v):
                if w not in seen:
                    seen[w] = d + 1
                    frontier.append(w)
                    if w in todo:
                        dist[w] = d + 1
                        todo.discard(w)
            guard += 1
            if guard > 20_000_000:
                break
        if todo:
            raise ValueError(f"vertices unreachable from origin: {sorted(todo)[:4]}")
        return dist


def edge_weight(lattice: LatticeSpec, j: float, param: float) -> float:
    """Probability that one bond with coupling ``j`` is open at ``param``.

    ``p`` mode: the parameter itself (requires ``0 <= p <= 1``).
    ``beta`` mode: ``1 - exp(-beta * j)`` (requires ``beta >= 0``).
    """
    if lattice.mode == "p":
        if not 0.0 <= param <= 1.0:
            raise ValueError(f"p={param} outside [0, 1]")
        return float(param)
    if param < 0.0:
        raise ValueError(f"beta={param} must be non-negative")
    return -math.expm1(-param * j)


class Region:
    """A finite vertex set with its internal edges and boundary pairs.

    ``vertices`` are kept in a canonical deterministic order (BFS from the
    base point, lexicographic within a layer) so regions serialize and hash
    stably.  ``internal_edges`` lists each unordered coupled pair inside the
    region exactly once; ``boundary_pairs`` lists every ordered
    (inside index, outside vertex) coupled pair leaving the region.

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
        self.vertices: tuple[Vertex, ...] = self._canonical_order(vset)
        self._index = {v: i for i, v in enumerate(self.vertices)}

        internal: list[tuple[int, int, float]] = []
        boundary: list[tuple[int, Vertex, float]] = []
        for i, v in enumerate(self.vertices):
            for w, j in lattice.neighbors(v):
                k = self._index.get(w)
                if k is None:
                    boundary.append((i, w, j))
                elif i < k:
                    internal.append((i, k, j))
        self.internal_edges: tuple[tuple[int, int, float], ...] = tuple(internal)
        self.boundary_pairs: tuple[tuple[int, Vertex, float], ...] = tuple(boundary)

    def _canonical_order(self, vset: set[Vertex]) -> tuple[Vertex, ...]:
        order = [self.origin]
        seen = {self.origin}
        frontier = [self.origin]
        while frontier:
            nxt = set()
            for v in frontier:
                for w, _ in self.lattice.neighbors(v):
                    if w in vset and w not in seen:
                        nxt.add(w)
            frontier = sorted(nxt)
            order.extend(frontier)
            seen.update(nxt)
        # vertices not reachable from the base point inside the set
        order.extend(sorted(vset - seen))
        return tuple(order)

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
        return hash((self.lattice, self.origin, self.vertices))

    def __repr__(self) -> str:
        return (f"Region(|S|={len(self.vertices)}, edges={len(self.internal_edges)}, "
                f"boundary={len(self.boundary_pairs)}, origin={self.origin})")

    @cached_property
    def radius_l(self) -> int:
        shifted = [tuple(a - b for a, b in zip(v, self.origin)) for v in self.vertices]
        dist = self.lattice.distances_from_origin(shifted)
        # every coupling offset is one step of the coupling graph
        return max(dist.values()) + 1

    def boundary_weight(self, param: float) -> float:
        """Sum of open-probabilities over all boundary pairs."""
        return math.fsum(edge_weight(self.lattice, j, param)
                         for _, _, j in self.boundary_pairs)

    def to_json(self) -> dict:
        return {
            "lattice": self.lattice.to_json(),
            "origin": list(self.origin),
            "vertices": [list(v) for v in self.vertices],
        }

    @classmethod
    def from_json(cls, obj, lattice: LatticeSpec | None = None) -> "Region":
        if isinstance(obj, str):
            obj = json.loads(obj)
        lat = lattice or LatticeSpec.from_json(obj["lattice"])
        origin = tuple(obj.get("origin", lat.origin()))
        return cls(lat, [tuple(v) for v in obj["vertices"]], origin)


def ball(lattice: LatticeSpec, n: int) -> Region:
    """The graph-distance ball of radius ``n`` around the origin."""
    if n < 0:
        raise ValueError("radius must be non-negative")
    origin = lattice.origin()
    seen = {origin}
    frontier = [origin]
    for _ in range(n):
        nxt = set()
        for v in frontier:
            for w, _ in lattice.neighbors(v):
                if w not in seen:
                    nxt.add(w)
        seen.update(nxt)
        frontier = sorted(nxt)
    return Region(lattice, seen, origin)


class BallLayout(NamedTuple):
    """``ball(n)`` plus its one-vertex shell as flat arrays.

    Nodes are the ball's vertices in ``Region`` order (BFS layers,
    lexicographic within a layer), then the shell in sorted order.  Edges
    are ``ball(n).internal_edges`` followed by its ``boundary_pairs``, with
    the outside endpoint replaced by its shell node index.
    """

    coords: np.ndarray   # (n_nodes, dim) int64
    layer: np.ndarray    # (n_nodes,) int32 graph distance; the shell is n + 1
    n_inside: int
    n_internal: int      # edges before this index are internal
    edge_a: np.ndarray   # int32, the inside endpoint
    edge_b: np.ndarray   # int32
    edge_j: np.ndarray   # float couplings


def ball_layout(lattice: LatticeSpec, n: int) -> BallLayout:
    """The arrays of ``ball(lattice, n)`` and its shell, built with numpy.

    Vertices are int64 keys (coordinates in a mixed radix, so key order is
    lexicographic order).  A neighbor of BFS layer k lies in layer k - 1, k
    or k + 1, so each new layer is the set of neighbors of the last one
    minus the last two layers.
    """
    if n < 0:
        raise ValueError("radius must be non-negative")
    dim = lattice.dim
    offsets = [o for o, _ in lattice.couplings]
    reach = (n + 1) * max((abs(c) for o in offsets for c in o), default=0)
    base = 2 * reach + 1
    if base ** dim > np.iinfo(np.int64).max:
        raise ValueError(f"ball({n}) spans {base}^{dim} coordinate values, "
                         f"too many for int64 keys")
    place = np.array([base ** (dim - 1 - i) for i in range(dim)], dtype=np.int64)
    okeys = np.array(offsets, dtype=np.int64).reshape(-1, dim) @ place
    js = np.array([j for _, j in lattice.couplings], dtype=float)

    layers = [np.array([reach * int(place.sum())], dtype=np.int64)]
    previous = layers[0][:0]
    for _ in range(n + 1):
        current = layers[-1]
        reached = np.unique((current[:, None] + okeys).ravel())
        fresh = ~(np.isin(reached, current) | np.isin(reached, previous))
        previous = current
        layers.append(reached[fresh])
    keys = np.concatenate(layers)
    n_inside = keys.size - layers[-1].size
    layer = np.repeat(np.arange(n + 2, dtype=np.int32), [k.size for k in layers])
    coords = keys[:, None] // place % base - reach

    # every neighbor of a ball vertex is a node; look it up in sorted keys
    order = np.argsort(keys)
    nbr = order[np.searchsorted(keys[order], keys[:n_inside, None] + okeys)]
    src = np.broadcast_to(np.arange(n_inside)[:, None], nbr.shape)
    jay = np.broadcast_to(js, nbr.shape)
    internal = (nbr > src) & (nbr < n_inside)
    boundary = nbr >= n_inside
    return BallLayout(
        coords=coords,
        layer=layer,
        n_inside=n_inside,
        n_internal=int(np.count_nonzero(internal)),
        edge_a=np.concatenate([src[internal], src[boundary]]).astype(np.int32),
        edge_b=np.concatenate([nbr[internal], nbr[boundary]]).astype(np.int32),
        edge_j=np.concatenate([jay[internal], jay[boundary]]),
    )


def incidence_csr(n_nodes: int, edge_a: np.ndarray, edge_b: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency of an edge list as CSR, each row in edge-id order.

    Returns ``(ptr, partner, edge_id)``: node v's incident edges are
    ``edge_id[ptr[v]:ptr[v + 1]]``, leading to ``partner[ptr[v]:ptr[v + 1]]``.
    """
    ends = np.concatenate([edge_a, edge_b])
    eids = np.tile(np.arange(len(edge_a)), 2)
    order = np.lexsort((eids, ends))
    ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n_nodes), out=ptr[1:])
    return ptr, np.concatenate([edge_b, edge_a])[order], eids[order]


def translate_region(region: Region, shift: Vertex) -> Region:
    """The region shifted by a lattice vector (couplings are translation-invariant)."""
    if len(shift) != region.lattice.dim:
        raise ValueError("shift has wrong dimension")
    moved = [tuple(a + b for a, b in zip(v, shift)) for v in region.vertices]
    new_origin = tuple(a + b for a, b in zip(region.origin, shift))
    return Region(region.lattice, moved, new_origin)
