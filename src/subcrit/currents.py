"""Truncated random-current engine on tiny graphs.

A current assigns a non-negative integer multiplicity to every coupled
pair (including pairs to a ghost vertex when a field is present, with
coupling h).  Its weight is prod (beta J)^n / n!, and its sources are the
vertices of odd total incident multiplicity.  Ratios of source-constrained
weight sums reproduce spin expectations:

    <sigma_x sigma_y> = sum_{sources {x,y}} w / sum_{sources empty} w

(for odd source sets the ghost absorbs the leftover parity when h > 0).

The sums enumerate *class vectors*, not multiplicity vectors.  Each
pair's multiplicity falls in one of three classes: 0, odd, or even >= 2,
written as its representative multiplicity 0, 1 or 2.  A current's sources
depend only on the parity of each pair, and every catalog F only on the
support and the parities, so the sum over multiplicities factorizes within
a class: a per-pair table summed over the multiplicities of each class
(``_class_tables``) turns the (cap+1)^pairs enumeration into an exact one
over 3^pairs class vectors.  Graphs are still limited to a handful of
vertices.  Two truncation modes are used on purpose: single sums cap each
pair's multiplicity, while the switching check caps the per-pair SUM of the
two currents, because the source-switching bijection preserves the
combined current and therefore holds exactly at every sum-capped level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded, NoPath, StateSpaceTooLarge

# admits 3^13 class vectors: a switching_check over them took about 1.4 s
# on a 2-core x86 host, 3^14 about 5 s
STATE_GUARD = 3 ** 13
MAX_VERTICES = 5  # plus the ghost; the sums enumerate 3^pairs class vectors
MAX_CAP = 170
_CLASSES = 3  # multiplicity classes 0, odd, even >= 2
_CHUNK = 1 << 16

Pair = tuple[int, int]


@dataclass(frozen=True)
class CurrentGraph:
    """A small weighted graph; vertex ``n_vertices`` is the ghost slot."""

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("need at least one vertex")
        seen = set()
        for a, b, j in self.edges:
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise ValueError(f"edge ({a},{b}) out of range")
            if a == b:
                raise ValueError("self-loops are not allowed")
            if j <= 0.0:
                raise ValueError("couplings must be positive")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    @property
    def ghost(self) -> int:
        return self.n_vertices

    @classmethod
    def complete(cls, n: int, j: float = 1.0) -> "CurrentGraph":
        return cls(n, tuple((a, b, j) for a in range(n)
                            for b in range(a + 1, n)))

    @classmethod
    def path(cls, n: int, j: float = 1.0) -> "CurrentGraph":
        return cls(n, tuple((i, i + 1, j) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int, j: float = 1.0) -> "CurrentGraph":
        return cls(n, tuple((i, (i + 1) % n, j) for i in range(n)))

    def pair_bases(self, beta: float, h: float) -> tuple[list[Pair], list[float]]:
        """Coupled pairs in the fixed global order, with weight bases.

        Real pairs come first in lexicographic order with base beta*J;
        ghost pairs follow (ghost sorts last) with base h.
        """
        _check_couplings(beta, h)
        pairs = sorted((min(a, b), max(a, b)) for a, b, _ in self.edges)
        j_of = {(min(a, b), max(a, b)): j for a, b, j in self.edges}
        bases = [beta * j_of[p] for p in pairs]
        if h > 0.0:
            for x in range(self.n_vertices):
                pairs.append((x, self.ghost))
                bases.append(h)
        return pairs, bases


def _check_couplings(beta: float, h: float) -> None:
    """Refuse a negative beta or field: current weights need non-negative
    bases, and ``pair_bases`` would silently drop a negative field's ghost
    pairs."""
    if not (beta >= 0.0 and h >= 0.0):
        raise ValueError("need beta >= 0 and h >= 0")


def _cap(trunc: int) -> int:
    """Multiplicity cap: per pair for single sums, per pair-sum when two
    currents are enumerated jointly.  At most ``MAX_CAP``, the largest k
    whose k! is a finite float."""
    cap = int(trunc)
    if not 1 <= cap <= MAX_CAP:
        raise ValueError(f"cap must be between 1 and {MAX_CAP}")
    return cap


@dataclass(frozen=True)
class Current:
    """Explicit multiplicity map, used at the edges of the API (backbone
    extraction, tests); bulk sums never materialize these."""

    graph: CurrentGraph
    multiplicities: tuple[tuple[Pair, int], ...]

    def sources(self) -> frozenset[int]:
        degree: dict[int, int] = {}
        for (a, b), m in self.multiplicities:
            degree[a] = degree.get(a, 0) + m
            degree[b] = degree.get(b, 0) + m
        return frozenset(v for v, d in degree.items() if d % 2 == 1)


def weight(current: Current, beta: float, h: float) -> float:
    """prod over pairs of (beta J)^n / n!; the empty current weighs 1."""
    pairs, bases = current.graph.pair_bases(beta, h)
    base_of = dict(zip(pairs, bases))
    total = 1.0
    for pair, m in current.multiplicities:
        if m:
            total *= base_of[_coupled(pair, base_of)] ** m / math.factorial(m)
    return total


def _coupled(pair: Pair, coupled) -> Pair:
    """``pair`` as (low, high), refused unless ``coupled`` holds it."""
    key = (min(pair), max(pair))
    if key not in coupled:
        raise ValueError(f"multiplicity on uncoupled pair {key}")
    return key


def _vertex_masks(pairs: Sequence[Pair]) -> np.ndarray:
    return np.array([(1 << a) | (1 << b) for a, b in pairs], dtype=np.int64)


def _source_mask(sources: Iterable[int], n_slots: int) -> int:
    mask = 0
    for v in sources:
        if not (0 <= v < n_slots):
            raise ValueError(f"source vertex {v} out of range")
        bit = 1 << v
        if mask & bit:
            raise ValueError("duplicate source vertex")
        mask |= bit
    return mask


_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << 8)],
                     dtype=np.int64)


def _check_state_space(graph: CurrentGraph, radix: int, n_pairs: int) -> None:
    if graph.n_vertices > MAX_VERTICES:
        raise CapExceeded("current-lab vertices", graph.n_vertices,
                          MAX_VERTICES)
    states = radix ** n_pairs
    if states > STATE_GUARD:
        raise StateSpaceTooLarge(states, STATE_GUARD)


def _class_vectors(masks: np.ndarray, sources: int) -> Iterator[np.ndarray]:
    """The class vectors whose source set is the vertex mask ``sources``,
    one row each (digit p the class of the pair with vertex mask
    ``masks[p]``), a chunk of ``_CHUNK`` enumeration indices at a time; a
    chunk with no such vector yields nothing."""
    states = _CLASSES ** len(masks)
    pows = _CLASSES ** np.arange(len(masks), dtype=np.int64)
    for start in range(0, states, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, states), dtype=np.int64)
        digits = (idx[:, None] // pows) % _CLASSES
        parity_mask = np.bitwise_xor.reduce(
            np.where(digits == 1, masks, 0), axis=1)
        # handshake parity: every current has an even number of odd-degree
        # vertices, ghost included
        assert (_POPCOUNT[parity_mask] % 2 == 0).all()
        keep = parity_mask == sources
        if keep.any():
            yield digits[keep]


def _class_tables(table: np.ndarray) -> np.ndarray:
    """Sum a table over its last axis, the multiplicities k = 0..cap, within
    each class: ``out[..., c]`` sums k = 0 for c = 0, the odd k for c = 1
    and the even k >= 2 for c = 2."""
    return np.stack((table[..., 0], table[..., 1::2].sum(axis=-1),
                     table[..., 2::2].sum(axis=-1)), axis=-1)


def source_sum(graph: CurrentGraph, sources: Iterable[int], beta: float,
               h: float, trunc: int) -> float:
    """Sum of weights over currents with the given source set, with every
    pair multiplicity capped at the truncation level."""
    cap = _cap(trunc)
    pairs, bases = graph.pair_bases(beta, h)
    if not pairs:
        return 1.0 if _source_mask(sources, graph.n_vertices + 1) == 0 else 0.0
    _check_state_space(graph, _CLASSES, len(pairs))
    target = _source_mask(sources, graph.n_vertices + 1)
    masks = _vertex_masks(pairs)
    # w_table[p, k] = base_p^k / k!, summed within each multiplicity class
    ks = np.arange(cap + 1, dtype=np.float64)
    w_table = np.power(np.asarray(bases)[:, None], ks) / \
        np.array([float(math.factorial(k)) for k in range(cap + 1)])
    class_w = _class_tables(w_table)
    pieces = []
    for digits in _class_vectors(masks, target):
        w = np.take_along_axis(class_w, digits.T, axis=1).prod(axis=0)
        pieces.append(math.fsum(w))
    return math.fsum(pieces)


def expectation_via_currents(graph: CurrentGraph, sources: Iterable[int],
                             beta: float, h: float,
                             trunc: int) -> float:
    """<sigma_A> as a ratio of source sums (truncated).

    Odd source sets route the leftover parity through the ghost; at h = 0
    that expectation vanishes identically and 0 is returned outright
    rather than dividing by an impossible-parity numerator.
    """
    _check_couplings(beta, h)
    a_set = set(sources)
    if len(a_set) % 2 == 1:
        if h == 0.0:
            return 0.0
        a_set ^= {graph.ghost}
    num = source_sum(graph, a_set, beta, h, trunc)
    den = source_sum(graph, (), beta, h, trunc)
    return num / den


def correlation_via_currents(graph: CurrentGraph, x: int, y: int,
                             beta: float, h: float,
                             trunc: int) -> float:
    """<sigma_x sigma_y>; ``y`` may be the ghost index to read <sigma_x>."""
    _check_couplings(beta, h)
    if x == y:
        return 1.0
    return expectation_via_currents(graph, {x, y}, beta, h, trunc)


# --- switching check ---------------------------------------------------------

# F(digits, pairs, graph) -> one value per row of ``digits``.  A row holds
# class representatives (0, 1 or 2 for multiplicity 0, odd, even >= 2), so
# F may depend only on each pair's class: its support and its parity.
FCatalog = Callable[[np.ndarray, Sequence[Pair], CurrentGraph], np.ndarray]


def _connected_masks(digits: np.ndarray, pairs: Sequence[Pair], a: int,
                     n_slots: int) -> np.ndarray:
    """Bitmask of the component of ``a`` in each row's positive support."""
    member = np.full(digits.shape[0], 1 << a, dtype=np.int64)
    open_cols = [digits[:, p] > 0 for p in range(len(pairs))]
    bits = [(1 << u, 1 << v) for u, v in pairs]
    for _ in range(n_slots):
        before = member.copy()
        for p, (bu, bv) in enumerate(bits):
            has_u = (member & bu) != 0
            has_v = (member & bv) != 0
            grow = open_cols[p] & (has_u ^ has_v)
            member |= np.where(grow, bu | bv, 0)
        if np.array_equal(member, before):
            break
    return member


def f_one(digits: np.ndarray, pairs: Sequence[Pair],
          graph: CurrentGraph) -> np.ndarray:
    return np.ones(digits.shape[0])


def f_even_total(digits: np.ndarray, pairs: Sequence[Pair],
                 graph: CurrentGraph) -> np.ndarray:
    return (digits.sum(axis=1) % 2 == 0).astype(np.float64)


def f_connect(a: int, b: int) -> FCatalog:
    def f(digits: np.ndarray, pairs: Sequence[Pair],
          graph: CurrentGraph) -> np.ndarray:
        member = _connected_masks(digits, pairs, a, graph.n_vertices + 1)
        return ((member >> b) & 1).astype(np.float64)

    f.__name__ = f"f_connect_{a}_{b}"
    return f


def resolve_f(spec, graph: CurrentGraph) -> FCatalog:
    """Catalog lookup: "one", "even_total", ("connect", a, b), or a callable.

    The ends of a connect must be vertices of ``graph`` or its ghost.  A
    callable must obey the ``FCatalog`` contract: it sees each pair's
    multiplicity class, not its multiplicity, and may depend on nothing
    else of it.
    """
    if callable(spec):
        return spec
    if spec == "one":
        return f_one
    if spec == "even_total":
        return f_even_total
    if isinstance(spec, (tuple, list)) and len(spec) == 3 and spec[0] == "connect":
        a, b = int(spec[1]), int(spec[2])
        if not (0 <= a <= graph.ghost and 0 <= b <= graph.ghost):
            raise ValueError(f"connect({a}, {b}) names a vertex outside "
                             f"0..{graph.ghost} (ghost included)")
        return f_connect(a, b)
    raise ValueError(f"unknown F selector {spec!r}")


def switching_check(graph: CurrentGraph, sources: Iterable[int], u: int,
                    v: int, f_spec, beta: float, h: float,
                    trunc: int) -> tuple[float, float]:
    """Both sides of the source-switching identity, truncated by pair-sum.

    lhs sums F(n1+n2) w(n1) w(n2) over pairs of currents with sources
    (A xor {u,v}, {u,v}); rhs uses sources (A, none) and additionally
    requires u and v connected in the combined current.  Both sides only
    see the combined current m = n1 + n2, so each is computed by one
    enumeration of m with the split sum folded into per-pair tables: the
    number of splits of m_p at fixed parity of n1_p contributes
    base^{m_p} * sum_{j <= m_p, j == parity} 1/(j!(m_p-j)!), and the
    source constraint on n1 is imposed by averaging characters of the
    parity group over vertex subsets.  F, the source constraint on m and
    the connection event see m only through its classes, so m runs over
    class vectors with the character tables summed within each class.
    """
    if u == v:
        raise ValueError("u and v must differ; the degenerate switch is "
                         "ill-defined under the symmetric difference")
    cap = _cap(trunc)
    f = resolve_f(f_spec, graph)
    pairs, bases = graph.pair_bases(beta, h)
    n_pairs = len(pairs)
    n_slots = graph.n_vertices + 1
    a_mask = _source_mask(sources, n_slots)
    uv_mask = _source_mask((u, v), n_slots)
    _check_state_space(graph, _CLASSES, n_pairs)
    masks = _vertex_masks(pairs)

    # split_table[parity, p, k] = base_p^k * sum_{j<=k, j=parity mod 2}
    #                             1 / (j! (k-j)!)
    split_table = np.zeros((2, n_pairs, cap + 1))
    powers = np.power(np.asarray(bases)[:, None],
                      np.arange(cap + 1, dtype=np.float64))
    for k in range(cap + 1):
        for par in (0, 1):
            s = math.fsum(1.0 / (math.factorial(j) * math.factorial(k - j))
                          for j in range(par, k + 1, 2))
            split_table[par, :, k] = powers[:, k] * s

    # character tables: for a vertex subset chi, chi_tables[chi, p, k] =
    # split_table[0] + eps * split_table[1] with eps = (-1)^{|chi cap pair|},
    # summed within each multiplicity class
    chi_signs = np.empty((1 << n_slots, n_pairs))
    for chi in range(1 << n_slots):
        chi_signs[chi] = [1.0 if _POPCOUNT[chi & int(m)] % 2 == 0 else -1.0
                          for m in masks]
    chi_tables = _class_tables(split_table[0][None] +
                               chi_signs[:, :, None] * split_table[1][None])

    def constrained_split(digits: np.ndarray, target_mask: int) -> np.ndarray:
        """sum over m in each row's classes and n1 <= m with
        sources(n1) = target of w(n1) w(m - n1)."""
        total = np.zeros(digits.shape[0])
        for chi in range(1 << n_slots):
            sign = -1.0 if _POPCOUNT[chi & target_mask] % 2 else 1.0
            total += sign * np.take_along_axis(chi_tables[chi], digits.T,
                                               axis=1).prod(axis=0)
        return total / (1 << n_slots)

    lhs_pieces, rhs_pieces = [], []
    # both sides force sources(m) = A
    for digits in _class_vectors(masks, a_mask):
        f_vals = f(digits, pairs, graph)
        lhs_pieces.append(math.fsum(
            f_vals * constrained_split(digits, a_mask ^ uv_mask)))
        conn = _connected_masks(digits, pairs, u, n_slots)
        hit = ((conn >> v) & 1).astype(np.float64)
        rhs_pieces.append(math.fsum(
            f_vals * hit * constrained_split(digits, a_mask)))
    return math.fsum(lhs_pieces), math.fsum(rhs_pieces)


# --- backbone ----------------------------------------------------------------

def oriented_edge_order(graph: CurrentGraph, h: float) -> list[Pair]:
    """The module's fixed global order on oriented edges.

    Sorted by (source, target) with the ghost index sorting last; both
    orientations of every coupled pair appear.
    """
    pairs, _ = graph.pair_bases(1.0, h)
    oriented = []
    for a, b in pairs:
        oriented.append((a, b))
        oriented.append((b, a))
    oriented.sort()
    return oriented


def extract_backbone(current: Current, h: float = 0.0) -> tuple[Pair, ...]:
    """Lexicographically minimal edge-self-avoiding path joining the two
    sources of the current through its positive-multiplicity pairs.

    Ordered depth-first search over the fixed oriented-edge order returns
    the first complete path, which is the lexicographic minimum.  Raises
    ValueError for a multiplicity on a pair uncoupled at field ``h``, and
    NoPath when the input violates the two-source invariant.
    """
    pairs, _ = current.graph.pair_bases(1.0, h)
    support = {_coupled(p, pairs) for p, m in current.multiplicities if m > 0}
    srcs = sorted(current.sources())
    if len(srcs) != 2:
        raise NoPath(f"backbone needs exactly two sources, got {srcs}")
    x, y = srcs
    order = [e for e in oriented_edge_order(current.graph, h)
             if (min(e), max(e)) in support]
    out: dict[int, list[Pair]] = {}
    for e in order:
        out.setdefault(e[0], []).append(e)

    def search(at: int, used: set[Pair], path: list[Pair]):
        if at == y:
            return tuple(path)
        for e in out.get(at, ()):  # ascending order: first hit is lex-min
            key = (min(e), max(e))
            if key in used:
                continue
            used.add(key)
            path.append(e)
            found = search(e[1], used, path)
            if found is not None:
                return found
            path.pop()
            used.remove(key)
        return None

    found = search(x, set(), [])
    if found is None:
        raise NoPath(f"no positive path joins sources {x} and {y}")
    return found


def enumerate_currents(graph: CurrentGraph, sources: Iterable[int],
                       beta: float, h: float,
                       trunc: int
                       ) -> Iterator[tuple[Current, float]]:
    """Yield (current, weight) under a per-pair cap; test-scale only."""
    cap = _cap(trunc)
    pairs, bases = graph.pair_bases(beta, h)
    _check_state_space(graph, cap + 1, len(pairs))
    target = frozenset(sources)
    for mults in itertools.product(range(cap + 1), repeat=len(pairs)):
        cur = Current(graph, tuple(zip(pairs, mults)))
        if cur.sources() != target:
            continue
        w = 1.0
        for base, m in zip(bases, mults):
            w *= base ** m / math.factorial(m)
        yield cur, w
