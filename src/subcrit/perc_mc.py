"""Monte Carlo percolation on finite boxes.

Boxes are graph-distance balls ``ball(n)`` together with the one-vertex
shell outside them; every lattice edge with at least one endpoint inside the
box is sampled.  An optional ghost vertex models an external field: each box
vertex joins it with probability ``1 - exp(-h)``, so the origin reaches it
when its cluster holds K members, K geometric with P[K > k] = exp(-hk).

Per-sample randomness comes from a counter-based stream keyed by
(seed, observable stream, sample index).  Edge e's uniform is word e of the
sample's stream, and a ghost sample's K comes from word ``_GHOST_WORD``.  A
walk draws only the prefix of edge words it reads, the same words as if
every word were drawn.  Estimates are reduced with compensated summation
in sample order, so results are bit-reproducible regardless of batching.

A box is built as far as its walks reach: its ``lattice.BallBuilder``
adds BFS layers, doubling the built radius, when a walk pops a node whose
row is not built yet, and its walk is the ``ClusterWalker`` that the Wolff
chains and the Monte Carlo phi share too.  The walker turns each new row
into the Python lists its loop reads as the row is built.  On ball(96) the
walks of 800 susceptibility samples at p = 0.25 build the rows of the first
16 layers (481 of the box's 19,013 nodes), 600 ghost samples at p = 0.5 and
h = 0.01 build 8,065.  An exit walk that reaches the shell, a lattice with
several couplings and a Wolff system build the whole box, each layer once.

Every estimator is a profile, one pass over shared samples deciding each
of its radii or fields.  Its walks stop once every event is decided: exit
walks, depth-first, at the first site beyond the largest radius; ghost
walks, breadth-first, at the K-th member for the smallest field, whose K
is largest.  Susceptibility walks whole clusters breadth-first, up to a
member budget: past it, the rest of the sample's words are drawn and the
cluster is labeled in numpy.  Its first 100 clusters are walked whole, and
their sizes set the budget of the rest (``ClusterWalker.walk_budget``):
122 members on ball(64) at p = 0.5, where 72 % of the clusters pass it,
and none at p = 0.25 and 0.45.  A breadth-first walk stays near the
origin, whose edge words lead the drawn prefix (1,031 words a sample in
that ghost run).  Neither the walk nor labeling changes which edges are
open, so no estimate depends on them.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import lattice as latticemod
from . import rng as rngmod
from .errors import DegenerateFit
from .lattice import BallBuilder, LatticeSpec, edge_weight, incidence_csr
from .stats import (MCEstimate, batch_means_stderr, binomial_estimate,
                    check_counts, check_non_negative)

# smallest prefix a walk draws: below about this many words, the cost of a
# numpy call outweighs the draws it saves
_FIRST_DRAW = 256
# a ghost sample's size stop K comes from word _GHOST_WORD of its stream,
# past the edge words of any box (a layout holds at most LAYOUT_VERTEX_CAP =
# 2**22 nodes, and a sample owns 2**128 words)
_GHOST_WORD = 1 << 64
# layers a box builds first; then each step doubles its built radius, up to
# the whole box once that reaches n (a step costs a few hundred us of numpy
# calls, so there are few of them)
_FIRST_LAYERS = 8
# pointer jumps per labeling round in ``ClusterWalker.labels``: on the
# ordered-phase Wolff clusters of ball(24), one jump takes 6.4 rounds, two
# 3.9 and three or more 3.3; two and three time fastest there, two on
# critical clusters
_JUMPS_PER_ROUND = 2
# The walk/label switch (``ClusterWalker.walk_budget``) weighs these costs,
# in us, measured as medians on a 2-vCPU shared Xeon (Python 3.11, numpy
# 2.4).  A walk costs _WALK_US per member: 0.61-0.78 on Wolff systems up
# to ball(32) and percolation boxes up to ball(64), 1.05-1.15 from ball(64)
# on, where the nodes leave the cache.  Starting one on words draw_edges
# drew, with a Wolff chain's blocked nodes, costs _START_US +
# _START_US_PER_NODE per node: 1.2 on ball(2), 25.6 on the plus ball(128).
# Labeling every word (``component``) costs _LABEL_US + _LABEL_US_PER_EDGE
# per edge: 11 on ball(2) (16 bonds), 38 on ball(16) at beta_c (1,024), 78
# on the plus ball(24) at 1.1 beta_c (2,500), 363 on ball(64) at beta_c
# (16,384), 2,200 on the plus ball(128) (66,564).  Drawing every word costs
# _DRAW_US_PER_EDGE per edge more: 90 of the 437 that drawing and labeling
# take on the ball(64) box at p = 0.5 (16,900 edges).
_WALK_US = 0.7
_START_US = 1.2
_START_US_PER_NODE = 0.0007
_LABEL_US = 10.0
_LABEL_US_PER_EDGE = 0.025
_DRAW_US_PER_EDGE = 0.006
# the susceptibility walks this many clusters whole, and their sizes set
# the walk budget of the rest
_BUDGET_SAMPLES = 100


class ClusterWalker:
    """Prefix-lazy cluster walks, and numpy labeling, on one graph.

    Built from ``n_nodes`` and the edge list ``(edge_a, edge_b)``; ``layer``
    gives each node the integer a walk's ``stop_layer`` compares against.
    Edge e is open in a sample when word e of the sample's stream is below
    its weight.  Percolation boxes, Wolff updates, Edwards-Sokal
    measurements and the Monte Carlo phi all grow their clusters with this
    class: ``origin_cluster`` and ``walk_to_size`` draw the words a walk
    reads as it goes, and a Wolff walk draws them all with ``draw_edges``,
    then walks them (``walk``) or labels them in numpy with ``component``,
    and a Swendsen-Wang update labels every cluster of them with
    ``labels``.

    Each walk has one stop rule, run by one of two loops.  A walk to a
    ``stop_layer`` (exit walks, and the Wolff magnetization's walk to the
    ghost) goes depth-first over Python lists of the rows, made when they
    are added (``_add``), and stops at its first member of that layer or
    beyond.  Every other walk goes breadth-first over (edge, neighbour)
    rows built at first pop (README), and stops once it holds a member
    count: a ghost walk's K, or B + 1 for a whole-cluster walk with a
    member budget B, whose caller then labels the cluster instead, on the
    same words.  The words fix the open edges, so the cluster does not
    depend on which loop or the labeler marked it; only the cost and the
    member order do.  The edges stay in numpy for ``labels`` and the
    public attributes.

    A subclass may hold only a prefix of the rows (``PercBox``): a walk
    that pops a node whose row is not built calls ``_grow``, and every
    public attribute (``n_nodes``, ``n_edges``, ``edge_a``, ``edge_b``,
    ``layer``) first builds the whole graph (``_complete``).
    """

    def __init__(self, n_nodes: int, edge_a: np.ndarray, edge_b: np.ndarray,
                 layer: np.ndarray):
        self._start()
        self._add(layer, edge_a, edge_b, n_nodes, 0)

    def _start(self) -> None:
        """No node built yet."""
        # the built prefix: the edges, and as Python lists, which grow in
        # place so that a walk's names for them stay valid, every node's
        # layer and the rows of the first len(_need) nodes (node v's edges
        # _eid[_ptr[v]:_ptr[v + 1]] lead to _nbr[...]).  A row lists its
        # edges in id order, so node v's edges are drawn once the first
        # _need[v] words are.  The running maximum makes _need sorted:
        # nodes v < bisect_right(_need, drawn) have all their edges.
        self._edge_a = self._edge_b = np.zeros(0, dtype=np.int32)
        self._ptr, self._nbr, self._eid, self._layer = [0], [], [], []
        self._rows: list[tuple | None] = []  # _count_walk's pair rows
        self._layers = np.zeros(0, dtype=np.int32)  # _layer in numpy
        self._need: list[int] = []
        # the generator and draw buffers, reused by every walk (so one
        # walker serves one walk at a time); the mask views _open in numpy
        self._edge_gen = None
        self._open = bytearray()
        self.seen = bytearray()

    def _add(self, layer: np.ndarray, edge_a: np.ndarray, edge_b: np.ndarray,
             rows: int, first_edge: int) -> None:
        """Append nodes (by their layers) and edges to the built prefix,
        and the rows of the nodes before ``rows`` not built yet, whose
        edges all have ids from ``first_edge`` on.  The draw buffers are
        replaced, the drawn masks copied, and ``seen`` lengthened; a walk
        under way re-reads its names for them."""
        self._layer += layer.tolist()
        self._layers = np.concatenate((self._layers, layer))
        edge_a = self._edge_a = np.concatenate((self._edge_a, edge_a))
        edge_b = self._edge_b = np.concatenate((self._edge_b, edge_b))
        n_nodes, n_edges = len(self._layer), len(edge_a)
        built = len(self._need)
        ptr, nbr, eid = incidence_csr(rows, edge_a[first_edge:],
                                      edge_b[first_edge:], built, first_edge)
        last = np.zeros(rows - built, dtype=np.int64)
        filled = ptr[1:] > ptr[:-1]
        last[filled] = eid[ptr[1:][filled] - 1] + 1
        if built:
            last[0] = max(last[0], self._need[-1])
        self._need += np.maximum.accumulate(last).tolist()
        self._ptr += (ptr[1:] + len(self._nbr)).tolist()
        self._nbr += nbr.tolist()
        self._eid += eid.tolist()
        self._rows += [None] * (rows - built)

        self._edge_u = np.empty(n_edges)
        self._open = self._open + bytes(n_edges - len(self._open))
        self._open_mask = np.frombuffer(self._open, dtype=np.bool_)
        self.seen = self.seen + bytes(n_nodes - len(self.seen))

    def _grow(self, node: int) -> None:
        """Build the row of ``node``; a walker built from a whole edge list
        has every row."""

    def _complete(self) -> "ClusterWalker":
        """Build every node and edge; returns the walker."""
        return self

    # the whole graph, built first
    n_nodes = property(lambda self: len(self._complete()._layer))
    n_edges = property(lambda self: len(self._complete()._edge_a))
    edge_a = property(lambda self: self._complete()._edge_a)
    edge_b = property(lambda self: self._complete()._edge_b)
    layer = property(lambda self: self._complete()._layers.copy())

    def origin_cluster(self, weights: np.ndarray, seed: int, stream: int,
                       index: int, stop_layer: int | None = None,
                       budget: int | None = None
                       ) -> tuple[list[int] | np.ndarray, int]:
        """Walk over the open cluster of node 0, the origin, in one sample.

        Sample ``index`` of ``stream`` opens edge e when word e of its
        stream is below ``weights[e]`` (or below ``weights`` itself, a
        float or a 0-d array).  Words are drawn as the walk first needs
        them, a doubling prefix at a time.

        Returns ``(members, max_layer)``; ``members`` lists node indices in
        discovery order, and ``self.seen`` marks them until the next walk.
        A walk with a ``stop_layer`` goes depth-first and returns as soon
        as it reaches a node of that layer or beyond (``max_layer`` is then
        that node's layer).  Any other walk goes breadth-first over the
        whole cluster, and ``max_layer`` is the cluster's largest layer.

        A whole-cluster walk that finds more than ``budget`` members stops,
        and the cluster is labeled (``component``) on every word of the
        sample, which ``draw_edges`` draws, the prefix the walk read
        included.  A labeled cluster is whole: ``members`` is then an array
        of its nodes in increasing order and ``max_layer`` their largest
        layer.  Every event the walk would decide reads the same.
        """
        gen = self._stream(seed, stream, index)
        if stop_layer is not None:
            return self._layer_walk(0, stop_layer, None, gen, weights)
        limit = sys.maxsize if budget is None else budget + 1
        members = self._count_walk(0, None, limit, gen, weights)
        if len(members) != limit:
            return members, max(map(self._layer.__getitem__, members))
        self.draw_edges(weights, seed, stream, index)
        self.component(None)
        members = np.flatnonzero(np.frombuffer(self.seen, dtype=np.bool_))
        return members, int(self._layers[members].max())

    def walk_to_size(self, weights: np.ndarray, seed: int, stream: int,
                     index: int, size: int) -> list[int]:
        """The first ``size`` members of the origin's open cluster in a
        sample of :meth:`origin_cluster`, found breadth-first (near the
        origin, whose edges lead the words), in discovery order; the whole
        cluster if smaller.  ``self.seen`` marks every node it found."""
        return self._count_walk(0, None, size,
                                self._stream(seed, stream, index), weights)

    def walk(self, root: int = 0, stop_layer: int | None = None,
             blocked: bytearray | None = None,
             budget: int | None = None) -> list[int] | None:
        """The members of :meth:`origin_cluster`'s walk from ``root`` on
        the edge words that ``draw_edges`` drew for the sample, opening no
        stream; None, for the caller to label (``component``), when a
        whole-cluster walk finds more than ``budget`` members.

        ``blocked``, a bytearray over the nodes that the walk then owns,
        marks nodes it never enters, as if every edge into them were
        closed; it becomes the walk's ``self.seen``, which marks them and
        the members until the next walk.
        """
        if stop_layer is not None:
            return self._layer_walk(root, stop_layer, blocked)[0]
        limit = sys.maxsize if budget is None else budget + 1
        members = self._count_walk(root, blocked, limit)
        return None if len(members) == limit else members

    def _stream(self, seed: int, stream: int, index: int):
        """The generator of sample ``index`` of ``stream``, reusing the
        walker's, with the origin's row built."""
        if not self._need:
            self._grow(0)
        gen = self._edge_gen = rngmod.sample_stream(seed, stream, index,
                                                    gen=self._edge_gen)
        return gen

    def _layer_walk(self, root: int, stop_layer: int,
                    blocked: bytearray | None, gen=None,
                    weights=None) -> tuple[list[int], int]:
        """The depth-first walk from ``root`` to ``stop_layer``, drawing
        edge words from ``gen`` against ``weights``, or reading those
        ``draw_edges`` drew when ``gen`` is None; returns ``(members,
        max_layer)``."""
        # edge words drawn; nodes v < ready have all theirs
        drawn, ready = ((0, 0) if gen is not None
                        else (len(self._open), len(self._need)))
        ptr, nbr, eid, layer = self._ptr, self._nbr, self._eid, self._layer
        need, is_open = self._need, self._open
        if blocked is None:
            blocked = bytearray(len(self._layer))
        self.seen = seen = blocked
        seen[root] = 1
        members = [root]
        max_layer = layer[root]
        if max_layer >= stop_layer:
            return members, max_layer
        todo = [root]
        pop, push = todo.pop, todo.append
        while todo:
            v = pop()
            if v >= ready:
                if v >= len(need):
                    self._grow(v)
                    is_open, seen = self._open, self.seen
                drawn = self._draw(gen, self._edge_u, self._open_mask,
                                   weights, drawn, need[v])
                ready = bisect_right(need, drawn)
            for t in range(ptr[v], ptr[v + 1]):
                if is_open[eid[t]]:
                    w = nbr[t]
                    if not seen[w]:
                        seen[w] = 1
                        members.append(w)
                        if layer[w] > max_layer:
                            max_layer = layer[w]
                        if max_layer >= stop_layer:
                            return members, max_layer
                        push(w)
        return members, max_layer

    def _count_walk(self, root: int, blocked: bytearray | None,
                    limit: int, gen=None, weights=None) -> list[int]:
        """The breadth-first walk from ``root``, drawing as
        :meth:`_layer_walk` does; returns the first ``limit`` members in
        discovery order, or the whole cluster if smaller."""
        drawn, ready = ((0, 0) if gen is not None
                        else (len(self._open), len(self._need)))
        ptr, nbr, eid, rows = self._ptr, self._nbr, self._eid, self._rows
        need, is_open = self._need, self._open
        if blocked is None:
            blocked = bytearray(len(self._layer))
        self.seen = seen = blocked
        seen[root] = 1
        members = [root]
        for v in members:  # the member list is the queue
            if len(members) >= limit:
                return members[:limit]
            if v >= ready:
                if v >= len(need):
                    self._grow(v)
                    is_open, seen = self._open, self.seen
                drawn = self._draw(gen, self._edge_u, self._open_mask,
                                   weights, drawn, need[v])
                ready = bisect_right(need, drawn)
            row = rows[v]
            if row is None:
                row = rows[v] = tuple(zip(eid[ptr[v]:ptr[v + 1]],
                                          nbr[ptr[v]:ptr[v + 1]]))
            for e, w in row:
                if is_open[e] and not seen[w]:
                    seen[w] = 1
                    members.append(w)
        return members

    # whether every row is built
    built = True

    def walk_budget(self, seen: np.ndarray, drawn: bool) -> int | None:
        """The member budget of whole-cluster walks whose cluster has s
        nodes with probability proportional to ``seen[s]``, on words
        ``draw_edges`` drew if ``drawn``, else on words drawn as the walk
        goes: the B that minimizes the mean cost W E[min(S, B)] +
        L P(S > B), W the walk's cost per member and L the cost of
        labeling every word, and of drawing them unless ``drawn``, plus,
        on drawn words, the cost of starting a walk, which a budget of 0
        skips.  None, no budget, when the best one is the largest s seen,
        which no seen cluster passes, and on words drawn as the walk goes
        when not every row is ``built``: labeling would build them all,
        and no seen walk reached them.
        """
        if not (drawn or self.built):
            return None
        # every row is built, so the built lists count the whole graph
        per_edge = _LABEL_US_PER_EDGE + (0.0 if drawn else _DRAW_US_PER_EDGE)
        cum = np.cumsum(seen)
        tail = (cum[-1] - cum) / cum[-1]  # P(S > B)
        cost = _WALK_US * (np.cumsum(tail) - tail)  # W E[min(S, B)]
        cost += (_LABEL_US + per_edge * len(self._edge_a)) * tail
        if drawn:
            cost[1:] += _START_US + _START_US_PER_NODE * len(self._layer)
        budget = int(np.argmin(cost))
        return None if budget == len(seen) - 1 else budget

    def draw_edges(self, weights: np.ndarray, seed: int, stream: int,
                   index: int) -> np.random.Generator:
        """Draw every edge word of sample ``index`` in one call, for
        ``walk``, ``component`` or ``labels``; returns the sample's
        generator, from which a caller reads the words from ``n_edges`` on.
        """
        gen = self._complete()._stream(seed, stream, index)
        gen.random(out=self._edge_u)
        np.less(self._edge_u, weights, out=self._open_mask)
        return gen

    def labels(self, keep: np.ndarray | None) -> np.ndarray:
        """Label every node by the smallest node of its cluster over the
        edges that ``draw_edges`` opened and ``keep`` marks (every open
        edge when ``keep`` is None), in numpy, without drawing; returns the
        labels, an intp array over the nodes.

        Every node starts as its own label.  Each round hooks across every
        kept open edge, then makes ``_JUMPS_PER_ROUND`` pointer jumps,
        label <- label[label], and rounds repeat until every kept edge has
        equal end labels la and lb.  The first round hooks each edge's end
        b down to its end a (``np.minimum.at``), as a single call: the box
        and spin-system edges all have a < b, and on an edge with a > b
        the hook leaves label[b] = b.  Each later round hooks, across every
        kept edge, the entry of the larger end label down to the smaller.
        Labels only decrease, and each is a node of its own cluster, no
        larger than the node (so no cycle forms).  A round after the first
        lowers some label when an edge's end labels differ before it: if
        la and lb are both roots (label[l] == l), the hook lowers the
        larger; otherwise one of them, say la, has label[la] < la, and the
        first jump lowers the label of that edge end.  The sum of the
        labels thus falls every round from the second until the last, so
        the loop ends.  It ends at the smallest node: the kept edges join
        the nodes of a cluster, so they share one label L, a node of the
        cluster and so no smaller than its smallest node m; m's own label,
        L, is no larger than m, so L = m.  The kept edges are found once;
        each round is a fixed handful of O(edges) numpy calls instead of a
        Python step per member.
        """
        kept = np.flatnonzero(self._open_mask if keep is None
                              else self._open_mask & keep)
        # intp indices: numpy converts any other index dtype on every gather
        a = self._edge_a[kept].astype(np.intp, copy=False)
        b = self._edge_b[kept].astype(np.intp, copy=False)
        label = np.arange(len(self._layer))
        high, low = b, a
        while True:
            np.minimum.at(label, high, low)
            for _ in range(_JUMPS_PER_ROUND):
                label = label[label]
            la, lb = label[a], label[b]
            if (la == lb).all():
                return label
            high, low = np.maximum(la, lb), np.minimum(la, lb)

    def component(self, keep: np.ndarray | None, root: int = 0) -> int:
        """Label the cluster of ``root`` over the edges that ``draw_edges``
        opened and ``keep`` marks (``labels``); marks it in ``self.seen``
        and returns its size."""
        label = self.labels(keep)
        in_cluster = label == label[root]
        self.seen = bytearray(in_cluster.view(np.uint8))
        return int(np.count_nonzero(in_cluster))

    @staticmethod
    def _draw(gen, uniforms, mask, weights, drawn, needed):
        """Extend the drawn prefix to at least ``needed`` words, and at most
        to the words built; returns its new length.  The prefix at least
        doubles, so a walk makes O(log) numpy calls however far it goes."""
        end = min(len(uniforms), max(needed, 2 * drawn, _FIRST_DRAW))
        part = uniforms[drawn:end]
        gen.random(out=part)
        bound = weights[drawn:end] if getattr(weights, "ndim", 0) else weights
        np.less(part, bound, out=mask[drawn:end])
        return end


class PercBox(ClusterWalker):
    """Sampling layout for ``ball(n)`` plus its outer shell, built as far
    as its walks reach.

    The box holds the complete prefix of the layout that its
    ``BallBuilder`` has built: the rows of the nodes of its first layers,
    with their edges and edge words.  A walk that pops a node whose row is
    not built doubles the built radius (``_FIRST_LAYERS`` first) until
    the row is; since rows and edge ids are a prefix property of the
    layout, every word stays word e of the sample's stream.  The whole box
    is built by an exit walk that reaches the shell, ``draw_edges``,
    ``open_probabilities`` on a lattice with several couplings, any public
    attribute, and, on construction, a box whose key cube holds more than
    ``LAYOUT_VERTEX_CAP`` nodes, so that a ball past the cap is refused
    before any sample is drawn.
    """

    def __init__(self, lattice: LatticeSpec, n: int):
        self.lattice = lattice
        self.n = n
        self._builder = BallBuilder(lattice, n)
        self._edge_j = np.zeros(0)
        self._start()
        if self._builder.node_bound > latticemod.LAYOUT_VERTEX_CAP:
            self._complete()

    def _extend(self, radius: int) -> None:
        chunk = self._builder.extend(radius)
        self._edge_j = np.concatenate((self._edge_j, chunk.edge_j))
        self._add(chunk.layer, chunk.edge_a, chunk.edge_b, chunk.rows,
                  chunk.first_edge)

    def _grow(self, node: int) -> None:
        builder = self._builder
        while node >= len(self._need) and not builder.done:
            radius = max(2 * builder.radius, _FIRST_LAYERS)
            self._extend(radius if radius < self.n else self.n + 1)

    def _complete(self) -> "PercBox":
        if not self._builder.done:
            self._extend(self.n + 1)
        return self

    edge_j = property(lambda self: self._complete()._edge_j)
    built = property(lambda self: self._builder.done)

    def open_probabilities(self, param: float) -> np.ndarray:
        """The open probability of each edge at ``param``: a 0-d float64
        array on a lattice with one coupling (a walk compares its draws
        against that faster than against a float), which builds nothing,
        or, with several couplings, an array over the edges of the whole
        box, which builds it."""
        # one weight per coupling; a bad param is refused here
        js = sorted({j for _, j in self.lattice.couplings})
        per_j = np.array([edge_weight(self.lattice, j, param) for j in js])
        if len(js) == 1:
            return per_j.reshape(())
        return per_j[np.searchsorted(js, self.edge_j)]


@lru_cache(maxsize=1)
def _box(lattice: LatticeSpec, n: int) -> PercBox:
    """The box every profile of ``n`` on ``lattice`` samples, for all its
    radii or fields: the last one is kept, so a profile builds it once."""
    return PercBox(lattice, n)


def exit_profile(lattice: LatticeSpec, n_box: int, radii: Sequence[int],
                 param: float, samples: int, seed: int) -> dict[int, MCEstimate]:
    """Exit estimates for every distinct radius in one pass over box
    ``n_box`` samples.

    For r < n_box the witness path for "origin leaves ball(r)" lies inside
    the box edge set, so the shared-sample indicators are exact per radius
    (and nested, which the decay diagnostics rely on).
    """
    radii = sorted(set(radii))
    check_counts(samples=samples, radii=len(radii))
    check_non_negative("radii", radii)
    if radii[-1] > n_box:
        raise ValueError("profile radius exceeds box radius")
    box = _box(lattice, n_box)
    weights = box.open_probabilities(param)
    stop = radii[-1] + 1  # every indicator max_layer > r is decided there
    hits = {r: 0 for r in radii}
    for i in range(samples):
        _, max_layer = box.origin_cluster(weights, seed, rngmod.STREAM_EXIT, i,
                                          stop_layer=stop)
        for r in radii:
            if max_layer > r:
                hits[r] += 1
    return {r: binomial_estimate(f"exit[n={r}]", hits[r], samples, seed)
            for r in radii}


def susceptibility_profile(lattice: LatticeSpec, n_box: int,
                           radii: Sequence[int], param: float, samples: int,
                           seed: int) -> dict[int, MCEstimate]:
    """Partial sums |cluster(0) ∩ ball(r)| for each distinct r, shared
    samples.

    Cluster sizes are heavy-tailed near criticality, so the standard error
    comes from batch means rather than the naive i.i.d. formula.
    """
    radii = sorted(set(radii))
    check_counts(samples=samples, radii=len(radii))
    check_non_negative("radii", radii)
    if radii[-1] > n_box:
        raise ValueError("profile radius exceeds box radius")
    box = _box(lattice, n_box)
    weights = box.open_probabilities(param)
    counts: dict[int, list[float]] = {r: [] for r in radii}
    budget, first = None, []
    for i in range(samples):
        members, max_layer = box.origin_cluster(
            weights, seed, rngmod.STREAM_SUSCEPTIBILITY, i, budget=budget)
        if i < _BUDGET_SAMPLES:
            first.append(len(members))
            if i == _BUDGET_SAMPLES - 1:
                budget = box.walk_budget(np.bincount(first), drawn=False)
        if max_layer <= radii[0]:
            # the whole cluster lies in every ball, as most small ones do
            for r in radii:
                counts[r].append(len(members))
            continue
        member_layers = box._layers[members]  # built for every member
        for r in radii:
            counts[r].append(int(np.count_nonzero(member_layers <= r)))
    return {r: MCEstimate(f"susceptibility[n={r}]",
                          math.fsum(counts[r]) / samples,
                          batch_means_stderr(counts[r]), samples, seed)
            for r in radii}


def ghost_profile(lattice: LatticeSpec, n: int, param: float,
                  fields: Sequence[float], samples: int,
                  seed: int) -> dict[float, MCEstimate]:
    """P[origin connected to the ghost] on box ball(n) for every distinct
    field h, shared samples: P[|C| >= K_h], C the origin's cluster;
    K_h = floor(-log(1 - u) / h) + 1, u word ``_GHOST_WORD`` of the sample's
    stream, capped past any box's node count (a subnormal h cannot overflow
    it).  One ``walk_to_size`` to the largest K_h, the smallest field's,
    decides every field."""
    fields = sorted(set(fields))
    check_counts(samples=samples, fields=len(fields))
    for h in fields:
        if not h > 0.0:
            raise ValueError(f"ghost magnetization needs h > 0, got {h}")
    box = _box(lattice, n)
    weights = box.open_probabilities(param)
    hits = [0] * len(fields)
    gen = None
    for i in range(samples):
        gen = rngmod.sample_stream(seed, rngmod.STREAM_GHOST, i,
                                   start=_GHOST_WORD, gen=gen)
        t = -math.log1p(-gen.random())
        sizes = [math.floor(min(t / h, latticemod.LAYOUT_VERTEX_CAP)) + 1
                 for h in fields]
        found = len(box.walk_to_size(weights, seed, rngmod.STREAM_GHOST, i,
                                     sizes[0]))
        for k, size in enumerate(sizes):
            hits[k] += found >= size
    return {h: binomial_estimate(f"ghost_m[n={n},h={h:g}]", hit, samples,
                                 seed) for h, hit in zip(fields, hits)}


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
