"""Monte Carlo percolation on finite boxes.

Boxes are graph-distance balls ``ball(n)`` together with the one-vertex
shell outside them; every lattice edge with at least one endpoint inside the
box is sampled.  An optional ghost vertex models an external field: each box
vertex joins the ghost independently with probability ``1 - exp(-h)``.

Per-sample randomness comes from a counter-based stream keyed by
(seed, observable stream, sample index).  Edge e's uniform is word e of the
sample's stream and box vertex v's ghost uniform is word
``_GHOST_WORD + v``, a fixed word past every box's edge words.  A sample
draws only the prefix of edge words (and of ghost words) that its walk
reads, so a small cluster costs a few hundred draws, not one per box edge,
and the draws are the same as if every word were drawn.  Estimates are
reduced with compensated summation in sample order, so results are
bit-reproducible regardless of batching.

A box is built as far as its walks reach: its ``lattice.BallBuilder``
adds BFS layers, doubling the built radius, when a walk pops a node whose
row is not built yet, and its walk is the ``ClusterWalker`` that the Wolff
chains and the Monte Carlo phi share too.  The walker turns each new row
into the Python lists its loop reads as the row is built.  At p = 0.25 on
ball(96) the walks of 800 susceptibility samples build the rows of the
first 16 layers (481 of the box's 19,013 nodes).  A walk with a field
grows the box the same way, since its ghost words do not depend on the
box's size.  An exit walk that reaches the shell, a lattice with several
couplings and a Wolff system build the whole box, each layer once.

Estimators walk the open cluster of the origin and stop once the event is
decided: exit profiles at the first site beyond the largest radius, the
ghost estimate at the first open ghost bond.  The susceptibility walks
whole clusters, up to a member budget: past it, the rest of the sample's
words are drawn and the cluster is labeled in numpy.  Its first 100
clusters are walked whole, and their sizes set the budget of the rest
(``ClusterWalker.walk_budget``): 122 members on ball(64) at p = 0.5, where
72 % of the clusters pass it, and none at p = 0.25 and 0.45.  A walk
with a field goes breadth-first, every other walk depth-first: any
member's open ghost bond decides the ghost event, and a breadth-first walk
stays near the origin, whose edge and ghost words lead the drawn prefix.
Which edges are open does not depend on the walk, nor on whether the
cluster was walked or labeled, so no estimate depends on either.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import lattice as latticemod
from . import rng as rngmod
from .errors import DegenerateFit
from .lattice import BallBuilder, LatticeSpec, edge_weight, incidence_csr
from .stats import (MCEstimate, batch_means_stderr, binomial_stderr,
                    check_counts, check_non_negative)

# smallest prefix a walk draws: below about this many words, the cost of a
# numpy call outweighs the draws it saves
_FIRST_DRAW = 256
# node v's ghost uniform is word _GHOST_WORD + v of the sample's stream: a
# fixed word, so a walk with a field needs no edge count of a box it has not
# built, and past the edge words of any box (a layout holds at most
# LAYOUT_VERTEX_CAP = 2**22 nodes, and a sample owns 2**128 words)
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


class _OverBudget(Exception):
    """A walk found more members than its budget."""


class ClusterWalker:
    """Prefix-lazy cluster walks, and numpy labeling, on one graph.

    Built from ``n_nodes`` and the edge list ``(edge_a, edge_b)``; ``layer``
    gives each node the integer a walk's ``stop_layer`` compares against.
    Edge e is open in a sample when word e of the sample's stream is below
    its weight.  Percolation boxes, Wolff updates, Edwards-Sokal
    measurements and the Monte Carlo phi all grow their clusters with this
    class: ``origin_cluster`` draws the words a walk reads as it goes, and
    a Wolff walk draws them all with ``draw_edges``, then walks them
    (``drawn_cluster``) or labels them in numpy with ``component``, and a
    Swendsen-Wang update labels every cluster of them with ``labels``.

    A walk may take a member budget: a walk that finds more members than
    its budget stops, and its caller labels the cluster instead, on the
    same words.  The words fix the open edges, so the cluster does not
    depend on which of the two marked it; only the cost does.

    The walk indexes the layers and the adjacency as Python lists, each
    row made once from numpy when it is added (``_add``); the edges stay
    in numpy for ``labels`` and the public attributes.

    A subclass may hold only a prefix of the rows (``PercBox``): a walk
    that pops a node whose row is not built calls ``_grow``, and every
    public attribute (``n_nodes``, ``n_edges``, ``edge_a``, ``edge_b``,
    ``layer``) first builds the whole graph (``_complete``).
    """

    def __init__(self, n_nodes: int, edge_a: np.ndarray, edge_b: np.ndarray,
                 layer: np.ndarray):
        self._start(int(layer.max(initial=0)) + 1)
        self._add(layer, edge_a, edge_b, n_nodes, 0)

    def _start(self, no_stop: int) -> None:
        """No node built yet; ``no_stop``, a layer past every node's, is
        where a walk given no ``stop_layer`` stops."""
        self._no_stop = no_stop
        # the built prefix: the edges, and as Python lists, which grow in
        # place so that a walk's names for them stay valid, every node's
        # layer and the rows of the first len(_need) nodes (node v's edges
        # _eid[_ptr[v]:_ptr[v + 1]] lead to _nbr[...]).  A row lists its
        # edges in id order, so node v's edges are drawn once the first
        # _need[v] words are.  The running maximum makes _need sorted:
        # nodes v < bisect_right(_need, drawn) have all their edges.
        self._edge_a = self._edge_b = np.zeros(0, dtype=np.int32)
        self._ptr, self._nbr, self._eid, self._layer = [0], [], [], []
        self._layers = np.zeros(0, dtype=np.int32)  # _layer in numpy
        self._need: list[int] = []
        # generators and draw buffers, reused by every walk (so one walker
        # serves one walk at a time); the masks are numpy views of the
        # bytearrays the walk indexes
        self._edge_gen = self._ghost_gen = None
        self._open = bytearray()
        self._ghost_open = bytearray()
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

        self._edge_u = np.empty(n_edges)
        self._open = self._open + bytes(n_edges - len(self._open))
        self._open_mask = np.frombuffer(self._open, dtype=np.bool_)
        self._ghost_u = np.empty(n_nodes)
        self._ghost_open = self._ghost_open + bytes(
            n_nodes - len(self._ghost_open))
        self._ghost_mask = np.frombuffer(self._ghost_open, dtype=np.bool_)
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
                       index: int, h: float = 0.0,
                       stop_layer: int | None = None,
                       budget: int | None = None
                       ) -> tuple[list[int] | np.ndarray, int, bool]:
        """Walk over the open cluster of node 0, the origin, in one sample.

        Sample ``index`` of ``stream`` opens edge e when word e of its
        stream is below ``weights[e]`` (or below ``weights`` itself, a
        float or a 0-d array) and, for h > 0, joins node v to the ghost
        when word ``_GHOST_WORD + v`` is below ``1 - exp(-h)``.  Words are
        drawn as the walk first needs them, a doubling prefix at a time.
        The walk is depth-first at h = 0 and breadth-first for h > 0: any
        member's ghost bond decides that event, and the members nearest the
        origin have the lowest indices in the box layouts, so the walk
        reads a shorter prefix of edge and ghost words.

        Returns ``(members, max_layer, hit_ghost)``; ``members`` lists node
        indices in discovery order, and ``self.seen`` marks them until the
        next walk.  The walk returns as soon as the event is decided: when
        a ghost bond of a member is open (``hit_ghost`` is then True), or
        when it reaches a node of layer ``stop_layer`` or beyond
        (``max_layer`` is then that node's layer).
        Otherwise it covers the whole cluster and ``max_layer`` is the
        cluster's largest layer.

        A walk that finds more than ``budget`` members stops, and the
        cluster is labeled (``component``) on every word of the sample, which
        ``draw_edges`` draws, the prefix the walk read included.  A labeled
        cluster is whole: ``members`` is then an array of its nodes in
        increasing order, ``max_layer`` their largest layer and
        ``hit_ghost`` whether any of their ghost bonds is open.  Every
        event the walk would decide reads the same.
        """
        if not h >= 0.0:
            raise ValueError(f"h must be non-negative, got {h}")
        gen = self._edge_gen = rngmod.sample_stream(seed, stream, index,
                                                    gen=self._edge_gen)
        ghost_gen = None
        if h > 0.0:
            ghost_gen = self._ghost_gen = rngmod.sample_stream(
                seed, stream, index, start=_GHOST_WORD, gen=self._ghost_gen)
        if not self._need:
            self._grow(0)
        if isinstance(weights, float):
            # numpy compares a drawn prefix faster against a 0-d array
            weights = np.array(weights)
        try:
            return self._walk(0, stop_layer, None, budget, gen, weights,
                              ghost_gen, h)
        except _OverBudget:
            pass
        self.draw_edges(weights, seed, stream, index)
        self.component(None)
        members = np.flatnonzero(np.frombuffer(self.seen, dtype=np.bool_))
        hit = False
        if h > 0.0:
            ghost_gen = self._ghost_gen = rngmod.sample_stream(
                seed, stream, index, start=_GHOST_WORD, gen=ghost_gen)
            ghost_gen.random(out=self._ghost_u)
            hit = bool((self._ghost_u[members] < -math.expm1(-h)).any())
        return members, int(self._layers[members].max()), hit

    def drawn_cluster(self, root: int = 0, stop_layer: int | None = None,
                      blocked: bytearray | None = None,
                      budget: int | None = None
                      ) -> tuple[list[int], int, bool] | None:
        """:meth:`origin_cluster` at h = 0 from ``root`` on the edge words
        that ``draw_edges`` drew for the sample, opening no stream.

        ``blocked``, a bytearray over the nodes that the walk then owns,
        marks nodes it never enters, as if every edge into them were
        closed; it becomes the walk's ``self.seen``, which marks them and
        the members until the next walk.  A walk that finds more than
        ``budget`` members stops and returns None: the caller labels the
        cluster (``component``).
        """
        try:
            return self._walk(root, stop_layer, blocked, budget)
        except _OverBudget:
            return None

    def _walk(self, root: int, stop_layer: int | None,
              blocked: bytearray | None, budget: int | None = None,
              gen=None, weights=None, ghost_gen=None, h: float = 0.0
              ) -> tuple[list[int], int, bool]:
        """The walk of :meth:`origin_cluster` from ``root``, drawing edge
        words from ``gen`` against ``weights``, or reading those
        ``draw_edges`` drew when ``gen`` is None, and ghost words from
        ``ghost_gen`` for h > 0.  A walk that finds more members than
        ``budget`` raises ``_OverBudget``."""
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
        ghost = None
        if ghost_gen is not None:
            ghost, ghost_weight = self._ghost_open, np.array(-math.expm1(-h))
            ghost_drawn = self._draw(ghost_gen, self._ghost_u,
                                     self._ghost_mask, ghost_weight, 0,
                                     root + 1)
            if ghost[root]:
                return members, max_layer, True
        stop = self._no_stop if stop_layer is None else stop_layer
        if max_layer >= stop:
            return members, max_layer, False
        # a list pops faster than a deque; breadth-first needs its popleft
        if ghost is None:
            todo = [root]
            pop = todo.pop
        else:
            todo = deque([root])
            pop = todo.popleft
        push = todo.append
        if budget is not None:
            # checked as members are pushed, so that a walk without a
            # budget pays nothing for it
            def push(w, append=push):
                if len(members) > budget:
                    raise _OverBudget
                append(w)
        while todo:
            v = pop()
            if v >= ready:
                if v >= len(need):
                    self._grow(v)
                    is_open, seen = self._open, self.seen
                    if ghost is not None:
                        ghost = self._ghost_open
                drawn = self._draw(gen, self._edge_u, self._open_mask, weights,
                                   drawn, need[v])
                ready = bisect_right(need, drawn)
            for t in range(ptr[v], ptr[v + 1]):
                if is_open[eid[t]]:
                    w = nbr[t]
                    if not seen[w]:
                        seen[w] = 1
                        members.append(w)
                        if layer[w] > max_layer:
                            max_layer = layer[w]
                        if ghost is not None:
                            if w >= ghost_drawn:
                                ghost_drawn = self._draw(
                                    ghost_gen, self._ghost_u, self._ghost_mask,
                                    ghost_weight, ghost_drawn, w + 1)
                            if ghost[w]:
                                return members, max_layer, True
                        if max_layer >= stop:
                            return members, max_layer, False
                        push(w)
        return members, max_layer, False

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
        ``drawn_cluster``, ``component`` or ``labels``; returns the sample's
        generator, from which a caller reads the words from ``n_edges`` on.
        """
        self._complete()
        gen = self._edge_gen = rngmod.sample_stream(seed, stream, index,
                                                    gen=self._edge_gen)
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
        bound = weights if weights.ndim == 0 else weights[drawn:end]
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
    layout, every word stays word e of the sample's stream.  A walk with a
    field grows the box like any other, its ghost words starting at the
    fixed ``_GHOST_WORD``.  The whole box is built by an exit walk that
    reaches the shell, ``draw_edges``, ``open_probabilities`` on a lattice
    with several couplings, any public attribute, and, on construction, a
    box whose key cube holds more than ``LAYOUT_VERTEX_CAP`` nodes, so that
    a ball past the cap is refused before any sample is drawn.
    """

    def __init__(self, lattice: LatticeSpec, n: int):
        self.lattice = lattice
        self.n = n
        self._builder = BallBuilder(lattice, n)
        self._edge_j = np.zeros(0)
        self._start(n + 2)  # the shell is layer n + 1
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
    """The box every profile of ``n`` on ``lattice`` samples: the last one
    is kept, so a profile builds its box once."""
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
        _, max_layer, _ = box.origin_cluster(weights, seed, rngmod.STREAM_EXIT,
                                             i, stop_layer=stop)
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
        members, max_layer, _ = box.origin_cluster(
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
    out = {}
    for r in radii:
        vals = counts[r]
        out[r] = MCEstimate(f"susceptibility[n={r}]", math.fsum(vals) / samples,
                            batch_means_stderr(vals), samples, seed)
    return out


def estimate_ghost_magnetization(lattice: LatticeSpec, n: int, param: float,
                                 h: float, samples: int, seed: int) -> MCEstimate:
    """P[origin connected to the ghost] with field h on box ball(n)."""
    if not h > 0.0:
        raise ValueError(f"ghost magnetization needs h > 0, got {h}")
    check_counts(samples=samples)
    box = _box(lattice, n)
    weights = box.open_probabilities(param)
    hits = 0
    for i in range(samples):
        _, _, hit = box.origin_cluster(weights, seed, rngmod.STREAM_GHOST, i,
                                       h=h)
        if hit:
            hits += 1
    mean = hits / samples
    return MCEstimate(f"ghost_m[n={n},h={h:g}]", mean,
                      binomial_stderr(mean, samples), samples, seed)


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
