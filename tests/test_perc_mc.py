"""Percolation Monte Carlo against exact enumerations on small boxes."""

import math

import numpy as np
import pytest

from subcrit import perc_mc
from subcrit import rng as rngmod
from subcrit.certificates import compute_phi
from subcrit.errors import DegenerateFit
from subcrit.exact import naive_event_prob, perc_connect_probs, perc_exit_prob
from subcrit.ising_mc import (SpinSystem, check_critical_divergence,
                              estimate_magnetization, estimate_two_point)
from subcrit.lattice import (BallBuilder, LatticeSpec, Region, ball,
                             incidence_csr)
from subcrit.perc_mc import (ClusterWalker, PercBox,
                             estimate_ghost_magnetization,
                             exit_profile, fit_decay_rate,
                             susceptibility_profile)
from subcrit.stats import MCEstimate

P_LAT = LatticeSpec.square(mode="p")
T_LAT = LatticeSpec.triangular(mode="beta")
B_LAT = LatticeSpec.square(mode="beta")


def assert_within_sigmas(estimate, truth, sigmas=4.0, floor=1e-3):
    width = max(sigmas * estimate.stderr, floor)
    assert abs(estimate.mean - truth) <= width, (
        f"estimate {estimate.mean} +- {estimate.stderr} vs exact {truth}")


def test_exit_matches_exact_small_radii():
    for n, p, seed in ((1, 0.3, 11), (1, 0.6, 12), (2, 0.45, 13)):
        est = exit_profile(P_LAT, n, [n], p, samples=60_000, seed=seed)[n]
        assert_within_sigmas(est, perc_exit_prob(P_LAT, n, p))


def test_exit_is_deterministic_per_seed():
    a = exit_profile(P_LAT, 2, [2], 0.4, samples=5_000, seed=77)[2]
    b = exit_profile(P_LAT, 2, [2], 0.4, samples=5_000, seed=77)[2]
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = exit_profile(P_LAT, 2, [2], 0.4, samples=5_000, seed=78)[2]
    assert a.mean != c.mean


def test_exit_profile_decreasing_and_consistent():
    profile = exit_profile(P_LAT, 8, [2, 4, 8], 0.35, samples=40_000, seed=21)
    assert set(profile) == {2, 4, 8}
    means = [profile[n].mean for n in (2, 4, 8)]
    assert means[0] >= means[1] >= means[2]
    assert_within_sigmas(profile[2], perc_exit_prob(P_LAT, 2, 0.35))


def test_susceptibility_matches_exact_box():
    # the sampling graph is ball(1) plus its shell (clusters may route
    # through shell sites); chi counts only members inside ball(1)
    p = 0.35
    lam1 = ball(P_LAT, 1)
    shell = {w for _, w, _ in lam1.boundary_pairs}
    graph = Region(P_LAT, set(lam1.vertices) | shell)
    # the shell of ball(1) on Z^2 has no internal adjacencies, so this
    # region reproduces the sampler's edge set exactly
    assert len(graph.internal_edges) == 16
    conn = perc_connect_probs(graph, p)
    chi = math.fsum(conn[graph.index(v)] for v in lam1.vertices)
    est = susceptibility_profile(P_LAT, 1, [1], p, samples=60_000, seed=31)[1]
    assert_within_sigmas(est, chi, floor=5e-3)


def test_susceptibility_profile_increasing_in_box():
    profile = susceptibility_profile(P_LAT, 8, [2, 4, 8], 0.45,
                                     samples=30_000, seed=41)
    means = [profile[n].mean for n in (2, 4, 8)]
    assert means[0] <= means[1] <= means[2]


def test_profiles_count_a_repeated_radius_once():
    # a repeated radius once counted each hit twice: an exit "probability"
    # of 2.0 and a doubled partial susceptibility
    assert exit_profile(P_LAT, 4, [4, 4], 0.5, 10, 1) == exit_profile(
        P_LAT, 4, [4], 0.5, 10, 1)
    assert susceptibility_profile(P_LAT, 4, [2, 2, 4], 0.5, 10, 1) == (
        susceptibility_profile(P_LAT, 4, [2, 4], 0.5, 10, 1))


def full_draw(box, weights, h, seed, stream, index):
    # every word of the sample at once: n_edges edge words from word 0, and
    # n_nodes ghost words from word _GHOST_WORD
    open_edges = rngmod.sample_stream(seed, stream, index).random(
        box.n_edges) < weights
    ghost_open = rngmod.sample_stream(
        seed, stream, index, start=perc_mc._GHOST_WORD).random(
            box.n_nodes) < -math.expm1(-h)
    return open_edges, ghost_open


def test_sample_stream_opens_at_any_word():
    # a fresh or a reused generator opened at word k continues the sample's
    # stream from word k, whatever k % 4 and whatever the reused one drew
    words = rngmod.sample_stream(8, 3, 2 ** 70).random(24)
    reused = rngmod.sample_stream(1, 1, 0)
    for k in range(13):
        reused.integers(7)
        for gen in (None, reused):
            tail = rngmod.sample_stream(8, 3, 2 ** 70, start=k, gen=gen)
            assert tail.random(24 - k).tolist() == words[k:].tolist()


def test_reused_stream_matches_a_fresh_philox():
    # a reused generator is repositioned from a reused state template;
    # each call must rewrite every key and counter word, or a word of the
    # previous call would leak into the next stream
    cases = [(2 ** 64 - 1, 2 ** 64 - 1, 2 ** 127 + 3, 7),
             (0, 0, 0, 0),
             (2 ** 64 - 1, rngmod.STREAM_WOLFF, 5, 1),
             (12345, rngmod.STREAM_GHOST, 2 ** 100 + 7, 6),
             (1, 0, 0, 3),
             (0, rngmod.STREAM_TEST, 2 ** 70, 4097)]
    # the key is rewritten only when it changes, so one index runs under
    # keys that differ only in seed, then only in stream; a word offset
    # past 2**66 makes counter word 1 non-zero
    cases += [(5, rngmod.STREAM_EXIT, 9, 0), (6, rngmod.STREAM_EXIT, 9, 0),
              (6, rngmod.STREAM_GHOST, 9, 0), (6, rngmod.STREAM_GHOST, 9, 0),
              (6, rngmod.STREAM_GHOST, 9, 2 ** 66 + 5),
              (6, rngmod.STREAM_GHOST, 2 ** 64 + 1, 2 ** 129 + 4 * 2 ** 66)]
    reused = rngmod.sample_stream(3, 3, 3)
    for seed, stream, index, start in cases * 2:
        fresh = np.random.Generator(np.random.Philox(
            key=seed | stream << 64, counter=(index << 128) + start // 4))
        fresh.bit_generator.random_raw(start % 4)
        ours = rngmod.sample_stream(seed, stream, index, start=start,
                                    gen=reused)
        assert ours.random(9).tolist() == fresh.random(9).tolist()
    # a negative index or start is refused though the key is unchanged
    rngmod.sample_stream(6, rngmod.STREAM_GHOST, 9, gen=reused)
    with pytest.raises(ValueError):
        rngmod.sample_stream(6, rngmod.STREAM_GHOST, -1, gen=reused)
    with pytest.raises(ValueError):
        rngmod.sample_stream(6, rngmod.STREAM_GHOST, 9, start=-4, gen=reused)


def reference_cluster(box, open_edges):
    adjacent = {}
    for a, b, is_open in zip(box.edge_a.tolist(), box.edge_b.tolist(),
                             open_edges.tolist()):
        if is_open:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
    seen, todo = {0}, [0]
    while todo:
        for w in adjacent.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def full_mask_walk(box, open_edges, ghost_open=None, stop_layer=None, root=0):
    # the sampler's walk, on masks drawn whole: breadth-first with a ghost
    # mask, depth-first without
    ptr, nbr, eid = incidence_csr(box.n_nodes, box.edge_a, box.edge_b)
    layer = box.layer.tolist()
    members, max_layer = [root], layer[root]
    if ghost_open is not None and ghost_open[root]:
        return members, max_layer, True
    stop = max(layer) + 1 if stop_layer is None else stop_layer
    if max_layer >= stop:
        return members, max_layer, False
    seen, todo = {root}, [root]
    while todo:
        v = todo.pop(0) if ghost_open is not None else todo.pop()
        for t in range(ptr[v], ptr[v + 1]):
            w = int(nbr[t])
            if open_edges[eid[t]] and w not in seen:
                seen.add(w)
                members.append(w)
                max_layer = max(max_layer, layer[w])
                if ghost_open is not None and ghost_open[w]:
                    return members, max_layer, True
                if max_layer >= stop:
                    return members, max_layer, False
                todo.append(w)
    return members, max_layer, False


@pytest.mark.parametrize("lattice", [P_LAT, T_LAT], ids=["square", "triangular"])
def test_early_exit_walk_decides_like_full_walk(lattice):
    # same draws walked to the end, stopped past the largest radius, and
    # stopped at the first ghost bond; the profile includes r = n_box
    n_box, radii = 6, [0, 1, 3, 6]
    box = PercBox(lattice, n_box)
    for param in (0.3, 0.5):
        weights = box.open_probabilities(param)
        for i in range(200):
            open_edges, ghost_open = full_draw(box, weights, 0.05, 5, 1, i)
            members, full, _ = box.origin_cluster(weights, 5, 1, i)
            cluster = reference_cluster(box, open_edges)
            assert set(members) == cluster
            assert full == max(box.layer[m] for m in cluster)
            _, early, _ = box.origin_cluster(weights, 5, 1, i,
                                             stop_layer=radii[-1] + 1)
            assert [early > r for r in radii] == [full > r for r in radii]
            _, _, hit = box.origin_cluster(weights, 5, 1, i, h=0.05)
            assert hit == any(ghost_open[m] for m in cluster)


# Z^2 with diagonal and (2, 0) bonds added: a custom lattice with longer
# bonds
LONG_LAT = LatticeSpec.custom(
    [(o, 1.0) for o in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
                        (2, 0), (-2, 0))], mode="p")
LAZY_BOXES = [(P_LAT, 10), (T_LAT, 5), (LatticeSpec.hypercubic(3, mode="p"), 4),
              (LONG_LAT, 3), (LONG_LAT, 4)]


def lazy_box(lattice, n_box):
    box = PercBox(lattice, n_box)
    return box, box.open_probabilities


def lazy_spin_graph(boundary, h):
    # a Wolff chain's walker: sites plus the ghost node one layer past them,
    # with the update's weights (param on aligned bonds, 0 on the others)
    # for random spins and the ghost at +1
    system = SpinSystem.box(LatticeSpec.square(mode="beta"), 5,
                            boundary=boundary, h=h)
    gen = rngmod.sample_stream(6, rngmod.STREAM_TEST, 0)
    ends = np.append(np.where(gen.random(system.n_sites) < 0.5, 1, -1), 1)
    aligned = ends[system.bond_a] == ends[system.bond_b]
    return system.walker, lambda param: np.where(aligned, param, 0.0)


def test_ghost_words_sit_at_a_fixed_word():
    # node v's ghost uniform is word _GHOST_WORD + v of the sample's stream,
    # whatever the box's size and however far it is built.  With every edge
    # open the walk is breadth-first over the box and stops at the first
    # node whose ghost bond is open, a node of ball(8): ball(8) and
    # ball(16), grown lazily or built whole, stop at the same node
    boxes = []
    for n_box in (8, 16):
        lazy, whole = PercBox(P_LAT, n_box), PercBox(P_LAT, n_box)
        whole._complete()
        boxes += [lazy, whole]
    inner = len(ball(P_LAT, 8))
    h = 0.1
    for i in range(20):
        open_edges, ghost_open = full_draw(boxes[1], 1.0, h, 8,
                                           rngmod.STREAM_GHOST, i)
        expected = full_mask_walk(boxes[1], open_edges, ghost_open)
        assert expected[2] and expected[0][-1] < inner
        for box in boxes:
            assert box.origin_cluster(box.open_probabilities(1.0), 8,
                                      rngmod.STREAM_GHOST, i,
                                      h=h) == expected


WALK_GRAPHS = pytest.mark.parametrize(
    "make,args",
    [(lazy_box, box) for box in LAZY_BOXES]
    + [(lazy_spin_graph, ("plus", 0.0)), (lazy_spin_graph, ("free", 0.2)),
       (lazy_spin_graph, ("free", 0.0))],
    ids=["square", "triangular", "cubic", "custom3", "custom4", "spin-plus",
         "spin-field", "spin-free"])


@pytest.mark.parametrize("first_draw", [1, perc_mc._FIRST_DRAW])
@WALK_GRAPHS
def test_lazy_walk_is_bit_identical_to_full_mask_walk(make, args, first_draw,
                                                      monkeypatch):
    # with first_draw = 1 the prefix grows from a single word, so every
    # doubling step is exercised on these small graphs; the spin graphs
    # carry a ghost node as their last node, in the last layer.  A walk on
    # the words draw_edges drew, from any root, is the walk over them, and
    # labeling them in numpy, all of them or those a random keep mask
    # marks, marks the same cluster as the walk over those edges
    monkeypatch.setattr(perc_mc, "_FIRST_DRAW", first_draw)
    walker, open_probabilities = make(*args)
    top = max(walker.layer.tolist())
    stops = (None, 1, (top - 1) // 2 + 1, top)
    h = 0.02
    for param in (0.25, 0.6):
        weights = open_probabilities(param)
        for i in range(60):
            open_edges, ghost_open = full_draw(walker, weights, h, 8, 3, i)
            keeps = (np.ones(walker.n_edges, dtype=bool),
                     rngmod.sample_stream(9, rngmod.STREAM_TEST, i).random(
                         walker.n_edges) < 0.7)
            for stop in stops:
                assert (walker.origin_cluster(weights, 8, 3, i,
                                              stop_layer=stop)
                        == full_mask_walk(walker, open_edges,
                                          stop_layer=stop))
            assert (walker.origin_cluster(weights, 8, 3, i, h=h)
                    == full_mask_walk(walker, open_edges, ghost_open))
            walker.draw_edges(weights, 8, 3, i)
            for root in (0, walker.n_nodes // 3, walker.n_nodes - 1):
                for stop in stops:
                    assert (walker.drawn_cluster(root, stop)
                            == full_mask_walk(walker, open_edges,
                                              stop_layer=stop, root=root))
                for keep in keeps:
                    members, _, _ = full_mask_walk(walker, open_edges & keep,
                                                   root=root)
                    assert walker.component(keep, root=root) == len(members)
                    assert (np.flatnonzero(walker.seen).tolist()
                            == sorted(members))


@WALK_GRAPHS
def test_blocked_and_predrawn_walks_match_full_mask_walk(make, args):
    # a blocked node is never entered, as if every edge into it were
    # closed, and stays marked in seen; a walk on the words draw_edges drew
    # is the walk that draws them itself, and the generator draw_edges
    # returns continues at word n_edges
    walker, open_probabilities = make(*args)
    weights = open_probabilities(0.6)
    a, b = walker.edge_a, walker.edge_b
    gen = rngmod.sample_stream(7, rngmod.STREAM_TEST, 0)
    for i in range(20):
        open_edges, _ = full_draw(walker, weights, 0.0, 8, 3, i)
        blocked = gen.random(walker.n_nodes) < 0.3
        after = walker.draw_edges(weights, 8, 3, i).random()
        assert after == rngmod.sample_stream(
            8, 3, i, start=walker.n_edges).random()
        assert walker.drawn_cluster() == walker.origin_cluster(weights, 8, 3,
                                                               i)
        walker.draw_edges(weights, 8, 3, i)
        for root in (0, walker.n_nodes // 3):
            blocked[root] = False
            expected = full_mask_walk(
                walker, open_edges & ~blocked[a] & ~blocked[b], root=root)
            assert walker.drawn_cluster(
                root, blocked=bytearray(blocked.view(np.uint8))) == expected
            assert np.flatnonzero(walker.seen).tolist() == sorted(
                set(expected[0]) | set(np.flatnonzero(blocked).tolist()))
            assert walker.drawn_cluster(root=root) == full_mask_walk(
                walker, open_edges, root=root)


@WALK_GRAPHS
def test_first_walk_of_a_fresh_walker_matches_full_mask_walk(make, args):
    # a fresh box has no layer built: its first walk, with a field or
    # without, builds the rows it pops from nothing
    walker, open_probabilities = make(*args)
    top = max(walker.layer.tolist())
    cases = [dict(stop_layer=stop) for stop in (None, 1, (top - 1) // 2 + 1,
                                                top)] + [dict(h=0.02)]
    for param in (0.25, 0.6):
        weights = open_probabilities(param)
        for i in range(4):
            open_edges, ghost_open = full_draw(walker, weights, 0.02, 8, 3, i)
            for case in cases:
                fresh, _ = make(*args)
                expected = full_mask_walk(
                    walker, open_edges, ghost_open if "h" in case else None,
                    stop_layer=case.get("stop_layer"))
                assert fresh.origin_cluster(weights, 8, 3, i,
                                            **case) == expected


@pytest.mark.parametrize("walk_budget", [0, 1, 8])
@WALK_GRAPHS
def test_budgeted_walks_mark_the_walks_cluster_and_event(make, args,
                                                         walk_budget):
    # a walk that passes its budget hands the cluster over to the labeler:
    # the labeled cluster is the walk's whole cluster, with its largest
    # layer and the same stop and ghost events, on a fresh box whose rows
    # are built from nothing or on one a walk already built
    walker, open_probabilities = make(*args)
    top = max(walker.layer.tolist())
    stops = (1, (top - 1) // 2 + 1, top)
    h = 0.02
    for param in (0.25, 0.6):
        weights = open_probabilities(param)
        for i in range(12):
            open_edges, ghost_open = full_draw(walker, weights, h, 8, 3, i)
            members, max_layer, _ = full_mask_walk(walker, open_edges)
            box, probabilities = ((walker, open_probabilities) if i >= 3
                                  else make(*args))
            got, got_layer, hit = box.origin_cluster(
                probabilities(param), 8, 3, i, budget=walk_budget)
            assert (sorted(got.tolist() if isinstance(got, np.ndarray)
                           else got), got_layer, hit) == (sorted(members),
                                                          max_layer, False)
            assert np.flatnonzero(box.seen).tolist() == sorted(members)
            for stop in stops:
                _, got_layer, _ = box.origin_cluster(
                    probabilities(param), 8, 3, i, stop_layer=stop,
                    budget=walk_budget)
                assert got_layer >= stop if max_layer >= stop else (
                    got_layer == max_layer)
            _, _, hit = box.origin_cluster(probabilities(param), 8, 3, i, h=h,
                                           budget=walk_budget)
            assert hit == full_mask_walk(walker, open_edges, ghost_open)[2]


@pytest.mark.parametrize("walk_budget", [0, 1, 8, None],
                         ids=["label", "one", "eight", "walk"])
def test_estimates_do_not_depend_on_the_walk_budget(walk_budget,
                                                    monkeypatch):
    # every walk of every estimator, taking budget 0 (label every
    # cluster), 1, 8 or none (walk every cluster), gives the estimates
    # the estimators give with their own budgets
    def estimates():
        return (exit_profile(P_LAT, 16, [1, 4, 8, 16], 0.5, 300, 3),
                susceptibility_profile(P_LAT, 16, [2, 8, 16], 0.5, 300, 3),
                estimate_ghost_magnetization(P_LAT, 16, 0.5, 0.05, 300, 3))

    expected = estimates()
    origin_cluster = ClusterWalker.origin_cluster

    def budgeted(self, *args, budget=None, **kwargs):
        return origin_cluster(self, *args, budget=walk_budget, **kwargs)

    monkeypatch.setattr(ClusterWalker, "origin_cluster", budgeted)
    assert estimates() == expected


def adversarial_graph(kind):
    # a 5,000-node path whose node ids fall along the edge order (edge e
    # joins nodes n - 1 - e and n - 2 - e), so labels reach the far end
    # only through many hooks and jumps; and a star whose hub is the last
    # node, with every edge, as a Wolff system's ghost does, beside the
    # isolated node 0
    n = 5000
    if kind == "path":
        a, b = np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1)
    else:
        a, b = np.arange(1, n - 1), np.full(n - 2, n - 1)
    return ClusterWalker(n, a, b, np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("kind", ["path", "star"])
def test_component_matches_full_mask_walk_on_adversarial_graphs(kind):
    # the size and the seen bytes of the labeled cluster are those of the
    # walk over the kept open edges: every edge open or about half of them,
    # every edge kept, none, or a random 70 %, from the first node (on the
    # star, isolated), a middle one and the last one (the hub)
    walker = adversarial_graph(kind)
    n = walker.n_nodes
    random_keep = rngmod.sample_stream(4, rngmod.STREAM_TEST, 0).random(
        walker.n_edges) < 0.7
    keeps = (np.ones(walker.n_edges, dtype=bool),
             np.zeros(walker.n_edges, dtype=bool), random_keep)
    for param in (1.0, 0.5):
        weights = np.full(walker.n_edges, param)
        open_edges, _ = full_draw(walker, weights, 0.0, 8, 3, 0)
        walker.draw_edges(weights, 8, 3, 0)
        for keep in keeps:
            for root in (0, n // 2, n - 1):
                members, _, _ = full_mask_walk(walker, open_edges & keep,
                                               root=root)
                expected = bytearray(n)
                for m in members:
                    expected[m] = 1
                assert walker.component(keep, root=root) == len(members)
                assert walker.seen == expected


def smallest_node_labels(walker, open_edges):
    # each node's label, the smallest node of its cluster: a walk from each
    # node not yet labeled, in increasing order, so each walk starts at the
    # smallest node of its cluster
    ptr, nbr, eid = incidence_csr(walker.n_nodes, walker.edge_a,
                                  walker.edge_b)
    label = [-1] * walker.n_nodes
    for v in range(walker.n_nodes):
        if label[v] < 0:
            label[v], todo = v, [v]
            while todo:
                u = todo.pop()
                for t in range(ptr[u], ptr[u + 1]):
                    w = int(nbr[t])
                    if open_edges[eid[t]] and label[w] < 0:
                        label[w] = v
                        todo.append(w)
    return label


@pytest.mark.parametrize("kind", ["path", "star"])
def test_labels_give_every_node_the_smallest_node_of_its_cluster(kind):
    # over the kept open edges of the adversarial graphs, every node's
    # label is the smallest node of its cluster, and the nodes that share
    # the label of a root are the walk's members from it
    walker = adversarial_graph(kind)
    n = walker.n_nodes
    random_keep = rngmod.sample_stream(4, rngmod.STREAM_TEST, 0).random(
        walker.n_edges) < 0.7
    keeps = (np.ones(walker.n_edges, dtype=bool),
             np.zeros(walker.n_edges, dtype=bool), random_keep)
    for param in (1.0, 0.5):
        weights = np.full(walker.n_edges, param)
        open_edges, _ = full_draw(walker, weights, 0.0, 8, 3, 0)
        walker.draw_edges(weights, 8, 3, 0)
        for keep in keeps:
            label = walker.labels(keep)
            assert label.tolist() == smallest_node_labels(walker,
                                                          open_edges & keep)
            for root in (0, n // 2, n - 1):
                members, _, _ = full_mask_walk(walker, open_edges & keep,
                                               root=root)
                assert label[root] == min(members)
                assert (np.flatnonzero(label == label[root]).tolist()
                        == sorted(members))


@pytest.mark.parametrize("profile", [
    lambda: exit_profile(P_LAT, 8, [1, 2, 8], 0.45, 50, 1),
    lambda: susceptibility_profile(P_LAT, 8, [2, 8], 0.45, 50, 1),
    lambda: estimate_ghost_magnetization(P_LAT, 8, 0.45, 0.1, 50, 1)],
    ids=["exit", "susceptibility", "ghost"])
def test_one_kept_box_serves_a_whole_profile(profile):
    # the last box is kept, and a profile samples one box: built once
    perc_mc._box.cache_clear()
    profile()
    assert perc_mc._box.cache_info().misses == 1


def test_small_clusters_build_few_python_rows():
    # at p = 0.25 the 800 clusters on ball(96) have about two sites, and
    # the walks build the Python rows and layers of under 5 % of the box's
    # 19,013 nodes and 37,636 edges (read without a public attribute,
    # which would build the whole box)
    perc_mc._box.cache_clear()
    susceptibility_profile(P_LAT, 96, [96], 0.25, 800, 1)
    box = perc_mc._box(P_LAT, 96)
    assert len(box._ptr) - 1 < 0.05 * 19_013
    assert len(box._nbr) == len(box._eid) < 0.05 * 2 * 37_636
    assert len(box._layer) < 0.05 * 19_013


def whole_walker(lattice, n):
    # a walker over ball(n) and its shell laid out in one builder step,
    # that step, and the coordinates of its nodes
    builder = BallBuilder(lattice, n)
    layout = builder.extend(n + 1)
    return (ClusterWalker(len(layout.layer), layout.edge_a, layout.edge_b,
                          layout.layer), layout, builder.coords(layout.keys))


PREFIX_BALLS = [(P_LAT, 12), (T_LAT, 12), (LatticeSpec.hypercubic(3), 8),
                (LONG_LAT, 12)]
PREFIX_IDS = ["square", "triangular", "cubic", "custom"]


@pytest.mark.parametrize("lattice, n", PREFIX_BALLS, ids=PREFIX_IDS)
def test_ball_prefixes_are_final(lattice, n):
    # for m < n, ball(m) and ball(n) share the nodes of layers <= m, and
    # the rows, edge ids, couplings and need of the nodes of layers < m:
    # what a box built to radius m holds is already ball(n)'s
    big, big_layout, big_coords = whole_walker(lattice, n)
    for m in range(1, n):
        small, small_layout, small_coords = whole_walker(lattice, m)
        nodes = int((small_layout.layer <= m).sum())
        assert (small_coords[:nodes] == big_coords[:nodes]).all()
        assert small._layer[:nodes] == big._layer[:nodes]
        rows = int((small_layout.layer < m).sum())
        assert small._need[:rows] == big._need[:rows]
        ptr = small._ptr
        assert ptr[:rows + 1] == big._ptr[:rows + 1]
        assert small._nbr[:ptr[rows]] == big._nbr[:ptr[rows]]
        assert small._eid[:ptr[rows]] == big._eid[:ptr[rows]]
        edges = small._need[rows - 1]
        assert edges == max(small._eid[:ptr[rows]]) + 1
        for name in ("edge_a", "edge_b", "edge_j"):
            assert (getattr(small_layout, name)[:edges]
                    == getattr(big_layout, name)[:edges]).all()


@pytest.mark.parametrize("lattice, n", PREFIX_BALLS, ids=PREFIX_IDS)
def test_grown_box_is_the_whole_box(lattice, n, monkeypatch):
    # a box grown a layer, then a doubling radius, at a time holds after
    # each step a prefix of the whole box's arrays, and at the end all of
    # them: Python rows, need, layers and edges
    monkeypatch.setattr(perc_mc, "_FIRST_LAYERS", 1)
    whole, layout, _ = whole_walker(lattice, n)
    box = PercBox(lattice, n)
    assert not box._need and not box._layer
    radii = []
    while not box._builder.done:
        box._grow(len(box._need))
        radii.append(box._builder.radius)
        rows, nodes, edges = (len(box._need), len(box._layer),
                              len(box._edge_a))
        assert box._need == whole._need[:rows]
        ptr = box._ptr
        assert len(ptr) == rows + 1
        assert len(box._nbr) == ptr[-1] == len(box._eid)
        assert ptr == whole._ptr[:rows + 1]
        assert box._nbr == whole._nbr[:ptr[-1]]
        assert box._eid == whole._eid[:ptr[-1]]
        assert box._layer == layout.layer[:nodes].tolist()
        assert (box._edge_a == layout.edge_a[:edges]).all()
        assert (box._edge_b == layout.edge_b[:edges]).all()
        assert (box._edge_j == layout.edge_j[:edges]).all()
        assert len(box._open) == len(box._edge_u) == edges
        assert len(box.seen) == len(box._ghost_open) == nodes
    assert radii == [r for r in (1, 2, 4, 8) if r < n] + [n + 1]
    ptr, nbr, eid = incidence_csr(len(layout.layer), layout.edge_a,
                                  layout.edge_b)
    assert (box._ptr, box._nbr, box._eid) == (ptr.tolist(), nbr.tolist(),
                                              eid.tolist())
    assert box.n_nodes == len(layout.layer)
    assert box.n_edges == len(layout.edge_a)
    for name in ("layer", "edge_a", "edge_b", "edge_j"):
        assert (getattr(box, name) == getattr(layout, name)).all()


@pytest.mark.parametrize("first_draw", [1, perc_mc._FIRST_DRAW])
@pytest.mark.parametrize("lattice, n_box", LAZY_BOXES[:4],
                         ids=["square", "triangular", "cubic", "custom3"])
def test_lazy_box_walks_match_the_whole_box(lattice, n_box, first_draw,
                                            monkeypatch):
    # a box that grows as its walks reach gives every walk the result of a
    # box built whole; with one first layer and one first word, growth
    # and draws interleave at every step.  A walk with a field grows the
    # box too, keeping the ghost words it drew across each growth step.
    monkeypatch.setattr(perc_mc, "_FIRST_DRAW", first_draw)
    monkeypatch.setattr(perc_mc, "_FIRST_LAYERS", 1)
    whole = PercBox(lattice, n_box)
    whole._complete()
    top = n_box + 1
    lazy = PercBox(lattice, n_box)
    weights = lazy.open_probabilities(0.2)
    assert not lazy._layer
    for i in range(40):
        assert (lazy.origin_cluster(weights, 8, 3, i, stop_layer=2)
                == whole.origin_cluster(weights, 8, 3, i, stop_layer=2))
    assert not lazy._builder.done
    grown_mid_walk = False
    for param in (0.25, 0.6):
        weights = lazy.open_probabilities(param)
        ghost = PercBox(lattice, n_box)
        for i in range(30):
            for stop in (None, 1, (top - 1) // 2 + 1, top):
                assert (lazy.origin_cluster(weights, 8, 3, i,
                                            stop_layer=stop)
                        == whole.origin_cluster(weights, 8, 3, i,
                                                stop_layer=stop))
            # a walk builds layer 0's row before it draws a word; any
            # later step comes mid-walk
            radius = max(ghost._builder.radius, 1)
            assert (ghost.origin_cluster(weights, 8, 3, i, h=0.1)
                    == whole.origin_cluster(weights, 8, 3, i, h=0.1))
            grown_mid_walk |= radius < ghost._builder.radius
    assert grown_mid_walk


def test_open_probabilities_per_coupling():
    # one coupling gives one 0-d array, and builds nothing; several give
    # one weight per edge of the box, which they build
    box = PercBox(T_LAT, 3)
    weight = box.open_probabilities(0.3)
    assert weight.ndim == 0 and weight == -math.expm1(-0.3)
    assert not box._layer
    # a walk given the weight as a plain float opens the same edges
    for i in range(20):
        assert (box.origin_cluster(float(weight), 8, 3, i, h=0.05)
                == box.origin_cluster(weight, 8, 3, i, h=0.05))
    two_j = LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0),
                                ((0, 1), 0.5), ((0, -1), 0.5)])
    box = PercBox(two_j, 3)
    weights = box.open_probabilities(0.3)
    assert box.built
    assert weights.tolist() == [-math.expm1(-0.3 * j)
                                for j in box.edge_j.tolist()]
    assert set(weights.tolist()) == {-math.expm1(-0.3), -math.expm1(-0.15)}
    # recorded while the per-edge weights were filled in as the box grew
    exit_hits = exit_profile(two_j, 10, [2, 5, 10], 0.9, 2000, 7)
    assert {r: round(e.mean * 2000) for r, e in exit_hits.items()} == {
        2: 1667, 5: 1499, 10: 1329}
    chi = susceptibility_profile(two_j, 8, [2, 4, 8], 0.9, 1000, 41)
    assert {r: e.mean for r, e in chi.items()} == {2: 8.032, 4: 20.13,
                                                   8: 48.606}


def test_small_clusters_build_few_layers():
    # at p = 0.25 the walks of 800 susceptibility samples on ball(96) never
    # pass layer 13, so the box builds the rows of its first 16 layers:
    # under 5 % of ball(96) and its shell (read without a public
    # attribute, which would build the whole box)
    perc_mc._box.cache_clear()
    susceptibility_profile(P_LAT, 96, [96], 0.25, 800, 1)
    box = perc_mc._box(P_LAT, 96)
    nodes = len(BallBuilder(P_LAT, 96).extend(97).layer)
    assert len(box._need) < 0.05 * nodes
    assert len(box._layer) < 0.05 * nodes
    assert not box._builder.done


def test_ghost_run_with_small_clusters_builds_few_layers():
    # at p = 0.25 the clusters on ball(96) stay near the origin, so a walk
    # with a field, whose ghost words start at a fixed word, builds the
    # rows of under 5 % of the box's 19,013 nodes
    perc_mc._box.cache_clear()
    estimate_ghost_magnetization(P_LAT, 96, 0.25, 0.01, 800, 1)
    box = perc_mc._box(P_LAT, 96)
    assert len(box._need) < 0.05 * 19_013
    assert not box._builder.done


def test_fixed_seed_outputs_are_pinned():
    # recorded before the numpy box layout, the early-exit walk and the
    # prefix-lazy draws, none of which changed a draw; a change of the
    # draws themselves (another stream layout) must move these on purpose,
    # as the ghost pins moved when the ghost words went to _GHOST_WORD
    exit_hits = {
        (P_LAT, 12, 0.5, 3000, 7): {2: 2605, 5: 2453, 12: 2253},
        (P_LAT, 10, 0.6, 2000, 8): {3: 1907, 10: 1902},
        (T_LAT, 6, 0.3, 2000, 9): {2: 1179, 6: 548},
    }
    for (lattice, n_box, param, samples, seed), hits in exit_hits.items():
        profile = exit_profile(lattice, n_box, list(hits), param, samples, seed)
        assert {r: round(e.mean * samples) for r, e in profile.items()} == hits
    chi_means = {
        (P_LAT, 8, 0.45, 2000, 41): {2: 7.302, 4: 17.005, 8: 36.9465},
        (T_LAT, 5, 0.25, 1000, 42): {1: 3.011, 5: 7.995},
    }
    for (lattice, n_box, param, samples, seed), means in chi_means.items():
        profile = susceptibility_profile(lattice, n_box, list(means), param,
                                         samples, seed)
        assert {r: e.mean for r, e in profile.items()} == means
    ghost = estimate_ghost_magnetization(P_LAT, 6, 0.45, 0.05, 2000, 61)
    assert round(ghost.mean * 2000) == 1246
    ghost = estimate_ghost_magnetization(T_LAT, 4, 0.2, 0.1, 1000, 62)
    assert round(ghost.mean * 1000) == 351


def test_ghost_magnetization_matches_exact_line():
    # 1d box [-1, 1] plus its shell {-2, 2}: 5 vertices, 4 bonds, and a
    # ghost bond at every vertex (shell included); node order matches the
    # sampler's layout (ball vertices in canonical order, then the shell)
    line = LatticeSpec.hypercubic(1, mode="p")
    p, h = 0.4, 0.3
    wh = 1.0 - math.exp(-h)
    edges = [(0, 1, p), (0, 2, p), (1, 3, p), (2, 4, p)]
    edges += [(i, 5, wh) for i in range(5)]
    truth = naive_event_prob(6, edges, 0, [5])[5]
    est = estimate_ghost_magnetization(line, 1, p, h, samples=60_000, seed=51)
    assert_within_sigmas(est, truth)


def test_ghost_magnetization_monotone_in_field():
    means = [estimate_ghost_magnetization(P_LAT, 4, 0.5, h, samples=20_000,
                                          seed=61).mean
             for h in (0.01, 0.1, 1.0)]
    assert means[0] < means[1] < means[2]
    assert means[2] > 0.9


def test_ghost_pin_where_walk_orders_diverge():
    # clusters at p_c on ball(24) reach far enough for the breadth-first
    # and depth-first walks to stop at different members; first recorded
    # with the depth-first ghost walk, and again when the ghost words went
    # to _GHOST_WORD
    ghost = estimate_ghost_magnetization(P_LAT, 24, 0.5, 0.01, 2000, 5)
    assert round(ghost.mean * 2000) == 1488


def test_ghost_walk_draws_the_words_near_the_origin(monkeypatch):
    # the depth-first ghost walk drew 3,339,190 edge and ghost words in
    # this run, 5,565 a sample, to read about 400
    words = []
    draw = perc_mc.ClusterWalker._draw

    def counted(gen, uniforms, mask, weights, drawn, needed):
        end = draw(gen, uniforms, mask, weights, drawn, needed)
        words.append(end - drawn)
        return end

    monkeypatch.setattr(perc_mc.ClusterWalker, "_draw", staticmethod(counted))
    ghost = estimate_ghost_magnetization(P_LAT, 96, 0.5, 0.01, 600, 5)
    assert round(ghost.mean * 600) == 453
    assert sum(words) <= 3_339_190 // 2
    assert sum(words) <= 2_000 * 600


def test_ghost_magnetization_rejects_bad_field():
    # a NaN field once passed the guard and estimated 0 with stderr 0
    for h in (-0.1, 0.0, math.nan):
        with pytest.raises(ValueError, match="needs h > 0"):
            estimate_ghost_magnetization(P_LAT, 4, 0.5, h, samples=100,
                                         seed=1)


def test_walk_rejects_a_nan_field():
    box = PercBox(P_LAT, 2)
    with pytest.raises(ValueError, match="h must be non-negative"):
        box.origin_cluster(box.open_probabilities(0.5), 1, 1, 0, h=math.nan)


@pytest.mark.parametrize("seed,stream", [(-1, 1), (2 ** 64, 1), (1, -1),
                                         (1, 2 ** 64)])
def test_sample_stream_refuses_keys_outside_64_bits(seed, stream):
    # a mask would give seed -1 the stream of seed 2**64 - 1
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        rngmod.sample_stream(seed, stream, 0)
    rngmod.sample_stream(2 ** 64 - 1, 2 ** 64 - 1, 0)


def test_fit_decay_rate_recovers_synthetic_rate():
    c_true, a = 0.21, 0.9
    series = [(n, MCEstimate("exit", a * math.exp(-c_true * n), 1e-4,
                             10_000, 1)) for n in (4, 8, 12, 16, 24)]
    fit = fit_decay_rate(series)
    assert fit.c == pytest.approx(c_true, abs=1e-6)
    assert fit.r2 > 0.999999


def test_fit_decay_rate_degenerate_inputs():
    flat = [(n, MCEstimate("exit", 0.0, 1e-4, 100, 1)) for n in (2, 4, 8)]
    with pytest.raises(DegenerateFit):
        fit_decay_rate(flat)
    with pytest.raises(DegenerateFit):
        fit_decay_rate([(4, MCEstimate("exit", 0.5, 1e-4, 100, 1))])


@pytest.mark.parametrize("what, call", [
    ("samples", lambda: exit_profile(P_LAT, 4, [2], 0.3, 0, 1)),
    ("radii", lambda: exit_profile(P_LAT, 4, [], 0.3, 10, 1)),
    ("samples", lambda: susceptibility_profile(P_LAT, 4, [2], 0.3, 0, 1)),
    ("radii", lambda: susceptibility_profile(P_LAT, 4, [], 0.3, 10, 1)),
    ("samples",
     lambda: estimate_ghost_magnetization(P_LAT, 4, 0.3, 0.1, 0, 1)),
    ("sweeps", lambda: estimate_magnetization(B_LAT, 4, 0.3, "free", 0, 1)),
    ("sweeps", lambda: estimate_two_point(B_LAT, 4, 0.3, [1], 0, 1)),
    ("sweeps", lambda: check_critical_divergence(B_LAT, 0.3, [2, 4], 0, 1)),
    # ball(8) is past the exact frontier, so compute_phi samples
    ("samples", lambda: compute_phi("perc", P_LAT, ball(P_LAT, 8), 0.3,
                                    samples=0)),
], ids=["exit-samples", "exit-radii", "chi-samples", "chi-radii", "ghost",
        "magnetization", "two-point", "divergence", "phi"])
def test_empty_monte_carlo_runs_are_refused(what, call):
    # an empty run has no mean: one line of ValueError, raised by the one
    # shared check, not a ZeroDivisionError (or an IndexError for no radii)
    with pytest.raises(ValueError, match=f"^{what}: need at least 1, got 0$"):
        call()


@pytest.mark.parametrize("what, call", [
    ("radii", lambda: exit_profile(P_LAT, 8, [-3, 2], 0.3, 10, 1)),
    ("radii", lambda: susceptibility_profile(P_LAT, 4, [-1], 0.3, 10, 1)),
    ("distances", lambda: estimate_two_point(B_LAT, 4, 0.3, [-2, 2], 10, 1)),
    ("radii", lambda: check_critical_divergence(B_LAT, 0.3, [-1, 4], 10, 1)),
], ids=["exit", "susceptibility", "two-point", "divergence"])
def test_negative_radii_and_distances_are_refused(what, call):
    # exit[n=-3] once read 1.0, and two_point[d=-2] was reported as a
    # distance
    with pytest.raises(ValueError, match=f"^{what} must be non-negative, "
                                         f"got -[0-9]+$"):
        call()
