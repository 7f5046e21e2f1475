"""Lattice specs, regions, and edge weights."""

import json
import math
import time

import numpy as np
import pytest

from subcrit import lattice as lattice_mod
from subcrit.lattice import (BallBuilder, LatticeSpec, Region, ball,
                             edge_weight, layers, translate_region)


def bfs_ball(lattice, n):
    seen = {lattice.origin()}
    frontier = [lattice.origin()]
    for _ in range(n):
        nxt = []
        for v in frontier:
            for w, _ in lattice.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def bfs_layers(lattice, n):
    """Layers 0 to n of a plain breadth-first walk, each unsorted."""
    seen, frontier, out = {lattice.origin()}, [lattice.origin()], []
    for _ in range(n + 1):
        out.append(frontier)
        frontier = [w for w in {w for v in frontier
                                for w, _ in lattice.neighbors(v)}
                    if w not in seen]
        seen.update(frontier)
    return out


def test_square_ball_sizes_match_closed_form_and_bfs():
    lattice = LatticeSpec.square()
    for n in range(11):
        region = ball(lattice, n)
        assert len(region) == 2 * n * n + 2 * n + 1
        assert set(region.vertices) == bfs_ball(lattice, n)


def test_balls_are_nested():
    lattice = LatticeSpec.square()
    previous = set()
    for n in range(6):
        current = set(ball(lattice, n).vertices)
        assert previous < current
        previous = current


def test_other_families_ball_sizes():
    assert len(ball(LatticeSpec.triangular(), 1)) == 7
    assert len(ball(LatticeSpec.hypercubic(3), 1)) == 7
    assert len(ball(LatticeSpec.hypercubic(1), 4)) == 9


def test_region_canonical_order_and_indexing():
    lattice = LatticeSpec.square()
    region = Region(lattice, [(0, 1), (0, 0), (1, 0), (0, -1), (-1, 0)])
    assert region.vertices[0] == (0, 0)
    # one BFS layer, lexicographic inside the layer
    assert region.vertices == ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0))
    for i, v in enumerate(region.vertices):
        assert region.index(v) == i
        assert v in region
    assert (7, 7) not in region
    # same set in any input order gives the same region
    again = Region(lattice, reversed(region.vertices))
    assert again == region and hash(again) == hash(region)


def test_region_edge_and_boundary_counts():
    lattice = LatticeSpec.square()
    lam1 = ball(lattice, 1)
    assert len(lam1.internal_edges) == 4
    assert len(lam1.boundary_pairs) == 12
    lam2 = ball(lattice, 2)
    assert len(lam2.internal_edges) == 16
    assert len(lam2.boundary_pairs) == 20
    # every boundary pair leaves the region
    for i, outside, j in lam2.boundary_pairs:
        assert lam2.vertices[i] in lam2
        assert outside not in lam2
        assert j == 1.0


def test_region_requires_base_point_and_dimension():
    lattice = LatticeSpec.square()
    with pytest.raises(ValueError):
        Region(lattice, [(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        Region(lattice, [(0, 0), (1, 0, 0)])


def test_disconnected_region_is_allowed():
    lattice = LatticeSpec.square()
    region = Region(lattice, [(0, 0), (5, 5)])
    assert set(region.vertices) == {(0, 0), (5, 5)}
    assert region.internal_edges == ()
    assert len(region.boundary_pairs) == 8


def test_radius_l_on_square_balls():
    lattice = LatticeSpec.square()
    for n in range(4):
        assert ball(lattice, n).radius_l == n + 1


def test_edge_weight_modes_and_errors():
    p_lat = LatticeSpec.square(mode="p")
    b_lat = LatticeSpec.square(mode="beta")
    assert edge_weight(p_lat, 1.0, 0.37) == 0.37
    assert edge_weight(b_lat, 1.0, 0.5) == pytest.approx(1.0 - math.exp(-0.5))
    assert edge_weight(b_lat, 2.0, 0.5) == pytest.approx(1.0 - math.exp(-1.0))
    assert edge_weight(b_lat, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        edge_weight(p_lat, 1.0, 1.2)
    with pytest.raises(ValueError):
        edge_weight(p_lat, 1.0, -0.1)
    with pytest.raises(ValueError):
        edge_weight(b_lat, 1.0, -0.5)


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec.square(mode="q")
    with pytest.raises(ValueError):
        LatticeSpec.custom([((0, 0), 1.0)])
    with pytest.raises(ValueError):  # not closed under negation
        LatticeSpec.custom([((1, 0), 1.0)])
    with pytest.raises(ValueError):  # p-mode needs unit couplings
        LatticeSpec.custom([((1, 0), 2.0), ((-1, 0), 2.0)], mode="p")
    # a legal anisotropic beta-mode table
    lat = LatticeSpec.custom([((1, 0), 2.0), ((-1, 0), 2.0),
                              ((0, 1), 0.5), ((0, -1), 0.5)])
    assert lat.total_coupling == pytest.approx(5.0)


def test_translate_region_preserves_structure():
    lattice = LatticeSpec.square()
    region = ball(lattice, 1)
    moved = translate_region(region, (3, -2))
    assert moved.origin == (3, -2)
    assert len(moved) == len(region)
    assert len(moved.internal_edges) == len(region.internal_edges)
    assert len(moved.boundary_pairs) == len(region.boundary_pairs)
    with pytest.raises(ValueError):
        translate_region(region, (1, 2, 3))


def test_json_round_trips():
    lattice = LatticeSpec.triangular(mode="beta")
    assert LatticeSpec.from_json(json.dumps(lattice.to_json())) == lattice
    custom = LatticeSpec.custom([((1, 0), 2.0), ((-1, 0), 2.0)])
    assert LatticeSpec.from_json(custom.to_json()) == custom
    for cube in (LatticeSpec.hypercubic(4, "p"),
                 LatticeSpec.hypercubic(2, "beta")):
        assert LatticeSpec.from_json(cube.to_json()) == cube


def test_distances_from_origin():
    lattice = LatticeSpec.square()
    dist = lattice.distances_from_origin([(0, 0), (1, 2), (-3, 1)])
    assert dist == {(0, 0): 0, (1, 2): 3, (-3, 1): 4}


def test_distances_need_paths_that_leave_the_targets_box():
    # offsets +-3 and +-5 reach 1 only as 3 + 3 - 5, which passes 6
    lattice = LatticeSpec.custom([((3,), 1.0), ((-3,), 1.0),
                                  ((5,), 1.0), ((-5,), 1.0)])
    expected = {}
    for k, layer in enumerate(bfs_layers(lattice, 12)):
        for v in layer:
            expected.setdefault(v, k)
    targets = [(x,) for x in range(-20, 21)]
    assert lattice.distances_from_origin(targets) == {
        v: expected[v] for v in targets}
    assert lattice.distances_from_origin([(1,)]) == {(1,): 3}


def test_an_unreachable_vertex_is_refused_at_once():
    # offsets +-2 never reach (1,); the walk stops once a layer leaves the
    # box every shortest path to a target stays in
    lattice = LatticeSpec.custom([((2,), 1.0), ((-2,), 1.0)])
    region = Region(lattice, [(0,), (1,)])
    start = time.process_time()
    with pytest.raises(ValueError) as info:
        region.radius_l
    assert time.process_time() - start < 1.0
    assert "unreachable" in str(info.value) and "\n" not in str(info.value)


def test_layers_stay_within_a_set():
    lattice = LatticeSpec.square()
    assert list(layers(lattice, (0, 0), {(0, 0), (1, 0), (2, 0), (5, 5)})) \
        == [[(0, 0)], [(1, 0)], [(2, 0)]]
    walk = layers(lattice, (0, 0))
    assert [sorted(next(walk)) for _ in range(4)] == [
        sorted(layer) for layer in bfs_layers(lattice, 3)]


def test_partners_are_the_region_adjacency():
    lattice = LatticeSpec.triangular()
    region = Region(lattice, ball(lattice, 2).vertices[:12] + ((4, 4),))
    assert region.partners.shape == (len(lattice.couplings), len(region))
    for c, (offset, _) in enumerate(lattice.couplings):
        for i, v in enumerate(region.vertices):
            w = tuple(a + b for a, b in zip(v, offset))
            assert region.partners[c, i] == (region.index(w) if w in region
                                             else -1)
    with pytest.raises(ValueError):
        region.partners[0, 0] = 0


LAYOUT_LATTICES = (
    LatticeSpec.square(),
    LatticeSpec.triangular(),
    LatticeSpec.hypercubic(3),
    # non-unit couplings and a range-2 offset
    LatticeSpec.custom([((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 0.5),
                        ((0, -1), 0.5), ((0, 2), 2.0), ((0, -2), 2.0)]),
)


def one_step(lattice, n):
    # ball(n) and its shell laid out by a builder in one step
    builder = BallBuilder(lattice, n)
    return builder, builder.extend(n + 1)


@pytest.mark.parametrize(
    "lattice,n",
    [(lattice, n) for lattice in LAYOUT_LATTICES for n in (0, 1, 2, 5, 12)]
    + [(LAYOUT_LATTICES[0], 33), (LAYOUT_LATTICES[1], 33),
       (LAYOUT_LATTICES[3], 20)],
    ids=lambda arg: arg.family if isinstance(arg, LatticeSpec) else str(arg))
def test_ball_builder_in_one_step_matches_ball(lattice, n):
    region = ball(lattice, n)
    shell = sorted({w for _, w, _ in region.boundary_pairs})
    nodes = list(region.vertices) + shell
    index = {v: i for i, v in enumerate(nodes)}
    builder, layout = one_step(lattice, n)
    assert [tuple(c) for c in builder.coords(layout.keys).tolist()] == nodes
    assert builder.n_inside == len(region)
    assert layout.n_internal == len(region.internal_edges)
    edges = list(region.internal_edges)
    edges += [(i, index[w], j) for i, w, j in region.boundary_pairs]
    assert list(zip(layout.edge_a.tolist(), layout.edge_b.tolist(),
                    layout.edge_j.tolist())) == edges
    dist = lattice.distances_from_origin(nodes)
    assert layout.layer.tolist() == [dist[v] for v in nodes]
    assert set(layout.layer[len(region):].tolist()) <= {n + 1}


@pytest.mark.parametrize("lattice", LAYOUT_LATTICES,
                         ids=lambda lattice: lattice.family)
def test_ball_builder_in_steps_is_one_step(lattice):
    # a builder extended a few layers at a time adds, step by step, the
    # nodes and edges of a single step; after each step the nodes of the
    # layers below the radius have every edge, and none of their edges
    # lies before first_edge
    n = 9
    whole, layout = one_step(lattice, n)
    builder = BallBuilder(lattice, n)
    chunks, edges = [], 0
    for radius in (1, 2, 3, 5, 8, 9, 12):
        chunk = builder.extend(radius)
        assert builder.radius == min(radius, n + 1)
        nodes = sum(len(c.keys) for c in chunks + [chunk])
        if radius <= n:
            assert chunk.rows == int((layout.layer < radius).sum())
        else:
            assert chunk.rows == nodes == len(layout.layer)
        edges += len(chunk.edge_a)
        rows = range(chunks[-1].rows if chunks else 0, chunk.rows)
        touching = [e for e in range(edges)
                    if layout.edge_a[e] in rows or layout.edge_b[e] in rows]
        assert min(touching, default=chunk.first_edge) >= chunk.first_edge
        assert all(layout.edge_a[e] < chunk.rows and layout.edge_b[e] < nodes
                   for e in range(edges))
        chunks.append(chunk)
    assert builder.done and builder.n_inside == whole.n_inside
    for name in ("keys", "layer", "edge_a", "edge_b", "edge_j"):
        built = np.concatenate([getattr(c, name) for c in chunks])
        assert built.dtype == getattr(layout, name).dtype
        assert (built == getattr(layout, name)).all(), name
    assert edges - len(chunks[-1].edge_a) + chunks[-1].n_internal == (
        layout.n_internal)
    with pytest.raises(ValueError, match=r"^ball\(9\) is built$"):
        builder.extend(n + 5)
    fresh = BallBuilder(lattice, n)
    fresh.extend(3)
    with pytest.raises(ValueError, match="^the layers below 3 are built$"):
        fresh.extend(3)


def test_ball_builder_rejects_keys_beyond_int64():
    wide = LatticeSpec.custom([((1 << 40, 0), 1.0), ((-(1 << 40), 0), 1.0)])
    for lattice, n in ((wide, 1), (LatticeSpec.hypercubic(20), 10)):
        with pytest.raises(ValueError, match="int64") as info:
            one_step(lattice, n)
        assert "\n" not in str(info.value)
    assert one_step(LatticeSpec.hypercubic(20), 1)[0].n_inside == 41


def test_ball_builder_refuses_balls_past_the_vertex_cap(monkeypatch):
    # square ball(n) with its shell has 2n^2 + 6n + 5 nodes: 85 at n = 5,
    # 113 at n = 6; ball(10^5) has about 2 * 10^10 and is refused within
    # a dozen layers
    monkeypatch.setattr(lattice_mod, "LAYOUT_VERTEX_CAP", 100)
    square = LatticeSpec.square()
    assert len(one_step(square, 5)[1].layer) == 85
    for n in (6, 100_000):
        with pytest.raises(ValueError, match="layout cap") as info:
            one_step(square, n)
        assert "\n" not in str(info.value)
