"""Tests for the truncated random-current engine."""

import math

import numpy as np
import pytest

from subcrit.currents import (MAX_CAP, Current, CurrentGraph, _cap,
                              correlation_via_currents, enumerate_currents,
                              expectation_via_currents, extract_backbone,
                              f_connect, oriented_edge_order, resolve_f,
                              source_sum, switching_check, weight)
from subcrit.errors import CapExceeded, NoPath


def spin_expectation(graph, targets, beta, h):
    """Brute-force spin sum: exp(sum beta J s s + h sum s), ghost = +1."""
    n = graph.n_vertices
    num = den = 0.0
    for bits in range(1 << n):
        spins = [1 if bits >> i & 1 else -1 for i in range(n)]
        energy = sum(beta * j * spins[a] * spins[b]
                     for a, b, j in graph.edges)
        energy += h * sum(spins)
        w = math.exp(energy)
        den += w
        num += w * math.prod(spins[t] for t in targets)
    return num / den


def random_graph(rng, max_vertices=4):
    n = int(rng.integers(2, max_vertices + 1))
    edges = {}
    for v in range(1, n):  # random spanning tree keeps the graph connected
        u = int(rng.integers(0, v))
        edges[(u, v)] = round(float(rng.uniform(0.2, 1.0)), 3)
    for _ in range(int(rng.integers(0, 3))):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.setdefault((a, b), round(float(rng.uniform(0.2, 1.0)), 3))
    return CurrentGraph(n, tuple((a, b, j) for (a, b), j in edges.items()))


# --- graph and scheme validation ---------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError):
        CurrentGraph(0, ())
    with pytest.raises(ValueError):
        CurrentGraph(2, ((0, 0, 1.0),))
    with pytest.raises(ValueError):
        CurrentGraph(2, ((0, 2, 1.0),))
    with pytest.raises(ValueError):
        CurrentGraph(2, ((0, 1, 0.0),))
    with pytest.raises(ValueError):
        CurrentGraph(3, ((0, 1, 1.0), (1, 0, 0.5)))


def test_truncation_scheme_validation():
    assert _cap(1) == 1
    assert _cap(MAX_CAP) == MAX_CAP
    with pytest.raises(ValueError):
        _cap(0)
    with pytest.raises(ValueError, match="between 1 and 170"):
        switching_check(CurrentGraph.complete(3), (), 0, 1, "one",
                        0.5, 0.0, MAX_CAP + 1)
    with pytest.raises(ValueError):
        source_sum(CurrentGraph.path(2), (), 0.5, 0.0, 0)


def test_pair_bases_order_and_ghost():
    g = CurrentGraph(3, ((1, 2, 0.5), (0, 1, 2.0)))
    pairs, bases = g.pair_bases(0.3, 0.0)
    assert pairs == [(0, 1), (1, 2)]
    assert bases == pytest.approx([0.6, 0.15])
    pairs_h, bases_h = g.pair_bases(0.3, 0.25)
    assert pairs_h == [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert bases_h[2:] == pytest.approx([0.25, 0.25, 0.25])


# --- weights and explicit enumeration ----------------------------------------

def test_weight_is_product_of_powers_over_factorials():
    g = CurrentGraph.path(3)
    cur = Current(g, (((0, 1), 2), ((1, 2), 1)))
    assert weight(cur, 0.7, 0.0) == pytest.approx(0.7 ** 2 / 2.0 * 0.7,
                                                  rel=1e-14)
    assert weight(Current(g, ()), 0.9, 0.0) == 1.0


def test_weight_rejects_bad_inputs():
    g = CurrentGraph.path(2)
    cur = Current(g, (((0, 1), 1),))
    assert weight(cur, 0.0, 0.0) == 0.0  # beta = 0: only the empty current
    with pytest.raises(ValueError):
        weight(cur, 0.5, -0.1)
    ghostly = Current(g, (((0, 2), 1),))
    with pytest.raises(ValueError):
        weight(ghostly, 0.5, 0.0)  # ghost pair only coupled when h > 0
    assert weight(ghostly, 0.5, 0.3) == pytest.approx(0.3)


def test_current_sources_by_parity():
    g = CurrentGraph.cycle(4)
    cur = Current(g, (((0, 1), 1), ((1, 2), 1)))
    assert cur.sources() == frozenset({0, 2})
    even = Current(g, (((0, 1), 2), ((2, 3), 4)))
    assert even.sources() == frozenset()


def test_enumerate_currents_matches_source_sum_and_weight():
    # the class engine against the explicit multiplicity enumeration, at
    # caps with and without an even class >= 2, with and without a field
    rng = np.random.default_rng(2024)
    checked = with_field = 0
    for cap in (1, 2, 3, 4):
        for _ in range(10):
            g = random_graph(rng)
            small = g.n_vertices <= 3 and len(g.edges) <= 3
            beta = float(rng.uniform(0.2, 0.8))
            n_src = int(rng.choice([0, 1, 2]))
            sources = [int(x) for x in
                       rng.choice(g.n_vertices, size=n_src, replace=False)]
            for h in ((0.0, 0.3) if small else (0.0,)):
                # an odd source set sends its leftover parity to the ghost
                target = tuple(sources + [g.ghost] * (n_src % 2))
                total = 0.0
                for cur, w in enumerate_currents(g, target, beta, h, cap):
                    assert weight(cur, beta, h) == pytest.approx(w, rel=1e-12)
                    assert cur.sources() == frozenset(target)
                    total += w
                    checked += 1
                with_field += h > 0.0
                assert source_sum(g, target, beta, h, cap) == pytest.approx(
                    total, rel=1e-12, abs=1e-15)
    assert checked > 500 and with_field >= 8


# --- source sums and expectations --------------------------------------------

def test_source_sum_empty_graph_edge_cases():
    g = CurrentGraph(1, ())
    assert source_sum(g, (), 0.5, 0.0, 5) == 1.0
    assert source_sum(g, (0,), 0.5, 0.0, 5) == 0.0


def test_source_sum_input_validation():
    g = CurrentGraph.path(2)
    with pytest.raises(ValueError):
        source_sum(g, (0, 0), 0.5, 0.0, 4)
    with pytest.raises(ValueError):
        source_sum(g, (7,), 0.5, 0.0, 4)


def test_odd_parity_sums_vanish_without_field():
    g = CurrentGraph.path(3)
    assert source_sum(g, (0,), 0.6, 0.0, 8) == 0.0
    assert expectation_via_currents(g, (0,), 0.6, 0.0, 8) == 0.0
    assert expectation_via_currents(g, (0, 1, 2), 0.6, 0.0, 8) == 0.0


def test_single_edge_correlation_converges_to_tanh():
    g = CurrentGraph.path(2)
    beta = 0.5
    assert correlation_via_currents(g, 0, 1, beta, 0.0, 14) == pytest.approx(
        math.tanh(beta), rel=1e-12)


def test_truncated_sums_increase_and_converge():
    g = CurrentGraph.cycle(3)
    beta = 0.6
    values = [source_sum(g, (0, 1), beta, 0.0, cap)
              for cap in (1, 3, 5, 9, 14)]
    assert values == sorted(values)
    gaps = [b - a for a, b in zip(values, values[1:])]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] >= 0.0
    assert values[-1] - values[-2] < 1e-7


def test_single_site_magnetization_is_tanh_of_field():
    g = CurrentGraph(1, ())
    h = 0.35
    assert correlation_via_currents(g, 0, g.ghost, 0.9, h, 14) == \
        pytest.approx(math.tanh(h), rel=1e-12)


def test_correlation_coincident_vertices():
    assert correlation_via_currents(CurrentGraph.path(2), 1, 1,
                                    0.4, 0.0, 6) == 1.0


def test_correlations_match_spin_enumeration():
    # triangle without field, path with field: truncation at 14 leaves
    # errors far below the tolerance
    tri = CurrentGraph(3, ((0, 1, 1.0), (1, 2, 0.7), (0, 2, 0.4)))
    got = correlation_via_currents(tri, 0, 2, 0.5, 0.0, 14)
    assert got == pytest.approx(spin_expectation(tri, (0, 2), 0.5, 0.0),
                                rel=1e-12)
    line = CurrentGraph(3, ((0, 1, 0.8), (1, 2, 0.6)))
    got = correlation_via_currents(line, 0, 2, 0.4, 0.25, 14)
    assert got == pytest.approx(spin_expectation(line, (0, 2), 0.4, 0.25),
                                rel=1e-10)
    mag = correlation_via_currents(line, 1, line.ghost, 0.4, 0.25, 14)
    assert mag == pytest.approx(spin_expectation(line, (1,), 0.4, 0.25),
                                rel=1e-10)


def test_random_graphs_match_spin_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(8):
        g = random_graph(rng)
        beta = float(rng.uniform(0.1, 0.4))
        x, y = (int(v) for v in rng.choice(g.n_vertices, size=2,
                                           replace=False))
        got = correlation_via_currents(g, x, y, beta, 0.0, 10)
        assert got == pytest.approx(spin_expectation(g, (x, y), beta, 0.0),
                                    rel=1e-6, abs=1e-8)


# --- switching identity --------------------------------------------------------

def test_switching_identity_exact_at_every_truncation_level():
    g = CurrentGraph.complete(3)
    beta, h = 0.4, 0.25
    for spec in ("one", "even_total", ("connect", 0, 2)):
        for cap in (2, 4, 6, 8):
            lhs, rhs = switching_check(g, (0, 1), 0, 1, spec, beta, h, cap)
            assert lhs > 0.0
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_switching_identity_empty_source_set():
    g = CurrentGraph.cycle(4)
    lhs, rhs = switching_check(g, (), 0, 2, "one", 0.5, 0.0, 6)
    assert lhs > 0.0
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_switching_rejects_coincident_switch_pair():
    with pytest.raises(ValueError):
        switching_check(CurrentGraph.path(2), (), 0, 0, "one", 0.5, 0.0, 4)


def connected_in(current, u, v):
    """Plain search: do u and v share a component of the positive support?"""
    reach, stack = {u}, [u]
    while stack:
        at = stack.pop()
        for (a, b), m in current.multiplicities:
            if m > 0 and at in (a, b):
                other = b if at == a else a
                if other not in reach:
                    reach.add(other)
                    stack.append(other)
    return v in reach


def test_switching_sides_match_naive_double_sum():
    # brute-force both sides from enumerate_currents, with a field and a
    # per-pair cap high enough that every pair-sum <= cap split is present
    g = CurrentGraph.path(3)
    beta, h, cap = 0.7, 0.3, 4
    sources, u, v = (0, 1), 0, 2
    ab = frozenset(sources) ^ {u, v}

    def combined(first, second):
        """sum of w1 w2 over current pairs with these sources, by the
        combined current, pair sums capped."""
        seconds = [(np.array([m for _, m in n2.multiplicities]), w2)
                   for n2, w2 in enumerate_currents(g, second, beta, h, cap)]
        combos = {}
        for n1, w1 in enumerate_currents(g, first, beta, h, cap):
            pairs = [p for p, _ in n1.multiplicities]
            m1 = np.array([m for _, m in n1.multiplicities])
            for m2, w2 in seconds:
                m = m1 + m2
                if m.max() <= cap:
                    key = tuple(zip(pairs, m.tolist()))
                    combos[key] = combos.get(key, 0.0) + w1 * w2
        return combos

    lhs_combos = combined(ab, (u, v))
    rhs_combos = combined(sources, ())
    for spec in ("one", "even_total", ("connect", 0, 2)):
        f = resolve_f(spec, g)

        def f_of(key):
            pairs = [p for p, _ in key]
            return float(f(np.array([[m for _, m in key]]), pairs, g)[0])

        naive_lhs = math.fsum(f_of(key) * w for key, w in lhs_combos.items())
        naive_rhs = math.fsum(
            f_of(key) * w for key, w in rhs_combos.items()
            if connected_in(Current(g, key), u, v))
        lhs, rhs = switching_check(g, sources, u, v, spec, beta, h, cap)
        assert naive_lhs > 0.0
        assert lhs == pytest.approx(naive_lhs, rel=1e-12)
        assert rhs == pytest.approx(naive_rhs, rel=1e-12)


def test_catalog_f_sees_only_multiplicity_classes():
    # the FCatalog contract the class engine relies on: every catalog F
    # takes the same value on multiplicities as on their class
    # representatives 0 (zero), 1 (odd) and 2 (even >= 2)
    rng = np.random.default_rng(5)
    g = CurrentGraph.complete(4)
    pairs, _ = g.pair_bases(0.5, 0.2)
    digits = rng.integers(0, 9, size=(400, len(pairs)))
    digits[:, :4] *= rng.integers(0, 2, size=(400, 4))  # sparser supports
    classes = np.where(digits == 0, 0, np.where(digits % 2 == 1, 1, 2))
    specs = ["one", "even_total"] + [("connect", a, b) for a in range(5)
                                     for b in range(5) if a != b]
    for spec in specs:
        f = resolve_f(spec, g)
        on_digits = f(digits, pairs, g)
        assert np.array_equal(on_digits, f(classes, pairs, g))
        assert 0.0 < on_digits.mean() <= 1.0


def test_resolve_f_catalog():
    g = CurrentGraph.path(3)
    assert resolve_f("one", g).__name__ == "f_one"
    assert resolve_f("even_total", g).__name__ == "f_even_total"
    assert resolve_f(("connect", 1, 2), g).__name__ == "f_connect_1_2"
    assert resolve_f(f_connect(0, 1), g).__name__ == "f_connect_0_1"
    with pytest.raises(ValueError):
        resolve_f("parity", g)


@pytest.mark.parametrize("a,b", [(0, 9), (-1, 0), (0, 3)])
def test_switching_refuses_a_connect_vertex_off_the_graph(a, b):
    # on a 2-vertex graph the slots are 0, 1 and the ghost 2: connect(0, 9)
    # once read lhs = rhs = 0 and connect(-1, 0) failed on a negative shift
    g = CurrentGraph.path(2)
    with pytest.raises(ValueError, match=f"connect\\({a}, {b}\\) names a "
                       "vertex outside 0..2"):
        switching_check(g, (0, 1), 0, 1, ("connect", a, b), 0.4, 0.2, 4)
    # the ghost itself is a vertex a connect may name
    lhs, rhs = switching_check(g, (0, 1), 0, 1, ("connect", 0, 2), 0.4, 0.2, 4)
    assert lhs == pytest.approx(rhs, rel=1e-12) and lhs > 0.0


# --- backbone ------------------------------------------------------------------

def test_oriented_edge_order_places_ghost_last():
    order = oriented_edge_order(CurrentGraph.path(2), 0.5)
    assert order == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_backbone_picks_lexicographically_first_path():
    g = CurrentGraph.cycle(4)
    cur = Current(g, (((0, 1), 1), ((1, 2), 1), ((0, 3), 2), ((2, 3), 2)))
    assert cur.sources() == frozenset({0, 2})
    assert extract_backbone(cur) == ((0, 1), (1, 2))


def test_backbone_prefers_direct_edge_over_ghost_detour():
    g = CurrentGraph.path(2)
    cur = Current(g, (((0, 1), 1), ((0, 2), 2), ((1, 2), 2)))
    assert cur.sources() == frozenset({0, 1})
    assert extract_backbone(cur, h=0.3) == ((0, 1),)
    ghost_only = Current(g, (((0, 2), 1), ((1, 2), 1)))
    assert extract_backbone(ghost_only, h=0.3) == ((0, 2), (2, 1))


def test_backbone_is_edge_self_avoiding():
    # a figure-eight through vertex 1: the path may revisit vertices but
    # never reuses an undirected edge
    g = CurrentGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
    cur = Current(g, (((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((1, 3), 1)))
    assert cur.sources() == frozenset({0, 1})
    path = extract_backbone(cur)
    keys = [(min(e), max(e)) for e in path]
    assert len(keys) == len(set(keys))
    assert path[0][0] == 0 and path[-1][1] == 1


def test_backbone_refuses_a_multiplicity_on_an_uncoupled_pair():
    # path(3) couples (0, 1) and (1, 2) only; the search once ran and
    # reported that no positive path joins the sources 0 and 2
    cur = Current(CurrentGraph.path(3), (((0, 2), 1),))
    with pytest.raises(ValueError, match="uncoupled pair \\(0, 2\\)"):
        extract_backbone(cur)
    # a ghost pair is coupled only under a field
    ghost = Current(CurrentGraph.path(2), (((0, 2), 1), ((2, 1), 1)))
    with pytest.raises(ValueError, match="uncoupled pair \\(0, 2\\)"):
        extract_backbone(ghost)
    assert extract_backbone(ghost, h=0.3) == ((0, 2), (2, 1))


def test_backbone_reads_a_pair_written_high_end_first():
    # (2, 1) is the coupled pair (1, 2); the search once left it out of the
    # support and found no path
    cur = Current(CurrentGraph.path(3), (((0, 1), 1), ((2, 1), 1)))
    assert extract_backbone(cur) == ((0, 1), (1, 2))


def test_backbone_requires_exactly_two_sources():
    g = CurrentGraph.cycle(4)
    with pytest.raises(NoPath):
        extract_backbone(Current(g, ()))
    four = Current(g, (((0, 1), 1), ((2, 3), 1)))
    with pytest.raises(NoPath):
        extract_backbone(four)


# --- resource guard ------------------------------------------------------------

def test_state_space_guard():
    with pytest.raises(CapExceeded, match="current-lab vertices: need 6, cap is 5"):
        source_sum(CurrentGraph.complete(6), (), 0.5, 0.0, 2)
    # with a field, complete(5) has 15 pairs: 3^15 class vectors
    with pytest.raises(CapExceeded, match="current-lab class vectors: "
                       "need 14348907, cap is 1594323"):
        source_sum(CurrentGraph.complete(5), (), 0.5, 0.1, 8)
    with pytest.raises(CapExceeded, match="current-lab class vectors"):
        switching_check(CurrentGraph.complete(5), (), 0, 1, "one",
                        0.5, 0.1, 8)


def test_complete_five_without_field_is_admitted():
    # 10 pairs: 3^10 class vectors, where (cap+1)^10 currents were refused
    g = CurrentGraph.complete(5, 0.8)
    got = correlation_via_currents(g, 0, 3, 0.3, 0.0, 8)
    assert got == pytest.approx(spin_expectation(g, (0, 3), 0.3, 0.0),
                                abs=1e-6)


def test_negative_beta_or_field_is_refused():
    g = CurrentGraph.path(2)
    for beta, h in ((0.4, -0.3), (-0.4, 0.0), (0.4, math.nan)):
        for call in (lambda: source_sum(g, (0, 1), beta, h, 6),
                     lambda: expectation_via_currents(g, (0,), beta, h, 6),
                     lambda: correlation_via_currents(g, 0, g.ghost, beta,
                                                      h, 12),
                     lambda: correlation_via_currents(g, 1, 1, beta, h, 12),
                     lambda: switching_check(g, (), 0, 1, "one", beta, h, 4),
                     lambda: list(enumerate_currents(g, (), beta, h, 2))):
            with pytest.raises(ValueError, match="beta >= 0 and h >= 0"):
                call()
    assert source_sum(g, (0, 1), 0.0, 0.0, 6) == 0.0
