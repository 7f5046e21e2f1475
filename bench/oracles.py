"""Reference computations made apart from subcrit.

Everything here is written against the square lattice Z^2 with unit
couplings, from its own geometry code, so the benchmark's correctness
checks never reuse the program's enumerators, samplers or regions:

* ``perc_connect_counts`` enumerates bond configurations and decides
  connectivity by bitmask reach propagation (one int64 mask per
  configuration), tallying connections by number of open edges;
* ``ising_correlations`` sums Boltzmann weights over spin states with the
  base spin pinned to +1 (global spin-flip symmetry at h = 0);
* ``spin_correlation`` is a plain loop for tiny graphs with a field;
* ``sample_phi_perc`` is an independent Monte Carlo estimate of the
  percolation boundary functional;
* the closed forms pin the enumerators down on the smallest regions.

The numpy here is only used for vectorised enumeration; nothing imports
subcrit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

P_C = 0.5
BETA_C = 0.5 * math.log1p(math.sqrt(2.0))

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


# ---------------------------------------------------------------------------
# geometry of Z^2
# ---------------------------------------------------------------------------

def neighbours(v):
    return [(v[0] + dx, v[1] + dy) for dx, dy in STEPS]


def diamond(n: int) -> list[tuple[int, int]]:
    """The L1 ball of radius n around the origin."""
    return [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)
            if abs(x) + abs(y) <= n]


def rectangle(width: int, height: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(width) for y in range(height)]


def translate(v, shift) -> tuple[int, int]:
    return (v[0] + shift[0], v[1] + shift[1])


class RegionGraph:
    """A finite vertex set of Z^2: nodes (base first), internal edges and
    the number of outside neighbours of each node."""

    def __init__(self, vertices, origin):
        vset = set(map(tuple, vertices))
        if tuple(origin) not in vset:
            raise ValueError("origin must be a vertex of the region")
        self.nodes = [tuple(origin)] + sorted(vset - {tuple(origin)})
        index = {v: i for i, v in enumerate(self.nodes)}
        self.index = index
        self.edges = []
        self.outside = [0] * len(self.nodes)
        for i, v in enumerate(self.nodes):
            for w in neighbours(v):
                k = index.get(w)
                if k is None:
                    self.outside[i] += 1
                elif i < k:
                    self.edges.append((i, k))


# ---------------------------------------------------------------------------
# percolation
# ---------------------------------------------------------------------------

def _popcount(values: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values).astype(np.int64)
    out = np.zeros(values.shape, dtype=np.int64)
    v = values.copy()
    while np.any(v):
        out += (v & 1).astype(np.int64)
        v >>= 1
    return out


def reach_masks(configs: np.ndarray, edges, base: int) -> np.ndarray:
    """Bitmask of the nodes connected to ``base`` in each configuration.

    Bit e of ``configs[i]`` says whether edge e is open.  Propagates reach
    across open edges until nothing changes.
    """
    reach = np.full(configs.shape, 1 << base, dtype=np.int64)
    open_bits = [((configs >> e) & 1).astype(bool) for e in range(len(edges))]
    while True:
        before = reach.copy()
        for (a, b), is_open in zip(edges, open_bits):
            ra = (reach >> a) & 1
            rb = (reach >> b) & 1
            reach |= np.where(is_open, (ra << b) | (rb << a), 0)
        if np.array_equal(before, reach):
            return reach


def perc_connect_counts(n_nodes: int, edges, base: int = 0,
                        targets=None, chunk_bits: int = 16) -> np.ndarray:
    """``counts[t, k]``: configurations with k open edges joining base to t.

    ``targets`` may list node indices or bitmasks (``("mask", m)``: joined
    to any node of m).  Exhaustive over 2^len(edges) configurations.
    """
    m = len(edges)
    if m > 24:
        raise ValueError("oracle enumeration is limited to 24 edges")
    targets = list(range(n_nodes)) if targets is None else list(targets)
    counts = np.zeros((len(targets), m + 1), dtype=np.int64)
    total = 1 << m
    step = min(total, 1 << chunk_bits)
    for start in range(0, total, step):
        configs = np.arange(start, start + step, dtype=np.int64)
        reach = reach_masks(configs, edges, base)
        k = _popcount(configs)
        for row, t in enumerate(targets):
            mask = t[1] if isinstance(t, tuple) else (1 << t)
            hit = (reach & mask) != 0
            counts[row] += np.bincount(k[hit], minlength=m + 1)
    return counts


def polynomial_prob(counts_row: np.ndarray, p: float) -> float:
    m = counts_row.size - 1
    return math.fsum(float(c) * p ** k * (1.0 - p) ** (m - k)
                     for k, c in enumerate(counts_row) if c)


class PercPhi:
    """phi_p(S) = sum_x p * outside(x) * P_p[0 <-> x in S], tables built once."""

    def __init__(self, region: RegionGraph):
        self.region = region
        self.counts = perc_connect_counts(len(region.nodes), region.edges)

    def __call__(self, p: float) -> float:
        return math.fsum(p * out * polynomial_prob(self.counts[i], p)
                         for i, out in enumerate(self.region.outside) if out)


def exit_probability(n: int, p: float) -> float:
    """P[origin joined to the outside of the L1 ball of radius n].

    The box is the ball plus its outer shell; all edges with an endpoint
    in the ball are enumerated (16 for n = 1).
    """
    inside = diamond(n)
    inside_set = set(inside)
    shell = sorted({w for v in inside for w in neighbours(v)} - inside_set)
    nodes = [(0, 0)] + sorted(inside_set - {(0, 0)}) + shell
    index = {v: i for i, v in enumerate(nodes)}
    edges = []
    for v in inside:
        for w in neighbours(v):
            a, b = index[v], index[w]
            if w not in inside_set or a < b:
                edges.append((a, b))
    shell_mask = sum(1 << index[w] for w in shell)
    counts = perc_connect_counts(len(nodes), edges,
                                 targets=[("mask", shell_mask)])
    return polynomial_prob(counts[0], p)


def sample_phi_perc(region: RegionGraph, p: float, samples: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo phi_p(S): mean and standard error over i.i.d. samples."""
    m = len(region.edges)
    coeff = np.array([p * out for out in region.outside])
    weights = np.int64(1) << np.arange(m, dtype=np.int64)
    values = []
    for start in range(0, samples, 1 << 15):
        size = min(1 << 15, samples - start)
        draws = rng.random((size, m)) < p
        configs = draws.astype(np.int64) @ weights
        reach = reach_masks(configs, region.edges, 0)
        member = (reach[:, None] >> np.arange(len(region.nodes))) & 1
        values.append(member @ coeff)
    x = np.concatenate(values)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------------------------
# Ising
# ---------------------------------------------------------------------------

def ising_correlations(n_nodes: int, edges, beta: float) -> np.ndarray:
    """<sigma_0 sigma_x> at h = 0, free boundary, unit couplings."""
    n_free = n_nodes - 1
    states = np.arange(1 << n_free, dtype=np.int64)
    spins = np.empty((states.size, n_nodes), dtype=np.float64)
    spins[:, 0] = 1.0
    for v in range(1, n_nodes):
        spins[:, v] = 1.0 - 2.0 * ((states >> (v - 1)) & 1)
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    bond_sum = (spins[:, a] * spins[:, b]).sum(axis=1)
    weight = np.exp(beta * (bond_sum - len(edges)))
    return (weight @ spins) / weight.sum()


def ising_phi(region: RegionGraph, beta: float) -> float:
    """phi_beta(S) = sum_x tanh(beta) * outside(x) * <sigma_0 sigma_x>_S."""
    corr = ising_correlations(len(region.nodes), region.edges, beta)
    t = math.tanh(beta)
    return math.fsum(t * out * float(corr[i])
                     for i, out in enumerate(region.outside) if out)


def spin_correlation(n: int, couplings, beta: float, h: float,
                     x: int, y: int) -> float:
    """<sigma_x sigma_y> under exp(beta sum J s s + h sum s); plain loop."""
    num = den = 0.0
    for spins in itertools.product((1, -1), repeat=n):
        energy = beta * sum(j * spins[a] * spins[b] for a, b, j in couplings)
        energy += h * sum(spins)
        w = math.exp(energy)
        den += w
        num += w * spins[x] * spins[y]
    return num / den


# ---------------------------------------------------------------------------
# closed forms and bounds
# ---------------------------------------------------------------------------

def onsager_magnetization(beta: float) -> float:
    """Spontaneous magnetization of the square-lattice Ising model."""
    if beta <= BETA_C:
        return 0.0
    return (1.0 - math.sinh(2.0 * beta) ** -4) ** 0.125


def mean_field_magnetization_floor(beta: float) -> float:
    return math.sqrt(max(0.0, 1.0 - (BETA_C / beta) ** 2))


def mean_field_theta_floor(p: float) -> float:
    return (p - P_C) / (p * (1.0 - P_C))


CLOSED_FORM_ROOTS = {
    ("percolation", 0): 0.25,
    ("percolation", 1): 12.0 ** -0.5,
    ("ising", 0): math.atanh(0.25),
}
