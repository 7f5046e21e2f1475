"""Wolff-cluster Monte Carlo for the Ising model on finite boxes.

External conditions are represented by a single *ghost spin* pinned to +1
and never flipped:

* plus boundary: every coupling leaving ``ball(n)`` becomes a bond between
  its inside endpoint and the ghost (activation ``1 - exp(-2 beta J)``);
* field ``h > 0``: every site gets a ghost bond with activation
  ``1 - exp(-2 h)``.

One update grows a cluster from a uniform seed site, activating bonds
between aligned endpoints, each bond considered at most once.  A cluster
without the ghost is flipped; for a cluster containing the ghost the
complement is flipped instead (flip the cluster, then restore the ghost to
+1 by a global flip), so every proposal is accepted and detailed balance
holds for the Gibbs weight exp(-H).  Growth is frontier-vectorized with
numpy, and candidate bonds are processed in sorted bond-id order so runs
are bit-reproducible for a fixed seed.

Measurements use the Edwards-Sokal coupling where it buys variance: growing
a (non-flipping) cluster from the origin with the same activation rule gives
``P[x in C_0] = <sigma_0 sigma_x>`` and ``P[ghost in C_0] = <sigma_0>``, an
unbiased indicator estimator that resolves small correlations far better
than the plain spin product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .lattice import LatticeSpec, Region, Vertex, ball_layout
from .stats import MCEstimate, batch_means_stderr, integrated_autocorr_time

_KIND_SPIN = 0
_KIND_FIELD = 1

_INIT_INDEX = 1 << 62  # stream block reserved for initial states


class SpinSystem:
    """Bond structure for one finite Ising system (sites + ghost)."""

    def __init__(self, n_sites: int, bonds: list[tuple[int, int, int, float]],
                 layers: np.ndarray | None = None,
                 vertex_index: dict[Vertex, int] | None = None):
        # bonds: (site_a, site_b_or_ghost, kind, J); ghost id == n_sites
        self.n_sites = n_sites
        self.ghost = n_sites
        self.bond_a = np.array([b[0] for b in bonds], dtype=np.int32)
        self.bond_b = np.array([b[1] for b in bonds], dtype=np.int32)
        self.bond_kind = np.array([b[2] for b in bonds], dtype=np.int8)
        self.bond_j = np.array([b[3] for b in bonds], dtype=float)
        self.n_bonds = len(bonds)
        self.layers = layers
        self.vertex_index = vertex_index or {}
        self._build_incidence()

    def _build_incidence(self) -> None:
        # CSR over sites plus the ghost row: measurement clusters must be
        # able to expand through the ghost (correlations count ghost paths).
        counts = np.zeros(self.n_sites + 2, dtype=np.int64)
        for arr in (self.bond_a, self.bond_b):
            for s in arr:
                counts[s + 1] += 1
        self.inc_ptr = np.cumsum(counts).astype(np.int64)
        total = int(self.inc_ptr[-1])
        self.inc_bond = np.empty(total, dtype=np.int32)
        self.inc_partner = np.empty(total, dtype=np.int32)
        cursor = self.inc_ptr[:-1].copy()
        for k in range(self.n_bonds):
            a, b = int(self.bond_a[k]), int(self.bond_b[k])
            self.inc_bond[cursor[a]] = k
            self.inc_partner[cursor[a]] = b
            cursor[a] += 1
            self.inc_bond[cursor[b]] = k
            self.inc_partner[cursor[b]] = a
            cursor[b] += 1

    @classmethod
    def from_region(cls, region: Region, h: float = 0.0) -> "SpinSystem":
        n = len(region)
        bonds = [(a, b, _KIND_SPIN, j) for a, b, j in region.internal_edges]
        if h > 0.0:
            bonds += [(i, n, _KIND_FIELD, 0.0) for i in range(n)]
        index = {v: i for i, v in enumerate(region.vertices)}
        return cls(n, bonds, vertex_index=index)

    @classmethod
    def box(cls, lattice: LatticeSpec, n: int, boundary: str = "free",
            h: float = 0.0) -> "SpinSystem":
        if boundary not in ("free", "plus"):
            raise ValueError(f"unknown boundary condition {boundary!r}")
        layout = ball_layout(lattice, n)
        sites, m = layout.n_inside, layout.n_internal
        a, b = layout.edge_a.tolist(), layout.edge_b.tolist()
        j = layout.edge_j.tolist()
        bonds = [(a[k], b[k], _KIND_SPIN, j[k]) for k in range(m)]
        if boundary == "plus":
            # one ghost bond per crossing coupling keeps multiplicities honest
            bonds += [(a[k], sites, _KIND_SPIN, j[k]) for k in range(m, len(a))]
        if h > 0.0:
            bonds += [(i, sites, _KIND_FIELD, 0.0) for i in range(sites)]
        layers = layout.layer[:sites]
        coords = layout.coords[:sites].tolist()
        index = {tuple(v): i for i, v in enumerate(coords)}
        return cls(sites, bonds, layers=layers, vertex_index=index)


class WolffChain:
    def __init__(self, system: SpinSystem, beta: float, h: float, seed: int,
                 boundary: str = "free", start: str | None = None):
        if beta < 0.0 or h < 0.0:
            raise ValueError("beta and h must be non-negative")
        self.system = system
        self.seed = int(seed)
        self.spins = np.ones(system.n_sites, dtype=np.int8)
        self.stream_index = 0  # sample_stream index of the next update
        self.p_act = np.where(
            system.bond_kind == _KIND_SPIN,
            -np.expm1(-2.0 * beta * system.bond_j),
            -math.expm1(-2.0 * h))
        self._spins_ext = np.ones(system.n_sites + 1, dtype=np.int8)
        self._in_cluster = np.zeros(system.n_sites + 1, dtype=bool)
        self._used = np.zeros(system.n_bonds, dtype=bool)
        start = start or ("plus" if boundary == "plus" else "random")
        if start == "random":
            gen = rngmod.sample_stream(self.seed, rngmod.STREAM_WOLFF, _INIT_INDEX)
            self.spins = np.where(
                gen.random(system.n_sites) < 0.5, 1, -1).astype(np.int8)
        elif start != "plus":
            raise ValueError(f"unknown start state {start!r}")

    def _grow(self, seed_site: int, gen: np.random.Generator,
              flip: bool) -> tuple[int, bool]:
        """Grow one cluster; when flipping, apply the gauge-fixed update.

        The ghost is an ordinary vertex of the extended zero-field model.
        Flipping a ghost-containing cluster and then restoring the ghost to
        +1 by a global flip amounts to flipping the cluster complement, so
        every proposal is accepted and the chain mixes at cluster-update
        speed even deep in the ordered phase.

        Returns (cluster size in real sites, ghost_in_cluster).
        """
        sysm = self.system
        spins = self.spins
        ext = self._spins_ext
        ext[:sysm.n_sites] = spins
        in_cl = self._in_cluster
        in_cl[:] = False
        used = self._used
        used[:] = False
        in_cl[seed_site] = True
        frontier = np.array([seed_site], dtype=np.int32)
        size = 1
        ghost_in = False
        ptr, inc_bond, inc_partner = sysm.inc_ptr, sysm.inc_bond, sysm.inc_partner
        while frontier.size:
            starts = ptr[frontier]
            counts = (ptr[frontier + 1] - starts).astype(np.int64)
            total = int(counts.sum())
            if total == 0:
                break
            cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
            flat = (np.arange(total, dtype=np.int64)
                    - np.repeat(cum, counts) + np.repeat(starts, counts))
            cand_bond = inc_bond[flat]
            cand_partner = inc_partner[flat]
            cand_src = np.repeat(frontier, counts)
            fresh = ~used[cand_bond]
            cand_bond = cand_bond[fresh]
            cand_partner = cand_partner[fresh]
            cand_src = cand_src[fresh]
            if cand_bond.size == 0:
                break
            # dedupe bonds seen from both frontier endpoints; unique sorts,
            # which fixes the order in which uniforms are consumed
            ubond, first = np.unique(cand_bond, return_index=True)
            upartner = cand_partner[first]
            usrc = cand_src[first]
            used[ubond] = True
            aligned = ext[upartner] == ext[usrc]
            u = gen.random(ubond.size)
            join = aligned & (u < self.p_act[ubond]) & ~in_cl[upartner]
            if not join.any():
                break
            new = np.unique(upartner[join])
            in_cl[new] = True
            if new[-1] == sysm.ghost:  # ghost has the largest id
                ghost_in = True
            size += int(np.count_nonzero(new < sysm.ghost))
            frontier = new.astype(np.int32)
        if flip:
            if ghost_in:
                np.negative(spins, where=~in_cl[:sysm.n_sites], out=spins)
            else:
                np.negative(spins, where=in_cl[:sysm.n_sites], out=spins)
        return size, ghost_in

    def step(self) -> int:
        """One Wolff update; returns the grown cluster size."""
        gen = rngmod.sample_stream(self.seed, rngmod.STREAM_WOLFF,
                                   self.stream_index)
        site = int(gen.integers(self.system.n_sites))
        size, _ = self._grow(site, gen, flip=True)
        self.stream_index += 1
        return size

    def fk_cluster(self, site: int = 0) -> np.ndarray:
        """Measurement-only cluster membership grown from ``site``.

        Index ``n_sites`` of the returned mask is the ghost slot:
        ``mask[ghost]`` estimates ``<sigma_site>`` when a ghost is present.
        """
        gen = rngmod.sample_stream(self.seed, rngmod.STREAM_WOLFF,
                                   self.stream_index)
        self.stream_index += 1
        self._grow(site, gen, flip=False)
        return self._in_cluster.copy()

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()


def equilibrate(chain: WolffChain, min_steps: int = 1000,
                tau_factor: float = 20.0) -> int:
    """Burn in for max(min_steps, tau_factor * tau_int(|m|)) updates.

    The autocorrelation time is measured on the |mean spin| series of the
    first ``min_steps`` updates and the burn-in is extended if needed.
    Returns the number of updates consumed.
    """
    n = chain.system.n_sites
    series = np.empty(min_steps)
    for i in range(min_steps):
        chain.step()
        series[i] = abs(float(chain.spins.sum())) / n
    tau = integrated_autocorr_time(series)
    extra = int(max(0.0, tau_factor * tau - min_steps))
    if extra > 0:
        chain.run(extra)
    return min_steps + extra


def estimate_magnetization(lattice: LatticeSpec, n: int, beta: float,
                           boundary: str, sweeps: int, seed: int,
                           h: float = 0.0) -> MCEstimate:
    """<sigma_origin> over ``sweeps`` cluster updates.

    With plus boundary at h = 0 this estimates the finite-volume proxy for
    the spontaneous magnetization.  When a ghost is present the measurement
    is the Edwards-Sokal connection indicator P[0 <-> ghost], whose mixing
    is governed by the fast island-density mode instead of the very rare
    origin-spin flips; without any ghost (free boundary, h = 0) the plain
    time average of sigma_origin is used.
    """
    system = SpinSystem.box(lattice, n, boundary=boundary, h=h)
    chain = WolffChain(system, beta, h, seed, boundary=boundary)
    equilibrate(chain)
    has_ghost = boundary == "plus" or h > 0.0
    values = []
    for _ in range(sweeps):
        chain.step()
        if has_ghost:
            mask = chain.fk_cluster(0)
            values.append(1.0 if mask[system.ghost] else 0.0)
        else:
            values.append(float(chain.spins[0]))
    mean = math.fsum(values) / len(values)
    return MCEstimate(f"magnetization[n={n},{boundary}]", mean,
                      batch_means_stderr(values), sweeps, seed)


def estimate_two_point(lattice: LatticeSpec, n: int, beta: float,
                       distances: Sequence[int], sweeps: int, seed: int,
                       boundary: str = "free") -> dict[int, MCEstimate]:
    """<sigma_0 sigma_x> along the first axis at the given distances.

    Uses the cluster-membership estimator (see module docstring), so small
    correlations are resolved with binomial-scale noise.
    """
    system = SpinSystem.box(lattice, n, boundary=boundary)
    targets = {}
    for d in distances:
        v = (d,) + (0,) * (lattice.dim - 1)
        if v not in system.vertex_index:
            raise ValueError(f"distance {d} leaves the box")
        targets[d] = system.vertex_index[v]
    chain = WolffChain(system, beta, 0.0, seed, boundary=boundary)
    equilibrate(chain)
    hits: dict[int, list[float]] = {d: [] for d in targets}
    for _ in range(sweeps):
        chain.step()
        mask = chain.fk_cluster(0)
        for d, t in targets.items():
            hits[d].append(1.0 if mask[t] else 0.0)
    out = {}
    for d in sorted(targets):
        vals = hits[d]
        out[d] = MCEstimate(f"two_point[d={d},n={n}]",
                            math.fsum(vals) / sweeps,
                            batch_means_stderr(vals), sweeps, seed)
    return out


@dataclass(frozen=True)
class DivergenceReport:
    """Partial correlation sums over growing balls, with growth diagnostics."""

    beta: float
    estimates: dict[int, MCEstimate]
    increments: tuple[tuple[int, int, float, float], ...]  # (n1, n2, delta, sigma)
    strictly_increasing_3sigma: bool


def check_critical_divergence(lattice: LatticeSpec, beta: float,
                              n_list: Sequence[int], sweeps: int,
                              seed: int) -> DivergenceReport:
    """Estimate S_n = sum_{x in ball(n)} <sigma_0 sigma_x> for each n.

    One free-boundary chain on the largest ball; per measurement the
    origin's Edwards-Sokal cluster is grown once and counted inside each
    radius, so the partial sums share samples and their increments are
    nonnegative sample by sample.
    """
    radii = sorted(n_list)
    n_box = radii[-1]
    system = SpinSystem.box(lattice, n_box, boundary="free")
    layers = system.layers
    chain = WolffChain(system, beta, 0.0, seed, boundary="free")
    equilibrate(chain)
    counts: dict[int, list[float]] = {r: [] for r in radii}
    for _ in range(sweeps):
        chain.step()
        mask = chain.fk_cluster(0)
        member_layers = layers[mask[:system.n_sites]]
        for r in radii:
            counts[r].append(float(np.count_nonzero(member_layers <= r)))
    estimates = {}
    for r in radii:
        vals = counts[r]
        estimates[r] = MCEstimate(f"partial_chi[n={r}]",
                                  math.fsum(vals) / sweeps,
                                  batch_means_stderr(vals), sweeps, seed)
    increments = []
    increasing = True
    for r1, r2 in zip(radii, radii[1:]):
        delta_vals = [b - a for a, b in zip(counts[r1], counts[r2])]
        delta = math.fsum(delta_vals) / sweeps
        sigma = batch_means_stderr(delta_vals)
        increments.append((r1, r2, delta, sigma))
        if delta <= 3.0 * sigma:
            increasing = False
    return DivergenceReport(beta, estimates, tuple(increments), increasing)
