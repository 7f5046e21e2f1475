"""Wolff-cluster Monte Carlo for the Ising model on finite boxes.

External conditions are represented by a single *ghost spin* pinned to +1
and never flipped:

* plus boundary: every coupling leaving ``ball(n)`` becomes a bond between
  its inside endpoint and the ghost (activation ``1 - exp(-2 beta J)``);
* field ``h > 0``: every site gets a ghost bond with activation
  ``1 - exp(-2 h)``.

One update walks a cluster from a seed site, each bond open with
probability ``p_act`` when its endpoints are aligned and closed otherwise.
A cluster without the ghost is flipped; for a cluster containing the ghost
the complement is flipped instead (flip the cluster, then restore the ghost
to +1 by a global flip), so every proposal is accepted and detailed balance
holds for the Gibbs weight exp(-H).  Clusters are walked by
``perc_mc.ClusterWalker`` over the sites plus the ghost node, which sits one
layer past the last site.  Update k reads sample k of the chain's stream:
word e is bond e's uniform and word ``n_bonds`` picks the seed site, and
only the prefix of bond words the walk reads is drawn.  Runs are therefore
bit-reproducible for a fixed seed.

A walk of a whole cluster (every update, and the two-point and divergence
measurements) labels the sample's open bonds in numpy instead
(``ClusterWalker.component``, which draws every bond word) once the chain's
mean whole cluster so far exceeds max(256, n_bonds / 8) nodes, as in the
ordered phase; smaller clusters, and walks that stop at a layer, are walked
depth-first.  The words fix the open bonds, so both mark the same cluster
and the chain does not depend on which one ran.

Measurements use the Edwards-Sokal coupling where it buys variance: walking
a (non-flipping) cluster from the origin with the same activation rule, on
the next sample of the stream, gives ``P[x in C_0] = <sigma_0 sigma_x>``
and ``P[ghost in C_0] = <sigma_0>``, an unbiased indicator estimator that
resolves small correlations far better than the plain spin product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .lattice import LatticeSpec, Vertex, ball_layout
from .perc_mc import ClusterWalker
from .stats import (MCEstimate, batch_means_stderr, check_counts,
                    integrated_autocorr_time)

_KIND_SPIN = 0
_KIND_FIELD = 1

_INIT_INDEX = 1 << 62  # stream block reserved for initial states

# Labeling a cluster in numpy (ClusterWalker.component) costs about 40 us
# plus 0.15 us per bond, whatever the cluster; the depth-first walk costs
# about 1.2 us per member.  Labeling wins once a cluster holds more than
# about 33 + n_bonds / 8 nodes, and loses on small clusters (252 against
# 133 us at n=16, beta_c), so a chain labels only once its mean whole
# cluster exceeds max(_LABEL_MIN_NODES, n_bonds / 8).
_LABEL_MIN_NODES = 256

# burn-in: this many lattice sweeps, extended to this many tau_int updates
_BURN_IN_SWEEPS = 100
_BURN_IN_TAUS = 20.0


class SpinSystem:
    """Bond structure for one finite Ising system (sites + ghost)."""

    def __init__(self, n_sites: int, bond_a: np.ndarray, bond_b: np.ndarray,
                 bond_kind: np.ndarray, bond_j: np.ndarray, layers: np.ndarray,
                 vertex_index: dict[Vertex, int]):
        # bond e joins site bond_a[e] to a site or the ghost (id n_sites)
        self.n_sites = n_sites
        self.ghost = n_sites
        self.bond_a = bond_a.astype(np.int32)
        self.bond_b = bond_b.astype(np.int32)
        self.bond_kind = bond_kind.astype(np.int8)
        self.bond_j = bond_j.astype(float)
        self.n_bonds = len(bond_a)
        self.layers = layers
        self.vertex_index = vertex_index
        # one walker over sites plus the ghost node: measurement clusters
        # must be able to expand through the ghost (correlations count ghost
        # paths), and a walk stopped at the ghost layer decides <sigma_0>
        self.ghost_layer = int(self.layers.max(initial=0)) + 1
        self.walker = ClusterWalker(n_sites + 1, self.bond_a, self.bond_b,
                                    np.append(self.layers, self.ghost_layer))

    @classmethod
    def box(cls, lattice: LatticeSpec, n: int, boundary: str = "free",
            h: float = 0.0) -> "SpinSystem":
        if boundary not in ("free", "plus"):
            raise ValueError(f"unknown boundary condition {boundary!r}")
        layout = ball_layout(lattice, n)
        sites, m = layout.n_inside, layout.n_internal
        a, b, j = layout.edge_a, layout.edge_b, layout.edge_j
        # (site, other end, J, kind) per group of bonds, in bond order
        groups = [(a[:m], b[:m], j[:m], _KIND_SPIN)]
        if boundary == "plus":
            # one ghost bond per crossing coupling keeps multiplicities honest
            groups.append((a[m:], sites, j[m:], _KIND_SPIN))
        if h > 0.0:
            groups.append((np.arange(sites), sites, 0.0, _KIND_FIELD))
        bond_a, bond_b, bond_j, bond_kind = (
            np.concatenate(column)
            for column in zip(*(np.broadcast_arrays(*g) for g in groups)))
        layers = layout.layer[:sites]
        coords = layout.coords[:sites].tolist()
        index = {tuple(v): i for i, v in enumerate(coords)}
        return cls(sites, bond_a, bond_b, bond_kind, bond_j, layers, index)


class WolffChain:
    """Wolff cluster dynamics of one system at (beta, h) from ``seed``.

    A system with a plus boundary (spin bonds to the ghost) starts all-plus;
    any other starts from random spins drawn from the seed.
    """

    def __init__(self, system: SpinSystem, beta: float, h: float, seed: int):
        if not (beta >= 0.0 and h >= 0.0):
            raise ValueError(f"beta and h must be non-negative, got beta={beta} "
                             f"and h={h}")
        self.system = system
        self.seed = int(seed)
        self.spins = np.ones(system.n_sites, dtype=np.int8)
        self.stream_index = 0  # sample_stream index of the next update
        self.p_act = np.where(
            system.bond_kind == _KIND_SPIN,
            -np.expm1(-2.0 * beta * system.bond_j),
            -math.expm1(-2.0 * h))
        self._spins_ext = np.ones(system.n_sites + 1, dtype=np.int8)
        self._weights = np.empty(system.n_bonds)
        self._site_gen = None
        self.label_floor = max(_LABEL_MIN_NODES, system.n_bonds / 8)
        self._whole_walks = self._whole_nodes = 0
        plus = (system.bond_kind == _KIND_SPIN) & (system.bond_b == system.ghost)
        if not plus.any():
            gen = rngmod.sample_stream(self.seed, rngmod.STREAM_WOLFF, _INIT_INDEX)
            self.spins = np.where(
                gen.random(system.n_sites) < 0.5, 1, -1).astype(np.int8)

    def _walk(self, root: int, stop_layer: int | None = None) -> int:
        """Walk the cluster of ``root`` on the next sample of the stream.

        Bond e is open when word e is below ``p_act[e]`` and its ends are
        aligned; the walker's ``seen`` marks the members afterwards.  A
        whole-cluster walk labels the cluster in numpy once the chain's
        mean whole cluster so far exceeds ``label_floor`` nodes, and walks
        it depth-first otherwise; both mark the same set.  Returns the
        number of nodes marked.
        """
        sysm = self.system
        ext = self._spins_ext
        ext[:sysm.n_sites] = self.spins
        np.multiply(self.p_act, ext[sysm.bond_a] == ext[sysm.bond_b],
                    out=self._weights)
        args = (self._weights, self.seed, rngmod.STREAM_WOLFF,
                self.stream_index)
        self.stream_index += 1
        if stop_layer is not None:
            members, _, _ = sysm.walker.origin_cluster(
                *args, stop_layer=stop_layer, root=root)
            return len(members)
        if self._whole_nodes > self.label_floor * self._whole_walks:
            size = sysm.walker.component(*args, root=root)
        else:
            size = len(sysm.walker.origin_cluster(*args, root=root)[0])
        self._whole_walks += 1
        self._whole_nodes += size
        return size

    def step(self) -> int:
        """One Wolff update; returns the cluster size in real sites.

        The seed site is floor(u * n_sites) for word ``n_bonds`` of the
        update's sample.  The ghost is an ordinary vertex of the extended
        zero-field model: flipping a ghost-containing cluster and then
        restoring the ghost to +1 by a global flip amounts to flipping the
        cluster complement, so every proposal is accepted and the chain
        mixes at cluster-update speed even deep in the ordered phase.

        The cluster is walked depth-first while the chain's clusters are
        small, and labeled in numpy once their mean so far exceeds
        ``label_floor`` nodes (see ``_walk``); the flip is the same.
        """
        sysm = self.system
        self._site_gen = rngmod.sample_stream(
            self.seed, rngmod.STREAM_WOLFF, self.stream_index,
            start=sysm.n_bonds, gen=self._site_gen)
        site = int(self._site_gen.random() * sysm.n_sites)
        size = self._walk(site)
        seen = sysm.walker.seen
        ghost_in = seen[sysm.ghost]
        in_cluster = np.frombuffer(seen, dtype=np.bool_, count=sysm.n_sites)
        spins = self.spins
        np.negative(spins, where=~in_cluster if ghost_in else in_cluster,
                    out=spins)
        return size - ghost_in

    def measure(self, stop_layer: int | None = None) -> np.ndarray:
        """Edwards-Sokal cluster of the origin, walked without flipping.

        Returns the membership mask over sites plus the ghost slot, valid
        until the next walk: ``mask[ghost]`` estimates ``<sigma_0>`` when a
        ghost is present.  With ``stop_layer = system.ghost_layer`` the walk
        stops once it reaches the ghost, which decides ``mask[ghost]`` but
        leaves the rest of the mask partial.
        """
        self._walk(0, stop_layer)
        return np.frombuffer(self.system.walker.seen, dtype=np.bool_)

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()


def equilibrate(chain: WolffChain) -> int:
    """Burn in for 100 lattice sweeps, then to 20 tau_int updates.

    Phase one runs updates until their cluster sizes add up to 100 times
    the number of sites, so the burn-in covers the lattice the same number
    of times whatever the typical cluster size.  The integrated
    autocorrelation time of the |mean spin| series of those updates is then
    measured, and the burn-in is extended to 20 tau_int updates if that is
    longer.  Returns the number of updates consumed.
    """
    n = chain.system.n_sites
    series = []
    covered = 0
    while covered < _BURN_IN_SWEEPS * n:
        covered += chain.step()
        series.append(abs(float(chain.spins.sum())) / n)
    steps = len(series)
    tau = integrated_autocorr_time(np.array(series))
    extra = int(max(0.0, _BURN_IN_TAUS * tau - steps))
    if extra > 0:
        chain.run(extra)
    return steps + extra


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
    check_counts(sweeps=sweeps)
    system = SpinSystem.box(lattice, n, boundary=boundary, h=h)
    chain = WolffChain(system, beta, h, seed)
    equilibrate(chain)
    has_ghost = boundary == "plus" or h > 0.0
    values = []
    for _ in range(sweeps):
        chain.step()
        if has_ghost:
            mask = chain.measure(stop_layer=system.ghost_layer)
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
    check_counts(sweeps=sweeps)
    system = SpinSystem.box(lattice, n, boundary=boundary)
    targets = {}
    for d in distances:
        v = (d,) + (0,) * (lattice.dim - 1)
        if v not in system.vertex_index:
            raise ValueError(f"distance {d} leaves the box")
        targets[d] = system.vertex_index[v]
    chain = WolffChain(system, beta, 0.0, seed)
    equilibrate(chain)
    hits: dict[int, list[float]] = {d: [] for d in targets}
    for _ in range(sweeps):
        chain.step()
        mask = chain.measure()
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
    """Estimate S_n = sum_{x in ball(n)} <sigma_0 sigma_x> for each distinct
    n, of which there must be at least two, so that there is an increment.

    One free-boundary chain on the largest ball; per measurement the
    origin's Edwards-Sokal cluster is walked once and counted inside each
    radius, so the partial sums share samples and their increments are
    nonnegative sample by sample.
    """
    radii = sorted(set(n_list))
    check_counts(sweeps=sweeps)
    if len(radii) < 2:
        raise ValueError(f"need at least two distinct radii, got {radii}")
    n_box = radii[-1]
    system = SpinSystem.box(lattice, n_box, boundary="free")
    layers = system.layers
    chain = WolffChain(system, beta, 0.0, seed)
    equilibrate(chain)
    counts: dict[int, list[float]] = {r: [] for r in radii}
    for _ in range(sweeps):
        chain.step()
        mask = chain.measure()
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
