"""Wolff-cluster Monte Carlo for the Ising model on finite boxes.

External conditions belong to the system (``SpinSystem.box``), and are
represented by a single *ghost spin* pinned to +1 and never flipped:

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
layer past the last site.  Each update or measurement reads the next sample
of the chain's stream: word e is bond e's uniform and word ``n_bonds``
picks the seed site.  Every walk draws all the bond words against ``p_act``
in one call (``ClusterWalker.draw_edges``), which leaves the stream at word
``n_bonds``, and then walks or labels them, so runs are bit-reproducible
for a fixed seed.

A chain burns in (``equilibrate``) with Swendsen-Wang updates
(``WolffChain.swendsen_wang``), each one lattice sweep: one numpy labeling
flips every cluster of one bond draw, whatever the cluster size, where
Wolff updates need n / <|C|> walks per sweep.  On the free ball(16) at
beta_c, 100 sweeps took about 690 walked updates and 55 ms, against 13 ms
for 100 Swendsen-Wang updates (2-vCPU shared host).

A walk marks the nodes whose spin differs from the root's (the ghost
counts as +1) seen before it starts, so it never crosses a bond between
unaligned ends.  A walk of a whole cluster (every update, and the
two-point and divergence measurements) goes breadth-first until it finds
more members than the chain's budget; the cluster is then labeled in
numpy instead (``ClusterWalker.component``, keeping the open bonds whose
ends are aligned).  The burn-in sets the budget from the clusters of its
last Swendsen-Wang updates (``ClusterWalker.walk_budget``): the one that
minimizes the mean cost of walking the cluster a uniformly chosen node
sees, at about 0.7 us per member, and labeling those that pass it, at
about 10 us plus 0.025 us per bond.  That labels every cluster past 2
members on the plus ball(24) at 1.1 beta_c, whose clusters hold most of
the box, past 5 to 11 on the free ball(16) at beta_c, and none on ball(2)
at beta = 0.3, which has no budget.  A chain never burned in has none
either.  Walks that stop at a layer (the magnetization's, at the ghost)
go depth-first and always walk.  The words fix the open bonds, so both
mark the same cluster and the chain does not depend on which one ran.

Measurements use the Edwards-Sokal coupling where it buys variance: walking
a (non-flipping) cluster from the origin with the same activation rule, on
the next sample of the stream, gives ``P[x in C_0] = <sigma_0 sigma_x>``
and ``P[ghost in C_0] = <sigma_0>``, an unbiased indicator estimator that
resolves small correlations far better than the plain spin product.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import rng as rngmod
from .lattice import BallBuilder, LatticeSpec, Vertex
from .perc_mc import ClusterWalker
from .stats import (MCEstimate, batch_means_stderr, check_counts,
                    check_non_negative, integrated_autocorr_time)

_INIT_INDEX = 1 << 62  # stream block reserved for initial states

# bytes.translate tables over the spin bytes (+1 is byte 1, -1 byte 255),
# keyed by the root's byte: each marks the nodes of the other sign with 1
_BLOCK_OTHER_SIGN = {1: bytes.maketrans(b"\x01\xff", b"\x00\x01"),
                     255: bytes.maketrans(b"\x01\xff", b"\x01\x00")}

# burn-in: this many Swendsen-Wang updates (lattice sweeps), extended to
# this many tau_int of them; the clusters of its last _BUDGET_SWEEPS set the
# chain's walk budget
_BURN_IN_SWEEPS = 100
_BURN_IN_TAUS = 20.0
_BUDGET_SWEEPS = 20


class SpinSystem:
    """Bond structure for one finite Ising system (sites + ghost), with its
    field ``h`` and whether it has a plus boundary (``plus``): the spin
    bonds, bond e at coupling ``bond_j[e]``, then at h > 0 one field bond
    per site."""

    def __init__(self, n_sites: int, bond_a: np.ndarray, bond_b: np.ndarray,
                 bond_j: np.ndarray, h: float, plus: bool, layers: np.ndarray,
                 vertex_index: dict[Vertex, int]):
        # bond e joins site bond_a[e] to a site or the ghost (id n_sites);
        # intp ends, which numpy gathers with no per-call index conversion
        self.n_sites = n_sites
        self.ghost = n_sites
        self.bond_a = bond_a.astype(np.intp)
        self.bond_b = bond_b.astype(np.intp)
        self.bond_j = bond_j.astype(float)
        self.n_bonds = len(bond_a)
        self.h = h
        self.plus = plus
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
        if not h >= 0.0:  # NaN is not
            raise ValueError(f"h must be non-negative, got h={h}")
        builder = BallBuilder(lattice, n)
        chunk = builder.extend(n + 1)
        sites, m = builder.n_inside, chunk.n_internal
        a, b, j = chunk.edge_a, chunk.edge_b, chunk.edge_j
        plus = boundary == "plus"
        # the internal bonds; with a plus boundary one ghost bond per
        # crossing coupling, which keeps multiplicities honest; at h > 0
        # one field bond per site, also to the ghost
        bond_j = j if plus else j[:m]
        bond_a = np.concatenate((a[:len(bond_j)],
                                 np.arange(sites if h > 0.0 else 0)))
        bond_b = np.concatenate((b[:m], np.full(len(bond_a) - m, sites)))
        layers = chunk.layer[:sites]
        coords = builder.coords(chunk.keys[:sites]).tolist()
        index = {tuple(v): i for i, v in enumerate(coords)}
        return cls(sites, bond_a, bond_b, bond_j, h, plus, layers, index)


class WolffChain:
    """Wolff cluster dynamics of one system at inverse temperature ``beta``
    from ``seed``, in the field the system carries.

    A system with a plus boundary starts all-plus; any other starts from
    random spins drawn from the seed.
    """

    def __init__(self, system: SpinSystem, beta: float, seed: int):
        if not beta >= 0.0:  # NaN is not
            raise ValueError(f"beta must be non-negative, got beta={beta}")
        self.system = system
        self.seed = int(seed)
        self.stream_index = 0  # sample_stream index of the next update
        # the spin bonds at -expm1(-2 beta J), then the field bonds
        self.p_act = np.append(-np.expm1(-2.0 * beta * system.bond_j),
                               np.full(system.n_bonds - len(system.bond_j),
                                       -math.expm1(-2.0 * system.h)))
        # the spins of the sites and the ghost (+1), one byte each: numpy
        # views for whole-array work, a signed memoryview for single sites
        n = system.n_sites
        self._spin_bytes = bytearray(b"\x01" * (n + 1))
        self._ext = np.frombuffer(self._spin_bytes, dtype=np.int8)
        self._spins = self._ext[:n]
        self._spin_view = memoryview(self._spin_bytes).cast("b")
        # the mask measure returns, and the members it marks
        self._mask_bytes = bytearray(n + 1)
        self._mask = np.frombuffer(self._mask_bytes, dtype=np.bool_)
        self._masked: list[int] = []
        # the member budget of whole-cluster walks, set by equilibrate
        self.budget: int | None = None
        if not system.plus:
            gen = rngmod.sample_stream(self.seed, rngmod.STREAM_WOLFF, _INIT_INDEX)
            self.spins = np.where(gen.random(n) < 0.5, 1, -1)

    @property
    def spins(self) -> np.ndarray:
        """The site spins (int8, +1 or -1), a view of the chain's state;
        assigning copies the new spins in."""
        return self._spins

    @spins.setter
    def spins(self, value) -> None:
        value = np.asarray(value)
        if not np.all((value == 1) | (value == -1)):
            # a walk blocks nodes by the sign byte, so any other value
            # would let it cross unaligned bonds
            raise ValueError("spins must be +1 or -1")
        self._spins[:] = value

    def _walk(self, root: int | None, stop_layer: int | None = None
              ) -> tuple[int, list[int] | None]:
        """Walk the cluster of ``root`` on the next sample of the stream.

        One ``draw_edges`` call draws every bond word against ``p_act``; a
        ``root`` of None then takes the update's seed site, floor(u *
        n_sites) for the next word, ``n_bonds``.  Bond e is open when word
        e is below ``p_act[e]`` and its ends are aligned.  The walk blocks
        every node whose spin differs from the root's (the ghost counts as
        +1) in the walker's ``seen``, and a whole-cluster walk (no
        ``stop_layer``) takes the chain's ``budget``: once it finds more
        members, or at once for a budget of 0, the cluster is labeled in
        numpy instead, keeping the bonds with aligned ends.  Both cross
        exactly the open bonds.

        Returns ``(size, members)``: the number of nodes in the cluster,
        and the walk's member list, or None for a labeled cluster, which
        the walker's ``seen`` marks alone.
        """
        sysm = self.system
        walker = sysm.walker
        gen = walker.draw_edges(self.p_act, self.seed, rngmod.STREAM_WOLFF,
                                self.stream_index)
        self.stream_index += 1
        if root is None:
            root = int(gen.random() * sysm.n_sites)
        budget = self.budget if stop_layer is None else None
        if budget != 0:
            spin_bytes = self._spin_bytes
            blocked = spin_bytes.translate(_BLOCK_OTHER_SIGN[spin_bytes[root]])
            members = walker.walk(root, stop_layer, blocked, budget)
            if members is not None:
                return len(members), members
        ext = self._ext
        return walker.component(ext[sysm.bond_a] == ext[sysm.bond_b],
                                root), None

    def step(self) -> int:
        """One Wolff update; returns the cluster size in real sites.

        The update walks the cluster of its seed site (see ``_walk``).  The
        ghost is an ordinary vertex of the extended zero-field model:
        flipping a ghost-containing cluster and then restoring the ghost to
        +1 by a global flip amounts to flipping the cluster complement, so
        every proposal is accepted and the chain mixes at cluster-update
        speed even deep in the ordered phase.

        A walked cluster is flipped member by member, a labeled one in
        numpy, with the same result.
        """
        sysm = self.system
        size, members = self._walk(None)
        if members is None:
            seen = sysm.walker.seen
            ghost_in = seen[sysm.ghost]
            in_cluster = np.frombuffer(seen, dtype=np.bool_,
                                       count=sysm.n_sites)
            spins = self._spins
            np.negative(spins, where=~in_cluster if ghost_in else in_cluster,
                        out=spins)
            return size - ghost_in
        spin = self._spin_view
        for m in members:
            spin[m] = -spin[m]
        if spin[sysm.ghost] < 0:
            np.negative(self._ext, out=self._ext)
            return size - 1
        return size

    def measure(self, stop_layer: int | None = None) -> np.ndarray:
        """Edwards-Sokal cluster of the origin, walked without flipping.

        Returns the membership mask over sites plus the ghost slot, valid
        until the next walk: ``mask[ghost]`` estimates ``<sigma_0>`` when a
        ghost is present.  A walked cluster's mask is one reused array,
        cleared and marked from the member lists; a labeled cluster's is
        the walker's ``seen``.  With ``stop_layer = system.ghost_layer``
        the walk stops once it reaches the ghost, which decides
        ``mask[ghost]`` but leaves the rest of the mask partial.
        """
        _, members = self._walk(0, stop_layer)
        if members is None:
            return np.frombuffer(self.system.walker.seen, dtype=np.bool_)
        mask = self._mask_bytes
        for m in self._masked:
            mask[m] = 0
        for m in members:
            mask[m] = 1
        self._masked = members
        return self._mask

    def swendsen_wang(self) -> np.ndarray:
        """One Swendsen-Wang update on the next sample of the stream: every
        cluster of one bond draw that does not hold the ghost flips with
        probability 1/2.  Returns the clusters' labels over the nodes.

        One ``draw_edges`` call draws every bond word against ``p_act``;
        bond e is open, as in ``_walk``, when word e is below ``p_act[e]``
        and its ends are aligned.  ``ClusterWalker.labels`` labels every
        node by the smallest node L of its cluster, and the cluster flips
        when word ``n_bonds + L`` is below 1/2.  Given the open bonds of the
        Edwards-Sokal coupling, every cluster off the ghost takes either
        sign with probability 1/2, independently, and the ghost's keeps +1,
        so the update leaves the Gibbs weight exp(-H) stationary (Swendsen
        and Wang, PRL 58, 86 (1987)).  It costs one numpy labeling,
        whatever the cluster size.
        """
        sysm = self.system
        walker = sysm.walker
        gen = walker.draw_edges(self.p_act, self.seed, rngmod.STREAM_WOLFF,
                                self.stream_index)
        self.stream_index += 1
        ext = self._ext
        label = walker.labels(ext[sysm.bond_a] == ext[sysm.bond_b])
        flip = gen.random(sysm.n_sites + 1)[label] < 0.5
        flip &= label != label[sysm.ghost]
        np.negative(ext, where=flip, out=ext)
        return label


def equilibrate(chain: WolffChain) -> int:
    """Burn in for 100 Swendsen-Wang updates, then to 20 tau_int of them.

    A Swendsen-Wang update (``WolffChain.swendsen_wang``) resamples every
    cluster of one bond draw, so it covers the lattice once whatever the
    typical cluster size: one update is one lattice sweep.  The integrated
    autocorrelation time of the |mean spin| series of the first 100 is
    measured, and the burn-in is extended to 20 tau_int updates if that is
    longer.  The clusters of the last 20 updates set the chain's
    ``budget`` (``ClusterWalker.walk_budget``).  Returns the number of
    Swendsen-Wang updates run, each of which read one sample of the
    chain's stream.
    """
    n = chain.system.n_sites
    series, last = [], deque(maxlen=_BUDGET_SWEEPS)
    for _ in range(_BURN_IN_SWEEPS):
        last.append(chain.swendsen_wang())
        series.append(abs(float(chain.spins.sum())) / n)
    tau = integrated_autocorr_time(np.array(series))
    sweeps = max(_BURN_IN_SWEEPS, int(_BURN_IN_TAUS * tau))
    for _ in range(sweeps - _BURN_IN_SWEEPS):
        last.append(chain.swendsen_wang())
    # seen[s]: the nodes in clusters of s nodes
    sizes = np.concatenate([np.bincount(label) for label in last])
    seen = np.bincount(sizes, weights=sizes)
    chain.budget = chain.system.walker.walk_budget(seen, drawn=True)
    return sweeps


def _measured(system: SpinSystem, beta: float, sweeps: int,
              seed: int) -> Iterator[WolffChain]:
    """The chain of ``system`` at ``beta`` from ``seed``, burned in
    (``equilibrate``), then yielded after each of ``sweeps`` Wolff updates
    for one measurement."""
    chain = WolffChain(system, beta, seed)
    equilibrate(chain)
    for _ in range(sweeps):
        chain.step()
        yield chain


def _estimate(name: str, values: list[float], seed: int) -> MCEstimate:
    """The mean of one value per measured update, with its batch-means
    stderr."""
    return MCEstimate(name, math.fsum(values) / len(values),
                      batch_means_stderr(values), len(values), seed)


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
    chains = _measured(system, beta, sweeps, seed)
    if boundary == "plus" or h > 0.0:
        ghost, stop = system.ghost, system.ghost_layer
        values = [float(chain.measure(stop)[ghost]) for chain in chains]
    else:
        values = [float(chain.spins[0]) for chain in chains]
    return _estimate(f"magnetization[n={n},{boundary}]", values, seed)


def estimate_two_point(lattice: LatticeSpec, n: int, beta: float,
                       distances: Sequence[int], sweeps: int, seed: int,
                       boundary: str = "free") -> dict[int, MCEstimate]:
    """<sigma_0 sigma_x> along the first axis at the given distances.

    Uses the cluster-membership estimator (see module docstring), so small
    correlations are resolved with binomial-scale noise.
    """
    check_counts(sweeps=sweeps)
    check_non_negative("distances", distances)
    system = SpinSystem.box(lattice, n, boundary=boundary)
    targets = {}
    for d in distances:
        v = (d,) + (0,) * (lattice.dim - 1)
        if v not in system.vertex_index:
            raise ValueError(f"distance {d} leaves the box")
        targets[d] = system.vertex_index[v]
    hits: dict[int, list[float]] = {d: [] for d in targets}
    for chain in _measured(system, beta, sweeps, seed):
        mask = chain.measure()
        for d, t in targets.items():
            hits[d].append(1.0 if mask[t] else 0.0)
    return {d: _estimate(f"two_point[d={d},n={n}]", hits[d], seed)
            for d in sorted(targets)}


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
    check_non_negative("radii", radii)
    if len(radii) < 2:
        raise ValueError(f"need at least two distinct radii, got {radii}")
    system = SpinSystem.box(lattice, radii[-1], boundary="free")
    counts: dict[int, list[float]] = {r: [] for r in radii}
    for chain in _measured(system, beta, sweeps, seed):
        member_layers = system.layers[chain.measure()[:system.n_sites]]
        for r in radii:
            counts[r].append(float(np.count_nonzero(member_layers <= r)))
    estimates = {r: _estimate(f"partial_chi[n={r}]", counts[r], seed)
                 for r in radii}
    increments = []
    for r1, r2 in zip(radii, radii[1:]):
        delta = _estimate(f"increment[n={r1},{r2}]",
                          [b - a for a, b in zip(counts[r1], counts[r2])],
                          seed)
        increments.append((r1, r2, delta.mean, delta.stderr))
    increasing = all(delta > 3.0 * sigma for _, _, delta, sigma in increments)
    return DivergenceReport(beta, estimates, tuple(increments), increasing)
