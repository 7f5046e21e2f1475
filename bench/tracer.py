"""Spans around calls into subcrit's layers, recorded from outside.

``install`` replaces the public functions and methods named in ``TARGETS``
with timing wrappers, everywhere they are looked up: the CLI and the
other modules import functions by name, so every module attribute bound to
the original object is rebound.  Methods are replaced on their class.

Each wrapped call becomes one span (name, start, end, parent).  A span's
self time is its duration minus the time covered by its child spans; the
bookkeeping the tracer does for a span's counters is charged to no layer.
Spans are kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> wrapped names ("func" or "Class.method"), relative to subcrit.<layer>
TARGETS = {
    "lattice": ["ball", "translate_region", "LatticeSpec.distances_from_origin"],
    "rng": ["sample_stream"],
    "exact": ["ConnectivityTables.__init__", "ConnectivityTables.prob",
              "perc_connect_probs", "perc_exit_prob", "ising_observables"],
    "certificates": ["compute_phi", "certify_subcritical", "critical_root",
                     "best_bound"],
    "perc_mc": ["PercBox.__init__", "PercBox.sample", "PercBox.origin_cluster",
                "estimate_exit", "exit_profile", "estimate_susceptibility",
                "susceptibility_profile", "estimate_ghost_magnetization"],
    "ising_mc": ["SpinSystem.box", "SpinSystem.from_region",
                 "WolffChain.__init__", "WolffChain.step",
                 "WolffChain.fk_cluster", "equilibrate",
                 "estimate_magnetization", "estimate_two_point",
                 "check_critical_divergence"],
    "currents": ["source_sum", "expectation_via_currents",
                 "correlation_via_currents", "switching_check",
                 "extract_backbone"],
    "verify": ["default_reports", "default_report", "phi_infimum",
               "check_perc_differential", "check_bk_decomposition",
               "check_ising_differential", "check_modified_simon",
               "check_ghs_differential"],
    "stats": ["batch_means_stderr", "integrated_autocorr_time"],
    "cli": ["main"],
}

LAYERS = tuple(TARGETS)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Counters taken at a span's boundary: (args, kwargs, result) -> {name: value}.
def _tables_counters(args, kwargs, result):
    return {"bond_configs": 2 ** len(_arg(args, kwargs, 2, "edges"))}


def _ising_counters(args, kwargs, result):
    return {"spin_states": 2 ** len(_arg(args, kwargs, 0, "region"))}


def _sample_counters(args, kwargs, result):
    box = args[0]
    h = _arg(args, kwargs, 2, "h", 0.0)
    return {"uniforms": box.n_edges + (box.n_nodes if h > 0.0 else 0)}


def _walk_counters(args, kwargs, result):
    box = args[0]
    members = result[0]
    in_cluster = np.zeros(box.n_nodes, dtype=bool)
    in_cluster[members] = True
    useful = int(np.count_nonzero(in_cluster[box.edge_a] | in_cluster[box.edge_b]))
    if _arg(args, kwargs, 2, "ghost_open") is not None:
        useful += len(members)
    return {"sites": len(members), "useful_draws": useful}


def _step_counters(args, kwargs, result):
    return {"cluster_sites": int(result)}


def _burn_in_counters(args, kwargs, result):
    return {"burn_in_steps": int(result)}


COUNTERS = {
    "exact.ConnectivityTables.__init__": _tables_counters,
    "exact.ising_observables": _ising_counters,
    "perc_mc.PercBox.sample": _sample_counters,
    "perc_mc.PercBox.origin_cluster": _walk_counters,
    "ising_mc.WolffChain.step": _step_counters,
    "ising_mc.equilibrate": _burn_in_counters,
}


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, self)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [id, start, child_time]
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = len(tracer.spans) + len(stack)
            frame = [span_id, 0.0, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            duration = end - frame[1]
            tracer.spans.append((span_id, name, frame[1], end, parent,
                                 duration - frame[2]))
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    tracer.counters[f"{name}:{key}"] += value
            if stack:
                # the parent sees this span and its counter bookkeeping as
                # child time, so neither lands in the parent's self time
                stack[-1][2] += time.perf_counter() - frame[1]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, _ in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start - self.origin,
                                     "end": end - self.origin,
                                     "parent": parent}) + "\n")

    # -- aggregation -----------------------------------------------------

    def _durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def _self_time(self, layer: str) -> float:
        prefix = layer + "."
        return math.fsum(s for _, n, _, _, _, s in self.spans
                         if n.startswith(prefix))

    def _outer_time(self, layer: str) -> float:
        """Time inside the layer's outermost spans (children included)."""
        prefix = layer + "."
        names = {span_id: n for span_id, n, *_ in self.spans}
        return math.fsum(end - start for _, n, start, end, parent, _ in self.spans
                         if n.startswith(prefix)
                         and not (parent is not None
                                  and names.get(parent, "").startswith(prefix)))

    def metrics(self) -> dict[str, float]:
        def total(name):
            return math.fsum(self._durations(name))

        def mean(name, scale=1.0):
            d = self._durations(name)
            return scale * math.fsum(d) / len(d) if d else 0.0

        def count(name):
            return float(len(self._durations(name)))

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        configs = c["exact.ConnectivityTables.__init__:bond_configs"]
        table_s = total("exact.ConnectivityTables.__init__")
        states = c["exact.ising_observables:spin_states"]
        ising_s = total("exact.ising_observables")
        n_samples = count("perc_mc.PercBox.sample")
        n_walks = count("perc_mc.PercBox.origin_cluster")
        n_steps = count("ising_mc.WolffChain.step")
        step_s = total("ising_mc.WolffChain.step")
        out = {
            "lattice.ball_s": total("lattice.ball"),
            "rng.streams": count("rng.sample_stream"),
            "rng.stream_setup_us": mean("rng.sample_stream", 1e6),
            "exact.bond_configs": configs,
            "exact.table_build_s": table_s,
            "exact.bond_configs_per_s": ratio(configs, table_s),
            "exact.spin_states": states,
            "exact.ising_eval_s": ising_s,
            "exact.spin_states_per_s": ratio(states, ising_s),
            "certificates.phi_evals": count("certificates.compute_phi"),
            "certificates.phi_eval_ms": mean("certificates.compute_phi", 1e3),
            "certificates.root_s": total("certificates.critical_root"),
            "perc_mc.sample_us": mean("perc_mc.PercBox.sample", 1e6),
            "perc_mc.uniforms_per_sample": ratio(
                c["perc_mc.PercBox.sample:uniforms"], n_samples),
            "perc_mc.walk_us": mean("perc_mc.PercBox.origin_cluster", 1e6),
            "perc_mc.sites_per_walk": ratio(
                c["perc_mc.PercBox.origin_cluster:sites"], n_walks),
            "perc_mc.draw_use_ratio": ratio(
                c["perc_mc.PercBox.origin_cluster:useful_draws"],
                c["perc_mc.PercBox.sample:uniforms"]),
            "ising_mc.step_us": mean("ising_mc.WolffChain.step", 1e6),
            "ising_mc.fk_us": mean("ising_mc.WolffChain.fk_cluster", 1e6),
            "ising_mc.cluster_sites": ratio(
                c["ising_mc.WolffChain.step:cluster_sites"], n_steps),
            "ising_mc.sites_per_s": ratio(
                c["ising_mc.WolffChain.step:cluster_sites"], step_s),
            "ising_mc.burn_in_steps": ratio(
                c["ising_mc.equilibrate:burn_in_steps"],
                count("ising_mc.equilibrate")),
            "currents.enum_s": self._self_time("currents"),
            "verify.check_s": self._outer_time("verify"),
            "stats.s": self._self_time("stats"),
            "cli.overhead_s": self._self_time("cli"),
        }
        for layer in ("lattice", "exact", "certificates", "perc_mc",
                      "ising_mc", "verify"):
            out[f"{layer}.self_s"] = self._self_time(layer)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every target; names the program no longer has are recorded."""
    modules = {layer: importlib.import_module(f"subcrit.{layer}")
               for layer in LAYERS}
    loaded = [m for name, m in sys.modules.items()
              if name == "subcrit" or name.startswith("subcrit.")]
    for layer, names in TARGETS.items():
        module = modules[layer]
        for target in names:
            span_name = f"{layer}.{target}"
            owner_name, _, attr = target.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    tracer.missing.append(span_name)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr,
                            type(raw)(tracer.wrap(span_name, raw.__func__)))
                else:
                    setattr(owner, attr, tracer.wrap(span_name, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(span_name)
                continue
            wrapper = tracer.wrap(span_name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
