"""Command-line interface with reproducible CSV/JSON artifacts.

Every run resolves its options into a :class:`RunConfig`, executes one
subcommand, and writes artifacts plus a manifest JSON recording the config
hash, library versions, seeds and wall time.  Each subcommand handler writes
its artifacts and returns them with its exit code; :func:`main` resolves the
seed before the handler runs and writes the manifest after it.  Identical
configs (including the seed) produce byte-identical CSV and JSON artifacts;
timestamps live only in the manifest.

Exit codes: 0 success, 2 when a certificate is refused, 1 on any error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .certificates import (Refusal, best_bound, certify_subcritical,
                           compute_phi, region_id)
from .currents import (Current, CurrentGraph, correlation_via_currents,
                       expectation_via_currents, extract_backbone,
                       source_sum, switching_check, weight)
from .errors import ConfigError, SubcritError
from .ising_mc import (check_critical_divergence, estimate_magnetization,
                       estimate_two_point)
from .lattice import LatticeSpec, Region, ball
from .perc_mc import exit_profile, ghost_profile, susceptibility_profile
from .verify import CHECK_NAMES, default_reports

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUSED = 2

MEASUREMENT_COLUMNS = ("observable", "n", "param", "h",
                       "mean", "stderr", "samples", "seed")
TABLE_COLUMNS = ("model", "radius", "region_size", "method", "root")

_MODEL_CHOICES = ("perc", "percolation", "bond", "ising")


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

class _Field(NamedTuple):
    name: str
    kind: str  # int | float | str | int_list | str_list
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""


_LATTICE_FIELDS = [
    _Field("lattice", "str", default="square",
           choices=("square", "triangular", "hypercubic"),
           help="lattice family"),
    _Field("dim", "int", default=2, help="dimension (hypercubic only)"),
]
_MODE_FIELD = _Field("mode", "str", choices=("p", "beta"),
                     help="parameterization (default: p for percolation, "
                          "beta for ising)")
_OUTPUT_FIELDS = [
    _Field("out", "str", default=".", help="output directory"),
    _Field("label", "str", help="artifact basename (default: subcommand)"),
]
_REGION_FIELDS = [
    _Field("ball", "int", help="use the graph ball of this radius"),
    _Field("region", "str", help="JSON file with a vertex list"),
]
_CERTIFY_FIELDS = (
    [_Field("model", "str", required=True, choices=_MODEL_CHOICES),
     _Field("param", "float", required=True,
            help="bond density p or inverse temperature beta")]
    + _REGION_FIELDS + _LATTICE_FIELDS + [_MODE_FIELD] + _OUTPUT_FIELDS
)
_PHI_FIELDS = _CERTIFY_FIELDS + [
    _Field("samples", "int", default=100_000,
           help="MC samples if a percolation region exceeds the exact budget"),
    _Field("seed", "int", help="RNG seed (generated and recorded if absent)"),
]

_SCHEMAS: dict[str, list[_Field]] = {
    "certify": _CERTIFY_FIELDS,
    "phi": _PHI_FIELDS,
    "best-bound": (
        [_Field("model", "str", required=True, choices=_MODEL_CHOICES),
         _Field("max_radius", "int", required=True),
         _Field("tol", "float", default=1e-9)]
        + _LATTICE_FIELDS + [_MODE_FIELD] + _OUTPUT_FIELDS),
    "simulate-perc": (
        [_Field("observable", "str", required=True,
                choices=("exit", "susceptibility", "ghost")),
         _Field("param", "float", required=True),
         _Field("n", "int", help="box/ball size"),
         _Field("n_list", "int_list", help="several sizes, e.g. 8,16,32"),
         _Field("h", "float", default=0.0, help="ghost-bond field"),
         _Field("samples", "int", required=True),
         _Field("seed", "int")]
        + _LATTICE_FIELDS + [_MODE_FIELD] + _OUTPUT_FIELDS),
    "simulate-ising": (
        [_Field("observable", "str", required=True,
                choices=("magnetization", "two-point", "divergence")),
         _Field("param", "float", required=True, help="inverse temperature"),
         _Field("n", "int"),
         _Field("n_list", "int_list"),
         _Field("h", "float", default=0.0, help="external field"),
         _Field("boundary", "str", default="free", choices=("free", "plus")),
         _Field("distances", "int_list", help="two-point distances, e.g. 1,2,4"),
         _Field("sweeps", "int", required=True),
         _Field("seed", "int")]
        + _LATTICE_FIELDS + _OUTPUT_FIELDS),
    "verify": (
        [_Field("check", "str", default="all", choices=CHECK_NAMES + ("all",))]
        + _OUTPUT_FIELDS),
    "current-lab": (
        [_Field("scenario", "str", required=True,
                help="JSON scenario (graph, beta, h, truncation, task)")]
        + _OUTPUT_FIELDS),
    "report": (
        [_Field("inputs", "str_list", default=(),
                help="manifest JSON files from prior runs")]
        + _OUTPUT_FIELDS),
}


@dataclass(frozen=True)
class RunConfig:
    """A resolved subcommand invocation (options fully defaulted)."""

    subcommand: str
    options: dict

    def canonical(self) -> str:
        return json.dumps({"subcommand": self.subcommand,
                           "options": self.options},
                          sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def _coerce(field: _Field, value, where: str):
    def fail(msg: str):
        raise ConfigError(where, msg)

    if field.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            fail(f"expected an integer, got {value!r}")
    elif field.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            fail("must be finite")
    elif field.kind == "str":
        if not isinstance(value, str):
            fail(f"expected a string, got {value!r}")
    elif field.kind == "int_list":
        if isinstance(value, str):
            try:
                value = [int(part) for part in value.split(",") if part.strip()]
            except ValueError:
                fail(f"expected comma-separated integers, got {value!r}")
        if (not isinstance(value, (list, tuple)) or not value
                or any(isinstance(v, bool) or not isinstance(v, int)
                       for v in value)):
            fail(f"expected a list of integers, got {value!r}")
        value = list(value)
    elif field.kind == "str_list":
        if isinstance(value, str):
            value = [value]
        if (not isinstance(value, (list, tuple))
                or any(not isinstance(v, str) for v in value)):
            fail(f"expected a list of strings, got {value!r}")
        value = list(value)
    else:  # pragma: no cover - schema bug
        raise AssertionError(field.kind)
    if field.choices and value not in field.choices:
        fail(f"must be one of {', '.join(field.choices)}")
    return value


def _validate_options(subcommand: str, provided: dict) -> dict:
    schema = {f.name: f for f in _SCHEMAS[subcommand]}
    for name in provided:
        if name not in schema:
            raise ConfigError(f"options.{name}", "unknown field")
    options = {}
    for name, field in schema.items():
        if name in provided and provided[name] is not None:
            options[name] = _coerce(field, provided[name], f"options.{name}")
        elif field.required:
            raise ConfigError(f"options.{name}", "required field missing")
        else:
            default = field.default
            options[name] = list(default) if isinstance(default, tuple) else default
    for name in ("samples", "sweeps"):
        if name in options and options[name] < 1:
            raise ConfigError(f"options.{name}", "must be positive")
    if options.get("seed") is not None and not 0 <= options["seed"] < 2 ** 64:
        raise ConfigError("options.seed", "must lie in [0, 2**64)")
    if options.get("label") is None:
        options["label"] = subcommand
    return options


def config_from_args(args: argparse.Namespace) -> RunConfig:
    sub = args.subcommand
    provided = {}
    for field in _SCHEMAS[sub]:
        value = getattr(args, field.name, None)
        if value is not None:
            provided[field.name] = value
    if getattr(args, "config", None) is not None:
        if provided:
            raise ConfigError("options",
                              "--config and individual option flags are "
                              "mutually exclusive")
        raw = _read_json(args.config, "config")
        if not isinstance(raw, dict):
            raise ConfigError("config", "must be a JSON object")
        provided = raw
    return RunConfig(sub, _validate_options(sub, provided))


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _read_json(path: str, where: str, what: str = "file"):
    """The JSON value in the file at ``path``; a ConfigError at ``where``
    if the ``what`` cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(where, f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(where, f"invalid JSON: {exc}")


def _build_lattice(opts: dict, default_mode: str) -> LatticeSpec:
    mode = opts.get("mode") or default_mode
    opts["mode"] = mode  # resolved value enters the manifest
    return LatticeSpec.from_json({"family": opts["lattice"],
                                  "dim": opts["dim"], "mode": mode})


def _default_mode(opts: dict) -> str:
    return "beta" if opts.get("model") == "ising" else "p"


def _refuse_unknown(data: dict, known: set, field: str) -> None:
    """A ConfigError naming the first key of ``data`` outside ``known``."""
    unknown = sorted(data.keys() - known)
    if unknown:
        raise ConfigError(field, f"unknown key {unknown[0]!r}")


def _load_region(opts: dict, lattice: LatticeSpec) -> Region:
    radius, path = opts.get("ball"), opts.get("region")
    if (radius is None) == (path is None):
        raise ConfigError("options.ball",
                          "exactly one of 'ball' and 'region' is required")
    if radius is not None:
        if radius < 0:
            raise ConfigError("options.ball", "radius must be non-negative")
        return ball(lattice, radius)
    data = _read_json(path, "options.region")
    if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
        raise ConfigError("options.region",
                          "expected an object with a 'vertices' list")
    _refuse_unknown(data, {"vertices", "origin"}, "options.region")
    dim = lattice.dim
    origin = _region_vertex(data["origin"], dim) if "origin" in data else None
    return Region(lattice, [_region_vertex(v, dim) for v in data["vertices"]],
                  origin)


def _region_vertex(value, dim: int) -> tuple:
    """A region-file vertex: a list of ``dim`` integers."""
    if (not isinstance(value, list) or len(value) != dim
            or any(isinstance(c, bool) or not isinstance(c, int)
                   for c in value)):
        raise ConfigError("options.region",
                          f"expected a vertex of {dim} integers, got {value!r}")
    return tuple(value)


def _resolve_seed(opts: dict) -> None:
    """Generate a seed for a schema with a ``seed`` field left unset."""
    if "seed" in opts and opts["seed"] is None:
        opts["seed"] = int.from_bytes(os.urandom(4), "big")


def _resolve_sizes(opts: dict) -> list[int]:
    n, n_list = opts.get("n"), opts.get("n_list")
    if (n is None) == (n_list is None):
        raise ConfigError("options.n",
                          "exactly one of 'n' and 'n_list' is required")
    sizes = [n] if n is not None else list(n_list)
    if any(s <= 0 for s in sizes):
        raise ConfigError("options.n", "sizes must be positive")
    if len(set(sizes)) < len(sizes):
        raise ConfigError("options.n_list", "sizes must be distinct")
    return sizes


def _artifact(opts: dict, suffix: str) -> str:
    os.makedirs(opts["out"], exist_ok=True)
    return os.path.join(opts["out"], opts["label"] + suffix)


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header: tuple, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _measurement_row(observable: str, n: int, param: float, h: float,
                     est) -> tuple:
    return (observable, str(n), _g17(param), _g17(h), _g17(est.mean),
            _g17(est.stderr), str(est.samples), str(est.seed))


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(cfg: RunConfig, artifacts: list[str], t0: float) -> str:
    manifest = {
        "subcommand": cfg.subcommand,
        "config": cfg.options,
        "config_sha256": cfg.sha256(),
        "versions": {"package": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__},
        "seed": cfg.options.get("seed"),
        "wall_time_s": round(time.time() - t0, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "artifacts": [os.path.basename(a) for a in artifacts],
    }
    path = _artifact(cfg.options, "_manifest.json")
    _write_json(path, manifest)
    return path


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_certify(cfg: RunConfig) -> tuple[int, list[str]]:
    opts = cfg.options
    lattice = _build_lattice(opts, _default_mode(opts))
    region = _load_region(opts, lattice)
    result = certify_subcritical(opts["model"], lattice, region,
                                 opts["param"])
    path = _artifact(opts, ".json")
    _write_json(path, result.to_json())
    refused = isinstance(result, Refusal)
    if refused:
        print(f"refused: {result.reason}")
    else:
        print(f"certified {result.model} at param {_g17(result.param)}: "
              f"phi = {result.phi.value:.12g} "
              f"(ucb {result.phi.upper_confidence:.12g}, "
              f"method {result.phi.method})")
    print(f"wrote {path}")
    return (EXIT_REFUSED if refused else EXIT_OK), [path]


def _cmd_phi(cfg: RunConfig) -> tuple[int, list[str]]:
    opts = cfg.options
    lattice = _build_lattice(opts, _default_mode(opts))
    region = _load_region(opts, lattice)
    result = compute_phi(opts["model"], lattice, region, opts["param"],
                         samples=opts["samples"], seed=opts["seed"])
    path = _artifact(opts, ".json")
    _write_json(path, result.to_json())
    print(f"phi = {result.value:.12g} (ucb {result.upper_confidence:.12g}, "
          f"method {result.method}, region {result.region_id})")
    print(f"wrote {path}")
    return EXIT_OK, [path]


def _cmd_best_bound(cfg: RunConfig) -> tuple[int, list[str]]:
    opts = cfg.options
    if opts["max_radius"] < 0:
        raise ConfigError("options.max_radius", "must be non-negative")
    lattice = _build_lattice(opts, _default_mode(opts))
    result = best_bound(opts["model"], lattice, opts["max_radius"],
                        tol=opts["tol"])
    rows = [(result.model, str(r.radius), str(r.region_size), r.method,
             _g17(r.root)) for r in result.rows]
    csv_path = _artifact(opts, ".csv")
    _write_csv(csv_path, TABLE_COLUMNS, rows)
    json_path = _artifact(opts, ".json")
    _write_json(json_path, {
        "model": result.model,
        "param_star": result.param_star,
        "region_id": region_id(result.region),
        "rows": [{"radius": r.radius, "method": r.method,
                  "root": None if r.method == "skipped" else r.root,  # no NaN
                  "region_size": r.region_size} for r in result.rows],
    })
    print(f"best bound for {result.model}: param <= critical point for "
          f"param = {_g17(result.param_star)} (region {region_id(result.region)})")
    print(f"wrote {csv_path}")
    return EXIT_OK, [csv_path, json_path]


def _cmd_simulate_perc(cfg: RunConfig) -> tuple[int, list[str]]:
    opts = cfg.options
    lattice = _build_lattice(opts, "p")
    observable, param, h = opts["observable"], opts["param"], opts["h"]
    samples, seed = opts["samples"], opts["seed"]
    if observable != "ghost" and h != 0.0:
        raise ConfigError("options.h", f"{observable} is measured at zero field")
    sizes = _resolve_sizes(opts)
    if observable in ("exit", "susceptibility"):
        profile = exit_profile if observable == "exit" else susceptibility_profile
        estimates = profile(lattice, max(sizes), sizes, param, samples, seed)
        rows = [_measurement_row(observable, n, param, 0.0, estimates[n])
                for n in sizes]
    else:  # ghost: one box per size
        if h <= 0.0:
            raise ConfigError("options.h",
                              "ghost magnetization needs a positive field")
        rows = [_measurement_row("ghost", n, param, h, ghost_profile(
            lattice, n, param, [h], samples, seed)[h]) for n in sizes]
    csv_path = _artifact(opts, ".csv")
    _write_csv(csv_path, MEASUREMENT_COLUMNS, rows)
    print(f"wrote {len(rows)} row(s) to {csv_path}")
    return EXIT_OK, [csv_path]


def _cmd_simulate_ising(cfg: RunConfig) -> tuple[int, list[str]]:
    opts = cfg.options
    lattice = _build_lattice(opts, "beta")
    observable, beta, h = opts["observable"], opts["param"], opts["h"]
    sweeps, boundary, seed = opts["sweeps"], opts["boundary"], opts["seed"]
    if observable != "magnetization" and h != 0.0:
        raise ConfigError("options.h", f"{observable} is measured at zero field")
    if observable != "two-point" and opts["distances"] is not None:
        raise ConfigError("options.distances", "only two-point takes distances")
    if observable == "divergence" and boundary != "free":
        raise ConfigError("options.boundary",
                          "divergence is measured with free boundary")
    rows = []
    extra_paths: list[str] = []
    if observable == "magnetization":
        for n in _resolve_sizes(opts):
            est = estimate_magnetization(lattice, n, beta, boundary,
                                         sweeps, seed, h=h)
            rows.append(_measurement_row("magnetization", n, beta, h, est))
    elif observable == "two-point":
        sizes = _resolve_sizes(opts)
        if len(sizes) != 1:
            raise ConfigError("options.n", "two-point needs a single size")
        if not opts.get("distances"):
            raise ConfigError("options.distances", "required field missing")
        if len(set(opts["distances"])) < len(opts["distances"]):
            raise ConfigError("options.distances", "distances must be distinct")
        estimates = estimate_two_point(lattice, sizes[0], beta,
                                       opts["distances"], sweeps, seed,
                                       boundary=boundary)
        for d in opts["distances"]:
            rows.append(_measurement_row(f"two-point[d={d}]", sizes[0],
                                         beta, h, estimates[d]))
    else:  # divergence
        sizes = _resolve_sizes(opts)
        if len(sizes) < 2:
            raise ConfigError("options.n_list",
                              "divergence needs at least two sizes")
        report = check_critical_divergence(lattice, beta, sizes, sweeps, seed)
        for n in sizes:
            rows.append(_measurement_row("susceptibility-sum", n, beta, h,
                                         report.estimates[n]))
        json_path = _artifact(opts, ".json")
        _write_json(json_path, {
            "beta": report.beta,
            "increments": [list(inc) for inc in report.increments],
            "strictly_increasing_3sigma": report.strictly_increasing_3sigma,
        })
        extra_paths.append(json_path)
        print(f"strictly increasing at 3 sigma: "
              f"{report.strictly_increasing_3sigma}")
    csv_path = _artifact(opts, ".csv")
    _write_csv(csv_path, MEASUREMENT_COLUMNS, rows)
    print(f"wrote {len(rows)} row(s) to {csv_path}")
    return EXIT_OK, [csv_path] + extra_paths


def _cmd_verify(cfg: RunConfig) -> tuple[int, list[str]]:
    opts = cfg.options
    reports = default_reports(opts["check"])
    for report in reports:
        print(report.summary_line())
    path = _artifact(opts, ".json")
    _write_json(path, [report.to_json() for report in reports])
    print(f"wrote {path}")
    return (EXIT_OK if all(r.passed for r in reports) else EXIT_ERROR), [path]


def _typed(value, kind: str, where: str):
    """A scenario value typed as the ``--config`` options are: an "int"
    that is a JSON integer, or a "float" that is a finite JSON number;
    booleans and strings are refused."""
    return _coerce(_Field(where, kind), value, where)


def _scenario_graph(data: dict) -> CurrentGraph:
    if not isinstance(data, dict) or "graph" not in data:
        raise ConfigError("scenario.graph", "required field missing")
    graph = data["graph"]
    try:
        edges = []
        for edge in graph["edges"]:
            x, y = (_typed(end, "int", "scenario.graph") for end in edge[:2])
            j = (_typed(edge[2], "float", "scenario.graph") if len(edge) > 2
                 else 1.0)
            edges.append((x, y, j))
        return CurrentGraph(_typed(graph["n_vertices"], "int",
                                   "scenario.graph"), tuple(edges))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError("scenario.graph", f"malformed graph: {exc}")


def _scenario_f(spec):
    if isinstance(spec, str):
        return spec.replace("-", "_")
    if isinstance(spec, list) and len(spec) == 3 and spec[0] == "connect":
        return ("connect", *(_typed(end, "int", "scenario.task.f")
                             for end in spec[1:]))
    raise ConfigError("scenario.task.f",
                      "expected 'one', 'even-total', or ['connect', a, b]")


# the keys a scenario file and each kind of task may hold
_SCENARIO_KEYS = {"graph", "beta", "h", "truncation", "task"}
_TASK_KEYS = {"switching": {"sources", "u", "v", "f"},
              "correlation": {"x", "y"},
              "expectation": {"sources"},
              "source-sum": {"sources"},
              "backbone": {"multiplicities"}}


def _cmd_current_lab(cfg: RunConfig) -> tuple[int, list[str]]:
    opts = cfg.options
    scenario = _read_json(opts["scenario"], "options.scenario")
    graph = _scenario_graph(scenario)
    _refuse_unknown(scenario, _SCENARIO_KEYS, "scenario")
    beta, h = (_typed(scenario.get(key, 0.0), "float", f"scenario.{key}")
               for key in ("beta", "h"))
    task = scenario.get("task")
    if not isinstance(task, dict) or "kind" not in task:
        raise ConfigError("scenario.task", "expected an object with 'kind'")
    kind = task["kind"]
    if not isinstance(kind, str) or kind not in _TASK_KEYS:
        raise ConfigError("scenario.task.kind",
                          "expected switching, correlation, expectation, "
                          "source-sum, or backbone")
    _refuse_unknown(task, _TASK_KEYS[kind] | {"kind"}, "scenario.task")
    if kind != "backbone" or "truncation" in scenario:  # backbone needs none
        trunc = _typed(scenario.get("truncation"), "int",
                       "scenario.truncation")
    def vertex(value):
        return _typed(value, "int", "scenario.task")

    # read every task field before computing, so that a malformed field is
    # a config error and the engine's own refusals keep their messages
    try:
        if kind in ("switching", "expectation", "source-sum"):
            sources = [vertex(s) for s in task["sources"]]
        if kind == "switching":
            u, v = vertex(task["u"]), vertex(task["v"])
            f_spec = _scenario_f(task.get("f", "one"))
        elif kind == "correlation":
            x, y = vertex(task["x"]), vertex(task["y"])
        elif kind == "backbone":
            mults = tuple(((x, y), k) for (x, y), k in task["multiplicities"])
            if any(type(v) is not int for pair, k in mults for v in (*pair, k)):
                raise TypeError("expected [[x, y], count] with integers")
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError("scenario.task", f"malformed task: {exc}")
    if kind == "switching":
        lhs, rhs = switching_check(graph, sources, u, v, f_spec, beta, h,
                                   trunc)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        result = {"kind": kind, "lhs": lhs, "rhs": rhs,
                  "abs_diff": abs(lhs - rhs),
                  "rel_diff": abs(lhs - rhs) / scale}
        line = (f"switching: lhs = {lhs:.17g}, rhs = {rhs:.17g}, "
                f"rel diff = {result['rel_diff']:.3e}")
    elif kind == "correlation":
        value = correlation_via_currents(graph, x, y, beta, h, trunc)
        result = {"kind": kind, "value": value}
        line = f"correlation({x},{y}) = {value:.17g}"
    elif kind == "expectation":
        value = expectation_via_currents(graph, sources, beta, h, trunc)
        result = {"kind": kind, "value": value}
        line = f"expectation{tuple(sources)} = {value:.17g}"
    elif kind == "source-sum":
        value = source_sum(graph, sources, beta, h, trunc)
        result = {"kind": kind, "value": value}
        line = f"source sum{tuple(sources)} = {value:.17g}"
    else:
        current = Current(graph, mults)
        path_edges = extract_backbone(current, h)
        result = {"kind": kind,
                  "path": [list(edge) for edge in path_edges],
                  "weight": weight(current, beta, h)}
        line = f"backbone: {result['path']}"
    out_path = _artifact(opts, ".json")
    _write_json(out_path, {"scenario": scenario, "result": result})
    print(line)
    print(f"wrote {out_path}")
    return EXIT_OK, [out_path]


def _cmd_report(cfg: RunConfig) -> tuple[int, list[str]]:
    opts = cfg.options
    measurements: list[tuple] = []
    tables: list[tuple] = []
    sections: dict[str, dict] = {}
    for i, manifest_path in enumerate(opts["inputs"]):
        where = f"options.inputs[{i}]"
        manifest = _read_json(manifest_path, where, "manifest")
        if not isinstance(manifest, dict):
            raise ConfigError(where, "expected a manifest object")
        sub = manifest.get("subcommand", "unknown")
        config = manifest.get("config", {})
        label = config.get("label", "run") if isinstance(config, dict) else None
        names = manifest.get("artifacts", [])
        if (not isinstance(sub, str) or not isinstance(label, str)
                or not isinstance(names, list)
                or not all(isinstance(name, str) for name in names)):
            raise ConfigError(where, "expected a string 'subcommand', a "
                                     "'config' object with a string 'label' "
                                     "and a list of 'artifacts' file names")
        base = os.path.dirname(os.path.abspath(manifest_path))
        section = sections.setdefault(sub, {"runs": 0, "rows": 0,
                                            "observables": set()})
        section["runs"] += 1
        for name in names:
            path = os.path.join(base, name)
            if not os.path.exists(path):
                raise ConfigError(where, f"missing artifact {name}")
            if not name.endswith(".csv"):
                continue
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = tuple(next(reader, ()))
                body = [tuple(row) for row in reader]
            for line, row in enumerate(body, start=2):
                if len(row) != len(header):
                    raise ConfigError(where, f"{name} line {line} has {len(row)}"
                                             f" fields, its header {len(header)}")
            if header == MEASUREMENT_COLUMNS:
                for row in body:
                    measurements.append((label, sub) + row)
                    section["observables"].add(row[0])
                section["rows"] += len(body)
            elif header == TABLE_COLUMNS:
                for row in body:
                    tables.append((label,) + row)
                    section["observables"].add(f"critical-root[{row[0]}]")
                section["rows"] += len(body)
            else:
                raise ConfigError(where, f"unrecognized CSV schema in {name}")
    csv_path = _artifact(opts, ".csv")
    _write_csv(csv_path, ("source", "subcommand") + MEASUREMENT_COLUMNS,
               measurements)
    artifacts = [csv_path]
    if tables:
        tables_path = _artifact(opts, "_tables.csv")
        _write_csv(tables_path, ("source",) + TABLE_COLUMNS, tables)
        artifacts.append(tables_path)
    summary_path = _artifact(opts, ".txt")
    with open(summary_path, "w") as fh:
        fh.write(f"consolidated report over {len(opts['inputs'])} run(s)\n")
        for sub in sorted(sections):
            sec = sections[sub]
            names = ", ".join(sorted(sec["observables"])) or "none"
            fh.write(f"\n[{sub}] {sec['runs']} run(s), {sec['rows']} row(s)\n")
            fh.write(f"  observables: {names}\n")
        if tables:
            fh.write("\ncritical-root tables:\n")
            for row in tables:
                fh.write("  " + " ".join(row) + "\n")
        if not sections:
            fh.write("no input artifacts\n")
    artifacts.append(summary_path)
    print(f"merged {len(measurements)} measurement row(s) and "
          f"{len(tables)} table row(s) into {csv_path}")
    return EXIT_OK, artifacts


_HANDLERS: dict[str, Callable[[RunConfig], tuple[int, list[str]]]] = {
    "certify": _cmd_certify,
    "phi": _cmd_phi,
    "best-bound": _cmd_best_bound,
    "simulate-perc": _cmd_simulate_perc,
    "simulate-ising": _cmd_simulate_ising,
    "verify": _cmd_verify,
    "current-lab": _cmd_current_lab,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1 (2 is reserved for refusals)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names
    one: parsing a command line needs no other subcommand's flags, and
    adding them all costs far more than the parsing."""
    parser = _Parser(prog="subcrit",
                     description="subcriticality certificates, simulations, "
                                 "and inequality checks")
    parser.add_argument("--version", action="version",
                        version=f"subcrit {__version__}")
    names = [command] if command in _SCHEMAS else list(_SCHEMAS)
    # usage lines name every subcommand either way
    subparsers = parser.add_subparsers(
        dest="subcommand", parser_class=_Parser,
        metavar="{" + ",".join(_SCHEMAS) + "}" if len(names) == 1 else None)
    descriptions = {
        "certify": "produce an exact subcriticality certificate "
                   "(exit 2 on refusal)",
        "phi": "evaluate phi on a region (a Monte Carlo estimate beyond "
               "the exact budget)",
        "best-bound": "best certified lower bound over balls of growing radius",
        "simulate-perc": "percolation Monte Carlo (exit, susceptibility, ghost)",
        "simulate-ising": "Ising Monte Carlo (Wolff dynamics)",
        "verify": "run the exact inequality checks",
        "current-lab": "truncated random-current computations from a scenario file",
        "report": "merge artifacts from prior runs (never recomputes)",
    }
    for name in names:
        sub = subparsers.add_parser(name, description=descriptions[name],
                                    help=descriptions[name])
        sub.add_argument("--config", metavar="FILE",
                         help="JSON file with all options "
                              "(mutually exclusive with other flags)")
        for field in _SCHEMAS[name]:
            flag = "--" + field.name.replace("_", "-")
            kwargs: dict = {"help": field.help or None, "default": None,
                            "dest": field.name}
            if field.kind == "int":
                kwargs["type"] = int
            elif field.kind == "float":
                kwargs["type"] = float
            elif field.kind == "str_list":
                kwargs["nargs"] = "*"
            sub.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level options take no value: the first other token is the
    # subcommand
    parser = build_parser(next((a for a in argv if not a.startswith("-")),
                               None))
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.error("a subcommand is required")
    try:
        cfg = config_from_args(args)
        t0 = time.time()
        _resolve_seed(cfg.options)
        code, artifacts = _HANDLERS[cfg.subcommand](cfg)
        _write_manifest(cfg, artifacts, t0)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SubcritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
