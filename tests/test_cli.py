"""End-to-end tests of the command-line interface (in-process)."""

import csv
import json
import subprocess
import sys
import tracemalloc

import pytest

from subcrit import exact
from subcrit import lattice as lattice_mod
from subcrit.cli import (_SCHEMAS, EXIT_ERROR, EXIT_OK, EXIT_REFUSED,
                         MEASUREMENT_COLUMNS, TABLE_COLUMNS, RunConfig,
                         build_parser, main)


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- certify / phi ------------------------------------------------------------

def test_certify_success_writes_certificate_and_manifest(tmp_path):
    code = run_cli("certify", "--model", "perc", "--param", "0.2",
                   "--ball", "1", "--out", str(tmp_path), "--label", "cert")
    assert code == EXIT_OK
    payload = read_json(tmp_path / "cert.json")
    assert payload["param"] == 0.2
    manifest = read_json(tmp_path / "cert_manifest.json")
    assert manifest["subcommand"] == "certify"
    assert manifest["artifacts"] == ["cert.json"]
    assert manifest["seed"] is None  # exact: nothing is sampled
    assert len(manifest["config_sha256"]) == 64


def test_certify_rerun_is_byte_identical(tmp_path):
    # the wall-clock time lives only in the manifest
    args = ("certify", "--model", "perc", "--param", "0.2", "--ball", "1",
            "--label", "cert")
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run_cli(*args, "--out", str(out)) == EXIT_OK
    payload = read_json(tmp_path / "a" / "cert.json")
    assert "timestamp" not in payload
    assert "created_utc" in read_json(tmp_path / "a" / "cert_manifest.json")
    assert ((tmp_path / "a" / "cert.json").read_bytes()
            == (tmp_path / "b" / "cert.json").read_bytes())


def test_certify_refusal_exits_two(tmp_path):
    code = run_cli("certify", "--model", "perc", "--param", "0.9",
                   "--ball", "1", "--out", str(tmp_path))
    assert code == EXIT_REFUSED
    payload = read_json(tmp_path / "certify.json")
    assert payload["phi"]["value"] > 1.0


def test_certify_ising_model(tmp_path):
    code = run_cli("certify", "--model", "ising", "--param", "0.2",
                   "--ball", "1", "--out", str(tmp_path))
    assert code == EXIT_OK


def test_certify_invalid_param_exits_one(tmp_path, capsys):
    code = run_cli("certify", "--model", "perc", "--param", "-0.5",
                   "--ball", "1", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_certify_negative_ising_beta_exits_one(tmp_path, capsys):
    code = run_cli("certify", "--model", "ising", "--param", "-0.1",
                   "--ball", "1", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "error: beta must be non-negative"]


def test_certify_beyond_exact_cap_exits_one(tmp_path, capsys):
    code = run_cli("certify", "--model", "perc", "--param", "0.28",
                   "--ball", "8", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: percolation frontier: need 17, cap is 15"]


def test_certify_refuses_a_wide_ising_box_before_building_it(tmp_path,
                                                             capsys,
                                                             fresh_plans):
    # a 40x24 box sweeps 26 spins at once; its 2^26 rows are counted from
    # the sweep's frontier sizes before any state is built
    region = tmp_path / "box.json"
    region.write_text(json.dumps({"vertices": [[x, y] for x in range(40)
                                               for y in range(24)]}))
    tracemalloc.start()
    try:
        code = run_cli("certify", "--model", "ising", "--param", "0.4",
                       "--region", str(region), "--out", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: sweep lane bytes: need {256 << 26}, cap is "
                   f"{exact.PLAN_BYTES}"]
    assert peak < 16 << 20


def test_certify_and_best_bound_take_no_sampling_options(tmp_path):
    for args in (("certify", "--model", "perc", "--param", "0.2",
                  "--ball", "1", "--seed", "5"),
                 ("best-bound", "--model", "perc", "--max-radius", "1",
                  "--budget", "1000")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--out", str(tmp_path))
        assert exc.value.code == EXIT_ERROR


def test_phi_reports_value(tmp_path):
    code = run_cli("phi", "--model", "perc", "--param", "0.3",
                   "--ball", "1", "--seed", "5",
                   "--out", str(tmp_path), "--label", "phi1")
    assert code == EXIT_OK
    payload = read_json(tmp_path / "phi1.json")
    assert payload["method"] == "exact"
    assert payload["value"] > 0.0


def test_phi_ising_is_exact_only(tmp_path, capsys):
    code = run_cli("phi", "--model", "ising", "--param", "0.3",
                   "--ball", "11", "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sweep lane bytes:"), (
        err)
    with pytest.raises(SystemExit) as exc:
        run_cli("phi", "--model", "ising", "--param", "0.3", "--ball", "1",
                "--sweeps", "10", "--out", str(tmp_path))
    assert exc.value.code == EXIT_ERROR


def test_phi_region_from_json_file(tmp_path):
    region_file = tmp_path / "region.json"
    region_file.write_text(json.dumps(
        {"vertices": [[0, 0], [1, 0], [0, 1]], "origin": [0, 0]}))
    code = run_cli("phi", "--model", "perc", "--param", "0.3",
                   "--region", str(region_file), "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EXIT_OK


def test_phi_requires_exactly_one_region_spec(tmp_path, capsys):
    code = run_cli("phi", "--model", "perc", "--param", "0.3",
                   "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert "options.ball" in capsys.readouterr().err
    region_file = tmp_path / "region.json"
    region_file.write_text(json.dumps({"vertices": [[0, 0]]}))
    code = run_cli("phi", "--model", "perc", "--param", "0.3",
                   "--ball", "1", "--region", str(region_file),
                   "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_ERROR


def test_phi_malformed_region_file(tmp_path, capsys):
    bad = tmp_path / "region.json"
    bad.write_text("[1, 2, 3]")
    code = run_cli("phi", "--model", "perc", "--param", "0.3",
                   "--region", str(bad), "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert "options.region" in capsys.readouterr().err


@pytest.mark.parametrize("content", [{"vertices": [1, 2]},
                                     {"vertices": [[0, 0]], "origin": 5}],
                         ids=["bare-vertices", "bare-origin"])
def test_certify_region_file_with_bad_vertices(tmp_path, capsys, content):
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps(content))
    code = run_cli("certify", "--model", "perc", "--param", "0.2",
                   "--region", str(bad), "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: options.region")


def test_certify_refuses_unknown_region_keys(tmp_path, capsys):
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"vertices": [[0, 0], [1, 0]], "extra": 1}))
    out = tmp_path / "out"
    code = run_cli("certify", "--model", "perc", "--param", "0.2",
                   "--region", str(region), "--out", str(out))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: options.region: unknown key 'extra'"]
    assert not out.exists() or not list(out.iterdir())


# --- best-bound -----------------------------------------------------------------

def test_best_bound_table(tmp_path):
    code = run_cli("best-bound", "--model", "perc", "--max-radius", "1",
                   "--out", str(tmp_path), "--label", "bb")
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "bb.csv")
    assert header == TABLE_COLUMNS
    assert [row[1] for row in rows] == ["0", "1"]
    assert all(row[3] == "exact" for row in rows)
    payload = read_json(tmp_path / "bb.json")
    assert payload["param_star"] == pytest.approx(12.0 ** -0.5, abs=1e-7)


def test_best_bound_json_stays_valid_with_a_skipped_row(tmp_path,
                                                        monkeypatch,
                                                        fresh_plans):
    # square ball(5)'s plan (35 MiB) is past a budget of 16 MiB, so its row
    # is skipped; its NaN root is null in the JSON and nan in the CSV
    monkeypatch.setattr(exact, "PLAN_BYTES", 16 << 20)
    code = run_cli("best-bound", "--model", "perc", "--max-radius", "5",
                   "--out", str(tmp_path), "--label", "bb")
    assert code == EXIT_OK

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    with open(tmp_path / "bb.json") as fh:
        payload = json.load(fh, parse_constant=refuse)
    assert payload["rows"][5] == {"radius": 5, "root": None,
                                  "method": "skipped", "region_size": 61}
    assert all(row["method"] == "exact" for row in payload["rows"][:5])
    _, rows = read_csv(tmp_path / "bb.csv")
    assert rows[5][3:] == ["skipped", "nan"]


def test_best_bound_refuses_a_zero_tolerance(tmp_path, capsys):
    code = run_cli("best-bound", "--model", "ising", "--max-radius", "1",
                   "--tol", "0", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "error: tol must be positive"]


@pytest.mark.parametrize("model, tol", [("perc", "2"), ("ising", "0.6")])
def test_best_bound_refuses_a_tolerance_that_certifies_nothing(tmp_path,
                                                               capsys, model,
                                                               tol):
    # such a tolerance once wrote every root as 0 and exited 0
    out = tmp_path / "out"
    code = run_cli("best-bound", "--model", model, "--max-radius", "1",
                   "--tol", tol, "--out", str(out))
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"error: tol={tol} is too coarse: no parameter certified"]
    assert not out.exists()


# --- simulate-perc ----------------------------------------------------------------

@pytest.mark.parametrize("observable, field", [
    ("exit", ()), ("susceptibility", ()), ("ghost", ("--h", "0.1"))],
    ids=["exit", "susceptibility", "ghost"])
def test_simulate_perc_rerun_is_byte_identical(tmp_path, observable, field):
    args = ("simulate-perc", "--observable", observable, "--param", "0.3",
            "--n-list", "1,2", "--samples", "2000", "--seed", "11", *field)
    for label, out in (("a", tmp_path / "a"), ("b", tmp_path / "b")):
        assert run_cli(*args, "--out", str(out), "--label", "run") == EXIT_OK
    first = (tmp_path / "a" / "run.csv").read_bytes()
    second = (tmp_path / "b" / "run.csv").read_bytes()
    assert first == second
    header, rows = read_csv(tmp_path / "a" / "run.csv")
    assert header == MEASUREMENT_COLUMNS
    assert [row[0] for row in rows] == [observable, observable]
    assert [row[1] for row in rows] == ["1", "2"]


def test_simulate_perc_seed_generated_when_absent(tmp_path):
    code = run_cli("simulate-perc", "--observable", "exit", "--param", "0.3",
                   "--n", "1", "--samples", "500", "--out", str(tmp_path))
    assert code == EXIT_OK
    manifest = read_json(tmp_path / "simulate-perc_manifest.json")
    assert isinstance(manifest["seed"], int)


def test_simulate_perc_size_spec_must_be_unique(tmp_path, capsys):
    base = ("simulate-perc", "--observable", "exit", "--param", "0.3",
            "--samples", "500", "--seed", "1", "--out", str(tmp_path))
    assert run_cli(*base) == EXIT_ERROR
    assert run_cli(*base, "--n", "1", "--n-list", "1,2") == EXIT_ERROR


def test_simulate_perc_ghost_requires_field(tmp_path, capsys):
    code = run_cli("simulate-perc", "--observable", "ghost", "--param", "0.3",
                   "--n", "1", "--samples", "500", "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert "options.h" in capsys.readouterr().err
    # any positive field runs, a subnormal one too: its ghost is never
    # reached within the box
    code = run_cli("simulate-perc", "--observable", "ghost", "--param", "0.5",
                   "--n", "4", "--h", "5e-324", "--samples", "10",
                   "--seed", "1", "--out", str(tmp_path), "--label", "tiny")
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "tiny.csv")
    assert len(rows) == 1
    assert float(rows[0][header.index("mean")]) == 0.0


def test_simulate_perc_rejects_bad_samples(tmp_path, capsys):
    # a percolation phi region above the exact cap would otherwise reach
    # the Monte Carlo estimate with zero samples
    cases = (
        ("simulate-perc", "--observable", "exit", "--param", "0.3",
         "--n", "1", "--samples", "0"),
        ("phi", "--model", "perc", "--param", "0.3",
         "--ball", "8", "--samples", "0"),
    )
    for args in cases:
        code = run_cli(*args, "--seed", "1", "--out", str(tmp_path))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_simulate_refuses_a_seed_outside_64_bits(tmp_path, capsys, seed):
    # a masked seed -1 gave the estimates of seed 2**64 - 1 under another
    # recorded seed
    code = run_cli("simulate-perc", "--observable", "ghost", "--param", "0.5",
                   "--h", "0.1", "--n", "2", "--samples", "100", "--seed", seed,
                   "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "config error: options.seed: must lie in [0, 2**64)"]
    assert not list(tmp_path.iterdir())


def test_simulate_perc_single_size_matches_size_list(tmp_path):
    for observable in ("exit", "susceptibility"):
        rows = []
        for flag in ("--n", "--n-list"):
            out = tmp_path / f"{observable}{flag}"
            assert run_cli("simulate-perc", "--observable", observable,
                           "--param", "0.4", flag, "8", "--samples", "500",
                           "--seed", "3", "--out", str(out)) == EXIT_OK
            rows.append(read_csv(out / "simulate-perc.csv")[1])
        assert rows[0] == rows[1]
        assert [row[:2] for row in rows[0]] == [[observable, "8"]]


# --- simulate-ising ----------------------------------------------------------------

def test_simulate_ising_magnetization(tmp_path):
    code = run_cli("simulate-ising", "--observable", "magnetization",
                   "--param", "0.3", "--n", "2", "--boundary", "plus",
                   "--sweeps", "400", "--seed", "3", "--out", str(tmp_path),
                   "--label", "mag")
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "mag.csv")
    assert header == MEASUREMENT_COLUMNS
    assert rows[0][0] == "magnetization"
    assert 0.0 < float(rows[0][4]) <= 1.0


def test_simulate_ising_two_point_rows(tmp_path):
    code = run_cli("simulate-ising", "--observable", "two-point",
                   "--param", "0.4", "--n", "2", "--distances", "1,2",
                   "--sweeps", "400", "--seed", "3", "--out", str(tmp_path),
                   "--label", "tp")
    assert code == EXIT_OK
    _, rows = read_csv(tmp_path / "tp.csv")
    assert [row[0] for row in rows] == ["two-point[d=1]", "two-point[d=2]"]


def test_simulate_ising_two_point_requires_distances(tmp_path, capsys):
    code = run_cli("simulate-ising", "--observable", "two-point",
                   "--param", "0.4", "--n", "2", "--sweeps", "400",
                   "--seed", "3", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert "options.distances" in capsys.readouterr().err


@pytest.mark.parametrize("distances, start", [
    ("-1,0", "error: distances must be non-negative"),
    ("1,1", "config error: options.distances: distances must be distinct"),
], ids=["negative", "repeated"])
def test_simulate_ising_two_point_refuses_bad_distances(tmp_path, capsys,
                                                        distances, start):
    # 1,1 once wrote two identical rows
    code = run_cli("simulate-ising", "--observable", "two-point",
                   "--param", "0.4", "--n", "2", f"--distances={distances}",
                   "--sweeps", "400", "--seed", "3", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start), err
    assert not list(tmp_path.iterdir())


def test_simulate_ising_divergence_writes_increments(tmp_path):
    code = run_cli("simulate-ising", "--observable", "divergence",
                   "--param", "0.44", "--n-list", "2,4", "--sweeps", "300",
                   "--seed", "3", "--out", str(tmp_path), "--label", "div")
    assert code == EXIT_OK
    payload = read_json(tmp_path / "div.json")
    assert len(payload["increments"]) == 1
    assert isinstance(payload["strictly_increasing_3sigma"], bool)
    _, rows = read_csv(tmp_path / "div.csv")
    assert [row[0] for row in rows] == ["susceptibility-sum"] * 2


def test_simulate_ising_divergence_needs_two_sizes(tmp_path):
    code = run_cli("simulate-ising", "--observable", "divergence",
                   "--param", "0.44", "--n", "2", "--sweeps", "300",
                   "--seed", "3", "--out", str(tmp_path))
    assert code == EXIT_ERROR


@pytest.mark.parametrize("args", [
    ("simulate-perc", "--observable", "exit", "--samples", "10"),
    ("simulate-perc", "--observable", "susceptibility", "--samples", "10"),
    ("simulate-perc", "--observable", "ghost", "--h", "0.1", "--samples", "10"),
    ("simulate-ising", "--observable", "divergence", "--sweeps", "10"),
    ("simulate-ising", "--observable", "magnetization", "--sweeps", "10"),
], ids=["exit", "susceptibility", "ghost", "divergence", "magnetization"])
def test_simulate_refuses_a_repeated_size(tmp_path, capsys, args):
    # --n-list 4,4 once wrote an exit "probability" of 2 and passed the
    # divergence check's "at least two sizes" with one
    code = run_cli(*args, "--param", "0.3", "--n-list", "4,4", "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: options.n_list")
    assert not list(tmp_path.iterdir())


def test_simulate_refuses_a_box_past_the_layout_cap(tmp_path, capsys,
                                                     monkeypatch):
    # the cap is lowered so that the refusal comes within a few layers
    monkeypatch.setattr(lattice_mod, "LAYOUT_VERTEX_CAP", 1000)
    code = run_cli("simulate-perc", "--observable", "exit", "--param", "0.5",
                   "--n", "100000", "--samples", "1", "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "layout cap" in err[0], err


def test_simulate_refuses_a_susceptibility_box_past_the_layout_cap(
        tmp_path, capsys, monkeypatch):
    # clusters at p = 0.1 stay near the origin, so a box built only as far
    # as its walks reach would run; the box's key cube is past the cap, so
    # it is built whole, and refused, before any sample
    monkeypatch.setattr(lattice_mod, "LAYOUT_VERTEX_CAP", 1000)
    code = run_cli("simulate-perc", "--observable", "susceptibility",
                   "--param", "0.1", "--n", "100000", "--samples", "1",
                   "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "layout cap" in err[0], err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, field", [
    (("simulate-ising", "--observable", "two-point", "--n", "2",
      "--distances", "1", "--h", "0.5", "--sweeps", "100"), "options.h"),
    (("simulate-ising", "--observable", "divergence", "--n-list", "2,4",
      "--h", "0.5", "--sweeps", "100"), "options.h"),
    (("simulate-ising", "--observable", "divergence", "--n-list", "2,4",
      "--boundary", "plus", "--sweeps", "100"), "options.boundary"),
    (("simulate-ising", "--observable", "magnetization", "--n", "2",
      "--distances", "1,2", "--sweeps", "100"), "options.distances"),
    (("simulate-ising", "--observable", "divergence", "--n-list", "2,4",
      "--distances", "1,2", "--sweeps", "100"), "options.distances"),
    (("simulate-perc", "--observable", "exit", "--n", "2", "--h", "0.5",
      "--samples", "100"), "options.h"),
    (("simulate-perc", "--observable", "susceptibility", "--n", "2",
      "--h", "0.5", "--samples", "100"), "options.h"),
], ids=["two-point-h", "divergence-h", "divergence-plus",
        "magnetization-distances", "divergence-distances", "exit-h",
        "susceptibility-h"])
def test_simulate_rejects_options_the_observable_ignores(tmp_path, capsys,
                                                         args, field):
    # --distances without two-point was once accepted, ignored, and
    # recorded in the config hash
    code = run_cli(*args, "--param", "0.3", "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}"), err
    assert not list(tmp_path.iterdir())


# --- verify --------------------------------------------------------------------------

def test_verify_single_check(tmp_path):
    code = run_cli("verify", "--check", "ghs", "--out", str(tmp_path),
                   "--label", "v")
    assert code == EXIT_OK
    payload = read_json(tmp_path / "v.json")
    assert len(payload) == 1
    assert payload[0]["name"] == "ghs-differential"
    assert payload[0]["passed"] is True


def test_verify_unknown_check(tmp_path, capsys):
    code = run_cli("verify", "--check", "euler", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert "options.check" in capsys.readouterr().err


# --- current-lab -----------------------------------------------------------------------

def triangle_scenario(**task):
    return {
        "graph": {"n_vertices": 3,
                  "edges": [[0, 1], [1, 2], [0, 2, 0.5]]},
        "beta": 0.4, "h": 0.25, "truncation": 6,
        "task": task,
    }


def test_current_lab_switching(tmp_path):
    scenario_file = tmp_path / "sw.json"
    scenario_file.write_text(json.dumps(triangle_scenario(
        kind="switching", sources=[0, 1], u=0, v=1, f=["connect", 0, 2])))
    code = run_cli("current-lab", "--scenario", str(scenario_file),
                   "--out", str(tmp_path), "--label", "sw")
    assert code == EXIT_OK
    result = read_json(tmp_path / "sw.json")["result"]
    assert result["rel_diff"] < 1e-10


def test_current_lab_correlation_and_source_sum(tmp_path):
    for label, task in (("corr", {"kind": "correlation", "x": 0, "y": 2}),
                        ("ss", {"kind": "source-sum", "sources": [0, 1]})):
        scenario_file = tmp_path / f"{label}_in.json"
        scenario_file.write_text(json.dumps(triangle_scenario(**task)))
        code = run_cli("current-lab", "--scenario", str(scenario_file),
                       "--out", str(tmp_path), "--label", label)
        assert code == EXIT_OK
        assert read_json(tmp_path / f"{label}.json")["result"]["value"] > 0.0


def test_current_lab_backbone(tmp_path):
    scenario = {
        "graph": {"n_vertices": 4,
                  "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
        "task": {"kind": "backbone",
                 "multiplicities": [[[0, 1], 1], [[1, 2], 1],
                                    [[0, 3], 2], [[2, 3], 2]]},
        "beta": 0.5,
    }
    scenario_file = tmp_path / "bb_in.json"
    scenario_file.write_text(json.dumps(scenario))
    code = run_cli("current-lab", "--scenario", str(scenario_file),
                   "--out", str(tmp_path), "--label", "bb")
    assert code == EXIT_OK
    result = read_json(tmp_path / "bb.json")["result"]
    assert result["path"] == [[0, 1], [1, 2]]


def test_current_lab_backbone_needs_no_beta(tmp_path):
    # beta defaults to 0, where every current on a real pair weighs 0
    scenario = {"graph": {"n_vertices": 3, "edges": [[0, 1], [1, 2]]},
                "task": {"kind": "backbone",
                         "multiplicities": [[[0, 1], 1], [[1, 2], 1]]}}
    scenario_file = tmp_path / "bb_in.json"
    scenario_file.write_text(json.dumps(scenario))
    code = run_cli("current-lab", "--scenario", str(scenario_file),
                   "--out", str(tmp_path), "--label", "bb")
    assert code == EXIT_OK
    result = read_json(tmp_path / "bb.json")["result"]
    assert result["path"] == [[0, 1], [1, 2]]
    assert result["weight"] == 0.0


def test_current_lab_rejects_malformed_scenarios(tmp_path, capsys):
    missing_graph = tmp_path / "bad1.json"
    missing_graph.write_text(json.dumps({"task": {"kind": "source-sum"}}))
    assert run_cli("current-lab", "--scenario", str(missing_graph),
                   "--out", str(tmp_path)) == EXIT_ERROR
    bad_kind = tmp_path / "bad2.json"
    for kind in ("teleport", ["switching"]):
        bad_kind.write_text(json.dumps(triangle_scenario(kind=kind)))
        assert run_cli("current-lab", "--scenario", str(bad_kind),
                       "--out", str(tmp_path)) == EXIT_ERROR
    no_trunc = triangle_scenario(kind="source-sum", sources=[0, 1])
    del no_trunc["truncation"]
    missing_trunc = tmp_path / "bad3.json"
    missing_trunc.write_text(json.dumps(no_trunc))
    assert run_cli("current-lab", "--scenario", str(missing_trunc),
                   "--out", str(tmp_path)) == EXIT_ERROR
    assert run_cli("current-lab", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == EXIT_ERROR
    capsys.readouterr()
    for key, value in (("beta", [1]), ("h", "strong")):
        scenario = triangle_scenario(kind="source-sum", sources=[0, 1])
        scenario[key] = value
        bad_number = tmp_path / f"bad_{key}.json"
        bad_number.write_text(json.dumps(scenario))
        assert run_cli("current-lab", "--scenario", str(bad_number),
                       "--out", str(tmp_path)) == EXIT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"config error: scenario.{key}:"), err
    # a backbone with the multiplicities as a "x,y" -> count object, not
    # the [[x, y], count] list the schema takes
    dict_form = triangle_scenario(kind="backbone",
                                  multiplicities={"0,1": 1})
    bad_backbone = tmp_path / "bad_backbone.json"
    bad_backbone.write_text(json.dumps(dict_form))
    assert run_cli("current-lab", "--scenario", str(bad_backbone),
                   "--out", str(tmp_path)) == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        "config error: scenario.task:"), err
    # a pair written as the string "01", a pair of three vertices, and a
    # count that is not an integer: each entry must be [[x, y], count]
    for entry in (["01", 1], [[0, 1, 2], 1], [[0, 1], "1"]):
        scenario = triangle_scenario(kind="backbone",
                                     multiplicities=[entry])
        bad_pair = tmp_path / "bad_pair.json"
        bad_pair.write_text(json.dumps(scenario))
        assert run_cli("current-lab", "--scenario", str(bad_pair),
                       "--out", str(tmp_path)) == EXIT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            "config error: scenario.task:"), (entry, err)
    # strings, booleans and non-integral numbers were once coerced: beta
    # "0.5" with h and truncation true printed correlation(0,2) = 1, an
    # edge [1, 2.7, "1.0"] was read as (1, 2, 1.0), and x = 0.9 as vertex 0
    corr = {"kind": "correlation", "x": 0, "y": 2}
    graph = {"n_vertices": 3, "edges": [[0, 1], [1, 2.7, "1.0"]]}
    probes = [
        ({"beta": "0.5", "h": True, "truncation": True}, corr, "scenario.beta"),
        ({"h": True}, corr, "scenario.h"),
        ({"truncation": True}, corr, "scenario.truncation"),
        ({"truncation": 6.5}, corr, "scenario.truncation"),
        ({"truncation": "6"}, {"kind": "backbone",
                               "multiplicities": [[[0, 1], 1]]},
         "scenario.truncation"),
        ({"graph": graph}, corr, "scenario.graph"),
        ({"graph": {"n_vertices": 3, "edges": [[0, 1], [1, 2, "1.0"]]}}, corr,
         "scenario.graph"),
        ({"graph": {"n_vertices": "3", "edges": [[0, 1]]}}, corr,
         "scenario.graph"),
        ({}, {**corr, "x": 0.9}, "scenario.task"),
        ({}, {**corr, "y": "2"}, "scenario.task"),
        ({}, {"kind": "source-sum", "sources": [0, True]}, "scenario.task"),
        ({}, {"kind": "switching", "sources": [0, 1], "u": True, "v": 1},
         "scenario.task"),
        ({}, {"kind": "switching", "sources": [0, 1], "u": 0, "v": 1,
              "f": ["connect", 0, 2.5]}, "scenario.task.f"),
    ]
    out = tmp_path / "probe_out"
    for top, task, field in probes:
        probe = tmp_path / "probe.json"
        probe.write_text(json.dumps({**triangle_scenario(**task), **top}))
        assert run_cli("current-lab", "--scenario", str(probe),
                       "--out", str(out)) == EXIT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"config error: {field}:"), (top, task, err)
        assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("where,key", [("top", "betta"), ("task", "typo"),
                                       ("task", "u")],
                         ids=["top-level", "task", "other-kinds-key"])
def test_current_lab_refuses_unknown_keys(tmp_path, capsys, where, key):
    # a misspelt "beta" once ran the scenario at beta = 0 and exited 0;
    # "u" belongs to a switching task, not to a source sum
    scenario = triangle_scenario(kind="source-sum", sources=[0, 1])
    (scenario if where == "top" else scenario["task"])[key] = 0.5
    scenario_file = tmp_path / "typo.json"
    scenario_file.write_text(json.dumps(scenario))
    assert run_cli("current-lab", "--scenario", str(scenario_file),
                   "--out", str(tmp_path)) == EXIT_ERROR
    field = "scenario" if where == "top" else "scenario.task"
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: {field}: unknown key {key!r}"]
    assert [path.name for path in tmp_path.iterdir()] == ["typo.json"]


def test_current_lab_refuses_negative_field(tmp_path, capsys):
    scenario = triangle_scenario(kind="correlation", x=0, y=3)
    scenario["h"] = -0.3
    scenario_file = tmp_path / "neg.json"
    scenario_file.write_text(json.dumps(scenario))
    assert run_cli("current-lab", "--scenario", str(scenario_file),
                   "--out", str(tmp_path)) == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: need beta >= 0 and h >= 0"]


@pytest.mark.parametrize("a,b", [(0, 9), (-1, 0)])
def test_current_lab_refuses_a_connect_vertex_off_the_graph(tmp_path, capsys,
                                                            a, b):
    # a 2-vertex graph has slots 0, 1 and the ghost 2
    scenario = {"graph": {"n_vertices": 2, "edges": [[0, 1]]},
                "beta": 0.4, "h": 0.2, "truncation": 4,
                "task": {"kind": "switching", "sources": [0, 1], "u": 0,
                         "v": 1, "f": ["connect", a, b]}}
    scenario_file = tmp_path / "sw.json"
    scenario_file.write_text(json.dumps(scenario))
    assert run_cli("current-lab", "--scenario", str(scenario_file),
                   "--out", str(tmp_path)) == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: connect({a}, {b}) names a vertex outside 0..2 "
                   "(ghost included)"]


def test_current_lab_refuses_a_backbone_on_an_uncoupled_pair(tmp_path,
                                                             capsys):
    scenario = {"graph": {"n_vertices": 3, "edges": [[0, 1], [1, 2]]},
                "beta": 0.5,
                "task": {"kind": "backbone", "multiplicities": [[[0, 2], 1]]}}
    scenario_file = tmp_path / "bb.json"
    scenario_file.write_text(json.dumps(scenario))
    assert run_cli("current-lab", "--scenario", str(scenario_file),
                   "--out", str(tmp_path)) == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: multiplicity on uncoupled pair (0, 2)"]


# --- config files ------------------------------------------------------------------------

def test_config_file_replaces_flags(tmp_path):
    config = {"model": "perc", "param": 0.2, "ball": 1,
              "out": str(tmp_path), "label": "fromfile"}
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    code = run_cli("certify", "--config", str(config_file))
    assert code == EXIT_OK
    manifest = read_json(tmp_path / "fromfile_manifest.json")
    assert manifest["config"]["param"] == 0.2
    assert manifest["config"]["mode"] == "p"  # resolved default is recorded


def test_config_file_conflicts_with_flags(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"model": "perc", "param": 0.2,
                                       "ball": 1}))
    code = run_cli("certify", "--config", str(config_file),
                   "--param", "0.3")
    assert code == EXIT_ERROR
    assert "mutually exclusive" in capsys.readouterr().err


def test_config_file_unknown_field(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"model": "perc", "param": 0.2,
                                       "ball": 1, "bogus": True}))
    assert run_cli("certify", "--config", str(config_file)) == EXIT_ERROR
    assert "options.bogus" in capsys.readouterr().err


def test_config_file_type_error_names_field(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"model": "perc", "param": "high",
                                       "ball": 1}))
    assert run_cli("certify", "--config", str(config_file)) == EXIT_ERROR
    assert "options.param" in capsys.readouterr().err


def test_run_config_hash_depends_on_content_only():
    cfg = RunConfig("phi", {"model": "perc", "param": 0.3, "ball": 1,
                            "seed": 1, "label": "phi"})
    again = RunConfig("phi", dict(cfg.options))
    assert again == cfg
    assert again.sha256() == cfg.sha256()
    reordered = RunConfig("phi", dict(reversed(list(cfg.options.items()))))
    assert reordered.sha256() == cfg.sha256()


# --- report ----------------------------------------------------------------------------

def test_report_merges_measurements_and_tables(tmp_path):
    sim_out = tmp_path / "sim"
    assert run_cli("simulate-perc", "--observable", "exit", "--param", "0.3",
                   "--n", "1", "--samples", "500", "--seed", "2",
                   "--out", str(sim_out), "--label", "exitrun") == EXIT_OK
    bb_out = tmp_path / "bb"
    assert run_cli("best-bound", "--model", "perc", "--max-radius", "0",
                   "--out", str(bb_out), "--label", "bbrun") == EXIT_OK
    code = run_cli("report", "--inputs",
                   str(sim_out / "exitrun_manifest.json"),
                   str(bb_out / "bbrun_manifest.json"),
                   "--out", str(tmp_path), "--label", "merged")
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "merged.csv")
    assert header == ("source", "subcommand") + MEASUREMENT_COLUMNS
    assert rows and rows[0][0] == "exitrun"
    theader, trows = read_csv(tmp_path / "merged_tables.csv")
    assert theader == ("source",) + TABLE_COLUMNS
    assert trows[0][0] == "bbrun"
    text = (tmp_path / "merged.txt").read_text()
    assert "[simulate-perc]" in text and "[best-bound]" in text


def test_report_missing_artifact_fails(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    assert run_cli("simulate-perc", "--observable", "exit", "--param", "0.3",
                   "--n", "1", "--samples", "200", "--seed", "2",
                   "--out", str(sim_out)) == EXIT_OK
    (sim_out / "simulate-perc.csv").unlink()
    code = run_cli("report", "--inputs",
                   str(sim_out / "simulate-perc_manifest.json"),
                   "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert "missing artifact" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [[1, 2],
                                      {"config": [], "artifacts": []},
                                      {"config": {}, "artifacts": 7}],
                         ids=["list", "config", "artifacts"])
def test_report_malformed_manifest(tmp_path, capsys, manifest):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code = run_cli("report", "--inputs", str(path), "--out", str(tmp_path))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: options.inputs[0]")


@pytest.mark.parametrize("header,row", [
    (MEASUREMENT_COLUMNS, ("exit", "8", "0.4")),
    (TABLE_COLUMNS, ("perc", "0", "1", "exact", "0.25", "extra")),
], ids=["measurement-short", "table-long"])
def test_report_refuses_a_row_unlike_its_header(tmp_path, capsys, header,
                                                 row):
    # a short measurement row was once merged under the 10-column header
    with open(tmp_path / "a.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, row])
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"subcommand": "simulate-perc",
                                "config": {"label": "x"},
                                "artifacts": ["a.csv"]}))
    out = tmp_path / "out"
    code = run_cli("report", "--inputs", str(path), "--out", str(out))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: options.inputs[0]: a.csv line 2")
    assert not out.exists() or not any(out.iterdir())


def test_report_with_no_inputs(tmp_path):
    code = run_cli("report", "--out", str(tmp_path), "--label", "empty")
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "empty.csv")
    assert header == ("source", "subcommand") + MEASUREMENT_COLUMNS
    assert rows == []


# --- parser-level behavior ----------------------------------------------------------------

def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_ERROR


def test_unparseable_flag_value_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--model", "perc", "--param", "high", "--ball", "1"])
    assert exc.value.code == EXIT_ERROR


def test_missing_required_option_exits_one(tmp_path, capsys):
    code = run_cli("certify", "--param", "0.2", "--ball", "1",
                   "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert "options.model" in capsys.readouterr().err


def help_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_top_level_help_lists_every_subcommand(capsys):
    text = help_text(capsys, main, ["--help"])
    assert len(_SCHEMAS) == 8
    for name in _SCHEMAS:
        assert f"\n    {name} " in text


@pytest.mark.parametrize("name", list(_SCHEMAS))
def test_subcommand_help_matches_the_full_parser(capsys, name):
    # main builds only the named subcommand's flags
    text = help_text(capsys, main, [name, "--help"])
    assert text == help_text(capsys, build_parser().parse_args,
                             [name, "--help"])
    for field in _SCHEMAS[name]:
        assert "--" + field.name.replace("_", "-") in text
    assert "--config FILE" in text


@pytest.mark.parametrize("name", list(_SCHEMAS))
def test_unknown_flag_exits_one(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--no-such-flag"])
    assert exc.value.code == EXIT_ERROR
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "subcrit", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("subcrit ")


@pytest.mark.parametrize("args, where, what", [
    (("certify", "--config", "{}"), "config", "file"),
    (("certify", "--model", "perc", "--param", "0.2", "--region", "{}",
      "--out", "{out}"), "options.region", "file"),
    (("current-lab", "--scenario", "{}", "--out", "{out}"), "options.scenario",
     "file"),
    (("report", "--inputs", "{}", "--out", "{out}"), "options.inputs[0]",
     "manifest")],
    ids=["config", "region", "scenario", "manifest"])
def test_each_json_input_reports_a_missing_or_malformed_file(tmp_path,
                                                             capsys, args,
                                                             where, what):
    missing, malformed = tmp_path / "missing.json", tmp_path / "bad.json"
    malformed.write_text("{not json")
    for path, message in (
            (missing, f"cannot read {what}: [Errno 2] No such file or "
                      f"directory: '{missing}'"),
            (malformed, "invalid JSON: Expecting property name enclosed in "
                        "double quotes: line 1 column 2 (char 1)")):
        code = run_cli(*(a.format(path, out=tmp_path / "out") for a in args))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {where}: {message}"]
