import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import coevnet
from coevnet import AgentParams, PopulationState, is_nash, load_network, potential, simulate
from coevnet.cli import _build_scenario, main
from coevnet.dynamics import read_trace_csv, read_trace_jsonl

ANTI_PAIR_INI = """
[network]
source = generate
kind = random_symmetric
n = 2
seed = 1

[params]
lambda = 0.5
beta = 0.5
epsilon = -1
alpha = 0

[initial]
kind = random
seed = 2

[schedule]
kind = round_robin
"""

SMALL_RUN_INI = """
[network]
source = generate
kind = random_symmetric
n = 6
seed = 11

[params]
lambda = 0.5
beta = 0.8
epsilon = -1

[initial]
kind = positive_opinions
seed = 12

[schedule]
kind = uniform_random
seed = 13

[stop]
max_steps = 4000
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- simulate -----------------------------------------------------------------


def test_simulate_reproduce_example5_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--reproduce", "example5", "--out", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"]["kind"] == "polarized"
    assert payload["classification"]["partition"][0] == list(range(1, 16))
    assert payload["converged"] and payload["nash"]["holds"]
    records = read_trace_jsonl(os.path.join(out, "trace.jsonl"))
    assert records[0]["t"] == 0 and len(records) == payload["steps"] + 1
    rows = read_trace_csv(os.path.join(out, "trace.csv"))
    assert len(rows) == payload["steps"] + 1
    result = json.loads(open(os.path.join(out, "result.json")).read())
    assert result["classification"] == payload["classification"]
    # anti-coordinating homogeneous run exports the potential series
    potential_lines = open(os.path.join(out, "potential.csv")).read().splitlines()
    assert potential_lines[0] == "t,value"
    assert len(potential_lines) == payload["steps"] + 2


@pytest.mark.parametrize("preset", ["example4", "example5"])
def test_potential_csv_matches_potential_of_each_state(tmp_path, capsys, preset):
    out = str(tmp_path / "run")
    assert main(["simulate", "--reproduce", preset, "--out", out]) == 0
    rows = open(os.path.join(out, "potential.csv")).read().splitlines()[1:]
    args = argparse.Namespace(config=None, reproduce=preset, seed=None, out=None)
    sc = _build_scenario(args)
    trace = simulate(sc.z0, sc.net, sc.params, sc.schedule, sc.stop)
    assert len(rows) == len(trace.states)
    for t, (row, state) in enumerate(zip(rows, trace.states)):
        step, value = row.split(",")
        phi = potential(state, sc.net, sc.params).value
        assert int(step) == t
        assert abs(float(value) - phi) <= 1e-12 * (1.0 + abs(phi))


def test_simulate_with_config_file(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", SMALL_RUN_INI)
    assert main(["simulate", "--config", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"]["label"] == "consensus(+1)"


def test_simulate_missing_config_errors(capsys):
    assert main(["simulate", "--config", "/nonexistent.ini"]) == 1
    assert "error:" in capsys.readouterr().err


# --- check ---------------------------------------------------------------------


def test_check_exit_codes(capsys):
    assert main(["check", "--reproduce", "example4", "--theorem", "thm5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["theorem"] == "thm5" and report["holds"]

    assert main(["check", "--reproduce", "example5", "--theorem", "thm6"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["applicable"] and not report["holds"]
    failing = [row["name"] for row in report["per_agent"] if not row["ok"]]
    assert failing == ["neg_action_margin"]

    # coordinating-population checker on an anti-coordinating scenario
    assert main(["check", "--reproduce", "example5", "--theorem", "thm2"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert not report["applicable"]


def test_check_example5_thm7_holds(capsys):
    assert main(["check", "--reproduce", "example5", "--theorem", "thm7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"]


def test_check_unknown_theorem(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.ini", ANTI_PAIR_INI)
    assert main(["check", "--config", cfg, "--theorem", "thm9"]) == 1
    assert "unknown theorem" in capsys.readouterr().err


# --- enumerate -----------------------------------------------------------------


def test_enumerate_anti_pair(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.ini", ANTI_PAIR_INI)
    assert main(["enumerate", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    profiles = {tuple(item["x"]) for item in payload}
    assert (1, -1) in profiles and (-1, 1) in profiles
    strict = [item for item in payload if not item["marginal"]]
    assert {tuple(item["x"]) for item in strict} == {(1, -1), (-1, 1)}


def test_enumerate_size_gate(tmp_path, capsys):
    big = ANTI_PAIR_INI.replace("n = 2", "n = 25")
    cfg = _write(tmp_path, "cfg.ini", big)
    assert main(["enumerate", "--config", cfg]) == 1
    assert "n_max=20" in capsys.readouterr().err


# --- contour --------------------------------------------------------------------


def test_contour_writes_grid(tmp_path, capsys):
    out = str(tmp_path / "grid.csv")
    assert main(["contour", "--function", "thm5_rhs", "--resolution", "10",
                 "--out", out, "--json"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "beta,lambda,value"
    assert len(lines) == 1 + 100


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    from coevnet import cli

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        for k in range(2):
            out = str(tmp_path / f"grid{k}.csv")
            assert main(["contour", "--function", "thm5_rhs", "--resolution", "2",
                         "--out", out]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert built.count("coevnet") == 1


def test_contour_rejects_bad_arguments(tmp_path, capsys):
    out = str(tmp_path / "grid.csv")
    assert main(["contour", "--function", "thm5_rhs", "--resolution", "1", "--out", out]) == 1
    assert main(["contour", "--function", "bogus", "--resolution", "5", "--out", out]) == 1


def test_contour_resolution_too_large_for_memory_exits_1(tmp_path, capsys):
    # a 10^6 x 10^6 grid (7.3 TiB) is refused at once
    out = str(tmp_path / "grid.csv")
    argv = ["contour", "--function", "thm5_rhs", "--resolution", str(10**6), "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --resolution 1000000 is too large")
    assert "Traceback" not in err


# --- generate -------------------------------------------------------------------


def test_generate_roundtrip(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.ini", SMALL_RUN_INI)
    out = str(tmp_path / "net.txt")
    assert main(["generate", "--config", cfg, "--out", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] and payload["n"] == 6
    net = load_network(out)
    assert net.n == 6 and net.A.symmetric


def test_generate_json_reports_the_symmetry_of_both_layers(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.ini", _with({("network", "opinion_layer"): "random_symmetric"}))
    out = str(tmp_path / "net.txt")
    assert main(["generate", "--config", cfg, "--out", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True and payload["symmetric"] == [True, True]
    net = load_network(out)
    assert not net.same_layers() and net.A.symmetric and net.W.symmetric


def test_memory_error_from_the_generator_exits_1(tmp_path, capsys, monkeypatch):
    def refuse(spec, params=None):
        raise MemoryError("Unable to allocate the n x n weights")

    monkeypatch.setattr("coevnet.genesis.build_graph", refuse)
    cfg = _write(tmp_path, "cfg.ini", SMALL_RUN_INI)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "net.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [network] n is too large")
    assert "Traceback" not in err


def _generate_peak_rss_mb(tmp_path, n):
    """Exit code, stderr and peak RSS in MB of ``coevnet generate`` with
    ``[network] n``, run in a fresh interpreter."""
    cfg = _write(tmp_path, f"n{n}.ini", f"[network]\nn = {n}\n")
    script = ("import resource, sys\n"
              "from coevnet.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(coevnet.__file__))
    run = subprocess.run(
        [sys.executable, "-c", script, "generate", "--config", cfg,
         "--out", str(tmp_path / "net.txt")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    per_mb = 2 ** 20 if sys.platform == "darwin" else 2 ** 10  # ru_maxrss units
    return run.returncode, run.stderr, int(run.stdout) / per_mb


def test_oversized_n_is_refused_before_any_n_long_vector(tmp_path):
    # 4 * 10^6 agents: three parameter vectors would fit (96 MB), the layers not
    code, err, peak = _generate_peak_rss_mb(tmp_path, 4 * 10**6)
    assert code == 1
    assert err.startswith("error: [network] n is too large") and "Traceback" not in err
    _, _, floor = _generate_peak_rss_mb(tmp_path, 10**17)
    assert peak <= floor + 32, f"peak RSS {peak:.1f} MB against {floor:.1f} MB"


# --- montecarlo -----------------------------------------------------------------


def test_montecarlo_fractions_and_intervals(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.ini", SMALL_RUN_INI)
    out = str(tmp_path / "mc")
    assert main(["montecarlo", "--config", cfg, "--samples", "6", "--out", out,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 6
    total = sum(entry["count"] for entry in payload["fractions"].values())
    assert total == 6
    for entry in payload["fractions"].values():
        low, high = entry["ci95"]
        assert 0.0 <= low <= entry["fraction"] <= high <= 1.0
    assert os.path.exists(os.path.join(out, "montecarlo.json"))


def test_montecarlo_rejects_zero_samples(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.ini", SMALL_RUN_INI)
    assert main(["montecarlo", "--config", cfg, "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: samples must be at least 1\n"
    assert captured.out == ""


THM2_MC_INI = """
[network]
source = generate
kind = condition_rescaled
theorem = thm2
n = 8
seed = 21
split = 5 3
opinion_layer = random_symmetric

[params]
lambda = 0.55
beta = 0.5
epsilon = +1
alpha = 0

[initial]
kind = positive_opinions
seed = 22

[schedule]
kind = uniform_random
seed = 23

[stop]
max_steps = 4000
"""

BIPARTITE_MC_INI = """
[network]
source = generate
kind = complete_bipartite
n = 8
seed = 31
split = 4 4

[params]
lambda = 0.7
beta = 0.6
epsilon = -1

[initial]
kind = polarized
seed = 32

[schedule]
kind = uniform_random
seed = 33

[stop]
max_steps = 4000
"""


def test_montecarlo_basin_under_cohesive_conditions(tmp_path, capsys):
    # instances passing the cohesive/diffusive checker with positive initial
    # opinions must land in the all-plus consensus in every sample
    cfg = _write(tmp_path, "cfg.ini", THM2_MC_INI)
    assert main(["montecarlo", "--config", cfg, "--samples", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fractions"]["consensus(+1)"]["fraction"] == 1.0


def test_montecarlo_basin_under_partition_invariance(tmp_path, capsys):
    # partition-invariant instances started polarized stay polarized with the
    # same camps in every sample
    cfg = _write(tmp_path, "cfg.ini", BIPARTITE_MC_INI)
    assert main(["montecarlo", "--config", cfg, "--samples", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fractions"]["polarized"]["fraction"] == 1.0
    assert payload["polarized_partition_preserved"] == 1.0


def test_contour_csv_reloads_as_floats(tmp_path):
    out = str(tmp_path / "grid.csv")
    assert main(["contour", "--function", "thm7_gap", "--resolution", "6", "--out", out]) == 0
    import csv

    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 36
    for row in rows:
        float(row["beta"]), float(row["lambda"]), float(row["value"])  # parses, NaN allowed


def test_contour_unwritable_path(capsys):
    assert main(["contour", "--function", "thm5_rhs", "--resolution", "4",
                 "--out", "/nonexistent-dir/grid.csv"]) == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,content",
    [
        ("no_header.ini", b"n = 6\n"),
        ("duplicate.ini", b"[network]\nn = 6\nn = 7\n"),
        ("latin1.ini", "[network]\nkind = caf\u00e9\n".encode("latin-1")),
        ("a_directory", None),
    ],
)
def test_malformed_config_files_exit_1(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,extra",
    [
        ("simulate", []),
        ("check", ["--theorem", "thm5"]),
        ("enumerate", []),
        ("montecarlo", ["--samples", "1"]),
        ("generate", []),
    ],
)
def test_unwritable_out_exits_1(tmp_path, capsys, command, extra):
    cfg = _write(tmp_path, "cfg.ini", SMALL_RUN_INI)
    # a file where the output directory should go; generate writes one file,
    # so it gets a path inside a missing directory
    if command == "generate":
        out = str(tmp_path / "missing" / "net.txt")
    else:
        out = _write(tmp_path, "taken", "")
    assert main([command, "--config", cfg, "--out", out, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert ".tmp-" not in err  # the reason, not the temporary file's name


def test_master_seed_determinism(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", SMALL_RUN_INI)
    outs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["simulate", "--config", cfg, "--seed", "777", "--out", out]) == 0
        outs.append(out)
    for name in ("trace.jsonl", "trace.csv", "result.json", "potential.csv"):
        with open(os.path.join(outs[0], name), "rb") as fa, open(
            os.path.join(outs[1], name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name
    # a different master seed changes the run
    out_c = str(tmp_path / "c")
    assert main(["simulate", "--config", cfg, "--seed", "778", "--out", out_c]) == 0
    with open(os.path.join(outs[0], "trace.jsonl"), "rb") as fa, open(
        os.path.join(out_c, "trace.jsonl"), "rb"
    ) as fc:
        assert fa.read() != fc.read()


# --- rejected configuration values ------------------------------------------------


def test_action_self_loop_in_network_file_exits_1(tmp_path, capsys):
    net = _write(tmp_path, "net.txt", "n 2 layers 1\nW 1 1 1\nW 2 1 1\n")
    cfg = _write(tmp_path, "run.ini", f"[network]\nsource = file\npath = {net}\n")
    assert main(["enumerate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load network") and "self-loop at agent 1" in err
    assert "Traceback" not in err


def test_zero_diagonal_false_puts_self_weights_on_the_opinion_layer_only(tmp_path, capsys):
    # eps = -1 at lam = beta = 1/2 puts the consensus on a payoff tie
    cfg = _write(tmp_path, "run.ini", _with({
        ("network", "zero_diagonal"): "false",
        ("network", "opinion_layer"): "random_symmetric",
        ("params", "beta"): "0.5",
    }))
    out = str(tmp_path / "net.txt")
    assert main(["generate", "--config", cfg, "--out", out]) == 0
    net = load_network(out)
    assert np.all(np.diag(net.A.weights) == 0.0) and np.all(np.diag(net.W.weights) > 0.0)
    capsys.readouterr()
    assert main(["enumerate", "--config", cfg]) == 0
    records = json.loads(capsys.readouterr().out)
    params = AgentParams.uniform(net.n, 0.5, 0.5, -1)
    assert records and all(
        is_nash(PopulationState(actions=r["x"], opinions=r["y"]), net, params).holds
        for r in records
    )


def test_single_layer_file_with_a_lines_exits_1(tmp_path, capsys):
    net = _write(tmp_path, "net.txt", "n 2 layers 1\nA 1 2 1\nW 2 1 1\n")
    cfg = _write(tmp_path, "run.ini", f"[network]\nsource = file\npath = {net}\n")
    assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load network") and "A edge line" in err


def _with(overrides: dict) -> str:
    """SMALL_RUN_INI with ``{(section, key): value}`` replaced or added."""
    import configparser
    import io

    cfg = configparser.ConfigParser()
    cfg.read_string(SMALL_RUN_INI)
    for (section, key), value in overrides.items():
        cfg[section][key] = value
    text = io.StringIO()
    cfg.write(text)
    return text.getvalue()


BIPARTITE = {("network", "kind"): "complete_bipartite"}


@pytest.mark.parametrize(
    "overrides,extra,message",
    [
        ({("params", "epsilon"): "1.7"}, [], "eps entries must be -1 or +1"),
        ({("params", "lambda"): "nan"}, [], "lam entries must lie strictly in"),
        ({("params", "beta"): "nan"}, [], "beta entries must lie strictly in"),
        ({("network", "n"): "6.5"}, [], "[network] n must be an integer"),
        ({("network", "seed"): "1.5"}, [], "[network] seed must be an integer"),
        ({("network", "zero_diagonal"): "maybe"}, [], "zero_diagonal must be true or false"),
        ({("stop", "max_steps"): "4e3"}, [], "[stop] max_steps must be an integer"),
        ({("stop", "window"): "ten"}, [], "[stop] window must be an integer"),
        ({("stop", "opinion_tol"): "nan"}, [], "opinion_tol must be positive"),
        ({("initial", "seed"): "x"}, [], "[initial] seed must be an integer"),
        ({("schedule", "seed"): "2.0"}, [], "[schedule] seed must be an integer"),
        ({("schedule", "seed"): "-3"}, [], "non-negative seed"),
        ({**BIPARTITE, ("network", "split"): "3 x"}, [], "split must name two positive"),
        ({**BIPARTITE, ("network", "split"): "2 4"}, [], "equally sized camps"),
        ({**BIPARTITE}, [], "complete_bipartite needs a partition"),
        ({("network", "kind"): "condition_rescaled", ("network", "split"): "3 3"}, [],
         "condition_rescaled needs a theorem id"),
        ({}, ["--seed", "-1"], "--seed must be a non-negative integer"),
        # raw INI text, since _with's own ConfigParser rejects a lone "%"
        pytest.param(SMALL_RUN_INI.replace("random_symmetric", "50%"), [],
                     "unknown generator kind '50%'", id="lone-percent"),
        pytest.param({("network", "zero_diagonal"): "false"}, [],
                     "zero_diagonal = false needs opinion_layer = random_symmetric",
                     id="self-loops-need-random-symmetric"),
        pytest.param({("stop", "opinion_tol"): "inf"}, [], "opinion_tol must be positive",
                     id="infinite-opinion-tol"),
        # 10^17 agents: the n x n layers are past numpy's size range
        pytest.param({("network", "n"): str(10**17)}, [], "[network] n is too large",
                     id="oversized-n"),
        pytest.param({("network", "sed"): "5"}, [], "unknown key [network] sed",
                     id="unknown-network-key"),
        pytest.param({("params", "lamda"): "0.9"}, [], "unknown key [params] lamda",
                     id="unknown-params-key"),
        pytest.param({("stop", "max_step"): "5"}, [], "unknown key [stop] max_step",
                     id="unknown-stop-key"),
        pytest.param(SMALL_RUN_INI + "\n[schedual]\nkind = round_robin\n", [],
                     "unknown section [schedual]", id="unknown-section"),
        pytest.param("[DEFAULT]\nseed = 5\n" + SMALL_RUN_INI, [],
                     "unknown section [DEFAULT]", id="default-section"),
        # the preset and the file are checked together
        pytest.param("[stop]\nmax_step = 5\n", ["--reproduce", "example4"],
                     "unknown key [stop] max_step", id="unknown-key-over-preset"),
    ],
)
def test_rejected_config_values_exit_1(tmp_path, capsys, overrides, extra, message):
    text = overrides if isinstance(overrides, str) else _with(overrides)
    cfg = _write(tmp_path, "bad.ini", text)
    assert main(["simulate", "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
