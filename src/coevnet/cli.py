"""Command-line front end: scenario configuration, simulation runs, condition
checks, equilibrium enumeration, contour grids, network generation, and
Monte-Carlo basin sweeps.

Configuration is an INI file with sections [network], [params], [initial],
[schedule], [stop], [output] (any other section or key is rejected); every
value can also come from a bundled scenario preset (example3, example4,
example5) and the master ``--seed`` overrides all component seeds.  Exit
codes for ``check``: 0 holds, 2 fails, 3 not applicable; other commands exit
0 on success and 1 on invalid input.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, dynamics, genesis, netcore, oracle

_Z95 = 1.959963984540054


class ConfigError(ValueError):
    pass


# --- scenario assembly ---------------------------------------------------------


@dataclass
class Scenario:
    net: netcore.TwoLayerNetwork
    params: netcore.AgentParams
    z0: netcore.PopulationState
    schedule: dynamics.ActivationSchedule
    stop: dynamics.StopCriterion
    partition: tuple | None
    initial_kind: str
    initial_seed: int
    outdir: str | None


_PRESETS = {
    # Bundled demonstration scenarios; networks are generated, so the target
    # is the limit classification, not a specific trajectory.
    "example3": {
        "network": {"source": "generate", "kind": "condition_rescaled", "theorem": "thm3",
                    "n": "30", "split": "15 15", "seed": "33001"},
        "params": {"lambda": "0.8", "beta": "0.6", "epsilon": "+1", "alpha": "0"},
        "initial": {"kind": "polarized", "seed": "33002"},
        "schedule": {"kind": "uniform_random", "seed": "33003"},
        "stop": {"max_steps": "18000"},
    },
    "example4": {
        "network": {"source": "generate", "kind": "random_symmetric", "n": "30",
                    "seed": "44001"},
        "params": {"lambda": "0.5", "beta": "0.8", "epsilon": "-1", "alpha": "0"},
        "initial": {"kind": "positive_opinions", "seed": "44002"},
        "schedule": {"kind": "uniform_random", "seed": "44003"},
        "stop": {"max_steps": "18000"},
    },
    "example5": {
        "network": {"source": "generate", "kind": "complete_bipartite", "n": "30",
                    "split": "15 15", "seed": "55001"},
        "params": {"lambda": "0.7", "beta": "0.6", "epsilon": "-1", "alpha": "0"},
        "initial": {"kind": "polarized", "seed": "55002"},
        "schedule": {"kind": "uniform_random", "seed": "55003"},
        "stop": {"max_steps": "18000"},
    },
}


# Every key each section accepts; anything else in a config is an error.
_KEYS = {
    "network": {"source", "path", "kind", "theorem", "n", "split", "seed",
                "zero_diagonal", "uniform", "opinion_layer"},
    "params": {"lambda", "beta", "epsilon", "alpha"},
    "initial": {"kind", "seed"},
    "schedule": {"kind", "seed"},
    "stop": {"max_steps", "opinion_tol", "window"},
    "output": {"dir"},
}


def _read_config(path: str | None, preset: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)
    if preset is not None:
        if preset not in _PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; expected one of {sorted(_PRESETS)}")
        cfg.read_dict(_PRESETS[preset])
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as handle:
                cfg.read_file(handle)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if preset is None and path is None:
        raise ConfigError("either --config or --reproduce is required")
    if cfg.defaults():
        raise ConfigError(f"unknown section [{cfg.default_section}]")
    for section in cfg.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key [{section}] {key}")
    return cfg


_EXPECTED = {int: "an integer", float: "a number", bool: "true or false"}


def _option(cfg: configparser.ConfigParser, section: str, key: str, fallback=None, kind=int):
    """``[section] key`` as ``kind`` (int, float or bool), or ``fallback`` when
    the key is absent; any other value is a ConfigError."""
    if not cfg.has_option(section, key):
        return fallback
    try:
        return cfg.getboolean(section, key) if kind is bool else kind(cfg.get(section, key))
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} must be {_EXPECTED[kind]}, got {cfg.get(section, key)!r}"
        ) from None


def _parse_vector(text: str, n: int, name: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    values = [float(p) for p in parts]
    if len(values) == 1:
        return np.full(n, values[0])
    if len(values) != n:
        raise ConfigError(f"{name} needs 1 or {n} values, got {len(values)}")
    return np.array(values)


def _parse_params(cfg: configparser.ConfigParser, n: int) -> netcore.AgentParams:
    section = cfg["params"] if cfg.has_section("params") else {}
    try:
        lam = _parse_vector(section.get("lambda", "0.5"), n, "lambda")
        beta = _parse_vector(section.get("beta", "0.5"), n, "beta")
        eps = _parse_vector(section.get("epsilon", "+1"), n, "epsilon")
        alpha = float(section.get("alpha", "0"))
        return netcore.AgentParams(lam=lam, beta=beta, eps=eps, alpha=alpha)
    except ValueError as exc:
        raise ConfigError(f"invalid [params]: {exc}") from exc


def _parse_split(cfg: configparser.ConfigParser, n: int) -> tuple | None:
    text = cfg.get("network", "split", fallback="").strip()
    if not text:
        return None
    try:
        sizes = [int(p) for p in text.split()]
    except ValueError:
        sizes = []
    if len(sizes) != 2 or min(sizes) < 1 or sum(sizes) != n:
        raise ConfigError(f"split must name two positive camp sizes summing to n={n}")
    return tuple(range(sizes[0])), tuple(range(sizes[0], n))


def _derived_seeds(master: int | None) -> dict | None:
    if master is None:
        return None
    if master < 0:
        raise ConfigError("--seed must be a non-negative integer")
    rng = np.random.default_rng(np.random.SeedSequence(master))
    return {
        "network": int(rng.integers(2 ** 63)),
        "initial": int(rng.integers(2 ** 63)),
        "schedule": int(rng.integers(2 ** 63)),
    }


def _build_network(
    cfg: configparser.ConfigParser, seeds: dict | None
) -> tuple[netcore.TwoLayerNetwork, netcore.AgentParams, tuple | None]:
    """Network, agent parameters and camp split of a scenario."""
    if not cfg.has_section("network"):
        raise ConfigError("missing [network] section")
    source = cfg.get("network", "source", fallback="generate")
    if source == "file":
        path = cfg.get("network", "path", fallback="")
        if not path:
            raise ConfigError("[network] source=file needs path=")
        try:
            net = netcore.load_network(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load network {path}: {exc}") from exc
        return net, _parse_params(cfg, net.n), _parse_split(cfg, net.n)
    if source != "generate":
        raise ConfigError(f"[network] source must be file or generate, got {source!r}")
    n = _option(cfg, "network", "n")
    if n is None or n < 2:
        raise ConfigError("[network] n= must be at least 2")
    try:  # the layers' n x n shape is refused before any n-long vector is built
        np.empty((n, n))
    except ValueError:  # numpy's refusal of a size past its index range
        raise MemoryError from None
    params = _parse_params(cfg, n)
    seed = seeds["network"] if seeds else _option(cfg, "network", "seed", 0)
    split = _parse_split(cfg, n)
    zero_diagonal = _option(cfg, "network", "zero_diagonal", True, bool)
    uniform = _option(cfg, "network", "uniform", False, bool)
    opinion_layer = cfg.get("network", "opinion_layer", fallback="same")
    if opinion_layer not in ("same", "random_symmetric"):
        raise ConfigError("[network] opinion_layer must be same or random_symmetric")
    kind = cfg.get("network", "kind", fallback="random_symmetric")
    theorem = cfg.get("network", "theorem", fallback=None)
    if opinion_layer == "same" and not zero_diagonal:
        raise ConfigError("[network] zero_diagonal = false needs opinion_layer = "
                          "random_symmetric; the action layer has no self-loops")
    try:
        spec = genesis.GenSpec(kind, n, seed, theorem, split, uniform)
        graph = genesis.build_graph(spec, params)
        if opinion_layer == "same":
            net = netcore.TwoLayerNetwork.single_layer(graph)
        else:
            w = genesis.random_symmetric_stochastic(n, seed + 1, zero_diagonal)
            net = netcore.TwoLayerNetwork(A=graph, W=w)
    except ValueError as exc:
        raise ConfigError(f"invalid [network]: {exc}") from exc
    return net, params, split


def _build_scenario(args) -> Scenario:
    cfg = _read_config(args.config, args.reproduce)
    seeds = _derived_seeds(args.seed)
    try:
        net, params, partition = _build_network(cfg, seeds)
    except MemoryError:  # numpy refuses at once an array larger than memory
        raise ConfigError("[network] n is too large: the network does not fit in memory") from None
    n = net.n

    initial_kind = cfg.get("initial", "kind", fallback="random")
    initial_seed = seeds["initial"] if seeds else _option(cfg, "initial", "seed", 1)
    try:
        z0 = genesis.initial_state(initial_kind, n, initial_seed, partition)
    except ValueError as exc:
        raise ConfigError(f"invalid [initial]: {exc}") from exc

    sched_kind = cfg.get("schedule", "kind", fallback="uniform_random")
    sched_seed = seeds["schedule"] if seeds else _option(cfg, "schedule", "seed", 2)
    if sched_kind == "round_robin":
        schedule = dynamics.ActivationSchedule.round_robin(n)
    elif sched_kind == "uniform_random":
        try:
            schedule = dynamics.ActivationSchedule.uniform_random(n, sched_seed)
        except ValueError as exc:
            raise ConfigError(f"invalid [schedule]: {exc}") from exc
    else:
        raise ConfigError(f"unknown schedule kind {sched_kind!r}")

    max_steps = _option(cfg, "stop", "max_steps", 600 * n)
    opinion_tol = _option(cfg, "stop", "opinion_tol", dynamics.DEFAULT_OPINION_TOL, float)
    blank_window = not cfg.get("stop", "window", fallback="").strip()
    window = None if blank_window else _option(cfg, "stop", "window")
    try:
        stop = dynamics.StopCriterion(max_steps=max_steps, opinion_tol=opinion_tol, window=window)
    except ValueError as exc:
        raise ConfigError(f"invalid [stop]: {exc}") from exc

    outdir = args.out or cfg.get("output", "dir", fallback=None)
    return Scenario(
        net=net, params=params, z0=z0, schedule=schedule, stop=stop,
        partition=partition, initial_kind=initial_kind, initial_seed=initial_seed,
        outdir=outdir,
    )


# --- output helpers -------------------------------------------------------------


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised while writing ``path`` as a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: str, payload) -> None:
    netcore.atomic_write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])


def _classification_dict(cls: netcore.Classification) -> dict:
    out = {"kind": cls.kind, "label": cls.label()}
    if cls.sign is not None:
        out["sign"] = cls.sign
    if cls.partition is not None:
        out["partition"] = [[i + 1 for i in side] for side in cls.partition]
    return out


def _emit(payload, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


# --- commands --------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = _build_scenario(args)
    trace = dynamics.simulate(
        scenario.z0, scenario.net, scenario.params, scenario.schedule, scenario.stop
    )
    final = trace.final()
    classification = netcore.classify_state(final)
    nash = analysis.is_nash(final, scenario.net, scenario.params)
    result = {
        "classification": _classification_dict(classification),
        "converged": trace.converged,
        "reason": trace.reason,
        "steps": trace.steps,
        "nash": {"holds": nash.holds, "worst_slack": nash.worst()},
        "fixed_point_gap": trace.fixed_point_gap,
        "schedule": trace.schedule_kind,
        "realized_cover": trace.realized_cover,
    }
    if scenario.outdir:
        with _writing(scenario.outdir):
            os.makedirs(scenario.outdir, exist_ok=True)
            dynamics.write_trace_jsonl(trace, os.path.join(scenario.outdir, "trace.jsonl"))
            dynamics.write_trace_csv(trace, os.path.join(scenario.outdir, "trace.csv"))
            if scenario.params.homogeneous() and scenario.params.eps[0] == -1:
                lines = ["t,value"]
                lines += [f"{t},{v:.17g}" for t, v in enumerate(analysis.potential_series(trace))]
                netcore.atomic_write_lines(os.path.join(scenario.outdir, "potential.csv"), lines)
                result["potential_series"] = "potential.csv"
            _write_json(os.path.join(scenario.outdir, "result.json"), result)
    _emit(result, args.json,
          f"{classification.label()} after {trace.steps} steps "
          f"({'converged' if trace.converged else trace.reason})")
    return 0


def cmd_check(args) -> int:
    scenario = _build_scenario(args)
    theorem = args.theorem
    if theorem not in analysis.CHECKERS:
        raise ConfigError(f"unknown theorem id {theorem!r}; expected one of "
                          f"{sorted(analysis.CHECKERS)}")
    if theorem == "thm5":
        report = analysis.check_thm5(scenario.net, scenario.params)
    elif theorem == "thm6":
        if scenario.partition is None:
            raise ConfigError("thm6 needs [network] split= to name the partition")
        report = analysis.check_thm6(scenario.partition, scenario.net, scenario.params)
    else:
        report = analysis.CHECKERS[theorem](scenario.z0, scenario.net, scenario.params)
    print(report.to_json())
    if scenario.outdir:
        with _writing(scenario.outdir):
            os.makedirs(scenario.outdir, exist_ok=True)
            _write_json(os.path.join(scenario.outdir, f"check_{theorem}.json"), report.to_dict())
    if not report.applicable:
        return 3
    return 0 if report.holds else 2


def cmd_enumerate(args) -> int:
    scenario = _build_scenario(args)
    try:
        candidates = oracle.enumerate_equilibria(scenario.net, scenario.params)
    except ValueError as exc:  # more agents than the oracle's n_max
        raise ConfigError(str(exc)) from exc
    text = oracle.equilibria_to_json(candidates)
    print(text)
    if scenario.outdir:
        with _writing(scenario.outdir):
            os.makedirs(scenario.outdir, exist_ok=True)
            netcore.atomic_write_lines(os.path.join(scenario.outdir, "equilibria.json"), [text])
    return 0


def cmd_contour(args) -> int:
    try:
        grid = analysis.interior_grid(args.resolution)
        lines = analysis.contour_csv_lines(args.function, grid, grid)
    except ValueError as exc:  # resolution below 2 or unknown function id
        raise ConfigError(str(exc)) from exc
    except MemoryError:  # numpy refuses at once a grid larger than memory
        raise ConfigError(
            f"--resolution {args.resolution} is too large: the grid does not fit in memory"
        ) from None
    with _writing(args.out):
        netcore.atomic_write_lines(args.out, lines)
    _emit({"function": args.function, "resolution": args.resolution, "path": args.out},
          args.json, f"wrote {args.function} grid ({args.resolution}x{args.resolution}) to {args.out}")
    return 0


def cmd_generate(args) -> int:
    net = _build_scenario(args).net
    out = args.out or "network.txt"
    if os.path.isdir(out):
        out = os.path.join(out, "network.txt")
    with _writing(out):
        netcore.save_network(net, out)
    _emit(
        {"path": out, "n": net.n, "valid": True,  # every constructed layer is row-stochastic
         "symmetric": [net.A.symmetric, net.W.symmetric]},
        args.json, f"wrote network (n={net.n}) to {out}",
    )
    return 0


def _wilson(successes: int, samples: int) -> tuple:
    p = successes / samples
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / samples
    centre = (p + z2 / (2 * samples)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / samples + z2 / (4 * samples ** 2)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def cmd_montecarlo(args) -> int:
    if args.samples < 1:
        raise ConfigError("samples must be at least 1")
    scenario = _build_scenario(args)
    n = scenario.net.n
    counts: dict = {}
    preserved = 0
    polarized_runs = 0
    for k in range(args.samples):
        sub = np.random.SeedSequence([scenario.initial_seed, k]).generate_state(2)
        z0 = genesis.initial_state(scenario.initial_kind, n, int(sub[0]), scenario.partition)
        if scenario.schedule.kind == "uniform_random":
            schedule = dynamics.ActivationSchedule.uniform_random(n, int(sub[1]))
        else:
            schedule = scenario.schedule
        trace = dynamics.simulate(z0, scenario.net, scenario.params, schedule, scenario.stop)
        end = netcore.classify_state(trace.final()) if trace.converged else None
        label = end.label() if end else "non-converged"
        counts[label] = counts.get(label, 0) + 1
        if label == "polarized":
            polarized_runs += 1
            if netcore.classify_state(z0).partition == end.partition:
                preserved += 1
    fractions = {
        label: {
            "count": count,
            "fraction": count / args.samples,
            "ci95": list(_wilson(count, args.samples)),
        }
        for label, count in sorted(counts.items())
    }
    payload = {"samples": args.samples, "fractions": fractions}
    if polarized_runs:
        payload["polarized_partition_preserved"] = preserved / polarized_runs
    if scenario.outdir:
        with _writing(scenario.outdir):
            os.makedirs(scenario.outdir, exist_ok=True)
            _write_json(os.path.join(scenario.outdir, "montecarlo.json"), payload)
    _emit(payload, args.json,
          "; ".join(f"{label}: {entry['count']}/{args.samples}"
                    for label, entry in fractions.items()))
    return 0


# --- entry point -------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI scenario file")
    parser.add_argument("--reproduce", help="bundled scenario preset (example3|example4|example5)")
    parser.add_argument("--seed", type=int, help="master seed overriding all component seeds")
    parser.add_argument("--out", help="output directory or file")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``coevnet`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="coevnet",
        description="Coevolving actions and opinions on two-layer networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and export the trace")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="evaluate a named condition checker")
    _add_common(p)
    p.add_argument("--theorem", required=True,
                   help="one of thm2, thm3, thm5, thm6, thm7, eq22")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="exhaustively enumerate equilibria (small n)")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("contour", help="write a (beta, lambda) contour grid as CSV")
    p.add_argument("--function", required=True,
                   help=f"one of {', '.join(analysis.CONTOUR_FUNCTIONS)}")
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("generate", help="generate a network file from the config")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("montecarlo", help="basin-of-attraction sweep over seeded runs")
    _add_common(p)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
