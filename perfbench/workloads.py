"""The benchmark's workloads.

Each workload turns the workload seed into a pool of inputs at set-up, runs
one op per timed step, and after the op, outside its timer, checks the
output and reduces it to canonical bytes for the run digest.  Only
coevnet's public API and its CLI are used, so the benchmark keeps working
across internal refactors.

- presets:   op = ``coevnet simulate --reproduce P --seed S --out DIR --json``
             cycling P over example3/4/5 (n = 30).
- certify:   op = two n = 6 random symmetric layers at one cell of the
             20 x 20 (lambda, beta) grid, eps = -1: ``check_thm5`` and
             ``enumerate_equilibria``.
- enumerate: op = ``coevnet enumerate --config X.ini`` on a two-layer
             random symmetric n = 18 net, eps alternating -1/+1.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil

from coevnet import analysis, cli, genesis, netcore, oracle

from stats import derive_seed

FIXED_POINT_GAP_TOL = 1e-8


def run_cli(argv: list) -> tuple[int, str]:
    """``coevnet`` in-process, stdout captured; looked up through the module
    attribute so a traced run sees its wrapper."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    pool_size = 1        # distinct inputs generated at set-up; ops cycle over them
    digest_ops = 1       # the run digest covers the first this-many ops
    trace_rate = 1.0     # traced-run ops per second of --seconds (a fixed count)
    rescaled = True      # report times at the reference kernel's nominal speed

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.inputs = [self.make_input(i) for i in range(self.pool_size)]

    def input(self, i: int):
        return self.inputs[i % self.pool_size]

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, i: int):
        """The timed unit of work."""
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[list, bytes]:
        """Problems found in the output of op ``i``, and its canonical bytes."""
        raise NotImplementedError


class Presets(Workload):
    name = "presets"
    pool_size = 192
    digest_ops = 6
    trace_rate = 0.5
    PUBLISHED = {"example3": "consensus", "example4": "consensus", "example5": "polarized"}

    def make_input(self, i):
        presets = sorted(self.PUBLISHED)
        return presets[i % len(presets)], derive_seed(self.seed, "presets", i)

    def _outdir(self, i):
        return os.path.join(self.workdir, f"presets-{i}")

    def op(self, i):
        preset, seed = self.input(i)
        return run_cli(["simulate", "--reproduce", preset, "--seed", str(seed),
                        "--out", self._outdir(i), "--json"])

    def check(self, i, out):
        preset, seed = self.input(i)
        code, text = out
        outdir = self._outdir(i)
        problems = []
        canon = [text]
        try:
            if code != 0:
                return [f"{preset} seed {seed}: exit {code}"], b""
            r = json.loads(text)
            if not r["converged"]:
                problems.append(f"{preset} seed {seed}: not converged ({r['reason']})")
            if not r["nash"]["holds"]:
                problems.append(f"{preset} seed {seed}: final state is not a Nash equilibrium")
            gap = r["fixed_point_gap"]
            if gap is None or gap > FIXED_POINT_GAP_TOL:
                problems.append(f"{preset} seed {seed}: fixed-point gap {gap}")
            kind = r["classification"]["kind"]
            if kind != self.PUBLISHED[preset]:
                problems.append(f"{preset} seed {seed}: class {kind}, published "
                                f"{self.PUBLISHED[preset]}")
            for fname in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, fname), "rb") as handle:
                    data = handle.read()
                canon.append(f"{fname}:{_sha(data)}")
                records = data.count(b"\n")
                if fname == "trace.jsonl" and records != r["steps"] + 1:
                    problems.append(f"{preset} seed {seed}: trace.jsonl has {records} "
                                    f"records for {r['steps']} steps")
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return problems, "\n".join(canon).encode()


# Criterion 02's (lambda, beta) grid, without the cells on the thm5 boundary.
_GRID = [k / 21.0 for k in range(1, 21)]
CERTIFY_CELLS = [(lam, beta) for lam in _GRID for beta in _GRID
                 if abs(analysis.thm5_rhs(beta, lam) - 1.0) >= 1e-9]


class Certify(Workload):
    name = "certify"
    pool_size = 8192
    digest_ops = 64
    trace_rate = 20.0
    N = 6

    def make_input(self, i):
        lam, beta = CERTIFY_CELLS[derive_seed(self.seed, "certify-cell", i) % len(CERTIFY_CELLS)]
        return (lam, beta, derive_seed(self.seed, "certify-A", i),
                derive_seed(self.seed, "certify-W", i))

    def op(self, i):
        lam, beta, seed_a, seed_w = self.input(i)
        net = netcore.TwoLayerNetwork(A=genesis.random_symmetric_stochastic(self.N, seed_a),
                                      W=genesis.random_symmetric_stochastic(self.N, seed_w))
        params = netcore.AgentParams.uniform(self.N, lam, beta, -1, 0.0)
        holds = analysis.check_thm5(net, params).holds
        return holds, oracle.enumerate_equilibria(net, params)

    def check(self, i, out):
        holds, candidates = out
        member = any(all(v == 1 for v in c.x.tolist()) for c in candidates)
        problems = []
        if member != holds:
            lam, beta, seed_a, seed_w = self.input(i)
            problems.append(f"certify lam={lam:.4f} beta={beta:.4f} seeds {seed_a}/{seed_w}: "
                            f"all-plus membership {member}, thm5 verdict {holds}")
        return problems, f"{holds}\n{oracle.equilibria_to_json(candidates)}".encode()


class Enumerate(Workload):
    name = "enumerate"
    pool_size = 256
    digest_ops = 8
    trace_rate = 0.6
    # Its time is in large-array numpy, which the interpreter-bound reference
    # kernel does not track: rescaling widened the ten-seed spread of
    # ops_per_s from about 0.07 to 0.13, so its times are reported raw.
    rescaled = False
    N = 18

    def make_input(self, i):
        rng = random.Random(derive_seed(self.seed, "enumerate", i))
        eps = -1 if i % 2 == 0 else 1
        while True:
            lam, beta = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            if abs(analysis.thm5_rhs(beta, lam) - 1.0) > 0.05:
                break
        path = os.path.join(self.workdir, f"enumerate-{i}.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                "[network]\nsource = generate\nkind = random_symmetric\n"
                f"n = {self.N}\nseed = {rng.randrange(2 ** 31)}\nopinion_layer = random_symmetric\n"
                f"[params]\nlambda = {lam!r}\nbeta = {beta!r}\nepsilon = {eps}\nalpha = 0\n"
            )
        return path, eps, lam, beta

    def op(self, i):
        return run_cli(["enumerate", "--config", self.input(i)[0]])

    def check(self, i, out):
        path, eps, lam, beta = self.input(i)
        code, text = out
        if code != 0:
            return [f"enumerate {path}: exit {code}"], b""
        netfile = os.path.join(self.workdir, "check-network.txt")
        gen_code, _ = run_cli(["generate", "--config", path, "--out", netfile, "--json"])
        if gen_code != 0:
            return [f"generate {path}: exit {gen_code}"], b""
        net = netcore.load_network(netfile)
        params = netcore.AgentParams.uniform(net.n, lam, beta, eps, 0.0)
        records = json.loads(text)
        problems = []
        profiles = set()
        for rec in records:
            z = netcore.PopulationState(actions=rec["x"], opinions=rec["y"])
            if not analysis.is_nash(z, net, params).holds:
                problems.append(f"enumerate {path}: profile {rec['x']} fails is_nash")
            profiles.add(tuple(rec["x"]))
        plus, minus = (1,) * net.n, (-1,) * net.n
        if eps == -1:
            holds = analysis.check_thm5(net, params).holds
            if (plus in profiles) != holds:
                problems.append(f"enumerate {path}: all-plus membership {plus in profiles}, "
                                f"thm5 verdict {holds}")
        elif plus not in profiles or minus not in profiles:
            problems.append(f"enumerate {path}: a consensus profile is missing")
        return problems, text.encode()


WORKLOADS = {cls.name: cls for cls in (Presets, Certify, Enumerate)}
