#!/usr/bin/env python3
"""coevnet's benchmark.

    python3 perfbench/run.py --workload presets|certify|enumerate \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; coevnet is imported from ``src/``
there and nowhere else.  One caller, closed loop: the next op starts when
the previous one returns.  BLAS/OpenMP are pinned to one thread.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; lines before it, starting with ``#``, record the machine, the
seed, sample counts, ``fail_frac`` and the output digest.

``--trace 0`` reports the end-to-end metrics.  Except on ``enumerate``
(see workloads.py), times are rescaled to a nominal machine by a reference
kernel timed between ops (see stats.py); the ``#`` lines and
``perfbench/out/last-*.json`` also carry the raw values.

- ``ops_per_s``: ops completed per second of op time.
- ``op_p50_ms`` / ``op_p90_ms``: per-op latency.  The p90 is always
  printed; the ``#`` line gives the sample count and whether at least ten
  samples lie beyond it.
- ``peak_rss_mb``: ``ru_maxrss`` of this process.
- ``setup_s``: imports plus input generation, the median over this process
  and several fresh ones.

Each op's output is checked outside its timer (``fail_frac`` = failed /
attempted).  The digest is a sha256 over the canonical outputs of the first
ops; it is stored per (workload, seed, source tree) under ``perfbench/out``
and must repeat on every later run of the same code.

``--trace 1`` runs a fixed number of ops (set by ``--seconds``) twice
each, interleaved after one warm-up op: once plain and once with spans
recorded around coevnet's public functions (see tracing.py); both runs of an
op must give the same output.  It reports the per-layer metrics.  Which
end-to-end numbers each should move:

- ``cli.self_s``: presets op_p50_ms.
- ``genesis.*``: certify op_p50_ms and ops_per_s; flat on enumerate.
- ``dynamics.simulate.*``, ``dynamics.steps``, ``dynamics.us_per_step``
  (inclusive simulate time per step): presets op_p50_ms and ops_per_s.
- ``dynamics.export.*``: presets op_p50_ms/op_p90_ms; zero elsewhere.
- ``analysis.potential.*``: presets op_p90_ms (the eps = -1 presets).
- ``analysis.is_nash.*``, ``analysis.check.self_s``: certify op_p50_ms.
- ``oracle.enumerate.*``, ``oracle.profiles``, ``oracle.ns_per_profile``:
  enumerate ops_per_s and peak_rss_mb.
- ``oracle.candidate.calls``, ``oracle.kept``, ``oracle.kept_per_candidate``:
  certify op_p50_ms.
- ``netcore.state_new.*``: presets ops_per_s and peak_rss_mb.
- ``trace.overhead_frac``: traced over untraced time of the same ops, - 1.
"""
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOAD_NAMES = ("presets", "certify", "enumerate")
SETUP_PROBES = 6  # fresh processes timed for setup_s, besides this one
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ProgramMissing(Exception):
    pass


def check_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "coevnet", "__init__.py")):
        raise ProgramMissing(f"no coevnet sources under {SRC}")


def load_workloads():
    """Import coevnet from this checkout's ``src/`` and the workloads on it."""
    check_program()
    sys.path.insert(0, SRC)
    import coevnet
    if not os.path.abspath(coevnet.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"coevnet imported from {coevnet.__file__}, not {SRC}")
    import workloads
    return workloads


def setup(name: str, seed: int, workdir: str):
    """Imports plus input generation; returns the workload and its raw and
    rescaled times."""
    start = time.perf_counter()
    workload = load_workloads().WORKLOADS[name](seed, workdir)
    seconds = time.perf_counter() - start
    return workload, (seconds, stats.nominal_seconds(seconds))


def probe_setup(name: str, seed: int) -> tuple:
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if result.returncode != 0:
        raise RuntimeError(f"setup probe failed: {result.stderr.strip()}")
    raw, nominal = result.stdout.split()[-2:]
    return float(raw), float(nominal)


def code_id() -> str:
    """Hash of the program and benchmark sources, naming "the same code"."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "coevnet"), HERE):
        for fname in sorted(os.listdir(base)):
            if fname.endswith((".py", ".ini")):
                with open(os.path.join(base, fname), "rb") as handle:
                    digest.update(fname.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def record_digest(name: str, seed: int, digest: str) -> str | None:
    """Store the run digest; return the earlier one if it differs."""
    path = os.path.join(OUT, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    key = f"{code_id()}:{name}:{seed}"
    previous = known.get(key)
    if previous is None:
        known[key] = digest
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(known, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return previous if previous != digest else None


class Runner:
    """Runs ops of one workload, checks each outside its timer, and keeps a
    hash of every op's canonical output for the digest."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latencies: list = []
        self.canonical: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run(self, i: int, traced: bool = False) -> float:
        wl = self.workload
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.op(i):
                    out = wl.op(i)
            else:
                out = wl.op(i)
            error = None
        except Exception:  # an op that raises is a failed op, not a crashed run
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if error is not None:
            problems, canon = [f"op {i} raised:\n{error}"], b""
        else:
            try:
                problems, canon = wl.check(i, out)
            except Exception:
                problems, canon = [f"check of op {i} raised:\n{traceback.format_exc()}"], b""
        canon = hashlib.sha256(canon).digest()
        if self.canonical.setdefault(i, canon) != canon:
            problems = problems + [f"op {i}: output differs from an earlier run of the op"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed

    def digest(self) -> str:
        for i in range(self.workload.digest_ops):
            if i not in self.canonical:
                self.run(i)
        digest = hashlib.sha256()
        for i in range(self.workload.digest_ops):
            digest.update(self.canonical[i])
        return digest.hexdigest()


def _latency_metrics(per_op_ms: list) -> dict:
    return {
        "ops_per_s": 1e3 * len(per_op_ms) / sum(per_op_ms),
        "op_p50_ms": stats.percentile(per_op_ms, 50),
        "op_p90_ms": stats.percentile(per_op_ms, 90),
    }


def end_to_end(runner: Runner, seconds: float, setup_times: list) -> tuple:
    op_spans, ref_times, ref_values = [], [], []

    def sample_speed():
        ref_values.append(stats.reference_seconds())
        ref_times.append(time.perf_counter())

    sample_speed()
    budget = since_ref = 0.0
    i = 0
    while budget < seconds:
        start = time.perf_counter()
        elapsed = runner.run(i)
        op_spans.append((start, start + elapsed))
        runner.latencies.append(elapsed)
        budget += elapsed
        since_ref += elapsed
        i += 1
        if since_ref >= stats.REF_EVERY_S:
            sample_speed()
            since_ref = 0.0
    sample_speed()
    raw_ms = [1e3 * t for t in runner.latencies]
    raw = _latency_metrics(raw_ms)
    raw["setup_s"] = statistics.median(seconds for seconds, _ in setup_times)
    if runner.workload.rescaled:
        factors = stats.speed_factors(op_spans, ref_times, ref_values)
        per_op_ms = [t * f for t, f in zip(raw_ms, factors)]
        metrics = _latency_metrics(per_op_ms)
        metrics["setup_s"] = statistics.median(nominal for _, nominal in setup_times)
    else:
        per_op_ms = raw_ms
        metrics = dict(raw)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "samples": len(per_op_ms),
        "p90_tail_samples": stats.tail_count(per_op_ms, metrics["op_p90_ms"]),
        "p90_resolved": stats.percentile_resolved(per_op_ms, 90),
        "raw": raw,
        "reference_ms": {"median": 1e3 * statistics.median(ref_values),
                         "min": 1e3 * min(ref_values), "max": 1e3 * max(ref_values),
                         "samples": len(ref_values), "nominal": 1e3 * stats.REF_NOMINAL_S},
        "setup_samples_s": setup_times,
    }
    return metrics, info


def per_layer(workload, runner: Runner, seconds: float, tracer) -> tuple:
    ops = max(1, round(seconds * workload.trace_rate))
    runner.run(0)  # warm-up: the first op also pays for growing the heap
    untraced = 0.0
    for i in range(ops):
        # Alternate which side of the pair goes first, so drift cancels.
        if i % 2:
            runner.run(i, traced=True)
            untraced += runner.run(i)
        else:
            untraced += runner.run(i)
            runner.run(i, traced=True)
    metrics, self_sum = tracing.layer_metrics(tracer.spans, tracer.counters, untraced)
    wall = metrics["trace.wall_s"]
    if abs(self_sum - wall) > 1e-9 * max(1.0, len(tracer.spans)):
        runner.problems.append(f"span self times sum to {self_sum:.9f}s, traced wall {wall:.9f}s")
    info = {"ops": ops, "spans": len(tracer.spans), "untraced_wall_s": untraced,
            "skipped_targets": tracer.skipped}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            _, (raw, nominal) = setup(args.workload, args.seed, workdir)
            print(f"{raw!r} {nominal!r}")
            return 0
        check_program()
        os.makedirs(OUT, exist_ok=True)
        setup_times = []
        if not args.trace:
            setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        workload, setup_s = setup(args.workload, args.seed, workdir)
        setup_times.append(setup_s)

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            runner = Runner(workload, tracer)
            try:
                metrics, info = per_layer(workload, runner, args.seconds, tracer)
            finally:
                tracer.uninstall()
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            runner = Runner(workload)
            metrics, info = end_to_end(runner, args.seconds, setup_times)
            units = END_TO_END
        digest = runner.digest()
        previous = record_digest(args.workload, args.seed, digest)
        if previous is not None:
            runner.problems.append(f"digest {digest} differs from {previous} recorded "
                                   "for this seed and code")
        if args.trace:
            tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_frac = runner.failed / runner.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digest": digest, "fail_frac": fail_frac, "info": info,
        "machine": stats.machine_info(), "metrics": metrics, "problems": runner.problems,
    }
    with open(os.path.join(OUT, f"last-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for problem in runner.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} {json.dumps(info, sort_keys=True)}")
    print(f"# fail_frac {fail_frac!r} ({runner.failed}/{runner.attempted}) digest {digest}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
