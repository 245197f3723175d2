"""Small helpers shared by the benchmark driver and its tests: percentiles with
their tail-sample rule, seed derivation, metric-name validation, the machine
description recorded with every run, and the reference kernel that measures
the machine's momentary speed.

Nothing here imports numpy or coevnet at import time, so the driver can use
it before the timed imports start.
"""
from __future__ import annotations

import bisect
import gc
import glob
import hashlib
import math
import os
import platform
import re
import statistics
import time

# A percentile is only trusted when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between closest ranks,
    the same rule as numpy's default."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_count(values, cut: float) -> int:
    """Number of samples strictly beyond ``cut``."""
    return sum(1 for v in values if v > cut)


def percentile_resolved(values, q: float) -> bool:
    """Whether the q-th percentile has at least MIN_TAIL_SAMPLES beyond it."""
    return tail_count(values, percentile(values, q)) >= MIN_TAIL_SAMPLES


def derive_seed(*keys) -> int:
    """Deterministic 31-bit seed from the workload seed and an op's keys."""
    digest = hashlib.sha256(":".join(str(k) for k in keys).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def machine_info() -> dict:
    """CPU, caches, interpreter and numpy build of the measuring machine."""
    import numpy as np

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and kind and size:
            caches[f"L{level}-{kind.lower()}"] = size
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {key: deps.get(key, {}).get("name") for key in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


# --- machine speed ------------------------------------------------------------
#
# On a shared host the same op can take 0.40 s or 0.73 s depending on what
# the neighbours do, and the slow and fast spells last from seconds to
# minutes.  The benchmark therefore times a fixed reference kernel between
# ops and reports op times rescaled to a nominal machine: time x
# REF_NOMINAL_S / (reference time measured around the op).  The kernel
# shares no code with coevnet, so a change to coevnet moves only the op side
# of the ratio.  It runs with the cyclic collector off and allocates no
# tracked containers, so the program's heap cannot slow it down.

REF_NOMINAL_S = 0.003   # the kernel's time on the 2-core host the bounds were set on
REF_ROUNDS = 600
REF_EVERY_S = 0.25      # op time between two reference samples
REF_WINDOW_S = 1.0      # reference samples within this distance of an op rescale it


def _reference_kernel(a, v, rounds: int) -> float:
    import numpy as np

    acc = 0.0
    for k in range(rounds):
        v = np.tanh(a @ v + 0.25 * v)
        acc += float(v[k & 31]) * 0.5 + k % 7
    return acc


def reference_seconds(repeats: int = 3) -> float:
    """Median time of ``repeats`` runs of the reference kernel, after a short
    warm-up run."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 1024).reshape(32, 32) / 16.0
    v = np.ones(32)
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_kernel(a, v, REF_ROUNDS // 8)
        for _ in range(repeats):
            start = time.perf_counter()
            _reference_kernel(a, v, REF_ROUNDS)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def nominal_seconds(seconds: float) -> float:
    """``seconds`` just measured, rescaled by the reference kernel run now."""
    return seconds * REF_NOMINAL_S / reference_seconds()


def speed_factors(op_spans, ref_times, ref_values) -> list:
    """REF_NOMINAL_S over the median reference time within REF_WINDOW_S of
    each op's (start, end) span (the nearest sample when none is that
    close).  ``ref_times`` is sorted."""
    factors = []
    for start, end in op_spans:
        t = (start + end) / 2
        lo = bisect.bisect_left(ref_times, start - REF_WINDOW_S)
        hi = bisect.bisect_right(ref_times, end + REF_WINDOW_S)
        if lo == hi:
            nearest = min(range(len(ref_times)), key=lambda k: abs(ref_times[k] - t))
            lo, hi = nearest, nearest + 1
        factors.append(REF_NOMINAL_S / statistics.median(ref_values[lo:hi]))
    return factors
