"""Reproducible construction of networks and initial states: random symmetric
row-stochastic graphs, graphs drawn inside the mass bands on which a named
condition checker holds, balanced complete-bipartite graphs, and seeded
initial states.

Every generator is a pure function of its seed (PCG64 via
``numpy.random.default_rng``), so identical inputs give bitwise-identical
output.  Rescaled generation is one checked draw: the produced graph is
passed through its target checker, and generation raises if the checker does
not report "holds".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .netcore import (
    ROW_SUM_TOL,
    AgentParams,
    PopulationState,
    TwoLayerNetwork,
    WeightedGraph,
    check_partition,
)

_SINKHORN_PLATEAU = 1e-13
_MAX_SWEEPS = 10_000
_MARGIN = 0.05  # interior margin kept between sampled masses and the thresholds

RESCALED_TARGETS = ("thm2", "thm3", "thm7", "eq22")


class InfeasibleConditionError(ValueError):
    """The requested (parameters, partition) admit no row-stochastic graph."""


def _sym_sinkhorn(m: np.ndarray, target: float | np.ndarray = 1.0) -> np.ndarray:
    """Symmetric scaling D M D until every row sums to ``target``, a scalar or
    one value per row.

    Preserves exact symmetry; raises when the sums cannot settle within
    tolerance in ``_MAX_SWEEPS`` sweeps (degenerate sparsity).  Balancing the
    bipartite ``C + C.T`` to per-camp targets scales the block ``C`` to those
    row and column masses.
    """
    m = np.array(m, dtype=float)
    prev = np.inf
    dev = np.inf
    for _ in range(_MAX_SWEEPS):
        sums = m.sum(axis=1)
        if np.any(sums <= 0.0):
            raise RuntimeError("symmetric normalization hit an empty row")
        dev = float(np.max(np.abs(sums - target)))
        if dev <= _SINKHORN_PLATEAU or (dev <= ROW_SUM_TOL and dev >= prev):
            return m
        prev = dev
        d = np.sqrt(target / sums)
        m = m * np.outer(d, d)
    if dev <= ROW_SUM_TOL:
        return m
    raise RuntimeError(
        f"symmetric normalization failed to reach tolerance {ROW_SUM_TOL:g} "
        f"within {_MAX_SWEEPS} sweeps (deviation {dev:.3e})"
    )


def random_symmetric_stochastic(
    n: int, seed: int, zero_diagonal: bool = True
) -> WeightedGraph:
    """Symmetric row-stochastic graph with uniformly sampled weights,
    symmetrized before normalization so the result keeps both properties."""
    if n < 2:
        raise ValueError("need at least two agents")
    rng = np.random.default_rng(seed)
    m = _sym_random_block(rng, n)
    if not zero_diagonal:
        np.fill_diagonal(m, rng.random(n))
    return WeightedGraph(_sym_sinkhorn(m))


def _sym_random_block(rng: np.random.Generator, size: int) -> np.ndarray:
    """Symmetric matrix with uniform off-diagonal weights and a zero diagonal."""
    block = np.triu(rng.random((size, size)), 1)
    return block + block.T


def _blocked_symmetric(
    rng: np.random.Generator,
    pos: tuple,
    neg: tuple,
    m_pos: float,
    m_neg: float,
    n: int,
) -> np.ndarray:
    """Symmetric row-stochastic matrix whose within-camp row masses are m_pos
    on one side and m_neg on the other (cross masses fill the rest)."""
    if (m_pos > 0.0 and len(pos) < 2) or (m_neg > 0.0 and len(neg) < 2):
        raise ValueError("a camp needs at least two members to carry internal weight")
    w = np.zeros((n, n))
    p_idx = np.asarray(pos)
    n_idx = np.asarray(neg)
    if m_pos > 0.0:
        w[np.ix_(p_idx, p_idx)] = _sym_sinkhorn(_sym_random_block(rng, len(pos)), m_pos)
    if m_neg > 0.0:
        w[np.ix_(n_idx, n_idx)] = _sym_sinkhorn(_sym_random_block(rng, len(neg)), m_neg)
    cross = np.zeros((n, n))
    cross[np.ix_(p_idx, n_idx)] = 0.05 + rng.random((len(pos), len(neg)))
    target = np.full(n, 1.0 - m_pos)
    target[n_idx] = 1.0 - m_neg
    w += _sym_sinkhorn(cross + cross.T, target)
    if float(np.max(np.abs(w.sum(axis=1) - 1.0))) > ROW_SUM_TOL:
        w = _sym_sinkhorn(w)
    return w


def _balanced_range(
    n_pos: int, n_neg: int, pos_interval: tuple, neg_interval: tuple, context: str
) -> tuple:
    """(lo, hi, ratio): the open range of positive-camp masses m_pos inside
    ``pos_interval`` whose balanced partner m_neg = 1 - ratio*(1 - m_pos),
    ratio = n_pos/n_neg, lies inside ``neg_interval``."""
    pos_lo, pos_hi = pos_interval
    neg_lo, neg_hi = neg_interval
    ratio = n_pos / n_neg
    # translate the m_neg bounds into m_pos bounds along the balance line
    lo = max(pos_lo, 1.0 - (1.0 - neg_lo) / ratio)
    hi = min(pos_hi, 1.0 - (1.0 - neg_hi) / ratio)
    if not lo < hi:
        raise InfeasibleConditionError(
            f"{context}: no symmetric row-stochastic graph fits; the admissible "
            f"within-camp masses are {pos_interval} (positive camp) and "
            f"{neg_interval} (negative camp) with camp sizes {n_pos}/{n_neg}"
        )
    return lo, hi, ratio


def _coupled_masses(rng: np.random.Generator, lo: float, hi: float, ratio: float) -> tuple:
    """Sample balanced within-camp masses (m_pos, m_neg) from a ``_balanced_range``."""
    u = 0.25 + 0.5 * rng.random()
    m_pos = lo + u * (hi - lo)
    m_neg = 1.0 - ratio * (1.0 - m_pos)
    return float(m_pos), float(m_neg)


def _canonical_state(
    pos: tuple, neg: tuple, n: int, positive_opinions: bool = False
) -> PopulationState:
    x = np.full(n, -1, dtype=int)
    y = np.full(n, 0.5 if positive_opinions else -0.5)
    x[list(pos)] = 1
    y[list(pos)] = 0.5
    return PopulationState(actions=x, opinions=y)


def _interval(lo: float, hi: float) -> tuple:
    span = hi - lo
    return lo + _MARGIN * span, hi - _MARGIN * span


def _mass_bands(theorem: str, params: AgentParams, n_pos: int, n_neg: int) -> tuple:
    """What every attempt for ``theorem`` samples within-camp masses from:
    for thm3 the (positive camp, negative camp) intervals its checker admits,
    kept ``_MARGIN`` inside the thresholds; for the symmetric targets the
    ``_balanced_range`` of those intervals.  Raises
    :class:`InfeasibleConditionError` when the parameters leave none."""
    lam, beta = float(params.lam[0]), float(params.beta[0])
    if theorem == "thm3":
        t_pos = analysis.thm3_vp_threshold(beta, lam)
        t_neg = analysis.thm3_vn_threshold(beta, lam)
        bands = _interval(t_pos, 0.98), _interval(max(0.0, min(0.02, t_neg / 2.0)), t_neg)
        if not all(lo < hi for lo, hi in bands):
            raise InfeasibleConditionError(
                f"thm3: thresholds {t_pos:.4g}/{t_neg:.4g} leave no admissible "
                "within-camp mass"
            )
        if n_pos < 2 or n_neg < 2:
            raise ValueError("both camps need at least two members")
        return bands
    if theorem == "thm2":
        cohesive, diffusive = analysis.thm2_bounds(params.alpha)
        pos_band = _interval(cohesive, 0.95)
        neg_band = _interval(0.02, diffusive)
    elif theorem == "thm7":
        ceiling = analysis.thm7_beta_ceiling(lam)
        if not beta < ceiling:
            raise InfeasibleConditionError(
                "thm7: requires beta < 1/(2-lam); "
                f"got beta={beta:.4g}, 1/(2-lam)={ceiling:.4g}"
            )
        lower, upper = analysis.thm7_bounds(beta, lam)
        lo, hi = max(lower, 0.0), min(upper, 0.95)
        if not lo < hi:
            raise InfeasibleConditionError(
                f"thm7: admissible within-camp interval ({lower:.6g}, {upper:.6g}) "
                "does not meet [0, 1]; no network can satisfy the conditions"
            )
        pos_band = neg_band = _interval(lo, hi)
    else:  # eq22
        rhs = analysis.coo_pol_rhs(beta, lam)
        if not rhs < 0.97:
            raise InfeasibleConditionError(
                f"eq22: threshold {rhs:.4g} leaves no admissible within-camp mass"
            )
        pos_band = neg_band = _interval(rhs, 0.97)
    return _balanced_range(n_pos, n_neg, pos_band, neg_band, theorem)


def _thm3_rows(
    rng: np.random.Generator, pos: tuple, neg: tuple, bands: tuple, n: int
) -> np.ndarray:
    """Row-stochastic (generally asymmetric) matrix whose rows keep a
    within-camp mass inside their camp's band: heavy for the positive camp,
    light for the negative camp.  A symmetric matrix cannot meet both thm3
    bounds with equally sized camps, so rows are rescaled independently."""
    w = np.zeros((n, n))
    for camp, other, (lo, hi) in ((pos, neg, bands[0]), (neg, pos, bands[1])):
        outside = list(other)
        for i in camp:
            target = lo + rng.random() * (hi - lo)
            own = [j for j in camp if j != i]
            within_weights = 0.05 + rng.random(len(own))
            within_weights *= target / within_weights.sum()
            cross_weights = 0.05 + rng.random(len(outside))
            cross_weights *= (1.0 - target) / cross_weights.sum()
            w[i, own] = within_weights
            w[i, outside] = cross_weights
    return w


def condition_rescaled(
    theorem: str,
    partition: tuple,
    params: AgentParams,
    n: int,
    seed: int,
) -> WeightedGraph:
    """Graph on which the named checker ("thm2", "thm3", "thm7", "eq22")
    reports "holds" for the given partition; raises
    :class:`InfeasibleConditionError` when the parameters admit none.

    Output is symmetric except for the thm3 target, whose bounds are
    unreachable by symmetric matrices with balanced camps; thm3 output is
    row-stochastic with independently rescaled rows.
    """
    if theorem not in RESCALED_TARGETS:
        raise ValueError(f"unknown rescaling target {theorem!r}; expected one of {RESCALED_TARGETS}")
    if not params.homogeneous():
        raise ValueError("condition rescaling needs homogeneous parameters")
    pos, neg = check_partition(partition, n)
    bands = _mass_bands(theorem, params, len(pos), len(neg))
    z0 = _canonical_state(pos, neg, n, positive_opinions=theorem == "thm2")
    # Looked up by name at call time, so a wrapper installed on the module
    # attribute sees every check.
    check = getattr(analysis, analysis.CHECKERS[theorem].__name__)

    # masses are sampled inside the bands with a margin, so one draw suffices
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    if theorem == "thm3":
        w = _thm3_rows(rng, pos, neg, bands, n)
    else:
        w = _blocked_symmetric(rng, pos, neg, *_coupled_masses(rng, *bands), n)
    graph = WeightedGraph(w)
    if not check(z0, TwoLayerNetwork.single_layer(graph), params).holds:
        raise RuntimeError(f"condition rescaling for {theorem} failed its own checker")
    return graph


def complete_bipartite(
    partition: tuple, seed: int, uniform: bool = False
) -> WeightedGraph:
    """Symmetric row-stochastic graph with zero within-camp weight and positive
    cross weights.  Camps must be equally sized: a symmetric row-stochastic
    matrix supported on cross edges forces both camps to carry equal total
    mass.  With ``uniform`` every cross entry is 1/|camp|."""
    n = len(partition[0]) + len(partition[1])
    pos, neg = check_partition(partition, n)
    if len(pos) != len(neg):
        raise ValueError(
            "complete-bipartite generation needs equally sized camps; "
            f"got {len(pos)}/{len(neg)}"
        )
    if not uniform:  # the blocked construction with no within-camp mass
        rng = np.random.default_rng(seed)
        return WeightedGraph(_blocked_symmetric(rng, pos, neg, 0.0, 0.0, n))
    w = np.zeros((n, n))
    w[np.ix_(pos, neg)] = w[np.ix_(neg, pos)] = 1.0 / len(neg)
    return WeightedGraph(w)


INITIAL_KINDS = ("polarized", "positive_opinions", "random")


def initial_state(
    kind: str,
    n: int,
    seed: int,
    partition: tuple | None = None,
) -> PopulationState:
    """Seeded initial state.

    polarized: +1 camp with opinions in (0, 1], -1 camp with opinions in
    [-1, 0) (partition required).  positive_opinions: opinions in (0, 1];
    actions follow the partition when given, otherwise fair coin flips.
    random: fair-coin actions, opinions uniform on [-1, 1].
    """
    rng = np.random.default_rng(seed)
    if kind == "polarized":
        if partition is None:
            raise ValueError("polarized initial state needs a partition")
        pos, neg = check_partition(partition, n)
        x = np.full(n, -1, dtype=int)
        x[list(pos)] = 1
        y = np.empty(n)
        y[list(pos)] = 1.0 - rng.random(len(pos))
        y[list(neg)] = -(1.0 - rng.random(len(neg)))
        return PopulationState(actions=x, opinions=y)
    if kind == "positive_opinions":
        if partition is not None:
            pos, neg = check_partition(partition, n)
            x = np.full(n, -1, dtype=int)
            x[list(pos)] = 1
        else:
            x = rng.integers(0, 2, size=n) * 2 - 1
        y = 1.0 - rng.random(n)
        return PopulationState(actions=x, opinions=y)
    if kind == "random":
        x = rng.integers(0, 2, size=n) * 2 - 1
        y = rng.uniform(-1.0, 1.0, size=n)
        return PopulationState(actions=x, opinions=y)
    raise ValueError(f"unknown initial-state kind {kind!r}; expected one of {INITIAL_KINDS}")


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of a generated network, seed included."""

    kind: str  # "random_symmetric" | "condition_rescaled" | "complete_bipartite"
    n: int
    seed: int
    theorem: str | None = None
    partition: tuple | None = None
    uniform: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("random_symmetric", "condition_rescaled", "complete_bipartite"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "condition_rescaled" and self.theorem is None:
            raise ValueError("condition_rescaled needs a theorem id")
        if self.kind in ("condition_rescaled", "complete_bipartite") and self.partition is None:
            raise ValueError(f"{self.kind} needs a partition")


def build_graph(spec: GenSpec, params: AgentParams | None = None) -> WeightedGraph:
    if spec.kind == "random_symmetric":
        return random_symmetric_stochastic(spec.n, spec.seed)
    if spec.kind == "complete_bipartite":
        return complete_bipartite(spec.partition, spec.seed, spec.uniform)
    if params is None:
        raise ValueError("condition_rescaled needs agent parameters")
    return condition_rescaled(spec.theorem, spec.partition, params, spec.n, spec.seed)
