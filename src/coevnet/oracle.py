"""Ground-truth machinery: exact opinion fixed points for frozen actions,
exhaustive equilibrium enumeration for small populations, and cross-validation
of simulation output against both.

The enumeration is the independent oracle for the analytic Nash tests: a
candidate is kept when the discriminant of every agent points at (or ties
with) the agent's action at the exact opinion fixed point, and every kept
candidate must also pass the payoff-based Nash check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import analysis
from .dynamics import Trace, action_bracket, discriminant_from_sums, discriminants, opinion_update
from .netcore import AgentParams, PopulationState, TwoLayerNetwork

FIXED_POINT_RESIDUAL_TOL = 1e-12
DEFAULT_N_MAX = 20


def _system_matrix(net: TwoLayerNetwork, params: AgentParams) -> np.ndarray:
    n = net.n
    return np.eye(n) - (1.0 - params.lam)[:, None] * net.W.weights


def opinion_fixed_point(
    x: np.ndarray, net: TwoLayerNetwork, params: AgentParams
) -> np.ndarray:
    """Unique opinions left invariant by the opinion update when actions are
    frozen at ``x``; solved directly, residual at most 1e-12."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise ValueError("action profile size must match the network")
    m = _system_matrix(net, params)
    try:
        y = np.linalg.solve(m, params.lam * x)
    except np.linalg.LinAlgError as exc:  # unreachable for row-stochastic W, lam>0
        raise ArithmeticError("opinion fixed-point system is singular") from exc
    residual = np.max(np.abs(y - opinion_update(net.W.weights @ y, x, params.lam)))
    if residual > FIXED_POINT_RESIDUAL_TOL:
        raise ArithmeticError(f"fixed-point residual {residual:.3e} above tolerance")
    return y


def iterate_opinions(
    x: np.ndarray,
    net: TwoLayerNetwork,
    params: AgentParams,
    y0: np.ndarray,
    sweeps: int,
) -> np.ndarray:
    """Plain synchronous opinion iteration with frozen actions; converges to
    the fixed point at geometric rate bounded by max(1 - lam).  Kept as an
    independent cross-check of the direct solve."""
    y = np.asarray(y0, dtype=float).copy()
    x = np.asarray(x, dtype=float)
    for _ in range(sweeps):
        y = opinion_update(net.W.weights @ y, x, params.lam)
    return y


@dataclass(frozen=True)
class EquilibriumCandidate:
    """An action profile with its exact opinion fixed point.

    ``consistent`` means no agent's discriminant contradicts its action
    (zero discriminants impose nothing, matching the inertia rule);
    ``marginal`` flags candidates kept only through such zero ties.
    """

    x: np.ndarray
    y_star: np.ndarray
    delta: np.ndarray
    consistent: bool
    marginal: bool


def _contradicted(x: np.ndarray, delta: np.ndarray, band: float):
    """Whether some agent's discriminant points against its action (last axis)
    by more than ``band``; zero discriminants impose nothing.  Multiplying by
    an action of +-1 is exact, so this is a pure sign comparison."""
    return np.any(x * delta < -band, axis=-1)


def candidate(
    net: TwoLayerNetwork, params: AgentParams, x: np.ndarray
) -> EquilibriumCandidate:
    """Build the equilibrium candidate for one action profile."""
    x = np.asarray(x, dtype=int)
    y_star = opinion_fixed_point(x, net, params)
    state = PopulationState(actions=x, opinions=y_star)
    delta = discriminants(state, net, params)
    bad = _contradicted(x, delta, 0.0)
    marginal = bool(np.any(delta == 0.0))
    return EquilibriumCandidate(
        x=x, y_star=y_star, delta=delta, consistent=not bad, marginal=marginal
    )


def enumerate_equilibria(
    net: TwoLayerNetwork,
    params: AgentParams,
    n_max: int = DEFAULT_N_MAX,
) -> list:
    """All consistent candidates over every action profile, in lexicographic
    profile order.  Every returned candidate also passes the payoff-based Nash
    check; a consistent candidate that fails it raises ArithmeticError."""
    n = net.n
    if n > n_max:
        raise ValueError(f"enumeration supports at most n_max={n_max} agents, got {n}")
    # The fixed point y* = S x is linear and the action bracket affine in x,
    # so every discriminant is affine in the profile: delta(x) = M x + c.
    a = net.A.weights
    s = np.linalg.solve(_system_matrix(net, params), np.diag(params.lam))
    slope = action_bracket(1.0, params.alpha) - action_bracket(0.0, params.alpha)
    m_t = discriminant_from_sums(slope * a.T, (net.W.weights @ s).T, params)
    c = discriminant_from_sums(a @ action_bracket(np.zeros(n), params.alpha), 0.0, params)

    kept: list[EquilibriumCandidate] = []
    shifts = np.arange(n - 1, -1, -1)
    total = 1 << n
    block = 1 << 14
    for start in range(0, total, block):
        # profiles in lexicographic order, -1 < +1, agent 0 most significant
        codes = np.arange(start, min(start + block, total), dtype=np.int64)
        xs = 2.0 * ((codes[:, None] >> shifts) & 1) - 1.0
        # Conservative pre-filter: only discard clear violations, so profiles
        # in the round-off band get the exact per-profile decision below.
        bad = _contradicted(xs, xs @ m_t + c, 1e-12)
        for row in np.flatnonzero(~bad):
            cand = candidate(net, params, xs[row])
            if not cand.consistent:
                continue
            report = analysis.is_nash(
                PopulationState(actions=cand.x, opinions=cand.y_star), net, params
            )
            if not report.holds:
                raise ArithmeticError(
                    f"consistent candidate {cand.x.tolist()} fails the Nash check "
                    f"(worst slack {report.worst():.3e})"
                )
            kept.append(cand)
    return kept


def equilibria_to_json(candidates: list) -> str:
    records = [
        {"x": c.x.tolist(), "y": c.y_star.tolist(), "marginal": c.marginal}
        for c in candidates
    ]
    return json.dumps(records, sort_keys=True)


@dataclass(frozen=True)
class CrossValidation:
    ok: bool
    issues: tuple
    membership_checked: bool
    opinion_gap: float


def cross_validate(
    trace: Trace,
    net: TwoLayerNetwork,
    params: AgentParams,
    n_max: int = DEFAULT_N_MAX,
    opinion_tol: float = 1e-8,
) -> CrossValidation:
    """Check a converged trace against the oracle: terminal opinions must match
    the exact fixed point, and for populations small enough to enumerate the
    terminal action profile must be a consistent candidate (profile
    consistency is exactly membership in the enumeration)."""
    if not trace.converged:
        raise ValueError("cross-validation requires a converged trace")
    final = trace.final()
    issues: list[str] = []
    cand = candidate(net, params, final.actions)
    y_star = cand.y_star
    gaps = np.abs(final.opinions - y_star)
    gap = float(gaps.max())
    if gap > opinion_tol:
        for i in np.flatnonzero(gaps > opinion_tol):
            issues.append(
                f"agent {i + 1}: opinion {final.opinions[i]:.12g} is {gaps[i]:.3e} "
                f"away from the fixed point {y_star[i]:.12g}"
            )
    membership_checked = net.n <= n_max
    if membership_checked and not cand.consistent:
        issues.append("terminal action profile is not an equilibrium candidate")
    return CrossValidation(
        ok=not issues,
        issues=tuple(issues),
        membership_checked=membership_checked,
        opinion_gap=gap,
    )
