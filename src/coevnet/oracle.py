"""Ground-truth machinery: exact opinion fixed points for frozen actions,
exhaustive equilibrium enumeration for small populations, and cross-validation
of simulation output against both.

With actions frozen at a profile x the opinion fixed point is linear,
y* = S x, and every agent's discriminant at (x, y*) is affine,
delta = M x + c.  ``AffineSystem`` builds both once per network and
parameters, with one tie band per agent.  A profile is an equilibrium
candidate unless some agent's discriminant points against its action by more
than the agent's band; it is marginal when some discriminant lies inside its
band (a payoff tie that the inertia rule resolves).  The enumeration and the
single-profile ``candidate`` decide with the same arithmetic, and every kept
candidate must also pass the payoff-based Nash check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import analysis
from .dynamics import Trace, action_bracket, discriminant_from_sums, opinion_update
from .netcore import AgentParams, TwoLayerNetwork

FIXED_POINT_RESIDUAL_TOL = 1e-12
DEFAULT_N_MAX = 20
_BLOCK = 1 << 13  # profiles decided together by the enumeration


def _fixed_point(net: TwoLayerNetwork, params: AgentParams, rhs: np.ndarray) -> np.ndarray:
    """(I - diag(1 - lam) W)^-1 rhs: for rhs = lam * x the opinions that the
    opinion rule leaves invariant under actions x, for rhs = diag(lam) the
    matrix S of y* = S x."""
    system = np.eye(net.n) - (1.0 - params.lam)[:, None] * net.W.weights
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for row-stochastic W, lam>0
        raise ArithmeticError("opinion fixed-point system is singular") from exc


def _check_residual(x: np.ndarray, y: np.ndarray, net: TwoLayerNetwork, params: AgentParams):
    """Raise unless the opinion rule moves no opinion of ``y`` by more than
    FIXED_POINT_RESIDUAL_TOL under actions ``x`` (agents on the last axis)."""
    moved = y - opinion_update((net.W.weights @ y.T).T, x, params.lam)
    residual = np.max(np.abs(moved), initial=0.0)
    if residual > FIXED_POINT_RESIDUAL_TOL:
        raise ArithmeticError(f"fixed-point residual {residual:.3e} above tolerance")


def opinion_fixed_point(
    x: np.ndarray, net: TwoLayerNetwork, params: AgentParams
) -> np.ndarray:
    """Unique opinions left invariant by the opinion update when actions are
    frozen at ``x``; solved directly, residual at most 1e-12."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise ValueError("action profile size must match the network")
    y = _fixed_point(net, params, params.lam * x)
    _check_residual(x, y, net, params)
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


def _profiles(k: int) -> np.ndarray:
    """All 2^k action profiles of k agents as floats, in lexicographic order
    with -1 < +1 and the first agent most significant."""
    codes = np.arange(1 << k)
    return 2.0 * ((codes[:, None] >> np.arange(k - 1, -1, -1)) & 1) - 1.0


def _sum_by_agent(start: np.ndarray, xs: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """start + xs @ gain, accumulated one agent (column of ``xs``) at a time.
    A BLAS product's bits depend on how many rows it multiplies; these do not."""
    out = np.tile(start, (len(xs), 1))
    for j in range(xs.shape[1]):
        out += xs[:, j, None] * gain[j]
    return out


@dataclass(frozen=True)
class AffineSystem:
    """The affine map F(x) = (x, M x + c, S x) of an action profile x, whose
    parts are the profile, the discriminants delta and the opinion fixed
    point y*, plus the tie band of each agent's discriminant.

    F is summed agent by agent over the leading n - n // 2 agents (from the
    offset (0, c, 0)) and over the trailing n // 2 (from zero), so a profile
    evaluated alone gets the same bits as the sum of its two rows in the
    tables over all half-profiles, from which the enumeration reads it.
    """

    gain: np.ndarray  # row j: what agent j's action adds to F
    offset: np.ndarray
    band: np.ndarray  # |delta_i| <= band_i is a tie

    @classmethod
    def of(cls, net: TwoLayerNetwork, params: AgentParams) -> "AffineSystem":
        # y* = S x is linear and the action bracket affine in x, so every
        # discriminant is affine in the profile: delta(x) = M x + c.
        n, a = net.n, net.A.weights
        s = _fixed_point(net, params, np.diag(params.lam))
        slope = action_bracket(1.0, params.alpha) - action_bracket(0.0, params.alpha)
        m_t = discriminant_from_sums(slope * a.T, (net.W.weights @ s).T, params)
        c = discriminant_from_sums(a @ action_bracket(np.zeros(n), params.alpha), 0.0, params)
        # Round-off in delta_i is a few ulps of the magnitudes it sums; a band of
        # 1e-12 of them decides ties by the model, not by the last bits.
        band = 1e-12 * (np.abs(c) + np.abs(m_t).sum(axis=0))
        zeros = np.zeros(n)
        return cls(np.hstack([np.eye(n), m_t, s.T]), np.concatenate([zeros, c, zeros]), band)

    def halves(self, x: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """F's parts from the leading and the trailing agents: of the one
        profile ``x`` (floats), or by default over every half-profile in
        lexicographic order, so that profile code p * 2^(n // 2) + q has
        F = lead[p] + trail[q]."""
        n = len(self.band)
        k = n - n // 2
        lead, trail = (_profiles(k), _profiles(n - k)) if x is None else (x[None, :k], x[None, k:])
        return (_sum_by_agent(self.offset, lead, self.gain[:k]),
                _sum_by_agent(np.zeros_like(self.offset), trail, self.gain[k:]))

    def consistent(self, rows: np.ndarray) -> np.ndarray:
        """False where some agent's discriminant points against its action by
        more than its tie band; actions are +-1, so x * delta is exact."""
        x, delta, _ = np.split(rows, 3, axis=-1)
        return ~np.any(x * delta < -self.band, axis=-1)

    def marginal(self, rows: np.ndarray) -> np.ndarray:
        """True where some agent's discriminant lies inside its tie band."""
        return np.any(np.abs(np.split(rows, 3, axis=-1)[1]) <= self.band, axis=-1)


@dataclass(frozen=True)
class EquilibriumCandidate:
    """An action profile with its exact opinion fixed point, clipped to
    [-1, 1].

    ``consistent`` means no agent's discriminant contradicts its action beyond
    the agent's tie band (ties impose nothing, matching the inertia rule);
    ``marginal`` flags profiles where some discriminant lies inside its band.
    """

    x: np.ndarray
    y_star: np.ndarray
    delta: np.ndarray
    consistent: bool
    marginal: bool


def _records(system: AffineSystem, rows: np.ndarray, net: TwoLayerNetwork, params: AgentParams):
    """Candidates for the profiles whose values of F are ``rows``.  The
    opinions y* are clipped to [-1, 1], which round-off in S x can overshoot
    by a few ulps, as ``PopulationState`` clips a state."""
    x, delta, y = np.split(rows, 3, axis=-1)
    _check_residual(x, y, net, params)
    y = np.clip(y, -1.0, 1.0)
    flags = zip(system.consistent(rows).tolist(), system.marginal(rows).tolist())
    return [
        EquilibriumCandidate(x=xi, y_star=yi, delta=di, consistent=ci, marginal=mi)
        for xi, yi, di, (ci, mi) in zip(x.astype(int), y, delta, flags)
    ]


def candidate(
    net: TwoLayerNetwork, params: AgentParams, x: np.ndarray
) -> EquilibriumCandidate:
    """The equilibrium candidate of one action profile; for a consistent
    profile it equals the enumeration's record bit for bit."""
    x = np.asarray(x)
    if x.shape != (net.n,):
        raise ValueError("action profile size must match the network")
    if not np.all((x == 1) | (x == -1)):
        raise ValueError("actions must be exactly -1 or +1")
    system = AffineSystem.of(net, params)
    lead, trail = system.halves(x.astype(float))
    return _records(system, lead + trail, net, params)[0]


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
    system = AffineSystem.of(net, params)
    lead, trail = system.halves()
    step = max(1, _BLOCK // len(trail))
    kept: list[EquilibriumCandidate] = []
    for start in range(0, len(lead), step):
        # profiles in lexicographic order, -1 < +1, agent 0 most significant
        rows = (lead[start:start + step, None] + trail).reshape(-1, 3 * n)
        rows = rows[system.consistent(rows)]
        x, _, y = np.split(rows, 3, axis=-1)
        slack = analysis.nash_slack(x, y, net, params)
        failed = np.flatnonzero(np.any(slack < -analysis.NASH_TOL, axis=-1))
        if failed.size:
            row = failed[0]
            raise ArithmeticError(
                f"consistent candidate {x[row].astype(int).tolist()} fails the Nash check "
                f"(worst slack {slack[row].min():.3e})"
            )
        kept += _records(system, rows, net, params)
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
    y_star = opinion_fixed_point(final.actions, net, params)
    gaps = np.abs(final.opinions - y_star)
    gap = float(gaps.max())
    if gap > opinion_tol:
        for i in np.flatnonzero(gaps > opinion_tol):
            issues.append(
                f"agent {i + 1}: opinion {final.opinions[i]:.12g} is {gaps[i]:.3e} "
                f"away from the fixed point {y_star[i]:.12g}"
            )
    membership_checked = net.n <= n_max
    if membership_checked and not candidate(net, params, final.actions).consistent:
        issues.append("terminal action profile is not an equilibrium candidate")
    return CrossValidation(
        ok=not issues,
        issues=tuple(issues),
        membership_checked=membership_checked,
        opinion_gap=gap,
    )
