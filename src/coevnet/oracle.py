"""Ground-truth machinery: exact opinion fixed points for frozen actions and
exhaustive equilibrium enumeration for small populations.

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
from .dynamics import action_bracket, discriminant_from_sums, opinion_update
from .netcore import AgentParams, TwoLayerNetwork

FIXED_POINT_RESIDUAL_TOL = 1e-12
DEFAULT_N_MAX = 20
_CHUNK = 1 << 9  # prefix rows that the enumeration extends together


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


def _sum_by_agent(start: np.ndarray, xs: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """start + xs @ gain, accumulated one agent (column of ``xs``) at a time.
    A BLAS product's bits depend on how many rows it multiplies; these do not."""
    out = np.tile(start, (len(xs), 1))
    for j in range(xs.shape[1]):
        out += xs[:, j, None] * gain[j]
    return out


def _parts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the profile, discriminant and opinion columns of rows of F."""
    n = rows.shape[-1] // 3
    return rows[..., :n], rows[..., n:2 * n], rows[..., 2 * n:]


@dataclass(frozen=True)
class AffineSystem:
    """The affine map F(x) = (x, M x + c, S x) of an action profile x, whose
    parts are the profile, the discriminants delta and the opinion fixed
    point y*, plus the tie band of each agent's discriminant.

    F is summed agent by agent in order 0..n-1 from the offset (0, c, 0), as
    ``_sum_by_agent`` sums it.  Actions are +-1, so each agent adds or
    subtracts its gain row exactly, and the enumeration, which extends
    prefixes of a profile one agent at a time, reaches the same bits as
    ``candidate`` does for the profile alone.
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

    def consistent(self, rows: np.ndarray, slack=0.0) -> np.ndarray:
        """False where some agent's discriminant points against its action by
        more than its tie band plus ``slack``; actions are +-1, or 0 for the
        agents a prefix of a profile leaves unset, so x * delta is exact."""
        x, delta, _ = _parts(rows)
        return ~(x * delta < -(self.band + slack)).any(axis=-1)

    def marginal(self, rows: np.ndarray) -> np.ndarray:
        """True where some agent's discriminant lies inside its tie band."""
        return (np.abs(_parts(rows)[1]) <= self.band).any(axis=-1)


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
    x, delta, y = _parts(rows)
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
    if x.dtype == bool or not np.all((x == 1) | (x == -1)):
        raise ValueError("actions must be exactly -1 or +1")
    system = AffineSystem.of(net, params)
    rows = _sum_by_agent(system.offset, x[None].astype(float), system.gain)
    return _records(system, rows, net, params)[0]


def enumerate_equilibria(
    net: TwoLayerNetwork,
    params: AgentParams,
    n_max: int = DEFAULT_N_MAX,
) -> list:
    """All consistent candidates over every action profile, in lexicographic
    profile order.  Every returned candidate also passes the payoff-based Nash
    check; a consistent candidate that fails it raises ArithmeticError.

    A prefix row, which sets agents 0..j-1, is extended by -gain[j] and
    +gain[j], what ``_sum_by_agent`` adds, so every profile gets
    ``candidate``'s bits.  A prefix is dropped once some agent i it sets has
    x_i delta_i < -(rest_i + 2 band_i): rest_i, the sum of |M_il| over the
    unset agents l, bounds what they can still add, and the second band
    covers the round-off of those additions, so nothing the test on the
    whole profile keeps is lost.  Prefixes are extended depth-first in
    chunks of at most _CHUNK rows, which bounds the memory and keeps the
    profiles in lexicographic order.
    """
    n = net.n
    if n > n_max:
        raise ValueError(f"enumeration supports at most n_max={n_max} agents, got {n}")
    system = AffineSystem.of(net, params)
    # row j: sum of |M_il| over the agents l > j, which a prefix up to j leaves unset
    rest = np.cumsum(np.abs(system.gain[:0:-1, n:2 * n]), axis=0)[::-1]
    slack = np.vstack([rest + system.band, np.zeros((1, n))])
    signed = np.stack([-system.gain, system.gain], axis=1)  # agent j's -1 and +1 rows
    kept: list[EquilibriumCandidate] = []
    pending = [(0, system.offset[None])]  # (agent to set next, prefix rows)
    while pending:
        j, rows = pending.pop()
        # -1 < +1 and agent 0 most significant: each row's two children in turn
        rows = (rows[:, None] + signed[j]).reshape(-1, 3 * n)
        rows = rows[system.consistent(rows, slack[j])]
        if j + 1 < n:  # copies, so that no pending chunk keeps its siblings alive
            pending += [(j + 1, rows[s:s + _CHUNK].copy())
                        for s in reversed(range(0, len(rows), _CHUNK))]
            continue
        x, _, y = _parts(rows)
        nash = analysis.nash_slack(x, y, net, params)
        failed = np.flatnonzero(np.any(nash < -analysis.NASH_TOL, axis=-1))
        if failed.size:
            row = failed[0]
            raise ArithmeticError(
                f"consistent candidate {x[row].astype(int).tolist()} fails the Nash check "
                f"(worst slack {nash[row].min():.3e})"
            )
        kept += _records(system, rows, net, params)
    return kept


def equilibria_to_json(candidates: list) -> str:
    records = [
        {"x": c.x.tolist(), "y": c.y_star.tolist(), "marginal": c.marginal}
        for c in candidates
    ]
    return json.dumps(records, sort_keys=True)

