"""Asynchronous best-response engine: the action discriminant, the joint
action/opinion update, activation schedules with persistence certificates,
the simulation loop, and trace export.

Within one step every active agent evaluates the pre-step state, so
simultaneous activation is order-free.  The action sum runs over the
others only, since the action layer has no self-loops (``TwoLayerNetwork``
rejects them); the opinion sum includes an agent's own opinion weight.

The engine is single-threaded and deterministic.  Runs are pure functions of
immutable inputs, so independent simulations (different seeds or parameters)
may execute in parallel with no shared mutable state.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .netcore import (
    AgentParams,
    PopulationState,
    TwoLayerNetwork,
    atomic_write_lines,
    check_integer,
    clip_opinion,
)

DEFAULT_OPINION_TOL = 1e-10
# Uniform-random activations drawn per generator call; numpy's bounded
# integers give the same stream whether drawn one at a time or in blocks.
_DRAW_BLOCK = 1024


def action_bracket(x: np.ndarray, alpha: float) -> np.ndarray:
    """Each neighbour's contribution 2x + alpha(1 + x) to the action sum of the
    discriminant, for actions ``x`` as floats."""
    return 2.0 * x + alpha * (1.0 + x)


def discriminant_coefficients(params: AgentParams, rows=slice(None)):
    """The weights of agents ``rows`` on their action sum and on their opinion
    sum in the discriminant (arrays for the default ``rows``)."""
    lam, beta = params.lam[rows], params.beta[rows]
    return params.eps[rows] * lam * (1.0 - beta) / 2.0, 2.0 * (1.0 - lam) * lam * beta


def discriminant_from_sums(
    action_sum: np.ndarray,
    opinion_sum: np.ndarray,
    params: AgentParams,
    rows=slice(None),
) -> np.ndarray:
    """Discriminant of agents ``rows`` from their neighbourhood sums, the row
    products of ``A[i]`` with ``action_bracket(x)`` and of ``W[i]`` with ``y``.

    With the default ``rows`` the sums hold every agent on their last axis
    (leading batch axes broadcast); with one agent index they are scalars.
    """
    c_act, c_op = discriminant_coefficients(params, rows)
    return c_act * action_sum + c_op * opinion_sum


def opinion_update(opinion_sum, action, lam):
    """Opinion an agent adopts from its neighbourhood opinion sum (row ``W[i]``
    times ``y``) and its action: (1 - lam) W[i] y + lam x_i.  Elementwise."""
    return (1.0 - lam) * opinion_sum + lam * action


def _sums(z: PopulationState, net: TwoLayerNetwork, alpha: float, rows) -> np.ndarray:
    """Action and opinion sums of agents ``rows``, shape (agents, 2): one
    ``np.vecdot`` of each agent's stacked ``(A[i], W[i])`` rows with
    ``(action_bracket(x), y)``, the reduction every step evaluates."""
    state = np.stack((action_bracket(z.actions.astype(float), alpha), z.opinions))
    return np.vecdot(np.stack((net.A.weights[rows], net.W.weights[rows]), axis=1), state)


def _agent_ids(agents: Iterable[int], n: int) -> list[int]:
    """``agents`` as Python ints, each an agent id in 0..n-1."""
    ids = [check_integer("agent", i) for i in agents]
    for i in ids:
        if not 0 <= i < n:
            raise IndexError(f"agent id {i} out of range for n={n}")
    return ids


def discriminants(
    z: PopulationState,
    net: TwoLayerNetwork,
    params: AgentParams,
    agents: Sequence[int] | None = None,
) -> np.ndarray:
    """Discriminant of every agent at state ``z``, or of ``agents`` in order.

    Positive favours action +1, negative favours -1, zero triggers inertia.
    Every agent's value has the bits the simulation steps compute, so the
    full form and any selection agree exactly.
    """
    rows = slice(None) if agents is None else _agent_ids(agents, z.n)
    sums = _sums(z, net, params.alpha, rows)
    return discriminant_from_sums(sums[:, 0], sums[:, 1], params, rows)


def discriminant(
    i: int, z: PopulationState, net: TwoLayerNetwork, params: AgentParams
) -> float:
    """Discriminant of a single agent (index 0-based)."""
    return float(discriminants(z, net, params, (i,))[0])


def sign_with_inertia(delta: float, x_current: int) -> int:
    """Best-response action: the sign of ``delta``, keeping the current action
    when ``delta`` is 0."""
    if delta > 0.0:
        return 1
    if delta < 0.0:
        return -1
    return int(x_current)


def step(
    z: PopulationState,
    active: Iterable[int],
    net: TwoLayerNetwork,
    params: AgentParams,
) -> PopulationState:
    """One synchronous-within-step update of the agents in ``active``.

    Active agents adopt the discriminant's action and move their opinion to
    the convex mix of neighbourhood opinion and the new action; everyone else
    is carried over bitwise.  All discriminants see the pre-step state.
    """
    idx = sorted(set(_agent_ids(active, z.n)))
    if not idx:
        return z
    x_new = z.actions.copy()
    y_new = z.opinions.copy()
    sums = _sums(z, net, params.alpha, idx)
    deltas = discriminant_from_sums(sums[:, 0], sums[:, 1], params, idx)
    for i, delta, opinion_sum in zip(idx, deltas.tolist(), sums[:, 1].tolist()):
        s = sign_with_inertia(delta, int(z.actions[i]))
        x_new[i] = s
        y_new[i] = opinion_update(opinion_sum, s, params.lam[i])
    return PopulationState(actions=x_new, opinions=y_new)


# --- activation schedules ----------------------------------------------------


@dataclass(frozen=True)
class ActivationSchedule:
    """Sequence of active-agent sets with a persistence certificate.

    ``persistence`` is the smallest window length T such that every agent is
    active at least once in every length-T window, or None when no finite
    bound is certified (uniform-random schedules, or explicit prefixes that
    never cover).
    """

    kind: str  # "round_robin" | "uniform_random" | "explicit"
    n: int
    seed: int | None = None
    explicit_sets: tuple[frozenset, ...] = ()
    persistence: int | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_integer("n", self.n))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_integer("seed", self.seed))
        if self.n < 1:
            raise ValueError("schedule needs at least one agent")
        if self.kind == "round_robin":
            object.__setattr__(self, "persistence", self.n)
        elif self.kind == "uniform_random":
            if self.seed is None or self.seed < 0:
                raise ValueError("uniform_random schedule needs a non-negative seed")
        elif self.kind == "explicit":
            sets = tuple(frozenset(check_integer("agent", i) for i in s) for s in self.explicit_sets)
            if not sets:
                raise ValueError("explicit schedule needs at least one step")
            if any(i < 0 or i >= self.n for s in sets for i in s):
                raise ValueError("explicit schedule references unknown agents")
            object.__setattr__(self, "explicit_sets", sets)
            object.__setattr__(self, "persistence", _scan_persistence(sets, self.n))
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def round_robin(cls, n: int) -> "ActivationSchedule":
        return cls(kind="round_robin", n=n)

    @classmethod
    def uniform_random(cls, n: int, seed: int) -> "ActivationSchedule":
        return cls(kind="uniform_random", n=n, seed=seed)

    @classmethod
    def explicit(cls, n: int, sets: Sequence[Iterable[int]]) -> "ActivationSchedule":
        return cls(kind="explicit", n=n, explicit_sets=tuple(frozenset(s) for s in sets))

    def iter_sets(self) -> Iterator[frozenset]:
        """Deterministic stream of active sets (fresh, replayable)."""
        if self.kind == "round_robin":
            i = 0
            while True:
                yield frozenset((i,))
                i = (i + 1) % self.n
        elif self.kind == "uniform_random":
            rng = np.random.default_rng(self.seed)
            while True:
                for i in rng.integers(self.n, size=_DRAW_BLOCK).tolist():
                    yield frozenset((i,))
        else:
            yield from self.explicit_sets


def _covers(sets: Iterable[Iterable[int]], n: int) -> Iterator[tuple[list[int], int | None]]:
    """Each step's active agents in ascending order, with the realized cover
    so far: the longest of the shortest all-agent windows ending at each step
    up to this one, None until every agent has been active."""
    last_seen: dict[int, int] = {}  # agent -> last active step, least recent first
    cover = None
    for t, active in enumerate(sets):
        agents = sorted(active)
        for i in agents:
            last_seen.pop(i, None)
            last_seen[i] = t
        if len(last_seen) == n:
            span = t - next(iter(last_seen.values())) + 1
            cover = span if cover is None else max(cover, span)
        yield agents, cover


def _scan_persistence(sets: Iterable[frozenset], n: int) -> int | None:
    """Smallest T such that every length-T window inside the prefix covers all
    agents; None when even the full prefix misses someone.

    A length-T window ending at step e covers iff T is at least the shortest
    covering span ending there, so T must reach the first covered step
    (counted from 1) and the realized cover of the whole prefix.
    """
    uncovered, cover = 0, None
    for _, cover in _covers(sets, n):
        uncovered += cover is None
    return None if cover is None else max(uncovered + 1, cover)


def verify_persistence(
    schedule: ActivationSchedule, horizon: int
) -> int | None:
    """Certified persistence bound over the first ``horizon`` steps."""
    if check_integer("horizon", horizon) < 1:
        raise ValueError("horizon must be positive")
    return _scan_persistence(itertools.islice(schedule.iter_sets(), horizon), schedule.n)


# --- simulation --------------------------------------------------------------


@dataclass(frozen=True)
class StopCriterion:
    """Termination rule: quiet window on actions and opinion residuals, with a
    hard step cap."""

    max_steps: int
    opinion_tol: float = DEFAULT_OPINION_TOL
    window: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_steps", check_integer("max_steps", self.max_steps))
        if self.window is not None:
            object.__setattr__(self, "window", check_integer("window", self.window))
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if not 0.0 < self.opinion_tol < math.inf:  # also rejects NaN
            raise ValueError("opinion_tol must be positive and finite")
        if self.window is not None and not 1 <= self.window <= self.max_steps:
            raise ValueError("window must satisfy 1 <= window <= max_steps")


@dataclass(frozen=True)
class Trace:
    """Record of one run: the initial state, the final state and a step log.

    ``log[t - 1]`` holds the updates of step t (1-based), one
    ``(i, x_i, y_i, delta_i)`` tuple per active agent in agent order: agent i
    had discriminant delta_i and took action x_i and opinion y_i.  A step with
    an empty active set has an empty entry, so ``steps == len(log)``.

    ``states[t]`` is the state after step t (``states[0]`` is ``z0``), so
    ``states`` has one more entry than ``active`` and ``deltas``.  These three
    are replayed from the log on first access and kept from then on.
    """

    z0: PopulationState
    log: tuple[tuple[tuple[int, int, float, float], ...], ...]
    final_state: PopulationState
    reason: str  # "converged" | "max_steps" | "schedule_exhausted"
    schedule_kind: str
    seed: int | None
    window_used: int | None
    realized_cover: int | None
    fixed_point_gap: float | None
    params: AgentParams
    net: TwoLayerNetwork

    @property
    def steps(self) -> int:
        return len(self.log)

    @property
    def converged(self) -> bool:
        return self.reason == "converged"

    def final(self) -> PopulationState:
        return self.final_state

    @cached_property
    def states(self) -> tuple[PopulationState, ...]:
        x, y = self.z0.actions.copy(), self.z0.opinions.copy()
        states = [self.z0]
        for updates in self.log:
            for i, x_i, y_i, _ in updates:
                x[i], y[i] = x_i, y_i
            states.append(PopulationState(actions=x, opinions=y) if updates else states[-1])
        return tuple(states)

    @cached_property
    def active(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(u[0] for u in updates) for updates in self.log)

    @cached_property
    def deltas(self) -> tuple[dict, ...]:
        return tuple({u[0]: u[3] for u in updates} for updates in self.log)

    def last_action_change(self) -> int:
        """Index of the last step whose action profile differs from its
        predecessor's; 0 when actions never change."""
        x = self.z0.actions.tolist()
        last = 0
        for t, updates in enumerate(self.log, 1):
            for i, x_i, _, _ in updates:
                if x_i != x[i]:
                    x[i] = x_i
                    last = t
        return last


def simulate(
    z0: PopulationState,
    net: TwoLayerNetwork,
    params: AgentParams,
    schedule: ActivationSchedule,
    stop: StopCriterion,
) -> Trace:
    """Run the engine until the stop criterion fires.

    Convergence means: no action changed and every opinion moved less than
    ``stop.opinion_tol`` throughout the trailing window.  For round-robin the
    window defaults to the certified bound n; for uniform-random it is
    max(ceil(n ln n), realized cover bound), and no convergence is declared
    before every agent has been active at least once.  When the run converges
    the terminal opinions are compared against the exact opinion fixed point
    for the terminal actions, recorded as ``fixed_point_gap``.

    The state is updated in place and each step's updates are logged; every
    agent's arithmetic is that of ``step``, so the states equal repeated
    ``step`` calls bitwise.
    """
    n = z0.n
    if net.n != n or params.n != n or schedule.n != n:
        raise ValueError("state, network, params, and schedule sizes must agree")

    # per-run constants: each agent's stacked (A[i], W[i]) rows, coefficients
    # and opinion weight; bracket and y are in-place views of one (2, n) state
    rows = list(np.stack((net.A.weights, net.W.weights), axis=1))
    lam, alpha = params.lam.tolist(), params.alpha
    c_act, c_op = (c.tolist() for c in discriminant_coefficients(params))
    x = z0.actions.tolist()
    state = np.stack((action_bracket(z0.actions.astype(float), alpha), z0.opinions))
    bracket, y = state
    log: list[tuple[tuple[int, int, float, float], ...]] = []

    quiet_since = -1  # last step that flipped an action or moved an opinion by opinion_tol

    fixed_window = stop.window if stop.window is not None else schedule.persistence
    fallback_window = max(1, math.ceil(n * math.log(max(n, 2))))
    window_used: int | None = None

    sets = itertools.islice(schedule.iter_sets(), stop.max_steps)
    for t, (active, realized_cover) in enumerate(_covers(sets, n)):
        updates = []
        for i in active:  # every active agent reads the pre-step state
            action_sum, opinion_sum = np.vecdot(rows[i], state).tolist()
            # discriminant_from_sums with the run's coefficients: the same bits
            delta = c_act[i] * action_sum + c_op[i] * opinion_sum
            s = sign_with_inertia(delta, x[i])
            updates.append((i, s, clip_opinion(opinion_update(opinion_sum, s, lam[i])), delta))
        for i, s, y_i, _ in updates:
            if s != x[i]:
                x[i] = s
                bracket[i] = action_bracket(float(s), alpha)
                quiet_since = t
            elif abs(y_i - float(y[i])) >= stop.opinion_tol:
                quiet_since = t
            y[i] = y_i
        log.append(tuple(updates))

        if fixed_window is not None:
            window = fixed_window
        elif realized_cover is None:
            continue
        else:
            window = max(fallback_window, realized_cover)
        window_used = window

        if t - quiet_since >= window:
            reason = "converged"
            break
    else:
        reason = "schedule_exhausted" if len(log) < stop.max_steps else "max_steps"

    final = PopulationState(actions=x, opinions=y)
    gap: float | None = None
    if reason == "converged":
        from .oracle import opinion_fixed_point  # deferred: oracle imports dynamics

        y_star = opinion_fixed_point(final.actions, net, params)
        gap = float(np.max(np.abs(final.opinions - y_star)))

    return Trace(
        z0=z0,
        log=tuple(log),
        final_state=final,
        reason=reason,
        schedule_kind=schedule.kind,
        seed=schedule.seed,
        window_used=window_used,
        realized_cover=realized_cover,
        fixed_point_gap=gap,
        params=params,
        net=net,
    )


# --- trace export ------------------------------------------------------------


def _cell_rows(trace: Trace, sep: str, y_cell) -> Iterator[tuple[int, tuple, str, list]]:
    """``(t, updates of step t, action cells joined by sep, opinion cells)``
    for t = 0..steps.

    The actions are re-joined only in a step that flips one.  Each agent's
    opinion cell is formatted once and again only when a step updates that
    agent; the opinion cell list is the same object at every yield.
    """
    x = trace.z0.actions.tolist()
    y = [y_cell(v) for v in trace.z0.opinions.tolist()]
    x_text = sep.join(map(str, x))
    yield 0, (), x_text, y
    for t, updates in enumerate(trace.log, 1):
        flipped = False
        for i, x_i, y_i, _ in updates:
            if x_i != x[i]:
                x[i], flipped = x_i, True
            y[i] = y_cell(y_i)
        if flipped:
            x_text = sep.join(map(str, x))
        yield t, updates, x_text, y


def write_trace_jsonl(trace: Trace, path: str) -> None:
    """One record per step (plus a t=0 record); agent ids are 1-based.

    Each line is ``json.dumps(record, sort_keys=True)`` of the record, joined
    by hand: ``repr`` is json's float format, and sort_keys orders the delta
    keys as strings, so "10" comes before "9".
    """

    ids = [str(i + 1) for i in range(trace.z0.n)]
    keys = [f'"{i}": ' for i in ids]

    def lines() -> Iterator[str]:
        for t, updates, x, y in _cell_rows(trace, ", ", repr):
            active = ", ".join([ids[u[0]] for u in updates])
            keyed = sorted(updates, key=lambda u: ids[u[0]]) if len(updates) > 1 else updates
            delta = ", ".join([keys[u[0]] + repr(u[3]) for u in keyed])
            yield (
                f'{{"active": [{active}], "delta": {{{delta}}}, "t": {t}, '
                f'"x": [{x}], "y": [{", ".join(y)}]}}'
            )

    atomic_write_lines(path, lines())


def read_trace_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def write_trace_csv(trace: Trace, path: str) -> None:
    """Compact per-step table: t, x_1..x_n, y_1..y_n."""
    n = trace.z0.n
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)]
    rows = (
        f"{t},{x},{','.join(y)}"
        for t, _, x, y in _cell_rows(trace, ",", lambda v: f"{v:.17g}")
    )
    atomic_write_lines(path, itertools.chain([",".join(header)], rows))


def read_trace_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))
