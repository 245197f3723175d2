"""Payoff evaluation, analytic best responses, Nash-equilibrium verification,
the ordinal potential for anti-coordinating populations, the six condition
checkers, and the (beta, lambda) contour functions behind them.

Checker ids (also the CLI vocabulary): thm2, thm3, thm5, thm6, thm7, eq22.
Every checker reports per-condition margins; ``applicable`` is false whenever
a prerequisite fails, and then the verdict can never be "holds".

All operations are pure functions of immutable inputs; contour cells are
independent and safe to evaluate in parallel.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import Trace, opinion_update
from .netcore import (
    AgentParams,
    PopulationState,
    TwoLayerNetwork,
    check_partition,
    classify_state,
    partition_state,
    within_mass,
)

NASH_TOL = 1e-10

# --- payoffs and best responses ----------------------------------------------


def payoff(
    i: int,
    candidate: tuple,
    z: PopulationState,
    net: TwoLayerNetwork,
    params: AgentParams,
) -> float:
    """Payoff agent i would earn by playing ``candidate`` = (action, opinion)
    while everyone else keeps their profile from ``z``.

    The action layer has no self-loops (``TwoLayerNetwork`` rejects them),
    so the game term is over the others.  An opinion self-weight w_ii pairs
    the candidate opinion with the agent's current opinion z.opinions[i]: it
    anchors the agent, and it makes the opinion update the best response.
    """
    x_hat, y_hat = int(candidate[0]), float(candidate[1])
    if x_hat not in (-1, 1):
        raise ValueError("candidate action must be -1 or +1")
    if abs(y_hat) > 1.0:
        raise ValueError("candidate opinion must lie in [-1, 1]")
    sums = _neighbourhood(z.actions.astype(float), z.opinions, net, i)
    return float(_payoffs(x_hat, y_hat, sums, params)[i])


def _neighbourhood(
    x: np.ndarray, y: np.ndarray, net: TwoLayerNetwork, agents=slice(None)
) -> tuple:
    """Each agent's weighted sums over the profile of actions ``x`` and
    opinions ``y`` (agents on the last axis, leading axes batch profiles): of
    a_ij (1 - x_j) and a_ij (1 + x_j) on the action layer, which has no
    self-loops; of w_ij, w_ij y_j and w_ij y_j^2 on the opinion layer, where
    j = i is the agent's current opinion.  ``agents`` selects the rows i."""
    A, W = net.A.weights[agents], net.W.weights[agents]
    sa, ma = A.sum(axis=-1), (A @ x.T).T
    return sa - ma, sa + ma, W.sum(axis=-1), (W @ y.T).T, (W @ (y * y).T).T


def _pair_weight(xa, xb, alpha: float):
    """Weight of an action pair in the coordination payoff and in the
    potential's game term; symmetric in the two actions and elementwise over
    arrays."""
    return (1.0 - xa) * (1.0 - xb) + (1.0 + alpha) * ((1.0 + xa) * (1.0 + xb))


def _payoffs(x_hat, y_hat, sums: tuple, params: AgentParams) -> np.ndarray:
    """Payoff of every agent i playing (x_hat[i], y_hat[i]) against the
    profile summed by ``_neighbourhood``: the coordination game over the
    action layer, disagreement with the opinion layer, and the distance
    between the agent's own opinion and action."""
    a_minus, a_plus, sw, sig, qw = sums
    lam, beta, alpha = params.lam, params.beta, params.alpha
    # sum over neighbours j of a_ij * pair(x_hat_i, x_j)
    pairs = (1.0 - x_hat) * a_minus + (1.0 + alpha) * (1.0 + x_hat) * a_plus
    coordination = params.eps * lam * (1.0 - beta) / 4.0 * pairs
    social = -0.5 * (1.0 - lam) * beta * (y_hat * y_hat * sw - 2.0 * y_hat * sig + qw)
    consistency = -0.5 * lam * beta * (y_hat - x_hat) ** 2
    return coordination + social + consistency


def _branch(action: float, sums: tuple, params: AgentParams) -> tuple[np.ndarray, np.ndarray]:
    """Best payoff and optimal opinion of every agent when it plays ``action``:
    the opinion solves the first-order condition of the concave opinion
    terms, clipped to [-1, 1]."""
    sw, sig = sums[2], sums[3]
    lam = params.lam
    y_opt = np.clip(opinion_update(sig, action, lam) / ((1.0 - lam) * sw + lam), -1.0, 1.0)
    return _payoffs(action, y_opt, sums, params), y_opt


def best_response_set(
    i: int,
    z: PopulationState,
    net: TwoLayerNetwork,
    params: AgentParams,
    tie_tol: float = 0.0,
) -> tuple:
    """Maximising (action, opinion) pairs for agent i against ``z``.

    Returns one pair, or both branch optima when their payoffs tie within
    ``tie_tol`` (ordered action -1 first on ties).
    """
    sums = _neighbourhood(z.actions.astype(float), z.opinions, net)
    f_plus, y_plus = _branch(1.0, sums, params)
    f_minus, y_minus = _branch(-1.0, sums, params)
    fp, fm = float(f_plus[i]), float(f_minus[i])
    if abs(fp - fm) <= tie_tol:
        return ((-1, float(y_minus[i])), (1, float(y_plus[i])))
    if fp > fm:
        return ((1, float(y_plus[i])),)
    return ((-1, float(y_minus[i])),)


@dataclass(frozen=True)
class NashReport:
    holds: bool
    slack: np.ndarray  # payoff of the played profile minus the best deviation
    tol: float

    def worst(self) -> float:
        return float(self.slack.min())


def nash_slack(
    x: np.ndarray, y: np.ndarray, net: TwoLayerNetwork, params: AgentParams
) -> np.ndarray:
    """Payoff of every agent's played (x_i, y_i) minus its best deviation, for
    actions ``x`` (floats) and opinions ``y`` with agents on the last axis;
    leading axes batch profiles."""
    sums = _neighbourhood(x, y, net)
    best = np.maximum(_branch(1.0, sums, params)[0], _branch(-1.0, sums, params)[0])
    return _payoffs(x, y, sums, params) - best


def is_nash(
    z: PopulationState,
    net: TwoLayerNetwork,
    params: AgentParams,
    tol: float = NASH_TOL,
) -> NashReport:
    """Whether every agent already plays a best response, within payoff ``tol``."""
    slack = nash_slack(z.actions.astype(float), z.opinions, net, params)
    slack.setflags(write=False)
    return NashReport(holds=bool(np.all(slack >= -tol)), slack=slack, tol=tol)


# --- ordinal potential --------------------------------------------------------


@dataclass(frozen=True)
class PotentialValue:
    value: float
    valid: bool  # certificate meaningful: homogeneous anti-coordination, symmetric layers

    def __float__(self) -> float:
        return self.value


def _potential_weights(
    net: TwoLayerNetwork, params: AgentParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-agent game weight eta, the action layer (free of self-loops), and
    the per-agent consistency weight lam / (1 - lam)."""
    lam, beta = params.lam, params.beta
    eta = lam * (1.0 - beta) / (4.0 * beta * (1.0 - lam))
    return eta, net.A.weights, lam / (1.0 - lam)


def potential(
    z: PopulationState, net: TwoLayerNetwork, params: AgentParams
) -> PotentialValue:
    """Ordinal potential for homogeneous anti-coordinating populations on
    symmetric layers: it rises strictly whenever a unilateral revision
    strictly improves the reviser's own payoff (then the change equals the
    payoff change divided by beta*(1-lam)).

    The value is computed for any inputs; ``valid`` flags whether the
    certificate applies.
    """
    x = z.actions.astype(float)
    y = z.opinions
    W = net.W.weights
    eta, a, kappa = _potential_weights(net, params)
    pair = _pair_weight(x[:, None], x[None, :], params.alpha)
    game_term = -0.5 * float(eta @ (a * pair).sum(axis=1))
    social_term = -0.25 * float((W * (y[:, None] - y[None, :]) ** 2).sum())
    consistency_term = -0.5 * float(np.sum(kappa * (x - y) ** 2))
    valid = bool(
        params.homogeneous()
        and params.eps[0] == -1
        and net.A.symmetric
        and net.W.symmetric
    )
    return PotentialValue(value=game_term + social_term + consistency_term, valid=valid)


def potential_series(trace: Trace) -> list[float]:
    """``potential(trace.states[t]).value`` for t = 0..trace.steps, without
    building the states.

    The start value comes from ``potential``; each logged update of an agent k
    then adds the change of the terms that involve k, in O(n):
    the game term over k's pairs (only when k's action flips), the social term
    over k's opinion differences, and k's consistency term.  Summation order
    differs from ``potential``, so values agree to round-off (about 1e-14
    relative over thousands of steps), not bitwise.
    """
    net, params = trace.net, trace.params
    x = trace.z0.actions.astype(float)
    y = trace.z0.opinions.copy()
    x_list, y_list = x.tolist(), y.tolist()  # scalar reads, cheaper than numpy's
    eta, a, kappa = _potential_weights(net, params)
    one_sided = eta[:, None] * a
    game = one_sided + one_sided.T  # game[k, j]: weight of the pair (k, j), both sides
    social = net.W.weights + net.W.weights.T
    np.fill_diagonal(social, 0.0)
    social_sums, social_rows = social.sum(axis=1).tolist(), list(social)
    kappa = kappa.tolist()
    alpha = params.alpha

    value = potential(trace.z0, net, params).value
    series = [value]
    for updates in trace.log:
        for k, x_new, y_new, _ in updates:
            x_old, y_old = x_list[k], y_list[k]
            if x_new != x_old:
                pair_change = _pair_weight(x_new, x, alpha) - _pair_weight(x_old, x, alpha)
                value -= 0.5 * float(game[k] @ pair_change)
                x[k] = x_list[k] = float(x_new)
            # sum_j s_kj [(y_new - y_j)^2 - (y_old - y_j)^2], factored
            spread = (y_new + y_old) * social_sums[k] - 2.0 * float(social_rows[k] @ y)
            value -= 0.25 * (y_new - y_old) * spread
            value -= 0.5 * kappa[k] * ((x_new - y_new) ** 2 - (x_old - y_old) ** 2)
            y[k] = y_list[k] = y_new
        series.append(value)
    return series


# --- condition reports ---------------------------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    """One evaluated inequality: ``ok`` is the literal comparison outcome and
    ``slack`` is positive exactly when the condition is met with margin."""

    name: str
    lhs: float
    rhs: float
    ok: bool
    slack: float
    agent: int | None = None  # 0-based; serialized 1-based


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    applicable: bool
    rows: tuple = ()
    notes: tuple = ()

    @property
    def holds(self) -> bool:
        return self.applicable and all(row.ok for row in self.rows)

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "not applicable"
        return "holds" if self.holds else "fails"

    def to_dict(self) -> dict:
        per_agent = []
        for row in self.rows:
            entry = {
                "lhs": row.lhs,
                "rhs": row.rhs,
                "slack": row.slack,
                "ok": row.ok,
                "name": row.name,
            }
            if row.agent is not None:
                entry["i"] = row.agent + 1
            per_agent.append(entry)
        return {
            "theorem": self.theorem,
            "applicable": self.applicable,
            "holds": self.holds,
            "per_agent": per_agent,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _not_applicable(theorem: str, reasons: list) -> TheoremReport:
    return TheoremReport(theorem=theorem, applicable=False, notes=tuple(reasons))


def _prerequisites(
    net: TwoLayerNetwork,
    params: AgentParams,
    want_eps: int,
    *,
    require_symmetric: bool = True,
    require_same_layers_alpha_zero: bool = False,
) -> list:
    reasons = []
    if not params.homogeneous():
        reasons.append("parameters are heterogeneous")
    elif int(params.eps[0]) != want_eps:
        kind = "coordinating (+1)" if want_eps == 1 else "anti-coordinating (-1)"
        reasons.append(f"population must be {kind}")
    if require_symmetric and not (net.A.symmetric and net.W.symmetric):
        reasons.append("layers must be symmetric")
    if require_same_layers_alpha_zero:
        if not net.same_layers():
            reasons.append("layers must coincide (A = W)")
        if params.alpha != 0.0:
            reasons.append("alpha must be zero")
    return reasons


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def _rows(values: dict, bounds: tuple) -> list:
    """One row per agent of ``values`` (agent -> lhs) and per bound
    ``(name, rhs, sense)``, where ``sense`` is ">", ">=" or "<"; slack is
    positive on the satisfied side."""
    rows = []
    for i, lhs in values.items():
        for name, rhs, sense in bounds:
            slack = rhs - lhs if sense == "<" else lhs - rhs
            rows.append(ConditionRow(name, lhs, rhs, _COMPARE[sense](lhs, rhs), slack, i))
    return rows


def _camp_rows(
    net: TwoLayerNetwork, camps: tuple, pos_bounds: tuple, neg_bounds: tuple | None = None
) -> tuple:
    """Rows for the within-camp opinion-layer weight of every member of the
    (positive, negative) ``camps``: the positive camp against ``pos_bounds``,
    the negative one against ``neg_bounds`` (default: the same), each bound
    name prefixed by its camp tag."""
    rows = []
    for camp, tag, bounds in zip(camps, ("pos", "neg"), (pos_bounds, neg_bounds or pos_bounds)):
        tagged = tuple((f"{tag}_{name}", rhs, sense) for name, rhs, sense in bounds)
        rows += _rows(within_mass(camp, net.W), tagged)
    return tuple(rows)


def _polarized_camps(z0: PopulationState, reasons: list) -> tuple | None:
    """(positive, negative) camps of a polarized ``z0``; otherwise None, with
    the reason appended to ``reasons``."""
    classification = classify_state(z0)
    if classification.kind != "polarized":
        reasons.append("initial state must be polarized")
    return classification.partition


# --- checkers ------------------------------------------------------------------


def thm2_bounds(alpha: float) -> tuple:
    """(cohesive, diffusive) thresholds of thm2 on the action-layer camp ratio:
    the +1 camp keeps at least 1/(alpha+2), the -1 camp below (alpha+1)/(alpha+2)."""
    return 1.0 / (alpha + 2.0), (alpha + 1.0) / (alpha + 2.0)


def check_thm2(
    z0: PopulationState, net: TwoLayerNetwork, params: AgentParams
) -> TheoremReport:
    """Consensus basin for coordinating populations: positive initial opinions,
    a cohesive +1 camp, and a diffusive -1 camp on the action layer."""
    reasons = _prerequisites(net, params, want_eps=1)
    if not np.all((z0.opinions > 0.0) & (z0.opinions <= 1.0)):
        reasons.append("initial opinions must lie in (0, 1]")
    if reasons:
        return _not_applicable("thm2", reasons)
    parts = partition_state(z0)
    rows = []
    notes = []
    cohesive, diffusive = thm2_bounds(params.alpha)
    for camp, bound, empty_note in (
        (parts.pos_aligned, ("cohesive", cohesive, ">="),
         "+1 camp empty; cohesiveness vacuously satisfied"),
        (parts.neg_misaligned, ("diffusive", diffusive, "<"),
         "-1 camp empty; diffusiveness vacuously satisfied"),
    ):
        if not camp:
            notes.append(empty_note)
            continue
        ratios = {
            i: mass / float(net.A.weights[i].sum())
            for i, mass in within_mass(camp, net.A).items()
        }
        rows += _rows(ratios, (bound,))
    return TheoremReport("thm2", True, tuple(rows), tuple(notes))


def _action_floor(lam: float) -> float:
    """(1 - 2 lam) / (1 - lam), the within-camp weight floor that the thm3,
    thm7 and eq22 conditions share."""
    return (1.0 - 2.0 * lam) / (1.0 - lam)


def _thm3_branches(beta: float, lam: float) -> tuple:
    """Both candidate bounds of each camp: (vp branches, vn branches); the
    positive-camp threshold is the larger vp branch, the negative-camp one
    the smaller vn branch."""
    shared = (1.0 - beta) / (2.0 * (1.0 - lam * beta))
    return (_action_floor(lam), 1.0 - shared), (lam / (1.0 - lam), shared)


def thm3_vp_threshold(beta: float, lam: float) -> float:
    return max(_thm3_branches(beta, lam)[0])


def thm3_vn_threshold(beta: float, lam: float) -> float:
    return min(_thm3_branches(beta, lam)[1])


def check_thm3(
    z0: PopulationState, net: TwoLayerNetwork, params: AgentParams
) -> TheoremReport:
    """Polarized-to-consensus condition for coordinating populations with
    coinciding layers and no action bonus.

    Symmetry of the layer is deliberately not required: the per-row bounds
    below cannot hold on any symmetric matrix with equally sized camps, and
    the row-based induction behind the guarantee never uses symmetry.
    """
    reasons = _prerequisites(
        net, params, want_eps=1,
        require_symmetric=False, require_same_layers_alpha_zero=True,
    )
    camps = _polarized_camps(z0, reasons)
    if reasons:
        return _not_applicable("thm3", reasons)
    branch_vp, branch_vn = _thm3_branches(float(params.beta[0]), float(params.lam[0]))
    notes = (
        "pos camp bound binds at branch "
        + ("(1-2*lam)/(1-lam)" if branch_vp[0] >= branch_vp[1] else "1-(1-beta)/(2*(1-lam*beta))"),
        "neg camp bound binds at branch "
        + ("lam/(1-lam)" if branch_vn[0] <= branch_vn[1] else "(1-beta)/(2*(1-lam*beta))"),
    )
    rows = _camp_rows(
        net, camps, (("within_above", max(branch_vp), ">"),), (("within_below", min(branch_vn), "<"),)
    )
    return TheoremReport("thm3", True, rows, notes)


def thm5_rhs(beta: float, lam: float, alpha: float = 0.0) -> float:
    return 2.0 * (1.0 - lam) * beta / ((1.0 - beta) * (1.0 + alpha))


def check_thm5(net: TwoLayerNetwork, params: AgentParams) -> TheoremReport:
    """Existence of the all-plus consensus equilibrium for anti-coordinating
    populations: every action row sum must stay below a parameter threshold
    (equal to 1 for row-stochastic layers, so the verdict is one scalar
    comparison)."""
    reasons = _prerequisites(net, params, want_eps=-1)
    if reasons:
        return _not_applicable("thm5", reasons)
    lam = float(params.lam[0])
    beta = float(params.beta[0])
    rhs = thm5_rhs(beta, lam, params.alpha)
    sums = dict(enumerate(net.A.weights.sum(axis=1).tolist()))
    return TheoremReport("thm5", True, tuple(_rows(sums, (("row_sum_below", rhs, "<"),))))


@dataclass(frozen=True)
class PartitionDegrees:
    """Within-camp row-sum extremes of the opinion layer for a two-camp split."""

    d_p_min: float
    d_p_max: float
    d_n_min: float
    d_n_max: float


def partition_degrees(
    partition: tuple, net: TwoLayerNetwork
) -> PartitionDegrees:
    pos, neg = check_partition(partition, net.n)
    p_mass = list(within_mass(pos, net.W).values())
    n_mass = list(within_mass(neg, net.W).values())
    return PartitionDegrees(
        d_p_min=min(p_mass), d_p_max=max(p_mass),
        d_n_min=min(n_mass), d_n_max=max(n_mass),
    )


def check_thm6(
    partition: tuple, net: TwoLayerNetwork, params: AgentParams
) -> TheoremReport:
    """Existence of a polarized equilibrium for anti-coordinating populations,
    stated through within-camp degree extremes.

    All three inequalities are evaluated verbatim.  The third one
    (neg_action_margin) evaluates negative on complete-bipartite splits even
    though a polarized equilibrium demonstrably exists there; the brute-force
    enumeration is the ground truth for such audits, and this checker never
    reconciles the discrepancy silently.
    """
    reasons = _prerequisites(net, params, want_eps=-1, require_same_layers_alpha_zero=True)
    if reasons:
        return _not_applicable("thm6", reasons)
    degrees = partition_degrees(partition, net)
    lam = float(params.lam[0])
    beta = float(params.beta[0])
    dpm, dpM = degrees.d_p_min, degrees.d_p_max
    dnm, dnM = degrees.d_n_min, degrees.d_n_max

    lam_bound = max(
        (dpm - dnM) / (1.0 + dpm - dnm),
        (dnM - dpm) / (1.0 + dnM - dpm),
    )
    pos_margin = (lam * (dpm + dnM - 1.0) + dpm - dnM) / (
        1.0 - (1.0 - lam) * (dpM + dnM - 1.0)
    ) + (1.0 - beta) * (1.0 - 2.0 * dpM) / (2.0 * beta * (1.0 - lam))
    neg_margin = (lam * (dnm + dpM - 1.0) + dnm - dpM) / (
        1.0 - (1.0 - lam) * (dnM + dpM - 1.0)
    ) - (1.0 - beta) * (1.0 - 2.0 * dnM) / (2.0 * beta * (1.0 - lam))

    rows = (
        ConditionRow("lambda_bound", lam, lam_bound, lam > lam_bound, lam - lam_bound),
        ConditionRow("pos_action_margin", pos_margin, 0.0, pos_margin > 0.0, pos_margin),
        ConditionRow("neg_action_margin", neg_margin, 0.0, neg_margin > 0.0, neg_margin),
    )
    notes = []
    if not rows[2].ok and rows[0].ok and rows[1].ok:
        notes.append(
            "neg_action_margin fails as printed while the other conditions hold; "
            "cross-check against the enumeration oracle before trusting this verdict"
        )
    return TheoremReport("thm6", True, rows, tuple(notes))


def thm7_bounds(beta: float, lam: float) -> tuple:
    """(lower, upper) admissible within-camp weight for partition invariance."""
    lower = _action_floor(lam)
    denom = 2.0 * beta - beta * lam - 1.0
    upper = math.nan if denom == 0.0 else 0.5 * (1.0 + beta * (1.0 - lam) / denom)
    return lower, upper


def thm7_beta_ceiling(lam: float) -> float:
    """1/(2-lam): thm7 requires beta strictly below it."""
    return 1.0 / (2.0 - lam)


def check_thm7(
    z0: PopulationState, net: TwoLayerNetwork, params: AgentParams
) -> TheoremReport:
    """Partition invariance and polarized convergence for anti-coordinating
    populations: each camp's within-camp weight must sit inside an open
    parameter interval, separately for every member."""
    reasons = _prerequisites(net, params, want_eps=-1, require_same_layers_alpha_zero=True)
    if not reasons:
        lam = float(params.lam[0])
        beta = float(params.beta[0])
        if not beta < thm7_beta_ceiling(lam):
            reasons.append("beta must be strictly below 1/(2-lam)")
    camps = _polarized_camps(z0, reasons)
    if reasons:
        return _not_applicable("thm7", reasons)
    lower, upper = thm7_bounds(beta, lam)
    notes = []
    if not max(lower, 0.0) < upper:
        notes.append(
            f"admissible within-camp interval ({lower:.6g}, {upper:.6g}) has no "
            "overlap with [0, 1]; no network can satisfy these conditions"
        )
    rows = _camp_rows(
        net, camps, (("within_above_lower", lower, ">"), ("within_below_upper", upper, "<"))
    )
    return TheoremReport("thm7", True, rows, tuple(notes))


def coo_pol_rhs(beta: float, lam: float) -> float:
    return max(_action_floor(lam), 0.5 * (1.0 + beta * (1.0 - lam) / (1.0 - beta * lam)))


def check_coordination_polarized(
    z0: PopulationState, net: TwoLayerNetwork, params: AgentParams
) -> TheoremReport:
    """Polarized convergence condition for coordinating populations: both camps
    must keep more than a parameter threshold (always above 1/2) of their
    weight inside the camp."""
    reasons = _prerequisites(net, params, want_eps=1, require_same_layers_alpha_zero=True)
    camps = _polarized_camps(z0, reasons)
    if reasons:
        return _not_applicable("eq22", reasons)
    rhs = coo_pol_rhs(float(params.beta[0]), float(params.lam[0]))
    return TheoremReport("eq22", True, _camp_rows(net, camps, (("within_above", rhs, ">"),)))


CHECKERS = {
    "thm2": check_thm2,
    "thm3": check_thm3,
    "thm5": check_thm5,
    "thm6": check_thm6,
    "thm7": check_thm7,
    "eq22": check_coordination_polarized,
}


# --- contour functions ---------------------------------------------------------


def _thm7_gap(beta: float, lam: float) -> float:
    lower, upper = thm7_bounds(beta, lam)
    return upper - lower


_CONTOURS = {  # function id -> f(beta, lam); thm5_rhs at alpha = 0
    "thm3_vp": thm3_vp_threshold,
    "thm3_vn": thm3_vn_threshold,
    "thm5_rhs": thm5_rhs,
    "thm7_gap": _thm7_gap,
    "coo_pol_rhs": coo_pol_rhs,
}
CONTOUR_FUNCTIONS = tuple(_CONTOURS)


def contour_value(function_id: str, beta: float, lam: float) -> float:
    """Scalar contour function at one (beta, lam) point, both in open (0, 1)."""
    if not (0.0 < beta < 1.0 and 0.0 < lam < 1.0):
        raise ValueError("beta and lam must lie strictly inside (0, 1)")
    if function_id not in _CONTOURS:
        raise ValueError(f"unknown contour function {function_id!r}; "
                         f"expected one of {CONTOUR_FUNCTIONS}")
    return _CONTOURS[function_id](beta, lam)


def contour_grid(function_id: str, betas: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Matrix of contour values, rows indexed by lam and columns by beta.

    Singular parameter combinations yield NaN.
    """
    betas = np.asarray(betas, dtype=float)
    lams = np.asarray(lams, dtype=float)
    out = np.empty((lams.size, betas.size))
    for r, lam in enumerate(lams):
        for c, beta in enumerate(betas):
            out[r, c] = contour_value(function_id, float(beta), float(lam))
    return out


def interior_grid(resolution: int) -> np.ndarray:
    """Uniform grid of ``resolution`` points strictly inside (0, 1)."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    return np.arange(1, resolution + 1, dtype=float) / (resolution + 1)


def contour_csv_lines(function_id: str, betas: np.ndarray, lams: np.ndarray) -> list:
    """CSV rows ``beta,lambda,value`` in row-major grid order."""
    grid = contour_grid(function_id, betas, lams)
    lines = ["beta,lambda,value"]
    for r, lam in enumerate(lams):
        for c, beta in enumerate(betas):
            value = grid[r, c]
            text = "nan" if math.isnan(value) else f"{value:.17g}"
            lines.append(f"{beta:.17g},{lam:.17g},{text}")
    return lines
