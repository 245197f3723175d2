import math

import numpy as np
import pytest

from coevnet import (
    AgentParams,
    PopulationState,
    TwoLayerNetwork,
    best_response_set,
    check_coordination_polarized,
    check_thm2,
    check_thm3,
    check_thm5,
    check_thm6,
    check_thm7,
    contour_grid,
    contour_value,
    is_nash,
    payoff,
    potential,
    simulate,
    step,
)
from coevnet.dynamics import ActivationSchedule, StopCriterion
from coevnet.analysis import (
    CONTOUR_FUNCTIONS,
    contour_csv_lines,
    interior_grid,
    partition_degrees,
    potential_series,
)
from coevnet.genesis import complete_bipartite, initial_state, random_symmetric_stochastic
from coevnet.oracle import opinion_fixed_point

from conftest import rand_net, rand_state, uniform_params


# --- payoff -----------------------------------------------------------------------


def test_payoff_consensus_candidate():
    # at the all-plus consensus playing (+1, +1) earns lam*(1-beta): the
    # quadratic penalties vanish and the coordination reward is full
    net = rand_net(5, seed=1)
    lam, beta = 0.6, 0.3
    p = uniform_params(5, lam, beta, +1, 0.0)
    z = PopulationState(actions=np.ones(5, int), opinions=np.ones(5))
    assert payoff(0, (1, 1.0), z, net, p) == pytest.approx(lam * (1 - beta), abs=1e-12)


def test_payoff_opposite_candidate_at_consensus():
    # playing (-1, -1) against the all-plus consensus loses only the social
    # term: 0 coordination - 2*(1-lam)*beta - 0
    net = rand_net(5, seed=2)
    lam, beta = 0.55, 0.4
    p = uniform_params(5, lam, beta, +1, 0.0)
    z = PopulationState(actions=np.ones(5, int), opinions=np.ones(5))
    expected = -2.0 * (1 - lam) * beta
    assert payoff(2, (-1, -1.0), z, net, p) == pytest.approx(expected, abs=1e-12)


def test_payoff_eps_flip_negates_only_coordination_term():
    rng = np.random.default_rng(4)
    net = rand_net(6, seed=3)
    plus = uniform_params(6, 0.5, 0.5, +1, 0.8)
    minus = uniform_params(6, 0.5, 0.5, -1, 0.8)
    for _ in range(30):
        z = rand_state(6, rng)
        cand = (int(rng.integers(0, 2) * 2 - 1), float(rng.uniform(-1, 1)))
        i = int(rng.integers(6))
        f_plus = payoff(i, cand, z, net, plus)
        f_minus = payoff(i, cand, z, net, minus)
        # opinion terms are shared; the coordination term flips sign
        zero_coord = (f_plus + f_minus) / 2.0  # social + consistency only
        y_hat = cand[1]
        social = -0.5 * 0.5 * 0.5 * float(
            net.W.weights[i] @ (y_hat - np.where(np.arange(6) == i, y_hat, z.opinions)) ** 2
        )
        consistency = -0.5 * 0.5 * 0.5 * (y_hat - cand[0]) ** 2
        assert zero_coord == pytest.approx(social + consistency, abs=1e-12)


# --- best responses ------------------------------------------------------------------


def test_best_response_against_consensus_is_consensus():
    net = rand_net(4, seed=5)
    p = uniform_params(4, 0.5, 0.5, +1, 0.0)
    z = PopulationState(actions=np.ones(4, int), opinions=np.ones(4))
    assert best_response_set(1, z, net, p) == ((1, 1.0),)


def test_best_response_tie_returns_both_and_step_keeps_inertia(two_node_net):
    # anti-coordinating pair at all-plus with lam=beta=0.5: exact payoff tie
    p = uniform_params(2, 0.5, 0.5, -1)
    z = PopulationState(actions=[1, 1], opinions=[1.0, 1.0])
    pairs = best_response_set(0, z, two_node_net, p)
    assert len(pairs) == 2
    assert (1, 1.0) in pairs
    z1 = step(z, [0], two_node_net, p)
    assert z1.actions[0] == 1  # inertia element selected


def test_update_rule_selects_a_best_response():
    # closed-form update against direct payoff maximization, 10^4 cases
    rng = np.random.default_rng(17)
    nets = [rand_net(n, seed=10_000 + k) for k, n in enumerate([3, 4, 5, 6] * 25)]
    checked = 0
    while checked < 10_000:
        net = nets[checked % len(nets)]
        n = net.n
        p = AgentParams(
            lam=rng.uniform(0.1, 0.9, n),
            beta=rng.uniform(0.1, 0.9, n),
            eps=rng.integers(0, 2, n) * 2 - 1,
            alpha=float(rng.choice([0.0, 0.5, 2.0])),
        )
        z = rand_state(n, rng)
        i = int(rng.integers(n))
        z1 = step(z, [i], net, p)
        pairs = best_response_set(i, z, net, p, tie_tol=1e-12)
        updated = (int(z1.actions[i]), float(z1.opinions[i]))
        assert any(
            updated[0] == x and abs(updated[1] - y) <= 1e-9 for x, y in pairs
        ), (updated, pairs)
        if len(pairs) == 2:
            assert updated[0] == z.actions[i]  # ties resolve to the current action
        checked += 1


# --- Nash verification ----------------------------------------------------------------


def test_consensus_is_nash_for_coordinating_populations():
    rng = np.random.default_rng(23)
    for k in range(25):
        n = int(rng.integers(3, 10))
        net = rand_net(n, seed=20_000 + k)
        p = uniform_params(n, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)),
                           +1, float(rng.choice([0.0, 0.5, 2.0])))
        for sign in (1, -1):
            z = PopulationState(actions=sign * np.ones(n, int), opinions=sign * np.ones(n))
            assert is_nash(z, net, p).holds


def test_consensus_not_nash_when_threshold_fails():
    # anti-coordinating with lam=0.9, beta=0.1: threshold 2(1-lam)beta/(1-beta) ~ 0.022 < 1
    net = rand_net(5, seed=6)
    p = uniform_params(5, 0.9, 0.1, -1)
    z = PopulationState(actions=np.ones(5, int), opinions=np.ones(5))
    report = is_nash(z, net, p)
    assert not report.holds
    assert report.worst() < -1e-3


def test_anti_pair_fixed_point_is_nash(two_node_net):
    p = uniform_params(2, 0.5, 0.5, -1)
    x = np.array([1, -1])
    z = PopulationState(actions=x, opinions=opinion_fixed_point(x, two_node_net, p))
    assert is_nash(z, two_node_net, p).holds


def _grid_best(i, z, net, p, grid):
    """Brute-force deviation search over an opinion grid, both actions."""
    best = -np.inf
    for x_hat in (-1, 1):
        for y_hat in grid:
            best = max(best, payoff(i, (x_hat, float(y_hat)), z, net, p))
    return best


def test_nash_slack_agrees_with_grid_search():
    # analytic slack vs brute-force maximization; grid resolution bounds the
    # quadratic interpolation error by ~beta*h^2/2
    rng = np.random.default_rng(31)
    grid = np.linspace(-1.0, 1.0, 1001)
    tol = 1e-5
    for k in range(200):
        n = int(rng.integers(2, 6))
        net = rand_net(n, seed=30_000 + k)
        p = AgentParams(
            lam=rng.uniform(0.15, 0.85, n),
            beta=rng.uniform(0.15, 0.85, n),
            eps=rng.integers(0, 2, n) * 2 - 1,
            alpha=float(rng.choice([0.0, 1.0])),
        )
        z = rand_state(n, rng)
        report = is_nash(z, net, p)
        for i in range(n):
            played = payoff(i, (int(z.actions[i]), float(z.opinions[i])), z, net, p)
            grid_slack = played - _grid_best(i, z, net, p, grid)
            assert report.slack[i] <= grid_slack + tol
            assert report.slack[i] >= grid_slack - tol


def _exact_branch(i, action, z, net, p):
    """(opinion, payoff) of agent i's best opinion for ``action`` from the
    scalar payoff alone: it is a concave quadratic in the opinion, so three
    samples give its vertex, then clipped to [-1, 1]."""
    low, mid, high = (payoff(i, (action, y), z, net, p) for y in (-1.0, 0.0, 1.0))
    curvature = (low + high) / 2.0 - mid
    y_best = float(np.clip(-(high - low) / (4.0 * curvature), -1.0, 1.0))
    return y_best, payoff(i, (action, y_best), z, net, p)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_nash_slack_matches_scalar_payoff_with_self_loops(alpha):
    # opinion-layer self-loops and heterogeneous parameters: the vectorised
    # payoff model against the scalar reference at its exact branch optima
    rng = np.random.default_rng(41 + int(alpha))
    grid = np.linspace(-1.0, 1.0, 21)
    for k in range(60):
        n = int(rng.integers(2, 7))
        net = TwoLayerNetwork(
            A=random_symmetric_stochastic(n, 40_000 + k),
            W=random_symmetric_stochastic(n, 50_000 + k, zero_diagonal=False),
        )
        p = AgentParams(
            lam=rng.uniform(0.15, 0.85, n),
            beta=rng.uniform(0.15, 0.85, n),
            eps=rng.integers(0, 2, n) * 2 - 1,
            alpha=alpha,
        )
        z = rand_state(n, rng)
        report = is_nash(z, net, p)
        for i in range(n):
            branches = {a: _exact_branch(i, a, z, net, p) for a in (-1, 1)}
            for a, (_, value) in branches.items():
                assert all(value >= payoff(i, (a, float(y)), z, net, p) - 1e-12 for y in grid)
            best = max(value for _, value in branches.values())
            played = payoff(i, (int(z.actions[i]), float(z.opinions[i])), z, net, p)
            assert report.slack[i] == pytest.approx(played - best, rel=0, abs=1e-12)
            for x_hat, y_hat in best_response_set(i, z, net, p):
                y_ref, value = branches[x_hat]
                assert value == pytest.approx(best, rel=0, abs=1e-12)
                assert y_hat == pytest.approx(y_ref, rel=0, abs=1e-10)


# --- potential ---------------------------------------------------------------------------


def test_potential_consensus_value_and_validity():
    # first term only: -2*(1+alpha)*eta*n with eta = lam(1-beta)/(4 beta (1-lam));
    # lam = beta = 0.5, alpha = 0 gives -n/2
    n = 8
    net = TwoLayerNetwork.single_layer(random_symmetric_stochastic(n, 41))
    p = uniform_params(n, 0.5, 0.5, -1)
    z = PopulationState(actions=np.ones(n, int), opinions=np.ones(n))
    value = potential(z, net, p)
    assert value.valid
    assert value.value == pytest.approx(-n / 2, abs=1e-12)
    # heterogeneous or coordinating parameters invalidate the certificate
    assert not potential(z, net, uniform_params(n, 0.5, 0.5, +1)).valid


def test_potential_consistency_term_vanishes_when_aligned():
    # with y = x the potential reduces to its first two sums
    n = 6
    net = TwoLayerNetwork.single_layer(random_symmetric_stochastic(n, 43))
    p = uniform_params(n, 0.45, 0.55, -1)
    x = np.array([1, 1, 1, -1, -1, -1])
    z = PopulationState(actions=x, opinions=x.astype(float))
    a = net.A.weights.copy()
    np.fill_diagonal(a, 0.0)
    eta = 0.45 * 0.45 / (4 * 0.55 * 0.55)
    xf = x.astype(float)
    pair = np.outer(1 - xf, 1 - xf) + np.outer(1 + xf, 1 + xf)
    first = -0.5 * eta * float((a * pair).sum())
    second = -0.25 * float((net.W.weights * (xf[:, None] - xf[None, :]) ** 2).sum())
    assert potential(z, net, p).value == pytest.approx(first + second, abs=1e-12)


def test_potential_strictly_increases_on_strict_improvements():
    # single-agent revisions that strictly improve the reviser's payoff must
    # strictly increase the potential (exhaustive over agents, random states)
    rng = np.random.default_rng(47)
    for k in range(60):
        n = int(rng.integers(2, 9))
        net = TwoLayerNetwork(
            A=random_symmetric_stochastic(n, 50_000 + k),
            W=random_symmetric_stochastic(n, 51_000 + k),
        )
        p = uniform_params(n, float(rng.uniform(0.15, 0.85)), float(rng.uniform(0.15, 0.85)), -1)
        z = rand_state(n, rng)
        phi = potential(z, net, p)
        assert phi.valid
        for i in range(n):
            z1 = step(z, [i], net, p)
            gain = payoff(i, (int(z1.actions[i]), float(z1.opinions[i])), z, net, p) - payoff(
                i, (int(z.actions[i]), float(z.opinions[i])), z, net, p
            )
            if gain > 1e-11:
                assert potential(z1, net, p).value > phi.value


def test_potential_series_matches_potential_of_every_state():
    # the O(n) increments against the full O(n^2) evaluation, over
    # multi-agent and empty steps, mixed eps, alpha > 0 and two distinct layers
    rng = np.random.default_rng(59)
    for k in range(30):
        n = int(rng.integers(2, 12))
        net = rand_net(n, seed=60_000 + k, same_layers=bool(k % 2))
        p = AgentParams(lam=rng.uniform(0.1, 0.9, n), beta=rng.uniform(0.1, 0.9, n),
                        eps=rng.choice([-1, 1], n), alpha=float(rng.choice([0.0, 0.8])))
        if k % 3 == 0:
            schedule = ActivationSchedule.uniform_random(n, 61_000 + k)
        else:
            sizes = rng.integers(0, n + 1, 300)
            schedule = ActivationSchedule.explicit(
                n, [rng.choice(n, size=int(s), replace=False).tolist() for s in sizes])
        trace = simulate(rand_state(n, rng), net, p, schedule, StopCriterion(max_steps=300))
        series = potential_series(trace)
        assert len(series) == len(trace.states)
        for value, state in zip(series, trace.states):
            phi = potential(state, net, p).value
            assert abs(value - phi) <= 1e-12 * (1.0 + abs(phi))


# --- checkers -----------------------------------------------------------------------------


def _polarized_state(n_pos, n_neg):
    x = np.array([1] * n_pos + [-1] * n_neg)
    y = np.array([0.5] * n_pos + [-0.5] * n_neg)
    return PopulationState(actions=x, opinions=y)


def test_check_thm2_alpha_zero_thresholds():
    n = 6
    net = TwoLayerNetwork.single_layer(random_symmetric_stochastic(n, 61))
    p = uniform_params(n, 0.5, 0.5, +1, 0.0)
    z0 = PopulationState(actions=[1, 1, 1, -1, -1, -1], opinions=np.full(6, 0.4))
    report = check_thm2(z0, net, p)
    assert report.applicable
    assert {row.rhs for row in report.rows if row.name == "cohesive"} == {0.5}
    assert {row.rhs for row in report.rows if row.name == "diffusive"} == {0.5}


def test_check_thm2_empty_minus_camp_is_vacuous():
    n = 4
    net = TwoLayerNetwork.single_layer(random_symmetric_stochastic(n, 62))
    p = uniform_params(n, 0.5, 0.5, +1, 0.0)
    z0 = PopulationState(actions=np.ones(n, int), opinions=np.full(n, 0.9))
    report = check_thm2(z0, net, p)
    assert report.applicable and report.holds
    assert any("vacuously" in note for note in report.notes)


def test_check_thm2_bipartite_plus_camp_fails():
    part = (tuple(range(4)), tuple(range(4, 8)))
    net = TwoLayerNetwork.single_layer(complete_bipartite(part, seed=8))
    p = uniform_params(8, 0.5, 0.5, +1, 0.0)
    z0 = PopulationState(actions=[1] * 4 + [-1] * 4, opinions=np.full(8, 0.5))
    report = check_thm2(z0, net, p)
    assert report.applicable and not report.holds
    cohesive = [row for row in report.rows if row.name == "cohesive"]
    assert all(row.lhs == 0.0 for row in cohesive)


def test_check_thm2_requires_positive_opinions_and_eps():
    n = 4
    net = TwoLayerNetwork.single_layer(random_symmetric_stochastic(n, 63))
    z_negative = PopulationState(actions=np.ones(n, int), opinions=[-0.1, 0.5, 0.5, 0.5])
    report = check_thm2(z_negative, net, uniform_params(n, 0.5, 0.5, +1))
    assert not report.applicable and report.verdict == "not applicable"
    z_ok = PopulationState(actions=np.ones(n, int), opinions=np.full(n, 0.5))
    assert not check_thm2(z_ok, net, uniform_params(n, 0.5, 0.5, -1)).applicable


def test_check_thm3_thresholds_and_branches():
    assert contour_value("thm3_vp", 0.6, 0.8) == pytest.approx(0.6153846153846154, abs=1e-12)
    assert contour_value("thm3_vn", 0.6, 0.8) == pytest.approx(0.38461538461538464, abs=1e-12)
    net = rand_net(6, seed=65, same_layers=True)
    p = uniform_params(6, 0.8, 0.6, +1, 0.0)
    report = check_thm3(_polarized_state(3, 3), net, p)
    assert report.applicable
    vp_bounds = [row.rhs for row in report.rows if row.name == "pos_within_above"]
    assert vp_bounds == pytest.approx([0.6153846153846154] * len(vp_bounds))
    assert any("binds at branch" in note for note in report.notes)


def test_check_thm3_applicability_gates():
    p = uniform_params(6, 0.8, 0.6, +1, 0.0)
    two_layer = rand_net(6, seed=66, same_layers=False)
    assert not check_thm3(_polarized_state(3, 3), two_layer, p).applicable
    same = rand_net(6, seed=67, same_layers=True)
    z_mixed = PopulationState(actions=[1, -1] * 3, opinions=[-0.5, 0.5] * 3)
    assert not check_thm3(z_mixed, same, p).applicable
    assert not check_thm3(
        _polarized_state(3, 3), same, uniform_params(6, 0.8, 0.6, +1, 0.5)
    ).applicable


def test_check_thm3_accepts_asymmetric_row_stochastic_layers():
    # the generated networks meeting these bounds are asymmetric by necessity
    from coevnet.genesis import condition_rescaled

    p = uniform_params(6, 0.8, 0.6, +1, 0.0)
    g = condition_rescaled("thm3", (tuple(range(3)), (3, 4, 5)), p, 6, seed=9)
    assert not g.symmetric
    report = check_thm3(_polarized_state(3, 3), TwoLayerNetwork.single_layer(g), p)
    assert report.applicable and report.holds


def test_check_thm5_examples():
    net = rand_net(5, seed=68)
    holds = check_thm5(net, uniform_params(5, 0.5, 0.8, -1, 0.0))
    assert holds.applicable and holds.holds
    assert holds.rows[0].rhs == pytest.approx(4.0, abs=1e-12)
    fails = check_thm5(net, uniform_params(5, 0.9, 0.1, -1, 0.0))
    assert fails.applicable and not fails.holds
    assert fails.rows[0].rhs == pytest.approx(0.2 * 0.1 / 0.9, abs=1e-12)
    # large action bonus drives the threshold to zero
    big_alpha = check_thm5(net, uniform_params(5, 0.5, 0.8, -1, 1e6))
    assert not big_alpha.holds
    # wrong population type is not applicable
    assert not check_thm5(net, uniform_params(5, 0.5, 0.8, +1, 0.0)).applicable


def test_check_thm6_zero_degree_values():
    part = (tuple(range(3)), tuple(range(3, 6)))
    net = TwoLayerNetwork.single_layer(complete_bipartite(part, seed=10))
    p = uniform_params(6, 0.7, 0.6, -1, 0.0)
    degrees = partition_degrees(part, net)
    assert degrees.d_p_max == 0.0 and degrees.d_n_max == 0.0
    report = check_thm6(part, net, p)
    rows = {row.name: row for row in report.rows}
    assert rows["lambda_bound"].rhs == 0.0 and rows["lambda_bound"].ok
    assert rows["pos_action_margin"].lhs == pytest.approx(-0.7 / 1.3 + 0.4 / 0.36, abs=1e-9)
    assert rows["pos_action_margin"].ok
    assert rows["neg_action_margin"].lhs == pytest.approx(-0.7 / 1.3 - 0.4 / 0.36, abs=1e-9)
    assert not rows["neg_action_margin"].ok  # fails as printed; see notes
    assert not report.holds
    assert any("cross-check" in note for note in report.notes)


def test_check_thm6_rejects_empty_side():
    net = TwoLayerNetwork.single_layer(random_symmetric_stochastic(4, 71))
    p = uniform_params(4, 0.7, 0.6, -1, 0.0)
    with pytest.raises(ValueError, match="nonempty"):
        check_thm6(((0, 1, 2, 3), ()), net, p)


def test_check_thm7_interval_and_boundary():
    part = (tuple(range(3)), tuple(range(3, 6)))
    net = TwoLayerNetwork.single_layer(complete_bipartite(part, seed=12))
    p = uniform_params(6, 0.7, 0.6, -1, 0.0)
    z0 = initial_state("polarized", 6, 2, part)
    report = check_thm7(z0, net, p)
    assert report.applicable and report.holds
    uppers = [row.rhs for row in report.rows if row.name.endswith("below_upper")]
    assert uppers == pytest.approx([1 / 11] * len(uppers))
    lowers = [row.rhs for row in report.rows if row.name.endswith("above_lower")]
    assert lowers == pytest.approx([-4 / 3] * len(lowers))
    # beta exactly at 1/(2-lam) is out of scope
    lam = 0.5
    boundary = uniform_params(6, lam, 1.0 / (2.0 - lam), -1, 0.0)
    assert not check_thm7(z0, net, boundary).applicable


def test_check_thm7_reports_empty_interval():
    part = (tuple(range(3)), tuple(range(3, 6)))
    net = TwoLayerNetwork.single_layer(complete_bipartite(part, seed=13))
    p = uniform_params(6, 0.25, 0.4, -1, 0.0)  # interval (0.667, ~0): empty
    z0 = initial_state("polarized", 6, 3, part)
    report = check_thm7(z0, net, p)
    assert report.applicable and not report.holds
    assert any("no network" in note for note in report.notes)


def test_check_coordination_polarized():
    assert contour_value("coo_pol_rhs", 0.6, 0.7) == pytest.approx(19 / 29, abs=1e-12)
    part = (tuple(range(3)), tuple(range(3, 6)))
    net = TwoLayerNetwork.single_layer(complete_bipartite(part, seed=14))
    p = uniform_params(6, 0.7, 0.6, +1, 0.0)
    z0 = initial_state("polarized", 6, 4, part)
    report = check_coordination_polarized(z0, net, p)
    assert report.applicable and not report.holds  # zero within-camp mass < 1/2


def test_reports_serialize_to_json():
    net = rand_net(3, seed=80)
    report = check_thm5(net, uniform_params(3, 0.5, 0.8, -1))
    payload = __import__("json").loads(report.to_json())
    assert payload["theorem"] == "thm5"
    assert payload["applicable"] is True and payload["holds"] is True
    assert payload["per_agent"][0]["i"] == 1
    assert {"lhs", "rhs", "slack"} <= set(payload["per_agent"][0])


# --- contours -------------------------------------------------------------------------------


def test_contour_point_values():
    assert contour_value("thm5_rhs", 0.8, 0.5) == pytest.approx(4.0, abs=1e-12)
    assert contour_value("thm3_vp", 0.6, 0.8) == pytest.approx(0.6154, abs=1e-4)
    assert contour_value("thm7_gap", 0.6, 0.7) == pytest.approx(1 / 11 + 4 / 3, abs=1e-12)


def test_contour_rejects_boundary_and_unknown():
    with pytest.raises(ValueError):
        contour_value("thm5_rhs", 0.0, 0.5)
    with pytest.raises(ValueError, match="unknown contour function"):
        contour_value("nope", 0.5, 0.5)


def test_contour_singular_cell_is_nan():
    # beta*(2 - lam) == 1 exactly in floating point
    assert math.isnan(contour_value("thm7_gap", 0.625, 0.4))


def test_contour_grid_shape_and_csv():
    betas = interior_grid(4)
    lams = np.array([0.25, 0.5])
    grid = contour_grid("thm5_rhs", betas, lams)
    assert grid.shape == (2, 4)
    lines = contour_csv_lines("thm5_rhs", betas, lams)
    assert lines[0] == "beta,lambda,value"
    assert len(lines) == 1 + 8
    first = lines[1].split(",")
    assert float(first[0]) == betas[0] and float(first[1]) == 0.25


def test_threshold_exceeds_half_on_dense_grid():
    # the polarized-to-consensus bound for the +1 camp is always above 1/2,
    # and so is the coordinating polarized-convergence bound
    g = interior_grid(200)
    assert contour_grid("thm3_vp", g, g).min() > 0.5
    assert contour_grid("coo_pol_rhs", g, g).min() > 0.5


def test_contour_function_registry():
    assert set(CONTOUR_FUNCTIONS) == {"thm3_vp", "thm3_vn", "thm5_rhs", "thm7_gap", "coo_pol_rhs"}
