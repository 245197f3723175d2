import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coevnet import (
    ActivationSchedule,
    AgentParams,
    PopulationState,
    StopCriterion,
    TwoLayerNetwork,
    WeightedGraph,
    classify_state,
    discriminant,
    discriminants,
    sign_with_inertia,
    simulate,
    step,
    verify_persistence,
)
from coevnet.dynamics import (
    _DRAW_BLOCK,
    read_trace_csv,
    read_trace_jsonl,
    write_trace_csv,
    write_trace_jsonl,
)
from coevnet.genesis import (
    complete_bipartite,
    condition_rescaled,
    initial_state,
    random_symmetric_stochastic,
)
from coevnet.oracle import opinion_fixed_point

from conftest import rand_net, rand_state, uniform_params


# --- discriminant -----------------------------------------------------------------


def test_discriminant_at_consensus_closed_form():
    # at the all-plus consensus every agent sees lam*(1-beta)*(1+alpha) + 2*lam*beta*(1-lam)
    for alpha in (0.0, 0.5, 2.0):
        net = rand_net(6, seed=31)
        p = uniform_params(6, 0.4, 0.7, +1, alpha)
        z = PopulationState(actions=np.ones(6, int), opinions=np.ones(6))
        expected = 0.4 * 0.3 * (1 + alpha) + 2 * 0.4 * 0.7 * 0.6
        assert discriminants(z, net, p) == pytest.approx(np.full(6, expected), abs=1e-12)


def test_discriminant_two_node_coordinating(two_node_net):
    p = uniform_params(2, 0.5, 0.5, +1)
    z = PopulationState(actions=[1, -1], opinions=[0.5, -0.5])
    assert discriminant(0, z, two_node_net, p) == pytest.approx(-0.375, abs=1e-15)


def test_discriminant_two_node_anti_at_fixed_point(two_node_net):
    p = uniform_params(2, 0.5, 0.5, -1)
    x = np.array([1, -1])
    y = opinion_fixed_point(x, two_node_net, p)
    assert y == pytest.approx([1 / 3, -1 / 3], abs=1e-15)
    z = PopulationState(actions=x, opinions=y)
    d = discriminants(z, two_node_net, p)
    assert d[0] == pytest.approx(1 / 6, abs=1e-15)
    assert d[1] == pytest.approx(-1 / 6, abs=1e-15)


def test_discriminant_simplifies_when_layers_coincide():
    # with A = W, alpha = 0, eps = +1 the discriminant collapses to
    # 2*lam*beta*(1-lam)*W@y + (1-beta)*lam*W@x
    rng = np.random.default_rng(8)
    lam, beta = 0.35, 0.65
    net = rand_net(5, seed=77, same_layers=True)
    p = uniform_params(5, lam, beta, +1, 0.0)
    w = net.W.weights
    for _ in range(50):
        z = rand_state(5, rng)
        simplified = 2 * lam * beta * (1 - lam) * (w @ z.opinions) + (1 - beta) * lam * (
            w @ z.actions.astype(float)
        )
        assert np.max(np.abs(discriminants(z, net, p) - simplified)) <= 1e-15


def test_selected_discriminants_match_single_agent_and_full_form():
    rng = np.random.default_rng(17)
    for k in range(50):
        n = int(rng.integers(2, 9))
        net = rand_net(n, seed=2000 + k)
        lam, beta = rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n)
        p = AgentParams(lam=lam, beta=beta, eps=rng.choice([-1, 1], n), alpha=0.5)
        z = rand_state(n, rng)
        agents = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
        selected = discriminants(z, net, p, agents)
        # one reduction for every form: bitwise equal to the single-agent and
        # the full form
        assert selected.tolist() == [discriminant(i, z, net, p) for i in agents]
        assert selected.tolist() == discriminants(z, net, p)[agents].tolist()
    assert discriminants(z, net, p, []).shape == (0,)


def test_trace_deltas_are_selected_discriminants():
    net = rand_net(6, seed=41)
    p = uniform_params(6, 0.5, 0.8, -1)
    z0 = rand_state(6, np.random.default_rng(3))
    trace = simulate(z0, net, p, ActivationSchedule.uniform_random(6, seed=4),
                     StopCriterion(max_steps=200))
    for t, deltas in enumerate(trace.deltas):
        agents = sorted(deltas)
        logged = [deltas[i] for i in agents]
        assert logged == discriminants(trace.states[t], net, p, agents).tolist()
        assert logged == discriminants(trace.states[t], net, p)[agents].tolist()


@pytest.mark.parametrize("n", [*range(2, 80), 100, 128, 129, 300, 513, 1000])
def test_vecdot_over_stacked_rows_equals_each_row_product(n):
    # dynamics reduces every row with np.vecdot over stacked (A[i], W[i]) pairs;
    # its bits must equal the plain per-row product A[i] @ v, for the whole
    # population, a gathered selection, and a batch of replica states
    rng = np.random.default_rng(n)
    a, w = rng.random((n, n)), rng.random((n, n))
    rows = np.stack((a, w), axis=1)
    state = rng.uniform(-3.0, 3.0, (2, n))
    expected = np.array([[a[i] @ state[0], w[i] @ state[1]] for i in range(n)])
    assert np.vecdot(rows, state).tolist() == expected.tolist()
    agents = rng.permutation(n)[: max(1, n // 3)]
    assert np.vecdot(rows[agents], state).tolist() == expected[agents].tolist()
    for replicas in (1, 7, 200):
        states = rng.uniform(-3.0, 3.0, (replicas, 2, n))
        picked = rng.integers(n, size=replicas)
        batched = [[a[i] @ s[0], w[i] @ s[1]] for i, s in zip(picked, states)]
        assert np.vecdot(rows[picked], states).tolist() == batched


def test_discriminant_index_out_of_range(two_node_net):
    p = uniform_params(2, 0.5, 0.5, 1)
    z = PopulationState(actions=[1, 1], opinions=[0.0, 0.0])
    with pytest.raises(IndexError):
        discriminant(2, z, two_node_net, p)


# three agents for the agent-id checks
_Z3 = PopulationState(actions=[1, -1, 1], opinions=[0.2, -0.4, 0.6])
_NET3, _P3 = rand_net(3, seed=5), uniform_params(3, 0.5, 0.5, 1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda agent: step(_Z3, [0, agent], _NET3, _P3), id="step"),
        pytest.param(lambda agent: discriminants(_Z3, _NET3, _P3, [agent]), id="discriminants"),
        pytest.param(lambda agent: discriminant(agent, _Z3, _NET3, _P3), id="discriminant"),
    ],
)
@pytest.mark.parametrize("agent", [-1, 3])
def test_agent_ids_outside_0_to_n_minus_1_raise_index_error(call, agent):
    # numpy would wrap -1 to the last agent; the id check refuses it
    with pytest.raises(IndexError, match=f"agent id {agent} out of range for n=3"):
        call(agent)


# --- tie-broken sign ---------------------------------------------------------------


def test_sign_with_inertia_examples():
    assert sign_with_inertia(0.3, -1) == 1
    assert sign_with_inertia(0.0, -1) == -1  # inertia holds the current action
    assert sign_with_inertia(-1e-13, +1) == -1  # any nonzero delta decides


@given(
    delta=st.floats(-10, 10, allow_nan=False),
    current=st.sampled_from([-1, 1]),
)
def test_sign_with_inertia_properties(delta, current):
    s = sign_with_inertia(delta, current)
    if delta > 0.0:
        assert s == 1
    elif delta < 0.0:
        assert s == -1
    else:
        assert s == current


# --- step -----------------------------------------------------------------------------


def test_step_consensus_is_fixed_point():
    net = rand_net(5, seed=13)
    p = uniform_params(5, 0.6, 0.4, +1, 0.7)
    z = PopulationState(actions=np.ones(5, int), opinions=np.ones(5))
    for active in ([0], [2, 4], range(5)):
        z1 = step(z, active, net, p)
        assert np.array_equal(z1.actions, z.actions)
        assert z1.opinions == pytest.approx(z.opinions, abs=1e-12)


def test_step_two_node_update(two_node_net):
    p = uniform_params(2, 0.5, 0.5, +1)
    z = PopulationState(actions=[1, -1], opinions=[0.5, -0.5])
    z1 = step(z, [0], two_node_net, p)
    assert z1.actions[0] == -1
    assert z1.opinions[0] == pytest.approx(-0.75, abs=0)
    # agent 2 untouched, bitwise
    assert z1.actions[1] == -1 and z1.opinions[1] == -0.5


def test_step_keeps_opinions_in_range_and_inactive_bitwise():
    rng = np.random.default_rng(5)
    for k in range(200):
        n = int(rng.integers(2, 8))
        net = rand_net(n, seed=1000 + k)
        p = AgentParams(
            lam=rng.uniform(0.05, 0.95, n),
            beta=rng.uniform(0.05, 0.95, n),
            eps=rng.integers(0, 2, n) * 2 - 1,
            alpha=float(rng.uniform(0, 2)),
        )
        z = rand_state(n, rng)
        active = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        z1 = step(z, active, net, p)
        assert np.all(np.abs(z1.opinions) <= 1.0)
        for i in range(n):
            if i not in active:
                assert z1.actions[i] == z.actions[i]
                assert z1.opinions[i] == z.opinions[i]


# --- schedules and persistence ----------------------------------------------------------


def test_round_robin_certified_persistence():
    sched = ActivationSchedule.round_robin(5)
    assert sched.persistence == 5
    assert verify_persistence(sched, horizon=5) == 5
    assert verify_persistence(sched, horizon=12) == 5


def test_explicit_persistence_scan():
    sched = ActivationSchedule.explicit(2, [{0}, {0}, {1}])
    assert sched.persistence == 3
    assert verify_persistence(sched, horizon=3) == 3


def test_explicit_unverified_when_agent_never_active():
    sched = ActivationSchedule.explicit(2, [{0}, {0}, {0}])
    assert sched.persistence is None
    assert verify_persistence(sched, horizon=3) is None


def _brute_persistence(sets, n):
    """Smallest T whose every length-T window inside ``sets`` holds all agents."""
    for window in range(1, len(sets) + 1):
        starts = range(len(sets) - window + 1)
        if all(set().union(*sets[s:s + window]) == set(range(n)) for s in starts):
            return window
    return None


def _brute_realized_cover(sets, n):
    """Longest, over the steps, of the shortest all-agent window ending there."""
    spans = [
        min((k for k in range(1, e + 2) if set().union(*sets[e + 1 - k:e + 1]) == set(range(n))),
            default=None)
        for e in range(len(sets))
    ]
    return max((k for k in spans if k is not None), default=None)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_coverage_pass_matches_brute_force_windows(data, n):
    # explicit prefixes with empty and multi-agent sets: the certificate,
    # verify_persistence over any horizon and the simulated realized cover
    sets = data.draw(st.lists(st.frozensets(st.integers(0, n - 1)), min_size=1, max_size=30))
    horizon = data.draw(st.integers(1, 35))
    schedule = ActivationSchedule.explicit(n, sets)
    assert schedule.persistence == _brute_persistence(sets, n)
    assert verify_persistence(schedule, horizon) == _brute_persistence(sets[:horizon], n)
    round_robin = ActivationSchedule.round_robin(n)
    assert round_robin.persistence == n
    cycled = [frozenset((t % n,)) for t in range(horizon)]
    assert verify_persistence(round_robin, horizon) == _brute_persistence(cycled, n)
    if n > 1:  # an action layer without self-loops needs two agents
        z0 = rand_state(n, np.random.default_rng(n))
        trace = simulate(z0, rand_net(n, seed=n), uniform_params(n, 0.5, 0.5, -1), schedule,
                         StopCriterion(max_steps=len(sets), window=len(sets)))
        assert trace.active == tuple(sets)
        assert trace.realized_cover == _brute_realized_cover(sets, n)


def test_uniform_random_stream_is_replayable():
    sched = ActivationSchedule.uniform_random(6, seed=42)
    first = [next(iter(s)) for _, s in zip(range(50), sched.iter_sets())]
    second = [next(iter(s)) for _, s in zip(range(50), sched.iter_sets())]
    assert first == second


@pytest.mark.parametrize("seed", [0, 7, 33003])
def test_block_drawn_activations_equal_scalar_draws(seed):
    # the schedule draws agents in blocks; numpy's bounded integers must give
    # the stream of one draw per step, across block edges and integer widths
    length = 3 * _DRAW_BLOCK + 17
    for n in [*range(1, 71), 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1]:
        sets = itertools.islice(ActivationSchedule.uniform_random(n, seed).iter_sets(), length)
        rng = np.random.default_rng(seed)
        expected = [frozenset((int(rng.integers(n)),)) for _ in range(length)]
        assert list(sets) == expected, f"n={n}"


def test_uniform_random_schedule_draws_per_block_not_per_step(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, *args, **kwargs):
            calls.append(kwargs.get("size"))
            return self.rng.integers(*args, **kwargs)

    steps = 5000
    z0, net, p = rand_state(5, default_rng(3)), rand_net(5, seed=4), uniform_params(5, 0.5, 0.5, -1)
    monkeypatch.setattr(np.random, "default_rng", Counting)
    trace = simulate(z0, net, p, ActivationSchedule.uniform_random(5, 9),
                     StopCriterion(max_steps=steps, window=steps))
    assert trace.steps == steps
    assert len(calls) <= math.ceil(steps / _DRAW_BLOCK) + 1, f"{len(calls)} draws"


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(lambda: ActivationSchedule.uniform_random(5, 1.5),
                     "seed must be an integer", id="float-seed"),
        pytest.param(lambda: ActivationSchedule.uniform_random(5, True),
                     "seed must be an integer", id="bool-seed"),
        pytest.param(lambda: ActivationSchedule(kind="uniform_random", n=5, seed=1.5),
                     "seed must be an integer", id="float-seed-constructor"),
        pytest.param(lambda: ActivationSchedule.round_robin(2.5),
                     "n must be an integer", id="float-n"),
        pytest.param(lambda: ActivationSchedule.uniform_random(np.float64(5.0), 1),
                     "n must be an integer", id="numpy-float-n"),
        pytest.param(lambda: ActivationSchedule.explicit(3, [{0}, {1.5}]),
                     "agent must be an integer", id="float-explicit-agent"),
        pytest.param(lambda: StopCriterion(max_steps=2.5),
                     "max_steps must be an integer", id="float-max-steps"),
        pytest.param(lambda: StopCriterion(max_steps="10"),
                     "max_steps must be an integer", id="str-max-steps"),
        pytest.param(lambda: StopCriterion(max_steps=10, window=2.5),
                     "window must be an integer", id="float-window"),
        pytest.param(lambda: step(_Z3, [1.7], _NET3, _P3),
                     "agent must be an integer", id="float-step-agent"),
        pytest.param(lambda: step(_Z3, [True], _NET3, _P3),
                     "agent must be an integer", id="bool-step-agent"),
        pytest.param(lambda: discriminants(_Z3, _NET3, _P3, [1.0]),
                     "agent must be an integer", id="float-discriminants-agent"),
        pytest.param(lambda: verify_persistence(ActivationSchedule.round_robin(3), 3.5),
                     "horizon must be an integer", id="float-horizon"),
    ],
)
def test_non_integral_counts_and_seeds_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_stop_criterion_rejects_non_finite_or_non_positive_opinion_tol(tol):
    with pytest.raises(ValueError, match="opinion_tol must be positive"):
        StopCriterion(max_steps=10, opinion_tol=tol)


def test_numpy_integers_are_accepted_as_python_ints():
    sched = ActivationSchedule.uniform_random(np.int64(5), np.uint32(7))
    stop = StopCriterion(max_steps=np.int32(10), window=np.int64(3))
    assert (sched.n, sched.seed, stop.max_steps, stop.window) == (5, 7, 10, 3)
    assert all(type(v) is int for v in (sched.n, sched.seed, stop.max_steps, stop.window))


# --- simulate ------------------------------------------------------------------------------


def test_simulate_consensus_start_converges_immediately():
    net = rand_net(6, seed=3)
    p = uniform_params(6, 0.5, 0.5, +1)
    z0 = PopulationState(actions=np.ones(6, int), opinions=np.ones(6))
    trace = simulate(z0, net, p, ActivationSchedule.round_robin(6), StopCriterion(max_steps=100))
    assert trace.converged
    assert trace.steps <= 2 * 6 + 1
    assert trace.last_action_change() == 0
    assert trace.fixed_point_gap <= 1e-12


def test_simulate_flags_non_convergence_at_max_steps():
    net = rand_net(4, seed=9)
    p = uniform_params(4, 0.5, 0.5, -1)
    z0 = rand_state(4, np.random.default_rng(1))
    trace = simulate(z0, net, p, ActivationSchedule.round_robin(4), StopCriterion(max_steps=3))
    assert not trace.converged
    assert trace.reason == "max_steps"


def test_simulate_deterministic_repeat():
    net = rand_net(8, seed=44)
    p = uniform_params(8, 0.4, 0.6, -1)
    z0 = initial_state("random", 8, 7)
    stop = StopCriterion(max_steps=4000)
    traces = [
        simulate(z0, net, p, ActivationSchedule.uniform_random(8, seed=11), stop)
        for _ in range(2)
    ]
    assert traces[0].steps == traces[1].steps
    for a, b in zip(traces[0].states, traces[1].states):
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.opinions, b.opinions)
    assert traces[0].active == traces[1].active


def test_trace_changes_only_at_active_agents():
    net = rand_net(6, seed=15)
    p = uniform_params(6, 0.5, 0.7, -1)
    z0 = initial_state("random", 6, 3)
    trace = simulate(z0, net, p, ActivationSchedule.uniform_random(6, seed=2),
                     StopCriterion(max_steps=500))
    for t in range(trace.steps):
        before, after = trace.states[t], trace.states[t + 1]
        for i in range(6):
            if i not in trace.active[t]:
                assert after.actions[i] == before.actions[i]
                assert after.opinions[i] == before.opinions[i]
        assert set(trace.deltas[t]) == set(trace.active[t])


def test_simulate_explicit_schedule_can_exhaust():
    net = rand_net(3, seed=71)
    p = uniform_params(3, 0.5, 0.5, -1)
    z0 = initial_state("random", 3, 4)
    sched = ActivationSchedule.explicit(3, [{0}, {1}])
    trace = simulate(z0, net, p, sched, StopCriterion(max_steps=100))
    assert trace.steps == 2
    assert not trace.converged and trace.reason == "schedule_exhausted"


def test_simulate_tells_the_step_cap_from_the_schedule_end():
    net = rand_net(3, seed=71)
    p = uniform_params(3, 0.5, 0.5, -1)
    z0 = initial_state("random", 3, 4)
    stop = StopCriterion(max_steps=4, window=4)
    sets = [{0}, set(), {1, 2}, {0}]
    at_cap = simulate(z0, net, p, ActivationSchedule.explicit(3, sets), stop)
    assert at_cap.reason == "max_steps"
    assert at_cap.steps == len(at_cap.log) == 4
    assert at_cap.log[1] == ()  # the empty step keeps its entry
    assert [[u[0] for u in updates] for updates in at_cap.log] == [[0], [], [1, 2], [0]]
    short = simulate(z0, net, p, ActivationSchedule.explicit(3, sets[:-1]), stop)
    assert short.reason == "schedule_exhausted"
    assert short.steps == len(short.log) == 3
    assert short.log == at_cap.log[:-1]


def test_states_are_immutable():
    z = PopulationState(actions=[1, -1], opinions=[0.1, -0.2])
    with pytest.raises(ValueError):
        z.actions[0] = -1
    with pytest.raises(ValueError):
        z.opinions[0] = 0.5


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2 ** 16),
    kind=st.sampled_from(["uniform_random", "round_robin", "explicit"]),
    alpha=st.sampled_from([0.0, 0.7]),
)
def test_simulate_equals_repeated_steps(n, seed, kind, alpha):
    # the in-place kernel against the step() reference on the same schedule
    # stream: bitwise-equal states at every t, equal deltas, equal active sets
    rng = np.random.default_rng(seed)
    net = rand_net(n, seed=seed)
    p = AgentParams(lam=rng.uniform(0.1, 0.9, n), beta=rng.uniform(0.1, 0.9, n),
                    eps=rng.choice([-1, 1], n), alpha=alpha)
    z0 = rand_state(n, rng)
    if kind == "uniform_random":
        schedule = ActivationSchedule.uniform_random(n, seed)
    elif kind == "round_robin":
        schedule = ActivationSchedule.round_robin(n)
    else:  # multi-agent and empty sets
        sizes = rng.integers(0, n + 1, 40)
        schedule = ActivationSchedule.explicit(
            n, [rng.choice(n, size=int(k), replace=False).tolist() for k in sizes]
        )
    trace = simulate(z0, net, p, schedule, StopCriterion(max_steps=80))

    assert len(trace.states) == trace.steps + 1 == len(trace.active) + 1
    z = z0
    for t, active in zip(range(trace.steps), schedule.iter_sets()):
        agents = sorted(active)
        assert trace.active[t] == active
        assert list(trace.deltas[t]) == agents
        assert list(trace.deltas[t].values()) == discriminants(z, net, p, agents).tolist()
        z = step(z, active, net, p)
        assert trace.states[t + 1].actions.tolist() == z.actions.tolist()
        assert trace.states[t + 1].opinions.tobytes() == z.opinions.tobytes()
    assert trace.final().actions.tolist() == z.actions.tolist()
    assert trace.final().opinions.tobytes() == z.opinions.tobytes()
    changes = [t for t in range(1, len(trace.states))
               if trace.states[t].actions.tolist() != trace.states[t - 1].actions.tolist()]
    assert trace.last_action_change() == (changes[-1] if changes else 0)
    last_seen, cover = np.full(n, -1), None
    for t, active in enumerate(trace.active):
        last_seen[list(active)] = t
        if np.all(last_seen >= 0):
            cover = max(cover or 0, t - int(last_seen.min()) + 1)
    assert trace.realized_cover == cover


def test_trace_replays_states_once():
    net = rand_net(5, seed=12)
    p = uniform_params(5, 0.5, 0.6, -1)
    trace = simulate(initial_state("random", 5, 1), net, p,
                     ActivationSchedule.uniform_random(5, seed=2), StopCriterion(max_steps=50))
    assert trace.states is trace.states
    assert trace.active is trace.active and trace.deltas is trace.deltas


def test_simulate_uniform_random_waits_for_cover():
    # convergence may not be declared before every agent was active once
    net = rand_net(5, seed=70)
    p = uniform_params(5, 0.5, 0.5, +1)
    z0 = PopulationState(actions=np.ones(5, int), opinions=np.ones(5))
    trace = simulate(z0, net, p, ActivationSchedule.uniform_random(5, seed=123),
                     StopCriterion(max_steps=1000))
    assert trace.converged
    assert trace.realized_cover is not None
    active_agents = set().union(*trace.active)
    assert active_agents == set(range(5))


# --- monotone-trajectory properties ------------------------------------------------------


def test_coordinating_basin_monotone_actions_nonnegative_opinions():
    # cohesive +1 camp, diffusive -1 camp, positive opinions: actions never
    # fall, opinions never go negative
    rng = np.random.default_rng(21)
    for k, alpha in enumerate((0.0, 1.0, 0.0)):
        n = 12
        split = (tuple(range(8)), tuple(range(8, 12)))
        p = uniform_params(n, float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.2, 0.8)), +1, alpha)
        a = condition_rescaled("thm2", split, p, n, seed=600 + k)
        net = TwoLayerNetwork(A=a, W=random_symmetric_stochastic(n, 700 + k))
        z0 = initial_state("positive_opinions", n, 800 + k, split)
        trace = simulate(z0, net, p, ActivationSchedule.uniform_random(n, 900 + k),
                         StopCriterion(max_steps=6000))
        assert trace.converged
        for t in range(trace.steps):
            assert np.all(trace.states[t + 1].actions >= trace.states[t].actions)
            assert np.all(trace.states[t + 1].opinions >= 0.0)
        assert classify_state(trace.final()).label() == "consensus(+1)"


def test_anti_coordinating_bipartite_keeps_partition():
    part = (tuple(range(4)), tuple(range(4, 8)))
    p = uniform_params(8, 0.7, 0.6, -1)
    net = TwoLayerNetwork.single_layer(complete_bipartite(part, seed=31))
    for seed in (1, 2, 3):
        z0 = initial_state("polarized", 8, seed, part)
        trace = simulate(z0, net, p, ActivationSchedule.uniform_random(8, seed + 10),
                         StopCriterion(max_steps=4000))
        assert trace.converged
        for state in trace.states:
            cls = classify_state(state)
            assert cls.kind == "polarized"
            assert cls.partition == (part[0], part[1])


# --- export ---------------------------------------------------------------------------------


def test_trace_export_roundtrip(tmp_path):
    net = rand_net(3, seed=2)
    p = uniform_params(3, 0.5, 0.5, -1)
    z0 = initial_state("random", 3, 5)
    trace = simulate(z0, net, p, ActivationSchedule.round_robin(3), StopCriterion(max_steps=60))
    jsonl = tmp_path / "trace.jsonl"
    csvp = tmp_path / "trace.csv"
    write_trace_jsonl(trace, str(jsonl))
    write_trace_csv(trace, str(csvp))

    records = read_trace_jsonl(str(jsonl))
    assert len(records) == trace.steps + 1
    assert records[0]["t"] == 0 and records[0]["active"] == []
    for t, rec in enumerate(records):
        assert rec["x"] == trace.states[t].actions.tolist()
        assert rec["y"] == trace.states[t].opinions.tolist()
        if t > 0:
            assert rec["active"] == sorted(i + 1 for i in trace.active[t - 1])
            assert set(map(int, rec["delta"])) == {i + 1 for i in trace.active[t - 1]}

    rows = read_trace_csv(str(csvp))
    assert len(rows) == trace.steps + 1
    # 17-significant-digit cells reload to the exact stored doubles
    for t, row in enumerate(rows):
        assert int(row["t"]) == t
        for i in range(3):
            assert int(row[f"x_{i + 1}"]) == trace.states[t].actions[i]
            assert float(row[f"y_{i + 1}"]) == trace.states[t].opinions[i]


def _reference_jsonl(trace):
    records = [{"t": 0, "active": [], "x": trace.states[0].actions.tolist(),
                "y": trace.states[0].opinions.tolist(), "delta": {}}]
    for t in range(trace.steps):
        records.append({
            "t": t + 1,
            "active": sorted(i + 1 for i in trace.active[t]),
            "x": trace.states[t + 1].actions.tolist(),
            "y": trace.states[t + 1].opinions.tolist(),
            "delta": {str(i + 1): d for i, d in sorted(trace.deltas[t].items())},
        })
    return [json.dumps(record, sort_keys=True) for record in records]


def _reference_csv(trace):
    n = trace.states[0].n
    rows = [",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)])]
    for t, state in enumerate(trace.states):
        rows.append(",".join([str(t)] + [str(int(v)) for v in state.actions]
                             + [f"{v:.17g}" for v in state.opinions]))
    return rows


def _edge_case_trace():
    # agent 0 listens to agents 1 and 2 only, who hold opposite actions and
    # opinions +1.0 / -1.0, so its first discriminant is exactly zero; agents
    # 3 and 4 start at -0.0 and 1e-300; agents 9 and 10 (ids) move together
    n = 12
    w = np.zeros((n, n))
    w[0, 1] = w[0, 2] = 0.5
    for i in range(1, n):
        w[i, (i + 1) % n] = w[i, i - 1] = 0.5
    net = TwoLayerNetwork.single_layer(WeightedGraph(w))
    p = AgentParams(lam=np.full(n, 0.5), beta=np.full(n, 0.7),
                    eps=np.array([1, -1] * 6), alpha=0.0)
    y0 = np.array([0.25, 1.0, -1.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 0.5, -0.5, 0.0, 1.0])
    z0 = PopulationState(actions=[1, 1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1], opinions=y0)
    sets = [{0}, {8, 9}, set(), {1, 6, 7}, {3}, {9, 10, 11, 2}, {4, 5}] * 3
    trace = simulate(z0, net, p, ActivationSchedule.explicit(n, sets),
                     StopCriterion(max_steps=100))
    assert trace.deltas[0] == {0: 0.0}
    return trace


def _random_trace():
    net = rand_net(12, seed=81)
    p = AgentParams(lam=np.full(12, 0.6), beta=np.full(12, 0.4),
                    eps=np.array([1, -1] * 6), alpha=0.0)
    return simulate(initial_state("random", 12, 82), net, p,
                    ActivationSchedule.uniform_random(12, seed=83), StopCriterion(max_steps=400))


def _flip_heavy_trace():
    # two coordinating agents (1, 2) and two anti-coordinating agents (3, 4),
    # each pair watching only its partner, with beta small enough that the
    # actions decide: updated together, a pair swaps its actions, so it flips
    # two agents in one step and flips them back in the next
    n = 4
    w = np.zeros((n, n))
    w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
    net = TwoLayerNetwork.single_layer(WeightedGraph(w))
    p = AgentParams(lam=np.full(n, 0.5), beta=np.full(n, 0.05),
                    eps=np.array([1, 1, -1, -1]), alpha=0.0)
    z0 = PopulationState(actions=[1, -1, 1, 1], opinions=np.zeros(n))
    sets = [{0, 1}, {0, 1}, {2, 3}, {2, 3}, {0, 1, 2, 3}, {1}, {0}, set(), {0, 1}]
    trace = simulate(z0, net, p, ActivationSchedule.explicit(n, sets),
                     StopCriterion(max_steps=100))
    actions = [tuple(s.actions.tolist()) for s in trace.states]
    assert actions[:5] == [(1, -1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, 1), (1, -1, -1, -1),
                           (1, -1, 1, 1)]
    return trace


@pytest.mark.parametrize("make_trace", [_edge_case_trace, _random_trace, _flip_heavy_trace])
def test_writers_match_json_dumps_reference(tmp_path, make_trace):
    trace = make_trace()
    jsonl, csvp = tmp_path / "trace.jsonl", tmp_path / "trace.csv"
    write_trace_jsonl(trace, str(jsonl))
    write_trace_csv(trace, str(csvp))
    lines = jsonl.read_text().split("\n")
    assert lines.pop() == ""
    reference = _reference_jsonl(trace)
    assert len(lines) == len(reference)
    for got, want in zip(lines, reference):
        assert got == want
    rows = csvp.read_text().split("\n")
    assert rows.pop() == ""
    assert rows == _reference_csv(trace)


def test_export_memory_does_not_grow_with_trace_length(tmp_path):
    # the writers stream the log in bounded batches, so twice as many steps
    # must not take twice the memory
    import tracemalloc

    n, peaks = 200, []
    for steps in (400, 800):
        trace = simulate(initial_state("random", n, 5), rand_net(n, seed=6),
                         uniform_params(n, 0.5, 0.5, -1), ActivationSchedule.round_robin(n),
                         StopCriterion(max_steps=steps, window=steps))
        assert trace.steps == steps
        tracemalloc.start()
        try:
            write_trace_jsonl(trace, str(tmp_path / "trace.jsonl"))
            write_trace_csv(trace, str(tmp_path / "trace.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], f"peak {peaks[1]} B at 800 steps vs {peaks[0]} B at 400"
