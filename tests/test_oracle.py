import numpy as np
import pytest

from coevnet import (
    ActivationSchedule,
    AgentParams,
    PopulationState,
    StopCriterion,
    TwoLayerNetwork,
    check_thm5,
    check_thm6,
    discriminants,
    is_nash,
    simulate,
)
from coevnet.dynamics import opinion_update
from coevnet.genesis import complete_bipartite, initial_state, random_symmetric_stochastic
from coevnet.oracle import (
    candidate,
    enumerate_equilibria,
    equilibria_to_json,
    opinion_fixed_point,
)

from conftest import rand_net, uniform_params


# --- opinion fixed point -------------------------------------------------------


def test_fixed_point_consensus_is_all_ones():
    net = rand_net(7, seed=1)
    p = uniform_params(7, 0.4, 0.5, -1)
    y = opinion_fixed_point(np.ones(7, int), net, p)
    assert y == pytest.approx(np.ones(7), abs=1e-12)


def test_fixed_point_two_node_solutions(two_node_net):
    y5 = opinion_fixed_point(np.array([1, -1]), two_node_net, uniform_params(2, 0.5, 0.5, 1))
    assert y5 == pytest.approx([1 / 3, -1 / 3], abs=1e-14)
    y7 = opinion_fixed_point(np.array([1, -1]), two_node_net, uniform_params(2, 0.7, 0.6, -1))
    assert y7 == pytest.approx([7 / 13, -7 / 13], abs=1e-14)


def test_fixed_point_residual_bound():
    rng = np.random.default_rng(3)
    for k in range(50):
        n = int(rng.integers(2, 12))
        net = rand_net(n, seed=500 + k)
        p = uniform_params(n, float(rng.uniform(0.05, 0.95)), 0.5, -1)
        x = rng.integers(0, 2, n) * 2 - 1
        y = opinion_fixed_point(x, net, p)
        residual = np.max(np.abs(y - ((1 - p.lam) * (net.W.weights @ y) + p.lam * x)))
        assert residual <= 1e-12


def iterate_opinions(x, net, params, y0, sweeps: int) -> np.ndarray:
    """Plain synchronous opinion iteration with frozen actions; converges to
    the fixed point at geometric rate bounded by max(1 - lam).  The
    independent reference for the direct solve."""
    y = np.asarray(y0, dtype=float).copy()
    x = np.asarray(x, dtype=float)
    for _ in range(sweeps):
        y = opinion_update(net.W.weights @ y, x, params.lam)
    return y


def test_fixed_point_unique_attractor_of_iteration():
    # iterating the opinion update from any start converges geometrically,
    # rate bounded by max(1 - lam)
    rng = np.random.default_rng(5)
    net = rand_net(6, seed=77)
    p = uniform_params(6, 0.3, 0.5, -1)
    x = np.array([1, -1, 1, 1, -1, -1])
    target = opinion_fixed_point(x, net, p)
    for _ in range(5):
        y0 = rng.uniform(-1, 1, 6)
        err0 = np.max(np.abs(y0 - target))
        y40 = iterate_opinions(x, net, p, y0, sweeps=40)
        assert np.max(np.abs(y40 - target)) <= err0 * 0.7 ** 40 + 1e-12


# --- enumeration ------------------------------------------------------------------


def test_enumerate_two_node_anti_pair(two_node_net):
    p = uniform_params(2, 0.5, 0.5, -1)
    cands = enumerate_equilibria(two_node_net, p)
    profiles = {tuple(c.x.tolist()): c for c in cands}
    # the two strictly polarized equilibria
    assert profiles[(1, -1)].marginal is False
    assert profiles[(-1, 1)].marginal is False
    assert profiles[(1, -1)].y_star == pytest.approx([1 / 3, -1 / 3], abs=1e-12)
    # the consensus profiles survive only through exact zero discriminants
    # (payoff tie with the inertia rule), so they are flagged marginal
    assert profiles[(1, 1)].marginal is True
    assert profiles[(-1, -1)].marginal is True
    assert len(cands) == 4


def test_enumerate_lexicographic_order(two_node_net):
    p = uniform_params(2, 0.5, 0.5, -1)
    cands = enumerate_equilibria(two_node_net, p)
    listed = [tuple(c.x.tolist()) for c in cands]
    assert listed == sorted(listed)


def test_enumerate_consensus_present_for_coordinating():
    rng = np.random.default_rng(7)
    for k in range(10):
        n = int(rng.integers(2, 7))
        net = rand_net(n, seed=900 + k)
        p = uniform_params(n, float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                           +1, float(rng.choice([0.0, 0.5])))
        profiles = {tuple(c.x.tolist()) for c in enumerate_equilibria(net, p)}
        assert tuple([1] * n) in profiles
        assert tuple([-1] * n) in profiles
        assert profiles  # never empty for coordinating populations


def test_enumerate_size_gate():
    net = rand_net(4, seed=11)
    p = uniform_params(4, 0.5, 0.5, -1)
    with pytest.raises(ValueError, match="n_max=3"):
        enumerate_equilibria(net, p, n_max=3)


def test_enumerate_raises_when_a_candidate_fails_the_nash_check(monkeypatch):
    # the invariant is an explicit exception, so it also holds under python -O
    from coevnet import analysis

    def failing(x, y, net, params):
        return np.full(x.shape, -0.25)

    monkeypatch.setattr(analysis, "nash_slack", failing)
    net = rand_net(3, seed=5)
    with pytest.raises(ArithmeticError, match=r"\[.*\] fails the Nash check \(worst slack -2\.500e-01\)"):
        enumerate_equilibria(net, uniform_params(3, 0.5, 0.5, 1))


def _bipartite(n: int) -> TwoLayerNetwork:
    """Uniform complete-bipartite graph on two equal camps: a tie-heavy input."""
    camps = (tuple(range(n // 2)), tuple(range(n // 2, n)))
    return TwoLayerNetwork.single_layer(complete_bipartite(camps, seed=0, uniform=True))


def _consistency_cases():
    """(net, params, profile codes to check one by one, whether the graph is
    tie-heavy) for the enumeration's differential tests."""
    rng = np.random.default_rng(13)
    for k in range(30):
        n = int(rng.integers(2, 7))
        p = uniform_params(n, float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                           -1 if k % 2 else 1)
        yield rand_net(n, seed=1500 + k), p, range(2 ** n), False
    for k in range(12):  # heterogeneous lam, beta and eps
        n = int(rng.integers(2, 8))
        p = AgentParams(rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n),
                        rng.choice([-1, 1], n), (0.0, 0.5, 2.0)[k % 3])
        yield rand_net(n, seed=1600 + k), p, range(2 ** n), False
    # opinion-layer self-weights (the action layer has no self-loops), both eps
    for k in range(6):
        n = int(rng.integers(2, 8))
        net = TwoLayerNetwork(A=random_symmetric_stochastic(n, 1700 + k),
                              W=random_symmetric_stochastic(n, 1800 + k, zero_diagonal=False))
        p = uniform_params(n, float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                           -1 if k % 2 else 1, (0.0, 0.5, 2.0)[k % 3])
        yield net, p, range(2 ** n), False
    # uniform complete-bipartite graphs: payoff ties make marginal candidates
    for n, eps, alpha in ((8, -1, 0.0), (6, -1, 0.5), (6, 1, 2.0), (10, -1, 0.0), (8, 1, 0.0)):
        yield _bipartite(n), uniform_params(n, 0.5, 0.5, eps, alpha), range(2 ** n), True
    # n = 15 takes the enumeration through many chunks.  Agent 0
    # anti-coordinates against a coordinating rest, so both profiles where
    # agent 0's action flips are equilibria; the profiles near every multiple
    # of 2^13 are checked one by one.
    n, edge = 15, 256
    p = AgentParams(np.full(n, 0.5), np.full(n, 0.2), np.array([-1] + [1] * (n - 1)))
    codes = [code for b in range(0, 2 ** n + 1, 2 ** 13)
             for code in range(max(b - edge, 0), min(b + edge, 2 ** n))]
    yield rand_net(n, seed=1900), p, codes, False


def _profiles_of(codes, n: int) -> list:
    return [tuple(1 if (code >> (n - 1 - j)) & 1 else -1 for j in range(n)) for code in codes]


def test_candidate_consistency_matches_membership():
    marginal = 0
    for net, p, codes, _ in _consistency_cases():
        n = net.n
        profiles = _profiles_of(codes, n)
        kept = enumerate_equilibria(net, p)
        marginal += sum(c.marginal for c in kept)
        assert all(np.all(np.abs(c.y_star) <= 1.0) for c in kept)  # opinions in range
        expected = [x for x in profiles if candidate(net, p, np.array(x)).consistent]
        # in profile order, each once, and nothing else among the checked ones
        checked = set(profiles)
        assert [tuple(c.x.tolist()) for c in kept if tuple(c.x.tolist()) in checked] == expected
    assert marginal  # the bipartite cases reach the tie band


def _exact_rule(net, p, x):
    """The per-profile rule that the affine system replaced: the solved fixed
    point, the discriminants there, and a tie only at exactly zero.
    Returns (kept, marginal)."""
    y = opinion_fixed_point(x, net, p)
    delta = discriminants(PopulationState(actions=x, opinions=y), net, p)
    return not np.any(x * delta < 0.0), bool(np.any(delta == 0.0))


def _fields(c) -> tuple:
    return (c.x.dtype, c.x.tobytes(), c.y_star.tobytes(), c.delta.tobytes(),
            c.consistent, c.marginal)


def test_enumeration_against_the_exact_per_profile_rule():
    gained = 0
    for net, p, codes, tie_heavy in _consistency_cases():
        records = {tuple(c.x.tolist()): c for c in enumerate_equilibria(net, p)}
        for x in _profiles_of(codes, net.n):
            kept, marginal = _exact_rule(net, p, np.array(x))
            record = records.get(x)
            if kept:  # nothing the exact rule keeps is lost
                assert record is not None, x
            elif record is not None:  # a gain is a tie, and a Nash equilibrium
                gained += 1
                assert record.marginal, x
                assert is_nash(PopulationState(actions=record.x, opinions=record.y_star),
                               net, p).holds, x
            if not tie_heavy:
                assert (record is not None) == kept, x
                assert record is None or record.marginal == marginal, x
            if record is not None:
                assert _fields(candidate(net, p, np.array(x))) == _fields(record), x
    assert gained  # the tie-heavy graphs keep ties that round-off used to drop


def test_pruned_enumeration_keeps_every_consistent_profile():
    # pruning must not drop, add or reorder a profile, nor change a marginal
    # flag; the tie-heavy bipartite graph at n = 12 keeps more prefixes than
    # one chunk holds, so its prefixes are split
    rng = np.random.default_rng(29)
    cases = [(rand_net(n, seed=4000 + n),
              uniform_params(n, float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                             eps, alpha))
             for n, eps, alpha in ((9, -1, 0.0), (10, 1, 0.5), (11, -1, 2.0), (12, 1, 0.0),
                                   (12, -1, 0.5))]
    cases += [(_bipartite(n), uniform_params(n, 0.5, 0.5, eps, 0.0))
              for n, eps in ((10, 1), (12, -1))]
    for net, p in cases:
        every = (candidate(net, p, np.array(x)) for x in _profiles_of(range(2 ** net.n), net.n))
        expected = [(tuple(c.x.tolist()), c.marginal) for c in every if c.consistent]
        kept = [(tuple(c.x.tolist()), c.marginal) for c in enumerate_equilibria(net, p)]
        assert kept == expected, (net.n, p.eps[0], p.alpha)


def test_consistent_candidates_are_nash_and_vice_versa():
    rng = np.random.default_rng(17)
    for k in range(30):
        n = int(rng.integers(2, 7))
        net = rand_net(n, seed=2500 + k)
        p = uniform_params(n, float(rng.uniform(0.15, 0.85)), float(rng.uniform(0.15, 0.85)),
                           -1 if k % 2 else 1, float(rng.choice([0.0, 0.5])))
        members = {tuple(c.x.tolist()) for c in enumerate_equilibria(net, p)}
        for code in range(2 ** n):
            x = np.array([1 if (code >> (n - 1 - j)) & 1 else -1 for j in range(n)])
            z = PopulationState(actions=x, opinions=opinion_fixed_point(x, net, p))
            assert is_nash(z, net, p).holds == (tuple(x.tolist()) in members)


def test_enumeration_memory_does_not_grow_with_profile_count():
    # profiles are streamed in fixed-size blocks, so four times as many
    # profiles must not take four times the memory
    import tracemalloc

    peaks = []
    for n in (16, 18):
        net, p = rand_net(n, seed=5), uniform_params(n, 0.5, 0.5, 1, 0.5)
        tracemalloc.start()
        try:
            enumerate_equilibria(net, p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], f"peak {peaks[1]} B at n=18 vs {peaks[0]} B at n=16"


def test_thm5_membership_biconditional_small():
    rng = np.random.default_rng(19)
    for k in range(20):
        n = int(rng.integers(2, 11))
        net = rand_net(n, seed=3500 + k)
        lam, beta = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
        rhs = 2 * (1 - lam) * beta / (1 - beta)
        if abs(rhs - 1.0) < 1e-9:
            continue
        p = uniform_params(n, lam, beta, -1, 0.0)
        member = any(
            np.array_equal(c.x, np.ones(n, int)) for c in enumerate_equilibria(net, p)
        )
        assert member == check_thm5(net, p).holds


def test_equilibria_json_schema(two_node_net):
    import json

    p = uniform_params(2, 0.5, 0.5, -1)
    payload = json.loads(equilibria_to_json(enumerate_equilibria(two_node_net, p)))
    assert all(set(item) == {"x", "y", "marginal"} for item in payload)
    assert payload[0]["x"] == [-1, -1]  # lexicographic with -1 < +1


def test_candidate_rejects_boolean_actions(two_node_net):
    p = uniform_params(2, 0.5, 0.5, -1)
    with pytest.raises(ValueError, match=r"exactly -1 or \+1"):
        candidate(two_node_net, p, np.array([True, True]))
    assert candidate(two_node_net, p, np.array([1.0, -1.0])).consistent


# --- thm6 audit against the oracle ---------------------------------------------------


def test_thm6_bipartite_audit_against_enumeration():
    # the checker's verbatim third inequality rejects the complete-bipartite
    # partition, while the enumeration proves the polarized equilibrium exists
    part = (tuple(range(3)), tuple(range(3, 6)))
    net = TwoLayerNetwork.single_layer(complete_bipartite(part, seed=23))
    p = uniform_params(6, 0.7, 0.6, -1, 0.0)
    report = check_thm6(part, net, p)
    assert not report.holds
    polarized_profile = np.array([1, 1, 1, -1, -1, -1])
    cand = candidate(net, p, polarized_profile)
    assert cand.consistent
    assert np.all(cand.y_star[:3] > 0) and np.all(cand.y_star[3:] < 0)


# --- converged runs ------------------------------------------------------------------


def test_converged_run_is_a_consistent_candidate():
    n, seed = 8, 41
    net = rand_net(n, seed=seed)
    p = uniform_params(n, 0.5, 0.6, -1)
    z0 = initial_state("random", n, seed + 1)
    trace = simulate(z0, net, p, ActivationSchedule.round_robin(n),
                     StopCriterion(max_steps=5000))
    assert trace.converged
    assert trace.fixed_point_gap <= 1e-8
    assert candidate(net, p, trace.final().actions).consistent
