import numpy as np
import pytest

from coevnet import (
    AgentParams,
    PopulationState,
    TwoLayerNetwork,
    WeightedGraph,
    classify_state,
    cohesiveness,
    diffusiveness,
    load_network,
    partition_state,
    save_network,
)
from coevnet.netcore import check_partition, within_mass
from coevnet.genesis import complete_bipartite

from conftest import rand_net, rand_state


# --- WeightedGraph / TwoLayerNetwork ------------------------------------------


def test_permutation_matrix_is_valid_symmetric_stochastic():
    g = WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(g.weights.sum(axis=1), [1.0, 1.0])
    assert g.symmetric


def test_row_sum_violation_rejected_and_reported():
    bad = np.array([[0.0, 0.9], [0.5, 0.5]])
    with pytest.raises(ValueError, match="rows must sum to 1 within 1e-12; worst deviation 1.000e-01"):
        WeightedGraph(bad)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        WeightedGraph(np.array([[0.0, 1.0], [1.5, -0.5]]))


def test_bipartite_30_node_generator_output_is_valid():
    part = (tuple(range(15)), tuple(range(15, 30)))
    g = complete_bipartite(part, seed=5)
    assert np.max(np.abs(g.weights.sum(axis=1) - 1.0)) <= 1e-12
    assert g.weights.min() >= 0.0
    assert g.symmetric


def test_symmetric_flag_is_exact():
    m = np.array([[0.0, 0.6, 0.4], [0.6, 0.0, 0.4], [0.4, 0.4, 0.2]])
    assert WeightedGraph(m).symmetric
    m2 = m.copy()
    m2[0, 1] = np.nextafter(0.6, 0.0)  # one ulp of asymmetry breaks the flag
    assert not WeightedGraph(m2).symmetric


def test_layer_size_mismatch_rejected():
    a = WeightedGraph(np.eye(2))
    w = WeightedGraph(np.eye(3))
    with pytest.raises(ValueError, match="share the node set"):
        TwoLayerNetwork(A=a, W=w)


def test_action_layer_self_loop_rejected_naming_the_agent():
    loop = WeightedGraph(np.array([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]]))
    free = WeightedGraph(np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]))
    with pytest.raises(ValueError, match="action layer has a self-loop at agent 2"):
        TwoLayerNetwork(A=loop, W=free)
    with pytest.raises(ValueError, match="self-loop at agent 2"):
        TwoLayerNetwork.single_layer(loop)
    assert TwoLayerNetwork(A=free, W=loop).n == 3  # an opinion self-weight is legal


def test_weights_are_immutable():
    g = WeightedGraph(np.eye(3))
    with pytest.raises(ValueError):
        g.weights[0, 0] = 0.5


# --- AgentParams / PopulationState ---------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": [0.0, 0.5], "beta": [0.5, 0.5], "eps": [1, 1]},
        {"lam": [0.5, 1.0], "beta": [0.5, 0.5], "eps": [1, 1]},
        {"lam": [0.5, 0.5], "beta": [0.5, 0.0], "eps": [1, 1]},
        {"lam": [0.5, 0.5], "beta": [0.5, 0.5], "eps": [1, 2]},
        {"lam": [0.5, 0.5], "beta": [0.5, 0.5], "eps": [1, 1], "alpha": -1.0},
        {"lam": [0.5, float("nan")], "beta": [0.5, 0.5], "eps": [1, 1]},
        {"lam": [0.5, 0.5], "beta": [float("nan"), 0.5], "eps": [1, 1]},
        {"lam": [0.5, 0.5], "beta": [0.5, 0.5], "eps": [1, 1.7]},
        {"lam": [0.5, 0.5], "beta": [0.5, 0.5], "eps": [True, True]},  # no bool as +1
        {"lam": [0.5, 0.5], "beta": [0.5, 0.5], "eps": [1, 1], "alpha": True},
        {"lam": [0.5, 0.5], "beta": [0.5, 0.5], "eps": [1, 1], "alpha": np.True_},
    ],
)
def test_agent_params_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        AgentParams(**{"alpha": 0.0, **kwargs})


def test_homogeneous_predicate():
    assert AgentParams.uniform(4, 0.3, 0.7, -1).homogeneous()
    mixed = AgentParams(lam=[0.3, 0.3], beta=[0.7, 0.7], eps=[1, -1])
    assert not mixed.homogeneous()


def test_population_state_validation():
    with pytest.raises(ValueError, match="exactly -1 or \\+1"):
        PopulationState(actions=[1, 0], opinions=[0.0, 0.0])
    with pytest.raises(ValueError, match="exactly -1 or \\+1"):  # no truncation to [1, -1]
        PopulationState(actions=[1.5, -1.9], opinions=[0.0, 0.0])
    with pytest.raises(ValueError, match="exactly -1 or \\+1"):  # no bool as +1
        PopulationState(actions=[True, True], opinions=[0.0, 0.0])
    with pytest.raises(ValueError, match="exactly -1 or \\+1"):
        PopulationState(actions=np.array([True, True]), opinions=[0.0, 0.0])
    z = PopulationState(actions=[1.0, -1.0], opinions=[0.0, 0.0])
    assert z.actions.tolist() == [1, -1] and z.actions.dtype.kind == "i"
    with pytest.raises(ValueError):
        PopulationState(actions=[1, 1], opinions=[0.0, 1.5])
    # round-off overshoot within tolerance is clipped back into range
    z = PopulationState(actions=[1, 1], opinions=[1.0 + 1e-13, -1.0])
    assert z.opinions[0] == 1.0


# --- partition_state -------------------------------------------------------------


def test_partition_consensus_pair():
    z = PopulationState(actions=[1, 1], opinions=[1.0, 1.0])
    parts = partition_state(z)
    assert parts.pos_aligned == {0, 1}
    assert not parts.neg_aligned and not parts.pos_misaligned and not parts.neg_misaligned


def test_partition_aligned_polarized_pair():
    z = PopulationState(actions=[1, -1], opinions=[0.5, -0.5])
    parts = partition_state(z)
    assert parts.pos_aligned == {0}
    assert parts.neg_aligned == {1}


def test_partition_misaligned_single_agent():
    parts = partition_state(PopulationState(actions=[-1], opinions=[0.3]))
    assert parts.neg_misaligned == {0}


def test_partition_zero_opinion_follows_action():
    z = PopulationState(actions=[1, -1], opinions=[0.0, 0.0])
    parts = partition_state(z)
    assert parts.pos_aligned == {0}
    assert parts.neg_aligned == {1}


def test_partition_disjoint_cover_random():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        z = PopulationState(
            actions=rng.integers(0, 2, n) * 2 - 1,
            opinions=np.round(rng.uniform(-1, 1, n), 1),  # hits 0.0 often
        )
        parts = partition_state(z)
        sets = (parts.pos_aligned, parts.neg_misaligned, parts.pos_misaligned, parts.neg_aligned)
        assert sum(len(s) for s in sets) == n
        assert frozenset().union(*sets) == frozenset(range(n))


# --- cohesiveness ------------------------------------------------------------------


def _ratio_oracle(members, weights):
    """Literal evaluation of the within-set weight fraction, row by row."""
    out = []
    for i in members:
        inside = sum(weights[i][j] for j in members)
        total = sum(weights[i])
        out.append(inside / total)
    return out


def test_cohesiveness_direct_example():
    w = np.array([[0.0, 0.6, 0.4], [0.7, 0.0, 0.3], [0.5, 0.5, 0.0]])
    g = WeightedGraph(w)
    ratios = _ratio_oracle([0, 1], w.tolist())
    assert min(ratios) == pytest.approx(0.6)
    assert cohesiveness([0, 1], g) == pytest.approx(0.6)
    assert diffusiveness([0, 1], g) == pytest.approx(max(ratios)) == pytest.approx(0.7)


def test_cohesiveness_fully_internal_mass():
    w = np.array(
        [
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
        ]
    )
    assert cohesiveness([0, 1], WeightedGraph(w)) == 1.0


def test_cohesiveness_bipartite_side_is_zero():
    part = (tuple(range(15)), tuple(range(15, 30)))
    g = complete_bipartite(part, seed=3)
    assert cohesiveness(part[0], g) == 0.0


def test_cohesiveness_errors():
    g = WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="nonempty"):
        cohesiveness([], g)
    with pytest.raises(ValueError, match="strict subset"):
        cohesiveness([0, 1], g)
    with pytest.raises(ValueError, match="out of range"):
        cohesiveness([2], g)


def test_cohesiveness_monotone_under_within_set_weight():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        w = rng.random((n, n)) + 0.05
        w /= w.sum(axis=1, keepdims=True)  # rows normalized first
        members = sorted(rng.choice(n, size=2, replace=False).tolist())
        before = cohesiveness(members, WeightedGraph(w))
        i, j = members[0], members[1]
        w2 = w.copy()
        w2[i, j] += rng.random() * 2.0
        w2[i] /= w2[i].sum()  # renormalize the bumped row
        after = cohesiveness(members, WeightedGraph(w2))
        assert after >= before - 1e-12


def test_within_mass_is_the_literal_within_set_row_sum():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        w = rng.random((n, n))
        w /= w.sum(axis=1, keepdims=True)
        g = WeightedGraph(w)
        members = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        masses = within_mass(members, g)
        assert list(masses) == members
        # the same bits as the row sums of the within-set block
        assert list(masses.values()) == w[np.ix_(members, members)].sum(axis=1).tolist()
        for i in members:
            assert masses[i] == pytest.approx(sum(w[i][j] for j in members), rel=0, abs=1e-12)


@pytest.mark.parametrize("agent", [1.9, 1.0, True, np.float64(1.0), np.bool_(True), "1"])
def test_agent_ids_must_be_integers(agent):
    g = WeightedGraph(np.full((4, 4), 0.25))
    with pytest.raises(ValueError, match="agent must be an integer"):
        check_partition(((0, agent), (2, 3)), 4)
    with pytest.raises(ValueError, match="agent must be an integer"):
        cohesiveness([0, agent], g)
    with pytest.raises(ValueError, match="agent must be an integer"):
        diffusiveness([0, agent], g)


def test_numpy_integer_agent_ids_are_accepted():
    g = WeightedGraph(np.full((4, 4), 0.25))
    pos, neg = check_partition((np.array([1, 0]), (np.int64(3), np.int32(2))), 4)
    assert (pos, neg) == ((0, 1), (2, 3))
    assert all(type(i) is int for i in pos + neg)
    assert cohesiveness(np.array([0, 1]), g) == cohesiveness([0, 1], g) == 0.5
    assert diffusiveness((np.int8(2),), g) == 0.25


# --- classify_state -----------------------------------------------------------------


def test_classify_consensus():
    z = PopulationState(actions=[1, 1, 1], opinions=[1.0, 1.0, 1.0])
    cls = classify_state(z)
    assert cls.kind == "consensus" and cls.sign == 1
    zm = PopulationState(actions=[-1, -1], opinions=[-1.0, -1.0])
    assert classify_state(zm).sign == -1


def test_classify_consensus_opinion_tolerance():
    near = PopulationState(actions=[1, 1], opinions=[1.0 - 5e-10, 1.0])
    assert classify_state(near).kind == "consensus"
    far = PopulationState(actions=[1, 1], opinions=[1.0 - 5e-9, 1.0])
    assert classify_state(far).kind == "mixed"  # aligned, but -1 camp is empty


def test_classify_polarized_bipartite_initial():
    from coevnet.genesis import initial_state

    part = (tuple(range(15)), tuple(range(15, 30)))
    z = initial_state("polarized", 30, 11, part)
    cls = classify_state(z)
    assert cls.kind == "polarized"
    assert cls.partition == (tuple(range(15)), tuple(range(15, 30)))


def test_classify_mixed():
    z = PopulationState(actions=[1, -1], opinions=[-0.2, 0.3])
    assert classify_state(z).kind == "mixed"


def test_polarized_implies_aligned_cover():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        z = rand_state(n, rng)
        cls = classify_state(z)
        if cls.kind == "polarized":
            parts = partition_state(z)
            assert parts.pos_aligned | parts.neg_aligned == frozenset(range(n))


# --- file format ----------------------------------------------------------------------


def test_network_roundtrip_two_layers(tmp_path):
    net = rand_net(7, seed=21)
    path = tmp_path / "net.txt"
    save_network(net, str(path))
    loaded = load_network(str(path))
    assert np.array_equal(loaded.A.weights, net.A.weights)
    assert np.array_equal(loaded.W.weights, net.W.weights)
    header = path.read_text().splitlines()[0]
    assert header == "n 7 layers 2"


def test_network_roundtrip_single_layer(tmp_path):
    net = rand_net(5, seed=4, same_layers=True)
    path = tmp_path / "net.txt"
    save_network(net, str(path))
    assert path.read_text().splitlines()[0] == "n 5 layers 1"
    loaded = load_network(str(path))
    assert np.array_equal(loaded.A.weights, net.A.weights)
    assert loaded.same_layers()


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "empty"),
        ("m 3 layers 1\n", "malformed header"),
        ("n 2 layers 1\nW 1 3 0.5\n", "out of range"),
        ("n 2 layers 1\nW 1 2 -0.5\n", "invalid weight"),
        ("n 2 layers 1\nW 1 2 1\nW 1 2 0.5\n", "duplicate"),
        ("n 2 layers 1\nW 1 2 0.9\nW 2 1 1\n", "rows must sum to 1"),
        ("n two layers 1\nW 1 2 1\nW 2 1 1\n", "malformed header"),
        ("n 2 layers 1.0\nW 1 2 1\nW 2 1 1\n", "malformed header"),
        ("n 2 layers 1\nW 1 x 1\nW 2 1 1\n", "malformed edge line"),
        ("n 2 layers 1\nA 1 2 1\nW 2 1 1\n", "single-layer file has an A edge line"),
        ("n 2 layers 2\nW 1 2 1\nW 2 1 1\n", "layer A has 0 edge lines"),
        ("n 2 layers 1\nW 1 1 1\nW 2 1 1\n", "self-loop at agent 1"),
        ("n 2 layers 2\nA 1 2 1\nA 2 2 1\nW 1 2 1\nW 2 1 1\n", "self-loop at agent 2"),
        # a header this large must be refused before any n x n allocation
        ("n 1000000000 layers 1\nW 1 2 1\nW 2 1 1\n", "n=1000000000"),
        ("n 1000000000 layers 2\nA 1 2 1\nW 2 1 1\n", "n=1000000000"),
    ],
)
def test_loader_rejects_malformed_files(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError, match=message):
        load_network(str(path))
