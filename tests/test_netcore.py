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
    validate_network,
)
from coevnet.genesis import complete_bipartite

from conftest import rand_net, rand_state


# --- WeightedGraph / TwoLayerNetwork ------------------------------------------


def test_permutation_matrix_is_valid_symmetric_stochastic():
    g = WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = validate_network(TwoLayerNetwork.single_layer(g))
    assert report.valid
    assert all(layer.symmetric for layer in report.layers)
    assert g.symmetric


def test_row_sum_violation_rejected_and_reported():
    from coevnet.netcore import _validate_layer

    bad = np.array([[0.0, 0.9], [0.5, 0.5]])
    with pytest.raises(ValueError, match="rows must sum to 1"):
        WeightedGraph(bad)
    layer = _validate_layer("W", WeightedGraph(bad, row_stochastic=False))
    assert not layer.valid
    assert layer.max_row_sum_deviation == pytest.approx(0.1)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        WeightedGraph(np.array([[0.0, 1.0], [1.5, -0.5]]), row_stochastic=False)


def test_bipartite_30_node_generator_output_is_valid():
    part = (tuple(range(15)), tuple(range(15, 30)))
    g = complete_bipartite(part, seed=5)
    report = validate_network(TwoLayerNetwork.single_layer(g))
    assert report.valid
    assert g.symmetric


def test_symmetric_flag_is_exact():
    m = np.array([[0.0, 0.6, 0.4], [0.6, 0.0, 0.4], [0.4, 0.4, 0.2]])
    assert WeightedGraph(m).symmetric
    m2 = m.copy()
    m2[0, 1] = np.nextafter(0.6, 0.0)  # one ulp of asymmetry breaks the flag
    assert not WeightedGraph(m2, row_stochastic=False).symmetric


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
    zero_row = WeightedGraph(np.array([[0.0, 0.0], [1.0, 0.0]]), row_stochastic=False)
    with pytest.raises(ValueError, match="positive total"):
        cohesiveness([0], zero_row)


def test_cohesiveness_monotone_under_within_set_weight():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        w = rng.random((n, n)) + 0.05
        members = sorted(rng.choice(n, size=2, replace=False).tolist())
        before = cohesiveness(members, WeightedGraph(w, row_stochastic=False))
        i, j = members[0], members[1]
        w2 = w.copy()
        w2[i, j] += rng.random() * 2.0
        w2[i] /= w2[i].sum()  # renormalize the bumped row
        after = cohesiveness(members, WeightedGraph(w2, row_stochastic=False))
        assert after >= before - 1e-12


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
