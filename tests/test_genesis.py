import numpy as np
import pytest

from coevnet import TwoLayerNetwork, classify_state, partition_state
from coevnet.analysis import (
    check_coordination_polarized,
    check_thm2,
    check_thm3,
    check_thm7,
)
from coevnet import genesis
from coevnet.genesis import (
    GenSpec,
    InfeasibleConditionError,
    build_graph,
    complete_bipartite,
    condition_rescaled,
    initial_state,
    random_symmetric_stochastic,
)
from coevnet.genesis import _sym_sinkhorn
from coevnet.netcore import ROW_SUM_TOL

from conftest import uniform_params

PART_15_15 = (tuple(range(15)), tuple(range(15, 30)))


# --- random symmetric stochastic ------------------------------------------------


def test_two_node_output_is_the_pair_graph():
    # zero diagonal plus symmetry plus unit row sums force the permutation
    # matrix; values land within the normalization tolerance of exactly 1
    g = random_symmetric_stochastic(2, seed=123)
    assert g.symmetric
    assert g.weights[0, 0] == 0.0 and g.weights[1, 1] == 0.0
    assert np.allclose(g.weights, [[0.0, 1.0], [1.0, 0.0]], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 12, 30])
@pytest.mark.parametrize("seed", [0, 7])
def test_row_sums_within_tolerance(n, seed):
    g = random_symmetric_stochastic(n, seed)
    assert np.max(np.abs(g.weights.sum(axis=1) - 1.0)) <= 1e-12
    assert g.weights.min() >= 0.0
    assert g.symmetric
    assert np.all(np.diag(g.weights) == 0.0)


def test_optional_self_loops():
    g = random_symmetric_stochastic(5, seed=3, zero_diagonal=False)
    assert np.all(np.diag(g.weights) > 0.0)
    assert g.symmetric


def test_reproducible_bitwise():
    a = random_symmetric_stochastic(30, seed=99)
    b = random_symmetric_stochastic(30, seed=99)
    assert np.array_equal(a.weights, b.weights)
    c = random_symmetric_stochastic(30, seed=100)
    assert not np.array_equal(a.weights, c.weights)


# --- condition_rescaled ------------------------------------------------------------


def test_rescaled_thm3_self_certifies():
    p = uniform_params(30, 0.8, 0.6, +1, 0.0)
    g = condition_rescaled("thm3", PART_15_15, p, 30, seed=5)
    net = TwoLayerNetwork.single_layer(g)
    z0 = initial_state("polarized", 30, 6, PART_15_15)
    report = check_thm3(z0, net, p)
    assert report.holds
    # within-camp row masses sit on the right sides of the published bounds
    w = g.weights
    pos_mass = w[np.ix_(range(15), range(15))].sum(axis=1)
    neg_mass = w[np.ix_(range(15, 30), range(15, 30))].sum(axis=1)
    assert np.all(pos_mass > 0.6153846)
    assert np.all(neg_mass < 0.3846154)
    assert not g.symmetric  # unreachable symmetrically with balanced camps


@pytest.mark.parametrize("alpha,split", [(0.0, (tuple(range(20)), tuple(range(20, 30)))),
                                         (1.0, PART_15_15)])
def test_rescaled_thm2_self_certifies(alpha, split):
    p = uniform_params(30, 0.55, 0.5, +1, alpha)
    g = condition_rescaled("thm2", split, p, 30, seed=8)
    assert g.symmetric
    net = TwoLayerNetwork(A=g, W=random_symmetric_stochastic(30, 9))
    z0 = initial_state("positive_opinions", 30, 10, split)
    assert check_thm2(z0, net, p).holds


def test_rescaled_thm7_self_certifies():
    p = uniform_params(30, 0.7, 0.6, -1, 0.0)
    g = condition_rescaled("thm7", PART_15_15, p, 30, seed=11)
    assert g.symmetric
    z0 = initial_state("polarized", 30, 12, PART_15_15)
    assert check_thm7(z0, TwoLayerNetwork.single_layer(g), p).holds


def test_rescaled_graph_is_checked_once_and_raises_when_it_fails(monkeypatch):
    from types import SimpleNamespace

    from coevnet import analysis

    p = uniform_params(30, 0.7, 0.6, -1, 0.0)
    real, calls = analysis.check_thm7, []

    def failing(z0, net, params):
        calls.append(real(z0, net, params).holds)
        return SimpleNamespace(holds=False)

    monkeypatch.setattr(analysis, "check_thm7", failing)
    with pytest.raises(RuntimeError, match="thm7 failed its own checker"):
        condition_rescaled("thm7", PART_15_15, p, 30, seed=11)
    assert calls == [True]  # one draw, which the real checker accepts


def test_rescaled_thm7_infeasible_parameters():
    p = uniform_params(30, 0.25, 0.4, -1, 0.0)
    with pytest.raises(InfeasibleConditionError, match="interval"):
        condition_rescaled("thm7", PART_15_15, p, 30, seed=13)


def test_rescaled_eq22_self_certifies():
    p = uniform_params(30, 0.7, 0.6, +1, 0.0)
    g = condition_rescaled("eq22", PART_15_15, p, 30, seed=14)
    assert g.symmetric
    z0 = initial_state("polarized", 30, 15, PART_15_15)
    report = check_coordination_polarized(z0, TwoLayerNetwork.single_layer(g), p)
    assert report.holds
    w = g.weights
    assert np.all(w[np.ix_(range(15), range(15))].sum(axis=1) > 0.655)


def test_rescaled_deterministic():
    p = uniform_params(12, 0.8, 0.6, +1, 0.0)
    part = (tuple(range(6)), tuple(range(6, 12)))
    a = condition_rescaled("thm3", part, p, 12, seed=21)
    b = condition_rescaled("thm3", part, p, 12, seed=21)
    assert np.array_equal(a.weights, b.weights)


def test_rescaled_rejects_bad_inputs():
    p = uniform_params(6, 0.5, 0.5, +1, 0.0)
    with pytest.raises(ValueError, match="unknown rescaling target"):
        condition_rescaled("thm5", ((0, 1, 2), (3, 4, 5)), p, 6, seed=1)
    with pytest.raises(ValueError, match="nonempty"):
        condition_rescaled("thm2", ((0, 1, 2, 3, 4, 5), ()), p, 6, seed=1)
    hetero = __import__("coevnet").AgentParams(
        lam=[0.4, 0.5, 0.5, 0.5, 0.5, 0.5], beta=[0.5] * 6, eps=[1] * 6
    )
    with pytest.raises(ValueError, match="homogeneous"):
        condition_rescaled("thm2", ((0, 1, 2), (3, 4, 5)), hetero, 6, seed=1)


# --- complete bipartite ----------------------------------------------------------------


def test_bipartite_uniform_cross_weights():
    g = complete_bipartite(PART_15_15, seed=1, uniform=True)
    cross = g.weights[np.ix_(range(15), range(15, 30))]
    assert np.all(cross == 1.0 / 15.0)
    assert g.symmetric


def test_bipartite_zero_within_mass():
    g = complete_bipartite(PART_15_15, seed=2)
    w = g.weights
    assert np.all(w[np.ix_(range(15), range(15))] == 0.0)
    assert np.all(w[np.ix_(range(15, 30), range(15, 30))] == 0.0)
    assert np.all(w[np.ix_(range(15), range(15, 30))] > 0.0)
    assert np.max(np.abs(g.weights.sum(axis=1) - 1.0)) <= 1e-12


def test_bipartite_satisfies_partition_invariance_condition():
    g = complete_bipartite(PART_15_15, seed=3)
    p = uniform_params(30, 0.7, 0.6, -1, 0.0)
    z0 = initial_state("polarized", 30, 4, PART_15_15)
    assert check_thm7(z0, TwoLayerNetwork.single_layer(g), p).holds


def test_bipartite_rejects_unbalanced_camps():
    with pytest.raises(ValueError, match="equally sized"):
        complete_bipartite(((0, 1, 2), (3, 4)), seed=5)


# --- the one balancer on bipartite blocks ---------------------------------------------


def _rect_sinkhorn_reference(m, row_target, col_target):
    """Alternating row/column scaling of a positive rectangular block to row
    masses ``row_target`` and column masses ``col_target``: an independent
    reference for balancing the bipartite ``C + C.T``."""
    m = np.array(m, dtype=float)
    dev = np.inf
    for _ in range(10_000):
        m *= row_target / m.sum(axis=1, keepdims=True)
        m *= col_target / m.sum(axis=0, keepdims=True)
        dev = float(np.max(np.abs(m.sum(axis=1) - row_target)))
        if dev <= 1e-13:
            return m
    if dev <= ROW_SUM_TOL:
        return m
    raise RuntimeError(f"rectangular reference failed to converge (deviation {dev:.3e})")


def _bipartite(cross):
    """The symmetric matrix [[0, C], [C^T, 0]]."""
    p, q = cross.shape
    m = np.zeros((p + q, p + q))
    m[:p, p:] = cross
    return m + m.T


@pytest.mark.parametrize(
    "p,q,m_pos",
    [(1, 1, 0.0), (2, 2, 0.0), (15, 15, 0.0), (50, 50, 0.0),
     (3, 5, 0.4), (4, 6, 0.3), (2, 8, 0.2)],
)
def test_balancer_on_a_bipartite_block_matches_the_rectangular_reference(p, q, m_pos):
    # balanced camp masses: q (1 - m_neg) = p (1 - m_pos)
    row_target = 1.0 - m_pos
    col_target = (p / q) * row_target
    target = np.concatenate([np.full(p, row_target), np.full(q, col_target)])
    rng = np.random.default_rng(100 * p + q)
    for _ in range(3):
        cross = 0.05 + rng.random((p, q))
        w = _sym_sinkhorn(_bipartite(cross), target)
        assert np.array_equal(w, w.T)
        assert np.max(np.abs(w.sum(axis=1) - target)) <= ROW_SUM_TOL
        assert np.all(w[:p, :p] == 0.0) and np.all(w[p:, p:] == 0.0)
        reference = _rect_sinkhorn_reference(cross, row_target, col_target)
        assert np.max(np.abs(w[:p, p:] - reference)) <= 1e-12


def test_balancer_rejects_an_empty_bipartite_row_at_once(monkeypatch):
    cross = 0.05 + np.random.default_rng(4).random((3, 5))
    cross[1] = 0.0
    target = np.concatenate([np.full(3, 0.6), np.full(5, 0.36)])
    # one sweep is enough to see the empty row, before any scaling
    monkeypatch.setattr(genesis, "_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="symmetric normalization hit an empty row"):
        _sym_sinkhorn(_bipartite(cross), target)


def test_balancer_reports_the_deviation_when_it_cannot_converge(monkeypatch):
    # camps of 2 and 3 cannot both reach unit row sums on cross edges alone
    cross = 0.05 + np.random.default_rng(5).random((2, 3))
    monkeypatch.setattr(genesis, "_MAX_SWEEPS", 50)
    with pytest.raises(RuntimeError, match=r"within 50 sweeps \(deviation \d\.\d{3}e[-+]\d+\)"):
        _sym_sinkhorn(_bipartite(cross), 1.0)


# --- initial states -----------------------------------------------------------------------


def test_polarized_initial_state():
    z = initial_state("polarized", 30, seed=31, partition=PART_15_15)
    cls = classify_state(z)
    assert cls.kind == "polarized"
    assert cls.partition == PART_15_15
    assert np.all(z.opinions[:15] > 0.0) and np.all(z.opinions[:15] <= 1.0)
    assert np.all(z.opinions[15:] < 0.0) and np.all(z.opinions[15:] >= -1.0)


def test_positive_opinions_initial_state():
    z = initial_state("positive_opinions", 20, seed=33)
    assert np.all((z.opinions > 0.0) & (z.opinions <= 1.0))
    parts = partition_state(z)
    assert not parts.pos_misaligned and not parts.neg_aligned
    pinned = initial_state("positive_opinions", 20, seed=33,
                           partition=(tuple(range(12)), tuple(range(12, 20))))
    assert np.all(pinned.actions[:12] == 1) and np.all(pinned.actions[12:] == -1)


def test_initial_state_determinism_and_validation():
    a = initial_state("random", 9, seed=35)
    b = initial_state("random", 9, seed=35)
    assert np.array_equal(a.actions, b.actions) and np.array_equal(a.opinions, b.opinions)
    with pytest.raises(ValueError, match="partition"):
        initial_state("polarized", 4, seed=1)
    with pytest.raises(ValueError, match="unknown initial-state kind"):
        initial_state("nope", 4, seed=1)


# --- GenSpec ---------------------------------------------------------------------------------


def test_genspec_validation_and_dispatch():
    spec = GenSpec(kind="random_symmetric", n=6, seed=3)
    g = build_graph(spec)
    assert np.array_equal(g.weights, random_symmetric_stochastic(6, 3).weights)
    with pytest.raises(ValueError, match="theorem id"):
        GenSpec(kind="condition_rescaled", n=6, seed=3, partition=((0,), (1,)))
    with pytest.raises(ValueError, match="partition"):
        GenSpec(kind="complete_bipartite", n=6, seed=3)
    bip = GenSpec(kind="complete_bipartite", n=6, seed=3,
                  partition=((0, 1, 2), (3, 4, 5)))
    assert build_graph(bip).symmetric
