"""Core data model: weighted influence graphs, two-layer networks, agent
parameters, joint action/opinion states, alignment partitions, and the
within-set mass and cohesiveness measures on which every checker builds.

All types are immutable after construction and safe to share across threads.
Agents are indexed 0..n-1 in code; file formats and CLI output use 1..n.
"""
from __future__ import annotations

import math
import operator
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

ROW_SUM_TOL = 1e-12
CONSENSUS_OPINION_TOL = 1e-9
_OPINION_RANGE_TOL = 1e-9
_WRITE_BATCH = 1 << 16  # bytes buffered before one write call


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WeightedGraph:
    """Dense row-stochastic influence matrix; entry (i, j) weighs j's influence on i.

    Every entry is finite and non-negative and every row sums to 1 within
    ``ROW_SUM_TOL``; this is checked here, once, and relied on everywhere else.
    ``symmetric`` is derived at construction and true only for bitwise equality
    of the matrix with its transpose, so a True flag is an exact guarantee.
    """

    weights: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        dev = np.max(np.abs(w.sum(axis=1) - 1.0))
        if dev > ROW_SUM_TOL:
            raise ValueError(
                f"rows must sum to 1 within {ROW_SUM_TOL:g}; worst deviation {dev:.3e}"
            )
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "symmetric", bool(np.array_equal(w, w.T)))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class TwoLayerNetwork:
    """Pair of row-stochastic graphs on one node set: G[A] carries the actions
    agents observe, G[W] carries the opinions they exchange.

    Agents observe only the others' actions, so G[A] has a zero diagonal;
    an opinion-layer self-weight is legal (it anchors the agent's opinion).
    """

    A: WeightedGraph
    W: WeightedGraph

    def __post_init__(self) -> None:
        if self.A.n != self.W.n:
            raise ValueError("both layers must share the node set")
        loops = np.flatnonzero(np.diag(self.A.weights))
        if loops.size:
            raise ValueError(
                f"action layer has a self-loop at agent {loops[0] + 1}; "
                "agents observe only the others' actions"
            )

    @classmethod
    def single_layer(cls, graph: WeightedGraph) -> "TwoLayerNetwork":
        return cls(A=graph, W=graph)

    @property
    def n(self) -> int:
        return self.A.n

    def same_layers(self) -> bool:
        """True when the two layers are entrywise identical."""
        return self.A.weights is self.W.weights or bool(
            np.array_equal(self.A.weights, self.W.weights)
        )


@dataclass(frozen=True)
class AgentParams:
    """Per-agent behavioural weights plus the global action bonus.

    ``lam`` weighs the action side of the payoff, ``beta`` the opinion side,
    both strictly inside (0, 1); ``eps`` is +1 for coordinating agents and -1
    for anti-coordinating agents; ``alpha`` >= 0 is the relative advantage of
    action +1.
    """

    lam: np.ndarray
    beta: np.ndarray
    eps: np.ndarray
    alpha: float = 0.0

    def __post_init__(self) -> None:
        lam = np.array(self.lam, dtype=float)
        beta = np.array(self.beta, dtype=float)
        eps = np.array(self.eps)
        if not (lam.ndim == beta.ndim == eps.ndim == 1):
            raise ValueError("lam, beta, eps must be 1-d vectors")
        if not (lam.size == beta.size == eps.size >= 1):
            raise ValueError("lam, beta, eps must have one entry per agent")
        # Written as "inside" tests so NaN, for which every comparison is false, fails too.
        if not np.all((lam > 0.0) & (lam < 1.0)):
            raise ValueError("lam entries must lie strictly in (0, 1)")
        if not np.all((beta > 0.0) & (beta < 1.0)):
            raise ValueError("beta entries must lie strictly in (0, 1)")
        # before the int cast, so neither 1.7 nor True is +1
        if eps.dtype == bool or not np.all(np.isin(eps, (-1, 1))):
            raise ValueError("eps entries must be -1 or +1")
        eps = eps.astype(int)
        if isinstance(self.alpha, (bool, np.bool_)) or not (
            math.isfinite(self.alpha) and self.alpha >= 0.0
        ):
            raise ValueError("alpha must be a finite non-negative real")
        object.__setattr__(self, "lam", _frozen(lam))
        object.__setattr__(self, "beta", _frozen(beta))
        object.__setattr__(self, "eps", _frozen(eps))
        object.__setattr__(self, "alpha", float(self.alpha))

    @classmethod
    def uniform(
        cls, n: int, lam: float, beta: float, eps: int, alpha: float = 0.0
    ) -> "AgentParams":
        """Identical parameters for all ``n`` agents."""
        return cls(
            lam=np.full(n, float(lam)),
            beta=np.full(n, float(beta)),
            eps=np.full(n, int(eps)),
            alpha=alpha,
        )

    @property
    def n(self) -> int:
        return self.lam.size

    def homogeneous(self) -> bool:
        """All lam equal, all beta equal, all eps equal."""
        return bool(
            np.all(self.lam == self.lam[0])
            and np.all(self.beta == self.beta[0])
            and np.all(self.eps == self.eps[0])
        )


@dataclass(frozen=True)
class PopulationState:
    """Joint profile: binary actions in {-1,+1} and opinions in [-1,+1]."""

    actions: np.ndarray
    opinions: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.actions)
        y = np.array(self.opinions, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size or x.size < 1:
            raise ValueError("actions and opinions must be 1-d vectors of equal size")
        # before the int cast, so neither 1.5 nor True is +1
        if x.dtype == bool or not np.all((x == 1) | (x == -1)):
            raise ValueError("actions must be exactly -1 or +1")
        x = x.astype(int)
        if np.any(np.abs(y) > 1.0 + _OPINION_RANGE_TOL) or not np.all(np.isfinite(y)):
            raise ValueError("opinions must lie in [-1, +1]")
        # Round-off from row sums within 1e-12 may overshoot by ~1e-13; clip it away.
        y = np.clip(y, -1.0, 1.0)
        object.__setattr__(self, "actions", _frozen(x))
        object.__setattr__(self, "opinions", _frozen(y))

    @property
    def n(self) -> int:
        return self.actions.size


def clip_opinion(value: float) -> float:
    """One opinion checked and clipped as ``PopulationState`` checks and clips
    its vector, for loops that update a state in place."""
    if not abs(value) <= 1.0 + _OPINION_RANGE_TOL:  # also rejects NaN
        raise ValueError("opinions must lie in [-1, +1]")
    return min(max(value, -1.0), 1.0)


@dataclass(frozen=True)
class Partition:
    """The four action/opinion-sign classes, disjoint and covering all agents.

    Opinion sign uses sgn(0) = 0, so an agent with zero opinion is classed by
    its action: with action +1 into ``pos_aligned``, with -1 into
    ``neg_aligned``.
    """

    n: int
    pos_aligned: frozenset  # action +1, opinion sign >= 0
    neg_misaligned: frozenset  # action -1, opinion sign > 0
    pos_misaligned: frozenset  # action +1, opinion sign < 0
    neg_aligned: frozenset  # action -1, opinion sign <= 0

    def __post_init__(self) -> None:
        sets = (
            self.pos_aligned,
            self.neg_misaligned,
            self.pos_misaligned,
            self.neg_aligned,
        )
        total = sum(len(s) for s in sets)
        union = frozenset().union(*sets)
        if total != self.n or union != frozenset(range(self.n)):
            raise ValueError("partition classes must be disjoint and cover 0..n-1")

    def aligned_pair(self) -> tuple[frozenset, frozenset]:
        """(positive camp, negative camp) of the aligned agents."""
        return self.pos_aligned, self.neg_aligned


def check_integer(name: str, value) -> int:
    """``value`` as a Python int: Python and numpy integers pass, anything
    else (floats, bools, strings) is rejected rather than truncated."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_partition(partition: tuple, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate a two-camp split of 0..n-1 and return both camps sorted."""
    pos = tuple(sorted(check_integer("agent", i) for i in partition[0]))
    neg = tuple(sorted(check_integer("agent", i) for i in partition[1]))
    if not pos or not neg:
        raise ValueError("both partition sides must be nonempty")
    if set(pos) & set(neg) or set(pos) | set(neg) != set(range(n)):
        raise ValueError("partition sides must be disjoint and cover 0..n-1")
    return pos, neg


def partition_state(z: PopulationState) -> Partition:
    """Split agents by action and opinion sign."""
    x, y = z.actions, z.opinions
    pos = x == 1
    return Partition(
        n=z.n,
        pos_aligned=frozenset(np.flatnonzero(pos & (y >= 0.0)).tolist()),
        neg_misaligned=frozenset(np.flatnonzero(~pos & (y > 0.0)).tolist()),
        pos_misaligned=frozenset(np.flatnonzero(pos & (y < 0.0)).tolist()),
        neg_aligned=frozenset(np.flatnonzero(~pos & (y <= 0.0)).tolist()),
    )


def within_mass(members: Iterable[int], graph: WeightedGraph) -> dict[int, float]:
    """Weight each member keeps inside ``members``, keyed by agent in
    ascending order; members are integer agent ids in 0..n-1."""
    idx = sorted({check_integer("agent", i) for i in members})
    if idx and not (idx[0] >= 0 and idx[-1] < graph.n):
        raise ValueError("set members out of range")
    inside = np.zeros(graph.n, dtype=bool)
    inside[idx] = True
    w = graph.weights
    return {i: float(w[i, inside].sum()) for i in idx}


def _set_ratios(members: Iterable[int], graph: WeightedGraph) -> list[float]:
    masses = within_mass(members, graph)
    if not masses:
        raise ValueError("set must be nonempty")
    if len(masses) == graph.n:
        raise ValueError("set must be a strict subset of the node set")
    w = graph.weights
    return [mass / float(w[i].sum()) for i, mass in masses.items()]


def cohesiveness(members: Iterable[int], graph: WeightedGraph) -> float:
    """Worst-case fraction of a member's weight kept inside the set.

    The set is q-cohesive exactly when the returned value is >= q.
    """
    return min(_set_ratios(members, graph))


def diffusiveness(members: Iterable[int], graph: WeightedGraph) -> float:
    """Best-case fraction of a member's weight kept inside the set.

    The set is q-diffusive exactly when the returned value is < q.
    """
    return max(_set_ratios(members, graph))


@dataclass(frozen=True)
class Classification:
    """Outcome class of a state: consensus (with sign), polarized (with the
    aligned partition, 0-based and sorted), or mixed."""

    kind: str  # "consensus" | "polarized" | "mixed"
    sign: int | None = None
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def label(self) -> str:
        if self.kind == "consensus":
            return f"consensus({'+1' if self.sign == 1 else '-1'})"
        return self.kind


def classify_state(z: PopulationState) -> Classification:
    """Consensus if all actions and opinions sit at the same pole (opinions
    within 1e-9), polarized if every agent is aligned but both camps are
    occupied, mixed otherwise."""
    x, y = z.actions, z.opinions
    for sign in (1, -1):
        if np.all(x == sign) and np.max(np.abs(y - sign)) <= CONSENSUS_OPINION_TOL:
            return Classification(kind="consensus", sign=sign)
    parts = partition_state(z)
    pos, neg = parts.aligned_pair()
    if len(pos) + len(neg) == z.n and pos and neg:
        return Classification(
            kind="polarized",
            partition=(tuple(sorted(pos)), tuple(sorted(neg))),
        )
    return Classification(kind="mixed")


# --- network file format -----------------------------------------------------
#
# UTF-8 text; header `n <count> layers <1|2>`; one line per directed edge
# `<A|W> <i> <j> <weight>` with 1-based node ids and 17-significant-digit
# weights; absent edges are zero.  Single-layer files hold only W lines and
# set A = W.


def atomic_write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``path`` (UTF-8) through a
    temporary file in the same directory, so readers see either the old file
    or the complete new one.  ``lines`` may be a generator: the file is
    written as it is produced through a 64 KiB buffer, never held in memory
    whole."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", buffering=_WRITE_BATCH, encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _edge_lines(tag: str, w: np.ndarray) -> list[str]:
    rows, cols = np.nonzero(w)
    return [
        f"{tag} {i + 1} {j + 1} {w[i, j]:.17g}"
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


def save_network(net: TwoLayerNetwork, path: str) -> None:
    """Write a network file; collapses to a single layer when A and W coincide."""
    single = net.same_layers()
    lines = [f"n {net.n} layers {1 if single else 2}"]
    if single:
        lines += _edge_lines("W", net.W.weights)
    else:
        lines += _edge_lines("A", net.A.weights)
        lines += _edge_lines("W", net.W.weights)
    atomic_write_lines(path, lines)


def load_network(path: str) -> TwoLayerNetwork:
    """Read a network file; rejects malformed input and non-stochastic rows.

    Every row of a row-stochastic layer carries at least one edge, so a header
    declaring more nodes than a layer has edge lines is rejected before any
    n x n matrix is allocated.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty network file")
    head = lines[0].split()
    if (
        len(head) != 4
        or head[0] != "n"
        or head[2] != "layers"
        or not (head[1].isdecimal() and head[3].isdecimal())
    ):
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    n, layers = int(head[1]), int(head[3])
    if n < 1 or layers not in (1, 2):
        raise ValueError(f"{path}: invalid header values {lines[0]!r}")
    tags = ("W",) if layers == 1 else ("A", "W")
    edges: dict[tuple[str, int, int], float] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] not in ("A", "W"):
            raise ValueError(f"{path}: malformed edge line {line!r}")
        try:
            i, j, weight = int(parts[1]) - 1, int(parts[2]) - 1, float(parts[3])
        except ValueError:
            raise ValueError(f"{path}: malformed edge line {line!r}") from None
        if parts[0] not in tags:
            raise ValueError(f"{path}: single-layer file has an A edge line {line!r}; use W")
        key = (parts[0], i, j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}: edge endpoint out of range in {line!r}")
        if weight < 0.0 or not math.isfinite(weight):
            raise ValueError(f"{path}: invalid weight in {line!r}")
        if key in edges:
            raise ValueError(f"{path}: duplicate edge {line!r}")
        edges[key] = weight
    counts = Counter(tag for tag, _, _ in edges)
    for tag in tags:
        if counts[tag] < n:
            raise ValueError(
                f"{path}: header declares n={n} but layer {tag} has {counts[tag]} "
                "edge lines; every row needs at least one edge"
            )
    mats = {tag: np.zeros((n, n)) for tag in tags}
    for (tag, i, j), weight in edges.items():
        mats[tag][i, j] = weight
    w_graph = WeightedGraph(mats["W"])
    if layers == 1:
        return TwoLayerNetwork.single_layer(w_graph)
    return TwoLayerNetwork(A=WeightedGraph(mats["A"]), W=w_graph)
