"""Source-level rules that no behavioural test can see."""
import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "coevnet").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements_in_package(path):
    # `python -O` strips assert statements; invariants must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


# Formulas of the model that the package writes out exactly once; a second
# copy is a place where the model could silently drift.
SINGLE_DEFINITIONS = {
    "action floor": "(1.0 - 2.0 * lam) / (1.0 - lam)",
    "opinion rule": "(1.0 - lam) * opinion_sum + lam * action",
    "discriminant action coefficient": "eps * lam * (1.0 - beta) / 2.0",
    "discriminant opinion coefficient": "2.0 * (1.0 - lam) * lam * beta",
    "action bracket": "2.0 * x + alpha * (1.0 + x)",
    "thm2 cohesive bound": "1.0 / (alpha + 2.0)",
    "thm2 diffusive bound": "(alpha + 1.0) / (alpha + 2.0)",
    "thm7 beta ceiling": "1.0 / (2.0 - lam)",
    "oracle tie band": "1e-12 * (np.abs(c) + np.abs(m_t).sum(axis=0))",
    "payoff coordination coefficient": "eps * lam * (1.0 - beta) / 4.0",
}
PARAMETERS = {"lam", "beta", "eps", "alpha"}


def _parameter(node):
    """Name of the model parameter that ``node`` reads (``lam``, ``params.lam``,
    ``params.lam[i]``, ``lam[i]``), or None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in PARAMETERS else None


_FSTRING_PARTS = (ast.JoinedStr, ast.FormattedValue)  # unparse needs them intact


class _Shape(ast.NodeTransformer):
    """Reduce every parameter read to the bare parameter name and every
    subexpression without parameters and constants to ``_``, so copies of a
    formula that differ only in variable names or indexing unparse alike."""

    def visit(self, node):
        if isinstance(node, ast.expr):
            name = _parameter(node)
            if name is not None:
                return ast.Name(id=name, ctx=ast.Load())
            if not isinstance(node, _FSTRING_PARTS) and not any(
                _parameter(sub) or isinstance(sub, ast.Constant) for sub in ast.walk(node)
            ):
                return ast.Name(id="_", ctx=ast.Load())
        return super().visit(node)


def _shapes(tree) -> list:
    tree = _Shape().visit(tree)
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.expr)]


def test_model_formulas_are_defined_once():
    counts = Counter(
        shape for path in SOURCES for shape in _shapes(ast.parse(path.read_text(encoding="utf-8")))
    )
    for label, formula in SINGLE_DEFINITIONS.items():
        shape = _shapes(ast.parse(formula, mode="eval").body)[0]  # the formula's own node
        assert counts[shape] == 1, f"{label} ({shape}) occurs {counts[shape]} times"


def test_one_linear_solve_in_package():
    # the opinion fixed point and the oracle's y* = S x share one solve
    sites = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and ast.unparse(node).endswith("linalg.solve")
    ]
    assert len(sites) == 1, f"np.linalg.solve at {sites}"


def test_dynamics_reduces_rows_only_with_vecdot():
    # every neighbourhood sum is one np.vecdot over stacked (A[i], W[i]) rows,
    # which gives the same bits for one agent, a selection and the population
    path = next(path for path in SOURCES if path.name == "dynamics.py")
    sites = [
        f"{type(node).__name__}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "einsum", "inner")
    ]
    assert not sites, f"dynamics.py reduces rows outside np.vecdot at {sites}"
