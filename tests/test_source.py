"""Static checks on the package source: nothing it imports or defines privately is left unused.

Only ``ast`` reads the modules of ``src/rescomp`` (``__init__.py``, which
re-exports, is skipped); nothing is imported or run.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rescomp"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
PRIVATE = re.compile(r"_(?!_)\w*")  # _name, not __dunder__


def _read_names(tree):
    """The bare names a module reads."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _imported(tree):
    """``(line, bound name)`` of every import in a module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _top_level(tree):
    """``(line, name)`` of every top-level function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def test_the_package_has_modules_to_check():
    assert {"hilbert.py", "operators.py", "proxfun.py", "solvers.py"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    read = _read_names(tree)
    unused = [f"{module}:{line} {name}" for line, name in _imported(tree) if name not in read]
    assert not unused, f"imported but never used: {unused}"


def test_every_private_definition_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= _read_names(tree)
        referenced |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unused = [f"{module}:{line} {name}" for module, tree in TREES.items()
              for line, name in _top_level(tree)
              if PRIVATE.fullmatch(name) and name not in referenced]
    assert not unused, f"private definitions nothing in src/ references: {unused}"


def test_the_solvers_write_no_resolvent_or_jacobian_formula():
    # Their step and its Jacobian are the resolvent cocomposition's, from
    # compositions: the solvers read no family's raw evaluator, derivative or
    # factors, and import no blockwise evaluator.
    tree = TREES["solvers.py"]
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not read & {"_evaluator", "derivative", "factors"}
    assert "_blockwise" not in {name for _line, name in _imported(tree)}


def test_the_cocomposition_step_takes_b_whole():
    # An affine B is folded whole and any other B evaluated whole: compositions
    # reads no product's factors and imports no blockwise evaluator or slices.
    tree = TREES["compositions.py"]
    assert "factors" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not {"_blockwise", "block_slices"} & {name for _line, name in _imported(tree)}


def _is_number_literal(node):
    """Whether ``node`` is a numeric literal such as ``1.0`` or ``-1``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex))


def test_derivative_is_always_applied_to_a_matrix():
    # derivative(gamma, y, A) returns (D - I) A for a matrix A; a number in
    # A's place reads D only for a scalar family and breaks on a set's projector.
    calls = [f"{module}:{node.lineno}" for module, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "derivative" and len(node.args) >= 3
             and _is_number_literal(node.args[2])]
    assert not calls, f"derivative called with a number for its matrix: {calls}"


def _np_random_scopes(tree):
    """The qualified name of the function or class around each ``np.random`` of a module."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "random"
                    and isinstance(child.value, ast.Name) and child.value.id in {"np", "numpy"}
                    or isinstance(child, ast.ImportFrom) and child.module == "numpy.random"):
                yield scope
            yield from visit(child, scope)

    return set(visit(tree, ""))


def test_only_the_suites_and_graph_sampling_draw():
    # A constructor decides its input exactly or by theorem, never by sampling it.
    drawn = {(module, scope) for module, tree in TREES.items() if module != "properties.py"
             for scope in _np_random_scopes(tree)}
    assert drawn <= {("operators.py", "ResolventFamily.sample_graph")}, drawn
