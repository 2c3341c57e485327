"""Import hygiene: no module of the package (its ``__init__`` aside, which
re-exports) and no module of the tests imports a name it never reads.  An
import on a line marked ``# noqa: F401`` is kept on purpose.

Also the one configuration: no function of the package takes a rank
tolerance or a sample count for ``run_case``, every rank floor is
keyword-only, and no subcommand offers a flag for either.  And no module
inverts a matrix: ad a and phi act on m entry by entry, so the setup keeps
no operator matrix of them.  And no loop of the package searches for a
generic point one draw at a time: each search screens its stack of draws with
``in_R_mask``.  And every bracket in coordinates comes from the structure
constants of u(n): the one matrix commutator left is ``lie.bracket``, and only
``lie`` reads the structure-constant table."""

import argparse
import ast
import dataclasses
from pathlib import Path

import pytest

from suborbit.cli import build_parser
from suborbit.orbit import OrbitSetup

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "suborbit").glob("*.py"))
MODULES = sorted([p for p in PACKAGE if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


def test_unused_imports_finds_exactly_the_unread_names():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from a import (b, c,  # noqa: F401\n"
              "               d)\n"
              "import numpy as np\n"
              "x: b = np.zeros(os.sep)\n")
    assert unused_imports(source) == [(2, "json"), (4, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


KNOBS = {"rtol", "rank_tol", "dim_samples"}


def knob_parameters(source: str) -> list:
    """``(line, name)`` of each parameter of a function or lambda in
    ``source`` that names a removed knob, or a rank floor passable by
    position."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in KNOBS:
                found.append((node.lineno, arg.arg))
        for arg in args.posonlyargs + args.args:
            if arg.arg in ("floor", "floors"):
                found.append((node.lineno, arg.arg))
    return sorted(found)


def test_knob_parameters_finds_knobs_and_positional_floors():
    source = ("def a(x, rtol=1e-9): pass\n"
              "def b(x, *, floor=0.0): pass\n"
              "def c(s, floors=0.0): pass\n"
              "class D:\n"
              "    def e(self, *, dim_samples=25): pass\n"
              "f = lambda x, rank_tol: x\n")
    assert knob_parameters(source) == [(1, "rtol"), (3, "floors"),
                                       (5, "dim_samples"), (6, "rank_tol")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_rank_or_sample_knob(path):
    assert knob_parameters(path.read_text()) == []


def test_no_subcommand_offers_a_rank_or_sample_flag():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"verify", "flow", "sweep"}
    for name, parser in sub.choices.items():
        flags = {o for a in parser._actions for o in a.option_strings}
        assert "--seed" in flags, name
        assert not flags & {"--tolerance-rank", "--samples"}, name


def matrix_inversions(source: str) -> list:
    """Lines of each call of ``<...>.linalg.inv`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inv" and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg"]


def test_matrix_inversions_finds_linalg_inv_calls():
    source = ("import numpy as np\n"
              "A = np.linalg.inv(B)\n"
              "x = np.linalg.solve(B, c)\n"
              "inv = 1.0 / s\n"
              "C = numpy.linalg.inv(B @ B)\n")
    assert matrix_inversions(source) == [2, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_inverts_no_matrix(path):
    assert matrix_inversions(path.read_text()) == []


def test_setup_keeps_no_anchor_operator_matrix():
    names = {f.name for f in dataclasses.fields(OrbitSetup)}
    assert not names & {"ad_a_m", "ad_a_m_inv"}


PER_POINT = {"is_in_R", "sample_element"}


def per_point_searches(source: str) -> list:
    """``(line, name)`` of each call of ``is_in_R`` or ``sample_element``
    inside the body of a ``for`` or ``while`` loop, or inside a comprehension,
    in ``source``."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            body = loop.body
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            body = [loop]
        else:
            continue
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in PER_POINT:
                    found.add((node.lineno, name))
    return sorted(found)


def test_per_point_searches_finds_calls_in_loop_bodies():
    source = ("ok = is_in_R(s, x0, 'm', d)\n"
              "for i in range(3):\n"
              "    x = generic.sample_element(V, rng, n)\n"
              "    while not is_in_R(s, x, 'm', d) and is_in_R(s, x, 'm', d):\n"
              "        x = f(x)\n"
              "else:\n"
              "    is_in_R(s, x, 'm', d)\n"
              "xs = [sample_element(V, r, n) for r in rngs]\n"
              "C = sample_coords(V, seed, 53, 12)\n")
    assert per_point_searches(source) == [(3, "sample_element"), (4, "is_in_R"),
                                          (8, "sample_element")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_loop_decides_one_point_at_a_time(path):
    assert per_point_searches(path.read_text()) == []


def matrix_commutators(source: str) -> list:
    """``(line, function)`` of each matrix commutator ``P @ Q - Q @ P`` in
    ``source``, with the innermost function it sits in (None at module level)."""
    tree = ast.parse(source)
    funcs = [f for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            continue
        left, right = node.left, node.right
        if (all(isinstance(t, ast.BinOp) and isinstance(t.op, ast.MatMult)
                for t in (left, right))
                and ast.dump(left.left) == ast.dump(right.right)
                and ast.dump(left.right) == ast.dump(right.left)):
            inside = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            found.append((node.lineno, max(inside, key=lambda f: f.lineno).name
                          if inside else None))
    return sorted(found)


def test_matrix_commutators_finds_commutators_only():
    source = ("def bracket(X, Y):\n"
              "    M = X.matrix @ Y.matrix - Y.matrix @ X.matrix\n"
              "    N = X @ Y - X @ Y\n"
              "    def inner(P, w):\n"
              "        return (w @ P - P @ w) + (P @ w + w @ P)\n"
              "    return M - N\n"
              "C = A[i] @ A[j] - A[j] @ A[i]\n")
    assert matrix_commutators(source) == [(2, "bracket"), (5, "inner"), (7, None)]


def test_the_one_matrix_commutator_is_lie_bracket():
    found = [(path.name, func) for path in PACKAGE
             for _, func in matrix_commutators(path.read_text())]
    assert found == [("lie.py", "bracket")]


def reads_structure_constants(source: str) -> list:
    """Lines of ``source`` that name ``_structure_constants``: a read, an
    attribute or an import of it."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Name) and node.id == "_structure_constants")
                   or (isinstance(node, ast.Attribute)
                       and node.attr == "_structure_constants")
                   or (isinstance(node, ast.ImportFrom)
                       and any(a.name == "_structure_constants" for a in node.names))})


def test_reads_structure_constants_finds_names_attributes_and_imports():
    source = ("from .lie import (_sparse_ad_stack,\n"
              "                  _structure_constants)\n"
              "t = lie._structure_constants(3)\n"
              "u = _structure_constants\n"
              "v = structure_constants(3)\n")
    assert reads_structure_constants(source) == [1, 3, 4]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "lie.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_lie_reads_the_structure_constants(path):
    assert reads_structure_constants(path.read_text()) == []
