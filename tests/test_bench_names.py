"""The benchmark tracer's name lookups resolve in the package.

``perfbench/tracer.py`` wraps functions it looks up by name, and replaces
them at their import sites by identity.  A renamed function, or an import
site bound to a different object, would make the benchmark fail or count
nothing, so the names are checked here with the package's own tests.
Every ``__all__`` entry of the package and its modules must resolve too,
so no export outlives the function it names, and every module export must
be re-exported by the package or used in it, so none outlives its last caller.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rigidity_kit"
SUBMODULES = ("cli", "euclid", "orthogonal", "quiver", "rigidity")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", PERFBENCH / "tracer.py")

LOOKUPS = (
    [(module, name) for module, names in tracer.SPANS.items() for name in names]
    + [("quiver", name) for name in tracer.QUIVER_LEAVES]
    + [("euclid", name) for name in tracer.EUCLID_LEAVES]
)


@pytest.mark.parametrize("module,name", LOOKUPS, ids=[f"{m}.{n}" for m, n in LOOKUPS])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"rigidity_kit.{module}"), name))


@pytest.mark.parametrize(
    "module", ["rigidity_kit"] + [f"rigidity_kit.{name}" for name in SUBMODULES]
)
def test_every_export_resolves(module):
    package = importlib.import_module(module)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def _loads(node, inside=()):
    """The names ``node`` loads, as a ``Name`` or an ``Attribute``, outside the body of the
    def or class of the same name (``__all__`` lists hold strings, so they load nothing)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = (*inside, node.name)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if node.attr not in inside:
            yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, inside)


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_export_has_a_caller(module):
    loaded = {name for path in PACKAGE.glob("*.py") for name in _loads(ast.parse(path.read_text()))}
    reexported = set(importlib.import_module("rigidity_kit").__all__)
    exports = importlib.import_module(f"rigidity_kit.{module}").__all__
    assert [name for name in exports if name not in reexported | loaded] == []


def test_rigidity_imports_the_memoised_weight_sequence():
    from rigidity_kit import euclid, rigidity

    assert rigidity.weight_sequence is euclid.weight_sequence


@pytest.mark.parametrize(
    "family,rank,u,s",
    [("A", 5, 2, 2), ("D", 4, 2, 3), ("E", 6, 2, 2), ("D", 6, Fraction(4, 3), 1)],
    ids=str,
)
def test_rd_oracle_steps_through_omega(monkeypatch, family, rank, u, s):
    """Each ``rd_oracle`` call takes at least ``witness`` steps through ``rigidity.omega``.

    The tracer counts oracle steps as ``omega`` calls made inside
    ``rd_oracle``, and ``perfbench/test_smoke.py`` requires them to cover
    the witnesses; this guard checks the same on the engine itself, without
    the tracer, on every label of twisted and fractional types.  ROADMAP
    item 1 replaces it, together with the tracer, before the congruence
    oracle of item 2 lands.
    """
    from rigidity_kit import AlgebraType, Vertex, rigidity

    calls = 0
    original = rigidity.omega

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(rigidity, "omega", counting)
    atype = AlgebraType.create(family, rank, u, s)
    for t in atype.diagram.labels:
        calls = 0
        report = rigidity.rd_oracle(atype, Vertex(0, t))
        assert calls >= report.witness > 0, t


HAMMOCK_LEAVES = ("hammock_minus", "hammock_plus", "hammock_dot", "orbit_quiver_dot")


def test_tracer_counts_the_hammock_leaves(monkeypatch, capsys):
    """The tracer's hammock and DOT leaf wrappers are reached by the CLI, and change no output.

    No benchmark workload runs ``hammock``, so this is what shows the four
    leaves still wrap the functions the CLI calls.  ``fresh_import`` swaps
    the package in ``sys.modules``; the copy the other tests imported is put
    back afterwards.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))  # measure.py imports tracer by name
    measure = _load("perfbench_measure", PERFBENCH / "measure.py")
    from rigidity_kit.cli import main

    spec = ["hammock", "--delta", "D", "--rank", "6", "--u", "1", "--t", "m+", "--format", "dot"]
    argvs = [spec + ["--direction", "minus"], spec + ["--direction", "plus"], spec + ["--orbit"]]
    untraced = []
    for argv in argvs:
        assert main(argv) == 0
        untraced.append(capsys.readouterr().out)
    saved = {name: module for name, module in sys.modules.items()
             if name == "rigidity_kit" or name.startswith("rigidity_kit.")}
    try:
        mods = measure.fresh_import(with_cli=True)
        traced = tracer.Tracer()
        traced.install(mods)
        for argv, expected in zip(argvs, untraced):
            assert mods.cli.main(argv) == 0
            assert capsys.readouterr().out == expected
    finally:
        for name in [name for name in sys.modules
                     if name == "rigidity_kit" or name.startswith("rigidity_kit.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    counts = traced.counts()
    assert [name for name in HAMMOCK_LEAVES if counts[f"quiver.{name}"] < 1] == []
