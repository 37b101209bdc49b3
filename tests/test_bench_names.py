"""The benchmark tracer's name lookups resolve in the package.

``perfbench/tracer.py`` wraps functions it looks up by name, and replaces
them at their import sites by identity.  A renamed function, or an import
site bound to a different object, would make the benchmark fail or count
nothing, so the names are checked here with the package's own tests.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

LOOKUPS = (
    [(module, name) for module, names in tracer.SPANS.items() for name in names]
    + [("quiver", name) for name in tracer.QUIVER_LEAVES]
    + [("euclid", name) for name in tracer.EUCLID_LEAVES]
)


@pytest.mark.parametrize("module,name", LOOKUPS, ids=[f"{m}.{n}" for m, n in LOOKUPS])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"rigidity_kit.{module}"), name))


def test_rigidity_imports_the_memoised_weight_sequence():
    from rigidity_kit import euclid, rigidity

    assert rigidity.weight_sequence is euclid.weight_sequence
