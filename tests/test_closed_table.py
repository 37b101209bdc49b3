"""The closed form over the benchmark's ``closed-table`` candidates.

``perfbench/workloads.py`` defines the candidates and ``perfbench/pins.json``
records a digest of each one's closed-form output; both are read here and
never written.  A benchmark run samples 32 of the 64 candidates of each
stratum and its smoke test one candidate of every tenth stratum, so these
tests are the ones that read every pin.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

from rigidity_kit import AlgebraType, rd_closed, rigdim_closed

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

sys.path.insert(0, str(PERFBENCH))  # workloads imports measure, and measure tracer, by name
try:
    workloads = importlib.import_module("workloads")
finally:
    sys.path.remove(str(PERFBENCH))

CANDIDATE_TYPES = [
    (shape, k, workloads.closed_type(AlgebraType, index, k, shape))
    for index, shape in enumerate(workloads.closed_shapes())
    for k in range(workloads.CANDIDATES)
]


def test_every_closed_table_pin_is_reproduced():
    pins = json.loads(workloads.PINS_PATH.read_text(encoding="utf-8"))["closed_table"]
    mismatches, evaluations = [], 0
    for shape, k, atype in CANDIDATE_TYPES:
        labels = atype.diagram.labels
        rows = [(r.rd, r.branch) for r in (rd_closed(atype, t) for t in labels)]
        evaluations += len(rows)
        digest = workloads.closed_digest(labels, rows, rigdim_closed(atype))
        if digest != pins[workloads.shape_key(shape)][8 * k: 8 * k + 8]:
            mismatches.append(f"{workloads.shape_key(shape)} candidate {k}: {atype.describe()}")
    assert (len(pins), len(CANDIDATE_TYPES), evaluations) == (151, 9_664, 204_096)
    assert mismatches == []


# Types of family A with a tau-exponent below the largest label, so that
# some labels reach the degree-zero fringe t >= n of A.s1.  A.s2 has no
# fringe: its division is (shift + m, 2 shift + m) with shift >= 1, so
# every label t <= m/2 lies below 2 shift + m.
SMALL_SHIFT_TYPES = [AlgebraType.from_shift("A", rank, n) for rank in (3, 4, 5) for n in (1, 2)]

BRANCH_KINDS = {
    *(f"A.s1:{kind}{sym}" for kind in ("open", "closed", "tail", "zero") for sym in ("", "+sym")),
    *(f"A.s2:{kind}{sym}" for kind in ("open", "closed", "tail") for sym in ("", "+sym")),
    "D:open", "D:closed", "D:tail", "D:zero",
    "D:spine(div,par=0)", "D:spine(div,par=1)",
    "D:spine(nondiv,par=0)", "D:spine(nondiv,par=1)", "D:spine(m>=n)",
    "D4:t=2(div)", "D4:t=2(nondiv)",
    "D4:outer(u%3=0)", "D4:outer(u%3=1)", "D4:outer(u%3=2)",
}


def branch_kinds(types) -> set[str]:
    """The A and D branches that ``rd_closed`` reports on ``types``, with ``(l=...)`` dropped."""
    return {
        re.sub(r"\(l=-?\d+\)", "", branch)
        for atype in types if atype.diagram.family != "E"
        for branch in (rd_closed(atype, t).branch for t in atype.diagram.labels)
    }


def test_named_grids_reach_every_a_and_d_branch_kind():
    candidates = branch_kinds(atype for _, _, atype in CANDIDATE_TYPES)
    small_shift = branch_kinds(SMALL_SHIFT_TYPES)
    assert candidates | small_shift == BRANCH_KINDS
    # no candidate reaches the A.s1 fringe; the small shifts do
    assert BRANCH_KINDS - candidates == {"A.s1:zero", "A.s1:zero+sym"}
    assert {"A.s1:zero", "A.s1:zero+sym"} <= small_shift
