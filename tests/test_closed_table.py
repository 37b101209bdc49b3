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
from rigidity_kit.rigidity import (
    _E6_BLOCK_A,
    _E6_BLOCK_B,
    _E6_SHARED_ROWS,
    _E7_ROWS,
    _E8_ROWS,
)
from test_acceptance import type_e_sweep
from test_rigidity import e8_table_sweep

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


def e_table_cells() -> set[tuple]:
    """Every cell of the type-E tables: (prefix, [block,] row key, u mod h*)."""
    cells = set()
    for prefix, rows in (("E7", _E7_ROWS), ("E8", _E8_ROWS)):
        cells |= {(prefix, key, res) for key, row in rows.items() for res in range(len(row))}
    for prefix in ("E6.s1", "E6.s2"):
        for key, row in _E6_SHARED_ROWS.items():
            cells |= {(prefix, key, res) for res in range(len(row))}
        for block, rows in (("A", _E6_BLOCK_A), ("B", _E6_BLOCK_B)):
            for key, row in rows.items():
                cells |= {(prefix, block, key, res) for res in range(len(row))}
    return cells


E_BRANCH = re.compile(r"(E[678](?:\.s[12])?):t=(\d+),u%\d+=(\d+)(?:,blk=([AB]))?")


def e_cells_reached(types) -> set[tuple]:
    """The type-E table cells that ``rd_closed`` reads on ``types``, labels collapsed to rows."""
    cells = set()
    for atype in types:
        rank = atype.diagram.rank
        for t in atype.diagram.labels:
            prefix, label, res, block = E_BRANCH.fullmatch(rd_closed(atype, t).branch).groups()
            label, res = int(label), int(res)
            if block:
                cells.add((prefix, block, 1 if label in (1, 5) else 2, res))
            elif rank == 6:
                cells.add((prefix, label, res))
            else:
                cells.add((prefix, label if label in (1, 2, rank - 1, rank) else 3, res))
    return cells


def test_agreement_grids_reach_every_e_table_cell():
    # the grids that tier-1 checks against the oracle: criterion 4 and the E8 sweep of u <= 15
    cells = e_table_cells()
    criterion_4 = e_cells_reached(type_e_sweep())
    assert len(cells) == 192
    assert criterion_4 | e_cells_reached(e8_table_sweep()) == cells
    # criterion 4 stops at E8 u = 8, so the E8 sweep alone reaches u mod 15 in {0, 9, ..., 14}
    assert cells - criterion_4 == {
        ("E8", key, res) for key in _E8_ROWS for res in (0, *range(9, 15))
    }
