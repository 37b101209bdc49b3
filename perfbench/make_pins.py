"""Regenerate ``pins.json``, the expected outputs the benchmark gates on.

    python3 perfbench/make_pins.py

The pins record what the code computes when they are made; a later change
that alters any closed-form value, branch name, rigidity dimension or
type-D certificate makes the benchmark count failed units.  Regenerate only
when such a change is intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rigidity_kit import AlgebraType, Vertex, is_maximal_orthogonal, rd_closed, rigdim_closed  # noqa: E402
from workloads import (  # noqa: E402
    CANDIDATES, PINS_PATH, certify_grid, closed_digest, closed_shapes, closed_type, d_key,
    shape_key,
)


def closed_pins() -> dict:
    pins = {}
    for index, shape in enumerate(closed_shapes()):
        digests = []
        for k in range(CANDIDATES):
            atype = closed_type(AlgebraType, index, k, shape)
            labels = atype.diagram.labels
            rows = [(r.rd, r.branch) for r in (rd_closed(atype, t) for t in labels)]
            digests.append(closed_digest(labels, rows, rigdim_closed(atype)))
        pins[shape_key(shape)] = "".join(digests)
    return pins


def certify_pins() -> list:
    hits = []
    for rank, u, s in certify_grid(tiny=False)["d_sweep"]:
        atype = AlgebraType.create("D", rank, u, s)
        for t in atype.diagram.labels:
            if is_maximal_orthogonal(atype, Vertex(0, t), rd_closed(atype, t).rd).is_maximal:
                hits.append(d_key(rank, u, s, t))
    return hits


def main() -> None:
    pins = {"closed_table": closed_pins(), "certify_maximal": certify_pins()}
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
