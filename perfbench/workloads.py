"""The four benchmark workloads: inputs, the timed calls, and output gates.

Each workload builds its inputs from the seed, runs them on one caller
(the next call starts only when the previous one returned), and checks
every result.  A unit fails when the engines disagree, a call raises, the
CLI exits non-zero, a certificate is wrong, or a results digest differs
from the pinned one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from measure import Outcome

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def _load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify-sweeps


@dataclass(frozen=True)
class Sweep:
    """One ``rigidity-kit verify`` sweep and the grid it must cover."""

    delta: str
    s: int
    rank: int | None = None
    rank_max: int | None = None
    n_max: int | None = None
    u_max: int | None = None
    fractional: bool = False

    def argv(self) -> list:
        argv = ["verify", "--delta", self.delta, "--s", str(self.s)]
        for flag, value in (("--rank", self.rank), ("--rank-max", self.rank_max),
                            ("--n-max", self.n_max), ("--u-max", self.u_max)):
            if value is not None:
                argv += [flag, str(value)]
        if self.fractional:
            argv.append("--fractional")
        return argv + ["--format", "json"]

    def grid(self) -> tuple:
        """(types, vertices) the sweep covers, counted from its definition."""
        if self.delta == "A":
            shifts = self.n_max if self.s == 1 else self.u_max
            ranks = range(1, self.rank_max + 1) if self.s == 1 else range(3, self.rank_max + 1, 2)
            return len(ranks) * shifts, sum((r + 1) // 2 for r in ranks) * shifts
        if self.delta == "E":
            return self.u_max, self.rank * self.u_max
        if self.fractional:
            ranks = range(6, self.rank_max + 1, 3)
            us = sum(1 for v in range(1, self.u_max + 1) if v % 3)
        elif self.s == 3:
            ranks, us = (4,), self.u_max
        else:
            ranks, us = range(4, self.rank_max + 1), self.u_max
        return len(ranks) * us, sum(ranks) * us


# Each sweep covers at least the ranks and u of the acceptance criterion it
# extends; E8 runs to u = 30 so every column of the E8 table (u mod 15) is
# compared twice.  The sweeps with the costliest vertices are the ones the
# latency percentiles land on, so they are long enough (0.1 s or more) to
# average over many switches of the CLI's pool threads.
SWEEPS = (
    Sweep("A", 1, rank_max=10, n_max=32),
    Sweep("A", 2, rank_max=13, u_max=8),
    Sweep("D", 1, rank_max=9, u_max=6),
    Sweep("D", 1, rank_max=12, u_max=7, fractional=True),
    Sweep("D", 2, rank_max=9, u_max=6),
    Sweep("D", 3, u_max=24),
    Sweep("E", 1, rank=6, u_max=24),
    Sweep("E", 2, rank=6, u_max=24),
    Sweep("E", 1, rank=7, u_max=27),
    Sweep("E", 1, rank=8, u_max=30),
)
TINY_SWEEPS = (
    Sweep("A", 1, rank_max=3, n_max=4),
    Sweep("A", 2, rank_max=3, u_max=2),
    Sweep("D", 1, rank_max=5, u_max=2),
    Sweep("D", 1, rank_max=6, u_max=2, fractional=True),
    Sweep("D", 2, rank_max=4, u_max=2),
    Sweep("D", 3, u_max=2),
    Sweep("E", 1, rank=6, u_max=1),
    Sweep("E", 2, rank=6, u_max=1),
    Sweep("E", 1, rank=7, u_max=1),
    Sweep("E", 1, rank=8, u_max=1),
)


class VerifySweeps:
    name = "verify-sweeps"
    uses_cli = True
    def __init__(self, tiny: bool = False) -> None:
        self.sweeps = TINY_SWEEPS if tiny else SWEEPS

    def build(self, mods, seed: int):
        return [(sweep.argv(), *sweep.grid()) for sweep in self.sweeps]

    def units(self, inputs) -> int:
        return sum(vertices for _, _, vertices in inputs)

    def run(self, mods, inputs, clock) -> Outcome:
        main = mods.cli.main
        samples, results = [], []
        for argv, _, _ in inputs:
            out = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out):
                    code = main(argv)
            except (Exception, SystemExit) as exc:  # argparse exits on bad input
                code = repr(exc)
            samples.append(clock() - t0)
            results.append((code, out.getvalue()))
        # the CLI checks a whole sweep per call: each vertex of a sweep is
        # given the sweep's mean time per vertex
        return Outcome(samples, results, [vertices for _, _, vertices in inputs])

    def check(self, inputs, outcome: Outcome) -> int:
        failed = 0
        for (_, types, vertices), (code, text) in zip(inputs, outcome.results):
            try:
                payload = json.loads(text)
            except ValueError:
                payload = {}
            if not (code == 0 and payload.get("ok") is True and payload.get("mismatches") == []
                    and payload.get("types") == types
                    and payload.get("vertices_checked") == vertices):
                failed += vertices
        return failed

    def describe(self, inputs) -> dict:
        return {"argv": [argv for argv, _, _ in inputs], "vertices": self.units(inputs)}


# ---------------------------------------------------------------------------
# oracle-ladder


@dataclass(frozen=True)
class Rung:
    """One ladder rung; the seed picks u among ``candidates``.

    The candidates of a rung share the omega-period length per unit of u
    and the residues the closed-form tables key on, so the seed moves the
    walk length by a few percent, not by the large factors a gcd change
    would bring.  The bands are at most 4% either side of their middle,
    except A41 s=2 and E8, whose nearest equal-period candidates lie 8% and
    6% away; E6 s=2 is fixed, because its are 10% away.
    """

    delta: str
    rank: int
    s: int
    candidates: tuple
    half: bool = False


# u is about a quarter of the rung sizes first proposed for this workload
# (u near 100, 1000 or 3000): on a shared two-CPU machine a repetition then
# takes a few seconds, and a run holds enough repetitions for steady medians.
RUNGS = (
    Rung("A", 40, 1, ("24", "25", "26"), half=True),
    Rung("D", 40, 1, ("23", "25")),
    Rung("A", 41, 2, ("22", "26"), half=True),
    Rung("D", 24, 2, ("25", "26")),
    Rung("D", 30, 1, ("73/3", "74/3", "76/3", "77/3")),
    Rung("D", 4, 3, ("744", "747", "750", "753", "756")),
    Rung("E", 6, 2, ("125",)),
    Rung("E", 7, 1, ("241", "250", "259")),
    Rung("E", 8, 1, ("235", "250", "265")),
)
TINY_RUNGS = (
    Rung("A", 5, 1, ("3", "4"), half=True),
    Rung("D", 5, 1, ("2", "3")),
    Rung("A", 5, 2, ("2", "3"), half=True),
    Rung("D", 6, 2, ("2",)),
    Rung("D", 6, 1, ("7/3", "8/3")),
    Rung("D", 4, 3, ("3", "6")),
    Rung("E", 6, 2, ("2",)),
    Rung("E", 7, 1, ("3",)),
    Rung("E", 8, 1, ("2",)),
)


class OracleLadder:
    name = "oracle-ladder"
    uses_cli = False

    def __init__(self, tiny: bool = False) -> None:
        self.rungs = TINY_RUNGS if tiny else RUNGS

    def build(self, mods, seed: int):
        rng = random.Random(seed)
        pkg = mods.pkg
        units = []
        for rung in self.rungs:
            u = Fraction(rng.choice(rung.candidates))
            atype = pkg.AlgebraType.create(rung.delta, rung.rank, u, rung.s)
            labels = atype.diagram.labels
            if rung.half:
                labels = labels[: (rung.rank + 1) // 2]
            units += [(atype, t, pkg.Vertex(0, t)) for t in labels]
        return units

    def units(self, inputs) -> int:
        return len(inputs)

    def run(self, mods, inputs, clock) -> Outcome:
        rd_closed, rd_oracle = mods.pkg.rd_closed, mods.pkg.rd_oracle
        samples, results = [], []
        for atype, t, vertex in inputs:
            t0 = clock()
            try:
                result = (rd_closed(atype, t).rd, rd_oracle(atype, vertex).rd)
            except Exception as exc:
                result = repr(exc)
            samples.append(clock() - t0)
            results.append(result)
        return Outcome(samples, results)

    def check(self, inputs, outcome: Outcome) -> int:
        return sum(1 for r in outcome.results if not (isinstance(r, tuple) and r[0] == r[1]))

    def describe(self, inputs) -> dict:
        rungs = {}
        for atype, _, _ in inputs:
            rungs[atype.describe()] = rungs.get(atype.describe(), 0) + 1
        return {"rungs": rungs}


# ---------------------------------------------------------------------------
# closed-table


def closed_shapes() -> list:
    """(delta, rank, s, fractional) of every closed-table stratum."""
    shapes = [("A", r, 1, False) for r in range(1, 41)]
    shapes += [("A", r, 2, False) for r in range(3, 42, 2)]
    shapes += [("D", r, 1, False) for r in range(4, 41)]
    shapes += [("D", r, 1, True) for r in range(6, 40, 3)]
    shapes += [("D", r, 2, False) for r in range(4, 41)]
    shapes += [("D", 4, 3, False), ("E", 6, 1, False), ("E", 6, 2, False),
               ("E", 7, 1, False), ("E", 8, 1, False)]
    return shapes


def shape_key(shape) -> str:
    delta, rank, s, fractional = shape
    return f"{delta}{rank}s{s}{'f' if fractional else ''}"


CANDIDATES = 64


def closed_type(algebra_type, index: int, k: int, shape):
    """The k-th pinned ``AlgebraType`` of the stratum ``closed_shapes()[index]``.

    Integer hashing only, so the candidates are the same on every platform
    and Python version.  u is log-uniform over [1, 10^6); type A with s=1
    takes a raw tau-exponent, fractional type D takes u = v/3.
    """
    delta, rank, s, fractional = shape
    h = (k * 2654435761 + index * 40503 + 12345) % (1 << 32)
    decade = h % 6
    value = 10**decade + (h // 6) % (9 * 10**decade)
    if delta == "A" and s == 1:
        return algebra_type.from_shift(delta, rank, value * rank + (h >> 7) % rank, s)
    if fractional:
        return algebra_type.create(delta, rank, Fraction(3 * value - 1 - (h >> 9) % 2, 3), s)
    return algebra_type.create(delta, rank, Fraction(value), s)


def closed_digest(labels, rows, formula) -> str:
    """Digest of one type's closed-form output: every (t, rd, branch) and rigdim."""
    text = "|".join(f"{t}:{rd}:{branch}" for t, (rd, branch) in zip(labels, rows))
    text += "#" + ("-" if formula is None else
                   f"{formula.family}:{formula.a}:{formula.r}:{formula.rigdim}")
    return hashlib.sha256(text.encode()).hexdigest()[:8]


class ClosedTable:
    name = "closed-table"
    uses_cli = False

    def __init__(self, tiny: bool = False) -> None:
        self.shapes = list(enumerate(closed_shapes()))[:: 10 if tiny else 1]
        self.picks = 1 if tiny else 32
        pins = _load_pins()["closed_table"]
        self.pins = {shape_key(shape): pins[shape_key(shape)] for _, shape in self.shapes}
        if any(len(d) != 8 * CANDIDATES for d in self.pins.values()):
            raise ValueError("pins.json does not match the closed-table candidates")

    def build(self, mods, seed: int):
        rng = random.Random(seed)
        types = []
        for index, shape in self.shapes:
            for k in sorted(rng.sample(range(CANDIDATES), self.picks)):
                atype = closed_type(mods.pkg.AlgebraType, index, k, shape)
                pin = self.pins[shape_key(shape)][8 * k: 8 * k + 8]
                types.append((atype, atype.diagram.labels, pin))
        return types

    def units(self, inputs) -> int:
        return sum(len(labels) for _, labels, _ in inputs)

    def run(self, mods, inputs, clock) -> Outcome:
        rd_closed, rigdim_closed = mods.pkg.rd_closed, mods.pkg.rigdim_closed
        samples, results = [], []
        for atype, labels, _ in inputs:
            rows = []
            for t in labels:
                t0 = clock()
                try:
                    report = rd_closed(atype, t)
                    rows.append((report.rd, report.branch))
                except Exception as exc:
                    rows.append(repr(exc))
                samples.append(clock() - t0)
            try:
                formula = rigdim_closed(atype)
            except Exception as exc:
                formula = repr(exc)
            results.append((rows, formula))
        return Outcome(samples, results)

    def check(self, inputs, outcome: Outcome) -> int:
        failed = 0
        for (_, labels, pin), (rows, formula) in zip(inputs, outcome.results):
            ok = (all(isinstance(row, tuple) for row in rows) and not isinstance(formula, str)
                  and closed_digest(labels, rows, formula) == pin)
            if not ok:
                failed += len(labels)
        return failed

    def describe(self, inputs) -> dict:
        return {"types": len(inputs), "evaluations": self.units(inputs),
                "strata": len(self.shapes), "picks_per_stratum": self.picks}


# ---------------------------------------------------------------------------
# certify


def certify_grid(tiny: bool) -> dict:
    """The fixed certificate grid, with the closed forms the paper gives."""
    e7 = [(9 * a + 5, 119 * a + 66, 119 * a + 68) for a in range(2 if tiny else 14)]
    a_s1 = [(1, 2 * a, "A.s1:n=2a", 2 * a - 1, 2 * a + 1) for a in range(1, 3 if tiny else 11)]
    for m in range(2, 4 if tiny else 11):
        for a in range(1, 3 if tiny else 6):
            a_s1.append((m - 1, a * m - 1, "A.s1:n=am-1", 2 * (a * m - a - 1), 2 * (a * m - a)))
    a_s2 = []
    for rank in range(3, 6 if tiny else 14, 2):
        m = rank + 1
        for u in range(1, 5 if tiny else 21):
            shift = u * rank - m // 2
            if (shift + 1) % m == 0 and (shift + 1) // m > 1:
                a = (shift + 1) // m
                a_s2.append((rank, u, 2 * a * m + m - 2 * a - 3, (2 * a + 1) * (m - 1)))
    d_sweep = [(rank, u, s) for s in (1, 2) for rank in range(4, 6 if tiny else 13)
               for u in range(1, 3 if tiny else 7)]
    return {"e7": e7, "a_s1": a_s1, "a_s2": a_s2, "d_sweep": d_sweep}


def d_key(rank: int, u: int, s: int, t) -> str:
    return f"D{rank} u={u} s={s} t={t}"


class Certify:
    name = "certify"
    uses_cli = False

    def __init__(self, tiny: bool = False) -> None:
        self.grid = certify_grid(tiny)
        self.maximal = frozenset(_load_pins()["certify_maximal"])

    def build(self, mods, seed: int):
        pkg = mods.pkg
        families = [(pkg.AlgebraType.create("E", 7, u, 1), "E7:u=9a+5", r, rigdim)
                    for u, r, rigdim in self.grid["e7"]]
        families += [(pkg.AlgebraType.from_shift("A", rank, n, 1), family, r, rigdim)
                     for rank, n, family, r, rigdim in self.grid["a_s1"]]
        families += [(pkg.AlgebraType.create("A", rank, u, 2), "A.s2:n=am-1", r, rigdim)
                     for rank, u, r, rigdim in self.grid["a_s2"]]
        sweep = []
        for rank, u, s in self.grid["d_sweep"]:
            atype = pkg.AlgebraType.create("D", rank, u, s)
            sweep += [(atype, t, pkg.Vertex(0, t), d_key(rank, u, s, t) in self.maximal)
                      for t in atype.diagram.labels]
        # one unit per rigdim_verify, one per r-1 certificate (r > 0), one per sweep cell
        below = sum(1 for _, _, r, _ in families if r > 0)
        return {"families": families, "sweep": sweep, "units": len(families) + below + len(sweep),
                "base": pkg.Vertex(0, 1)}

    def units(self, inputs) -> int:
        return inputs["units"]

    def run(self, mods, inputs, clock) -> Outcome:
        pkg = mods.pkg
        rigdim_verify, is_maximal = pkg.rigdim_verify, pkg.is_maximal_orthogonal
        rd_closed, base = pkg.rd_closed, inputs["base"]
        samples, results = [], []
        for atype, _, r, _ in inputs["families"]:
            t0 = clock()
            try:
                record = rigdim_verify(atype)
                result = (record.passed, record.formula.family, record.formula.r,
                          record.formula.rigdim)
            except Exception as exc:
                result = repr(exc)
            samples.append(clock() - t0)
            results.append(result)
            if r > 0:
                t0 = clock()
                try:
                    result = is_maximal(atype, base, r - 1).is_maximal
                except Exception as exc:
                    result = repr(exc)
                samples.append(clock() - t0)
                results.append(result)
        for atype, t, vertex, _ in inputs["sweep"]:
            t0 = clock()
            try:
                result = is_maximal(atype, vertex, rd_closed(atype, t).rd).is_maximal
            except Exception as exc:
                result = repr(exc)
            samples.append(clock() - t0)
            results.append(result)
        return Outcome(samples, results)

    def check(self, inputs, outcome: Outcome) -> int:
        expected = []
        for _, family, r, rigdim in inputs["families"]:
            expected.append((True, family, r, rigdim))
            if r > 0:
                expected.append(False)  # one degree below r the orbit is not maximal
        # the type-D spine hits recorded in pins.json are expected output
        expected += [maximal for _, _, _, maximal in inputs["sweep"]]
        return sum(1 for got, want in zip(outcome.results, expected) if got != want)

    def describe(self, inputs) -> dict:
        return {"family_members": len(inputs["families"]), "sweep_cells": len(inputs["sweep"]),
                "sweep_maximal_expected": sum(m for _, _, _, m in inputs["sweep"]),
                "certificates": inputs["units"]}


WORKLOADS = {cls.name: cls for cls in (VerifySweeps, OracleLadder, ClosedTable, Certify)}
