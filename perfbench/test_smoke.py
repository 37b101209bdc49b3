"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
from tracer import PER_LAYER_UNITS, replace_at_sites  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "units_per_s", "unit_p50_ms", "unit_tail_ms", "peak_rss_mb")


def run_tiny(name: str, trace: bool = False, instrument=None) -> dict:
    return measure.run(WORKLOADS[name](tiny=True), seed=7, seconds=0, trace=trace,
                       instrument=instrument)


def off_by_one(module_name: str, function_name: str):
    """An instrument that makes one engine answer rd + 1 at every import site."""

    def instrument(mods) -> None:
        original = getattr(getattr(mods, module_name), function_name)

        def wrong(*args, **kwargs):
            report = original(*args, **kwargs)
            return dataclasses.replace(report, rd=None if report.rd is None else report.rd + 1)

        replace_at_sites(mods, original, wrong)

    return instrument


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(name):
    result = run_tiny(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["verify-sweeps", "oracle-ladder"])
def test_wrong_oracle_answer_counts_as_failure(name):
    result = run_tiny(name, instrument=off_by_one("rigidity", "rd_oracle"))
    assert not result["correct"]
    assert result["info"]["fail_ratio"] > 0


@pytest.mark.parametrize("name", ["closed-table", "certify"])
def test_wrong_closed_answer_counts_as_failure(name):
    result = run_tiny(name, instrument=off_by_one("rigidity", "rd_closed"))
    assert not result["correct"]
    assert result["info"]["fail_ratio"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_self_times_fit_in_traced_wall_time(name):
    result = run_tiny(name, trace=True)
    info = result["info"]
    assert result["correct"]
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    assert info["traced_wall_s"]
    for self_sum, wall in zip(info["self_sum_s"], info["traced_wall_s"]):
        assert 0 < self_sum <= wall
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert (metrics["cli.main.calls"] > 0) == (name == "verify-sweeps")
    assert (metrics["rigidity.rd_oracle.calls"] > 0) == (name in ("verify-sweeps", "oracle-ladder"))
    assert (metrics["orthogonal.is_maximal_orthogonal.calls"] > 0) == (name == "certify")
    # counters of cli's pool threads must survive the threads
    if metrics["rigidity.rd_oracle.calls"]:
        assert 0 < metrics["rigidity.oracle_steps"] <= metrics["quiver.omega.calls"]
        assert 0 < metrics["rigidity.useful_step_ratio"] <= 1
