"""Tests of the benchmark itself, on tiny corpora: python -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import tracing
from bclique import protocols
from harness import END_TO_END, PER_LAYER, build, measure
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TINY = {
    "prune_mixed": {"n": 16, "size": 4},
    "forest_gnp": {"n": 24, "size": 4},
    "oneround_r3": {"n": 12, "size": 3},
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def run(name, trace, calls=6):
    return measure(tiny(name), seed=5, seconds=60, trace=trace,
                   max_calls=calls, setup_repeats=1)


def snapshot():
    return {(m.__name__, key): value for m in tracing._package_modules()
            for key, value in vars(m).items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    plain, plain_report, _, _ = run(name, trace=False)
    traced, traced_report, _, _ = run(name, trace=True)
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert plain_report["digest"] == traced_report["digest"]
    assert set(plain["metrics"]) == set(END_TO_END)
    assert set(traced["metrics"]) == set(PER_LAYER)


def test_wrappers_exist_only_inside_the_traced_block():
    before = snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = tracing.wrapped_attributes()
        assert "bclique.protocols.run_protocol" in wrapped
        assert "bclique.protocols.tilde_row_local" in wrapped
        assert "bclique.sketch.decode" in wrapped
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    run("prune_mixed", trace=True, calls=2)
    assert tracing.wrapped_attributes() == []
    assert all(snapshot()[k] is before[k] for k in before)


def test_untraced_run_refuses_installed_wrappers():
    with tracing.Tracer().installed():
        with pytest.raises(RuntimeError):
            run("forest_gnp", trace=False, calls=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_count_the_same(name):
    _, _, _, first = run(name, trace=True)
    _, _, _, second = run(name, trace=True)
    assert {k: c for k, (c, _) in first.totals().items()} == \
        {k: c for k, (c, _) in second.totals().items()}
    assert first.counts == second.counts
    assert list(first.span_name) == list(second.span_name)
    assert list(first.span_parent) == list(second.span_parent)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_fit_inside_the_wall_time(name):
    workload = tiny(name)
    entries, _ = build(workload, seed=3)
    tracer = tracing.Tracer()
    t0 = perf_counter()
    with tracer.installed():
        for entry in entries:
            getattr(protocols, workload.function)(entry.inputs, entry.arg)
    wall = perf_counter() - t0
    self_times = [s for _, s in tracer.totals().values()]
    assert all(s >= 0 for s in self_times)
    assert 0 < sum(self_times) <= wall
    roots = [i for i, p in enumerate(tracer.span_parent) if p == -1]
    assert len(roots) == len(entries)


def test_wrong_or_failing_calls_are_counted_not_fatal(monkeypatch):
    original = protocols.prune_one_round
    state = {"calls": 0}

    def faulty(rows, d):
        state["calls"] += 1
        if state["calls"] % 2:
            raise ValueError("injected")
        result, transcript = original(rows, d)
        return dataclasses.replace(result, remaining=result.remaining + (0,)), transcript

    monkeypatch.setattr(protocols, "prune_one_round", faulty)
    result, report, _, _ = measure(tiny("prune_mixed"), seed=5, seconds=60, trace=False,
                                max_calls=4, setup_repeats=1)
    assert result["attempted"] == 4 and result["failed"] == 4
    assert not result["correct"]
    assert report["failed_frac"] == 1.0
    assert any("injected" in f for f in report["failures"])
    assert any("core_peel" in f for f in report["failures"])


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "forest_gnp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
