"""BENCHMARK.json names every metric the runner prints, with the same units."""

import json
from pathlib import Path

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_end_to_end_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_per_layer_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


def test_workloads_match_the_runner():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.SHAPES)
