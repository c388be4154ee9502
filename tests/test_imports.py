import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import ginibre

MODULES = ["ginibre"] + [f"ginibre.{m.name}" for m in pkgutil.iter_modules(ginibre.__path__)]
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_layer_bindings_resolve(monkeypatch):
    # perfbench/layers.py wraps functions by name; a renamed or deleted one
    # makes its per-layer metric silently absent from the traced result line
    for name in MODULES:
        importlib.import_module(name)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    importlib.import_module("workloads")
    tracer = layers.Tracer()
    try:
        tracer.install()
        produced = set(tracer.metrics())
    finally:
        tracer.uninstall()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # the worker adds these itself, outside the tracer
    added_by_worker = {"validation.checks_failed"} | {n for n in declared if n.startswith("trace.")}
    assert declared - added_by_worker - produced == set()


def test_traced_validation_suite_moves_every_layer_metric(monkeypatch):
    # The traced validate_smoke run reports `incorrect` when a layer metric
    # it predicts to move reads 0 or is absent, e.g. after the suite stops
    # calling a check function the tracer binds by name.
    from ginibre import validation

    for name in MODULES:
        importlib.import_module(name)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    tracer = layers.Tracer()
    try:
        tracer.install()
        report = validation.run_validation_suite(101, scale=0.01)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["validation.checks_failed"] = len(report.failed_checks())
    assert layers.expectation_problems("validate_smoke", metrics) == ([], [])
