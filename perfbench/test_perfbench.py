"""Tests of the benchmark itself: inputs, oracles, tracer and worker.

Run from the repository root with: python3 -m pytest perfbench
"""

import contextlib
import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import oracles
import run
import tracer
import workloads
from heatjets import cli

def reply(argv):
    """(exit code, standard output) of one in-process `heatinv` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def small_jet_request(tmp_path, order=16, ns=(1, 2)):
    """A dense-workload request shrunk to a quick size, with its file."""
    coeffs = workloads.random_jet_coeffs(random.Random("small"), order)
    request = workloads.Request("dense", ns, "eq311",
                                workloads.jet_document(coeffs, order),
                                coeffs, order, None)
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(request.metric))
    return request, request.argv(path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_reproducible(workload):
    assert (workloads.make_request(workload, 5)
            == workloads.make_request(workload, 5))


@pytest.mark.parametrize("workload", ("dense", "curvature"))
def test_generator_depends_on_seed(workload):
    assert (workloads.make_request(workload, 5).coeffs
            != workloads.make_request(workload, 6).coeffs)


def test_sphere_radius_family():
    for seed in range(20):
        r = workloads.make_request("sphere", seed).radius
        assert r.numerator != r.denominator
        assert 5 <= r.numerator <= 9 and 5 <= r.denominator <= 9


def test_curvature_draws_are_usable_and_degenerate_ones_rejected():
    request = workloads.make_request("curvature", 5)
    assert workloads.usable_curvature_jet(request.coeffs, request.order)
    # A rotationally symmetric factor has a vanishing (K, Delta K) Jacobian.
    symmetric = {(0, 0): Fraction(1), (2, 0): Fraction(1), (0, 2): Fraction(1)}
    assert not workloads.usable_curvature_jet(symmetric, 22)


def _attributes():
    """Every attribute the tracer may replace, by identity."""
    seen = {}
    for _, module_name, path, _ in tracer.TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, name = path.split(".")
            cls = getattr(module, cls_name)
            seen[(cls, name)] = cls.__dict__[name]
        else:
            for owner in tracer._heatjets_modules():
                if path in owner.__dict__:
                    seen[(owner, path)] = owner.__dict__[path]
    return seen


def test_wrappers_restore_original_attributes():
    before = _attributes()
    with tracer.Tracer() as t:
        during = _attributes()
        assert all(during[k] is not v for k, v in before.items())
        assert reply(["compute", "--n", "1", "--format", "json"])[0] == 0
    after = _attributes()
    assert all(after[k] is v for k, v in before.items())
    assert t.layer_metrics()["laplace.apply_calls"] > 0


def test_oracles_accept_real_replies(tmp_path):
    sphere = dataclasses.replace(workloads.make_request("sphere", 3),
                                 ns=(1, 2))
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(sphere.metric))
    jet, jet_argv = small_jet_request(tmp_path)
    symbolic = dataclasses.replace(workloads.make_request("symbolic", 3),
                                   ns=(1, 2))
    for request, argv in ((sphere, sphere.argv(path)), (jet, jet_argv),
                          (symbolic, symbolic.argv())):
        expected = oracles.references(request)
        assert oracles.count_failures(request.ns, expected,
                                      *reply(argv)) == 0


def test_perturbed_reference_fails():
    request = workloads.make_request("symbolic", 3)
    request = dataclasses.replace(request, ns=(1, 2))
    expected = oracles.references(request)
    code, out = reply(request.argv())
    bad = dict(expected)
    bad[2] = dataclasses.replace(expected[2],
                                 values=(expected[2].values[0] + 1,))
    assert oracles.count_failures(request.ns, bad, code, out) == 1
    bad[2] = dataclasses.replace(expected[2], shape=(18, 6))
    assert oracles.count_failures(request.ns, bad, code, out) == 1
    assert oracles.count_failures(request.ns, expected, 3, out) == 2
    truncated = json.loads(out)
    truncated["results"] = truncated["results"][:1]
    assert oracles.count_failures(request.ns, expected, 0,
                                  json.dumps(truncated)) == 1


def _deterministic(layers):
    units = {m["name"]: m["unit"] for m in
             json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    return {k: v for k, v in layers.items() if units[k] != "s"}


def test_traced_counters_repeat_exactly(tmp_path):
    _, jet_argv = small_jet_request(tmp_path)
    deadline = time.monotonic() + 120
    for argv, symbolic in ((jet_argv, False),
                           (["compute", "--n", "1", "--n", "2",
                             "--format", "json"], True)):
        first, second = (run.spawn(argv, True, deadline) for _ in range(2))
        counts = _deterministic(first["layers"])
        assert counts == _deterministic(second["layers"])
        assert counts["laplace.apply_calls"] > 0
        assert (counts["rhopoly.mul_calls"] > 0) is symbolic


def test_untraced_worker_reports_no_layers():
    report = run.spawn(["compute", "--n", "1", "--format", "json"], False,
                       time.monotonic() + 60)
    assert report["exit"] == 0 and report["layers"] is None
    assert report["setup_s"] > 0 and report["peak_rss_mb"] > 0


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
