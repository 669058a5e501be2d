"""End-to-end tests of the `heatinv` command line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from heatjets.cli import main
from heatjets.heatinv import parse_closed_form_json, symbolic_heat_invariant

SPHERE = '{"kind":"sphereStereographic","R":"1"}'
FLAT = '{"kind":"flat"}'
RECIP = '{"kind":"reciprocalLinear","a0":"2","a1":"3","a2":"5"}'
GOLDEN = "(rho_u^2 + rho_v^2 - rho*rho_uu - rho*rho_vv) / (24*pi*rho^3)"


@pytest.fixture
def metric_file(tmp_path):
    def make(text, name="m.json"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return make


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sphere_numeric(capsys, metric_file):
    code, out, _ = run(capsys, ["compute", "--n", "1",
                                "--metric", metric_file(SPHERE)])
    assert code == 0
    assert out == "a_1 = 1/(12*pi)\n"


def test_flat_multiple_n(capsys, metric_file):
    code, out, _ = run(capsys, ["compute", "--n", "1", "--n", "2",
                                "--metric", metric_file(FLAT)])
    assert code == 0
    assert out == "a_1 = 0\na_2 = 0\n"


def test_weyl_constant(capsys, metric_file):
    code, out, _ = run(capsys, ["compute", "--n", "0",
                                "--metric", metric_file(FLAT)])
    assert code == 0
    assert out == "a_0 = 1/(4*pi)\n"


def test_symbolic_default_without_metric(capsys):
    code, out, _ = run(capsys, ["compute", "--n", "1"])
    assert code == 0
    assert out == f"a_1 = {GOLDEN}\n"


def test_symbolic_json_round_trip(capsys):
    code, out, _ = run(capsys, ["compute", "--n", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "symbolic"
    value = doc["results"][0]["value"]
    rebuilt = parse_closed_form_json(value)
    reference = symbolic_heat_invariant(1).form
    assert rebuilt.poly == reference.poly
    assert rebuilt.pi_power == reference.pi_power


def test_numeric_json_with_approx(capsys, metric_file):
    code, out, _ = run(capsys, ["compute", "--n", "1",
                                "--metric", metric_file(SPHERE),
                                "--format", "json", "--approx", "12"])
    assert code == 0
    value = json.loads(out)["results"][0]["value"]
    assert value == {"kind": "numeric", "q": "1/12", "piPower": 1,
                     "approx": "0.0265258238486"}


def test_approx_plain_suffix(capsys, metric_file):
    code, out, _ = run(capsys, ["compute", "--n", "1",
                                "--metric", metric_file(SPHERE),
                                "--approx", "6"])
    assert code == 0
    assert out == "a_1 = 1/(12*pi) (approx 0.0265258)\n"


def test_latex_numeric(capsys, metric_file):
    code, out, _ = run(capsys, ["compute", "--n", "1",
                                "--metric", metric_file(SPHERE),
                                "--format", "latex"])
    assert code == 0
    assert out == "a_1 = \\frac{1}{12 \\pi}\n"


def test_jet_order_extension(capsys, metric_file):
    # a_n reads the jet to order 2n: a_1 fits in order 4, a_3 needs 6
    jet = metric_file(
        '{"kind":"jet","order":4,"coeffs":[[0,0,"1"],[1,0,"1/2"]]}')
    code, out, _ = run(capsys, ["compute", "--n", "1", "--metric", jet])
    assert code == 0
    assert out == "a_1 = 1/(96*pi)\n"
    code, _, err = run(capsys, ["compute", "--n", "3", "--metric", jet])
    assert code == 3
    assert "order >= 6, got 4" in err
    for order in ("6", "24"):
        code, out, _ = run(capsys, ["compute", "--n", "3", "--metric", jet,
                                    "--jet-order", order])
        assert code == 0
        assert out == "a_3 = 35/(4608*pi)\n"


def test_schema_error_exit_and_json_object(capsys, metric_file):
    bad = metric_file('{"kind":"jet","order":2,"coeffs":[[0,0,"x"]]}')
    code, _, err = run(capsys, ["compute", "--n", "1", "--metric", bad])
    assert code == 2
    assert "coeffs[0][2]" in err
    code, out, _ = run(capsys, ["compute", "--n", "1", "--metric", bad,
                                "--format", "json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "SchemaError"
    assert doc["error"]["path"] == "coeffs[0][2]"


def test_non_utf8_metric_is_schema_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe" + FLAT.encode())
    argv = ["compute", "--n", "1", "--metric", str(bad)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "UTF-8" in err
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "SchemaError"
    assert doc["error"]["path"] == "<document>"


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, ["compute", "--n", "1",
                                "--metric", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in err


def test_degenerate_curvature_path(capsys, metric_file):
    code, _, err = run(capsys, ["compute", "--n", "1",
                                "--metric", metric_file(SPHERE),
                                "--path", "curvature"])
    assert code == 3
    assert "Jacobian" in err


def test_curvature_path_reads_order_2n_plus_5(capsys, metric_file):
    coeffs = '[[0,0,"1"],[1,0,"1/2"],[0,3,"1/3"]]'
    values = {}
    for path in ("eq311", "curvature"):
        jet = metric_file('{"kind":"jet","order":7,"coeffs":%s}' % coeffs)
        code, out, _ = run(capsys, ["compute", "--n", "1", "--metric", jet,
                                    "--path", path, "--format", "json"])
        assert code == 0, path
        result = json.loads(out)["results"][0]
        values[path] = result["value"]
    assert result["truncationOrder"] == 7
    assert values["curvature"] == values["eq311"]
    jet = metric_file('{"kind":"jet","order":6,"coeffs":%s}' % coeffs)
    code, _, err = run(capsys, ["compute", "--n", "1", "--metric", jet,
                                "--path", "curvature"])
    assert code == 3
    assert "order >= 7, got 6" in err


def test_usage_conflicts(capsys, metric_file):
    # the mode follows from --metric; there is no --mode flag
    with pytest.raises(SystemExit) as err:
        main(["compute", "--n", "1", "--mode", "numeric"])
    assert err.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    cases = [
        ["compute", "--n", "-1", "--metric", metric_file(SPHERE)],
        ["compute", "--n", "1", "--path", "curvature"],
        ["compute", "--n", "1", "--approx", "5"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:")


def test_approx_digits_are_bounded(capsys, metric_file, monkeypatch):
    import heatjets.cli as cli

    def refuse(*args):
        raise AssertionError("a route started")
    monkeypatch.setattr(cli, "heat_invariant", refuse)
    code, out, _ = run(capsys, ["compute", "--n", "1", "--metric",
                                metric_file(SPHERE), "--format", "json",
                                "--approx", "50000000"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "usage"
    assert str(cli.MAX_APPROX_DIGITS) in error["message"]


def test_named_family_expands_only_what_is_read(capsys, metric_file,
                                                monkeypatch):
    import heatjets.cli as cli
    orders = []

    def recording(spec, order, extend=False):
        orders.append(order)
        assert order <= 5, "refused to start a large expansion"
        return expand(spec, order, extend)
    expand = cli.expand_metric
    monkeypatch.setattr(cli, "expand_metric", recording)
    sphere = metric_file(SPHERE)
    code, out, _ = run(capsys, ["compute", "--n", "1", "--metric", sphere,
                                "--jet-order", "3000"])
    assert (code, out, orders) == (0, "a_1 = 1/(12*pi)\n", [2])
    orders.clear()
    code, out, _ = run(capsys, ["curvature", "--metric", sphere,
                                "--jet-order", "3000"])
    assert (code, orders) == (0, [5])
    assert "degenerate = yes" in out
    orders.clear()
    code, _, err = run(capsys, ["compute", "--n", "1", "--metric", sphere,
                                "--jet-order", "1"])
    assert (code, orders) == (3, [1])
    assert "order >= 2, got 1" in err


def test_oversized_numbers_exit_two_or_three(capsys, metric_file):
    # an exponent is not part of the rational grammar: exit 2
    exp = metric_file('{"kind":"sphereStereographic","R":"1e5000"}', "e.json")
    # a value Python will not print in full: exit 3 with a message
    big = metric_file('{"kind":"sphereStereographic","R":"%s/3"}'
                      % ("7" * 2500))
    for argv in (["compute", "--n", "1"], ["curvature"]):
        code, _, err = run(capsys, argv + ["--metric", exp])
        assert code == 2
        assert "not a rational" in err
        code, _, err = run(capsys, argv + ["--metric", big])
        assert code == 3
        assert "digits" in err
    code, out, _ = run(capsys, ["compute", "--n", "1", "--metric", big,
                                "--format", "json"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ValueTooLong"


def test_nonpositive_conformal_factor_exits_two(capsys, metric_file):
    m = metric_file('{"kind":"reciprocalLinear","a0":"-2","a1":"3","a2":"5"}')
    for argv in (["compute", "--n", "1", "--metric", m],
                 ["curvature", "--metric", m]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "" and "a0 > 0" in err


def test_cross_paths_agree_via_cli(capsys, metric_file):
    m = metric_file(RECIP)
    outputs = set()
    for path in ("eq311", "eq310"):
        code, out, _ = run(capsys, ["compute", "--n", "2", "--metric", m,
                                    "--path", path])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_deterministic_output(capsys, metric_file):
    m = metric_file(RECIP)
    argv = ["compute", "--n", "1", "--n", "2", "--metric", m]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv_json = argv + ["--format", "json"]
    docs = []
    for _ in range(2):
        _, out, _ = run(capsys, argv_json)
        doc = json.loads(out)
        for r in doc["results"]:
            r.pop("wallTimeSeconds")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_curvature_subcommand(capsys, metric_file):
    code, out, _ = run(capsys, ["curvature", "--metric", metric_file(RECIP)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K0 = -17/2"
    assert lines[-1] == "degenerate = yes"
    assert any(line.startswith("E = ") for line in lines)


def test_verify_quick(capsys):
    code, out, _ = run(capsys, ["verify", "--level", "quick"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("criteria passed")


def test_verify_failures_exit_four(capsys, monkeypatch):
    import heatjets.acceptance as acceptance

    def crash():
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", (
        acceptance.Criterion(1, "passes", 1.0, lambda: None),
        acceptance.Criterion(2, "fails", 1.0, lambda: "wrong value"),
        acceptance.Criterion(3, "raises", 1.0, crash),
    ))
    code, out, _ = run(capsys, ["verify", "--level", "full"])
    assert code == 4
    passed, failed, crashed, summary = out.splitlines()
    assert passed.startswith("PASS passes (") and passed.endswith("s)")
    assert failed.startswith("FAIL fails (")
    assert failed.endswith("): wrong value")
    assert crashed.startswith("FAIL raises (")
    assert crashed.endswith("): ZeroDivisionError: boom")
    assert summary == "1/3 criteria passed"


def test_missing_n_flag_exits_two(metric_file):
    with pytest.raises(SystemExit) as err:
        main(["compute", "--metric", metric_file(SPHERE)])
    assert err.value.code == 2


def test_installed_script(tmp_path):
    p = tmp_path / "sphere.json"
    p.write_text(SPHERE)
    proc = subprocess.run(
        [sys.executable, "-m", "heatjets.cli", "compute", "--n", "1",
         "--metric", str(p)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "a_1 = 1/(12*pi)\n"


def test_cli_import_loads_only_what_compute_runs():
    # `verify` and `--approx` import these when they run; `compute` and
    # `curvature` never need them
    import heatjets.cli as cli
    src = str(Path(cli.__file__).resolve().parents[1])
    unwanted = ("mpmath", "heatjets.oracle", "heatjets.commutator",
                "heatjets.acceptance")
    code = (f"import sys; sys.path.insert(0, {src!r}); import heatjets.cli; "
            f"print(sorted(m for m in {unwanted!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
