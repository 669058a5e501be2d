"""End-to-end tests of the `heatinv` command line."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatjets.cli import MAX_APPROX_DIGITS, main
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


def test_vanishing_numeric_json_carries_one_pi(capsys, metric_file):
    code, out, _ = run(capsys, ["compute", "--n", "1", "--format", "json",
                                "--metric", metric_file(FLAT)])
    assert code == 0
    value = json.loads(out)["results"][0]["value"]
    assert value == {"kind": "numeric", "q": "0", "piPower": 1}


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


def test_verify(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "8/8 criteria passed"


def test_verify_failures_exit_four(capsys, monkeypatch):
    import heatjets.acceptance as acceptance

    def crash():
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", (
        acceptance.Criterion(1, "passes", 1.0, lambda: None),
        acceptance.Criterion(2, "fails", 1.0, lambda: "wrong value"),
        acceptance.Criterion(3, "raises", 1.0, crash),
    ))
    code, out, _ = run(capsys, ["verify"])
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


def mostly(valid, invalid):
    """`valid` in seven draws of eight, else `invalid`."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 3 else valid)


junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2))
bad_rational = st.one_of(
    st.sampled_from(["0", "-0", "-1", "1/0", "1e3", "2/-3", " 1", ""]), junk)
rational = mostly(
    st.fractions(min_value=-50, max_value=50, max_denominator=20).map(str),
    bad_rational)
#: rho(0), R and a0 must be positive
positive = mostly(
    st.fractions(min_value=Fraction(1, 20), max_value=50,
                 max_denominator=20).map(str),
    bad_rational)
triple = mostly(
    st.tuples(st.integers(0, 7), st.integers(0, 7), rational).map(list),
    junk)
kinds = st.one_of(
    st.fixed_dictionaries({"kind": st.just("flat")}),
    st.fixed_dictionaries({"kind": st.just("sphereStereographic"),
                           "R": positive}),
    st.fixed_dictionaries({"kind": st.just("reciprocalLinear"),
                           "a0": positive, "a1": rational, "a2": rational}),
    st.fixed_dictionaries({
        "kind": st.just("jet"),
        "order": mostly(st.integers(0, 12), junk),
        "coeffs": mostly(
            st.builds(lambda c, rest: [[0, 0, c], *rest], positive,
                      st.lists(triple, max_size=5)),
            junk)}))
FIELDS = ("kind", "R", "a0", "a1", "a2", "order", "coeffs", "extra")


@st.composite
def metric_bytes(draw):
    """A document of any kind, now and then with fields dropped or set to
    junk, or any bytes at all."""
    if not draw(mostly(st.just(True), st.just(False))):
        return draw(st.binary(max_size=40))
    doc = draw(kinds)
    edits = draw(mostly(st.just(()), st.lists(
        st.tuples(st.sampled_from(FIELDS), st.one_of(st.none(), junk)),
        min_size=1, max_size=2)))
    for key, value in edits:  # None drops the field
        doc.pop(key, None)
        if value is not None:
            doc[key] = value
    return json.dumps(doc).encode()


@st.composite
def cli_argv(draw, metric):
    """`compute` or `curvature` arguments, each flag valid in most draws:
    symbolic requests only on eq311, n <= 2, jet orders <= 12, and at most
    20 digits or one count past the cap."""
    command = draw(st.sampled_from(["compute", "curvature"]))
    argv = [command]
    numeric = command == "curvature" or draw(st.booleans())
    if numeric:
        argv += ["--metric", metric]
    if command == "compute":
        ns = draw(mostly(
            st.lists(st.integers(0, 2), min_size=1, max_size=2),
            st.lists(st.sampled_from(["-1", "x", "2"]), max_size=2)))
        for n in ns:
            argv += ["--n", str(n)]
        paths = ["eq311", "eq310", "curvature"] if numeric else ["eq311"]
        argv += ["--path", draw(mostly(st.sampled_from(paths),
                                       st.sampled_from(["curvature",
                                                        "bogus"])))]
        argv += ["--format", draw(mostly(
            st.sampled_from(["plain", "latex", "json"]), st.just("yaml")))]
        # symbolic requests take neither --approx nor --jet-order
        digits = st.integers(1, 20) if numeric else st.nothing()
        approx = draw(mostly(
            st.one_of(st.none(), digits),
            st.sampled_from([-1, 0, 5, MAX_APPROX_DIGITS + 1])))
        if approx is not None:
            argv += ["--approx", str(approx)]
    orders = st.integers(0, 12) if numeric else st.nothing()
    order = draw(mostly(st.one_of(st.none(), orders), st.sampled_from([-1, 3])))
    if order is not None:
        argv += ["--jet-order", str(order)]
    return argv


@pytest.fixture(scope="module")
def fuzz_metric(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "metric.json"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exit_codes_hold_for_any_input(fuzz_metric, data):
    # exit 0, 2, 3 or 4 for any metric bytes and flags, argparse's own
    # SystemExit(2) included; any other exception fails the test
    fuzz_metric.write_bytes(data.draw(metric_bytes(), label="metric"))
    argv = data.draw(cli_argv(str(fuzz_metric)), label="argv")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv


def test_cli_import_loads_only_what_compute_runs():
    import heatjets.cli as cli
    src = str(Path(cli.__file__).resolve().parents[1])
    # The records are __slots__ classes: dataclasses would load inspect
    # (with ast, dis and tokenize) and NamedTuple typing, all at start-up.
    # -S keeps a site .pth file from importing any of them first.
    stdlib = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
    for module, unwanted in (
            # `verify` and `--approx` import these when they run; `compute`
            # and `curvature` never need them
            ("heatjets.cli", (*stdlib, "mpmath", "numpy", "sympy",
                              "heatjets.oracle", "heatjets.commutator",
                              "heatjets.acceptance")),
            # every criterion is exact, so `verify` needs no mpmath either
            ("heatjets.acceptance", (*stdlib, "mpmath"))):
        code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
                f"print(sorted(m for m in {unwanted!r} if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module
