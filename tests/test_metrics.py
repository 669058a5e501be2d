"""Tests for metric-spec parsing and jet expansion."""

import json
from fractions import Fraction
from math import comb

import pytest

from heatjets.errors import InvalidMetric, OrderExhausted, SchemaError
from heatjets.jets import Jet2D
from heatjets.laplace import gaussian_curvature_jet
from heatjets.metrics import expand_metric, load_metric_spec, parse_metric_spec


def test_parse_flat():
    spec = parse_metric_spec('{"kind":"flat"}')
    assert spec.kind == "flat"
    rho = expand_metric(spec, 6)
    assert rho.order == 6
    assert rho.coefficient(0, 0) == 1
    assert rho.coefficient(3, 2) == 0


def test_parse_rejects_unknown_kind_and_extras():
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"torus"}')
    assert err.value.path == "kind"
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"flat","R":"1"}')
    assert err.value.path == "R"


def test_parse_rejects_bad_documents():
    with pytest.raises(SchemaError):
        parse_metric_spec("not json")
    with pytest.raises(SchemaError):
        parse_metric_spec("[1,2]")
    with pytest.raises(SchemaError):
        parse_metric_spec('{"R":"1"}')


def test_sphere_unit_expansion_order_two():
    spec = parse_metric_spec('{"kind":"sphereStereographic","R":"1"}')
    rho = expand_metric(spec, 2)
    assert rho.coefficient(0, 0) == 4
    assert rho.coefficient(2, 0) == -8
    assert rho.coefficient(0, 2) == -8
    assert rho.coefficient(1, 0) == 0


def test_sphere_radius_controls_curvature():
    spec = parse_metric_spec('{"kind":"sphereStereographic","R":"3/2"}')
    rho = expand_metric(spec, 8)
    k = gaussian_curvature_jet(rho)
    assert k.coefficient(0, 0) == Fraction(4, 9)
    assert all(c == 0 for key, c in k.coeffs.items() if key != (0, 0))


def test_sphere_schema_errors():
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"sphereStereographic"}')
    assert err.value.path == "R"
    with pytest.raises(SchemaError):
        parse_metric_spec('{"kind":"sphereStereographic","R":true}')
    with pytest.raises(SchemaError):
        parse_metric_spec('{"kind":"sphereStereographic","R":"1/0"}')
    with pytest.raises(InvalidMetric):
        parse_metric_spec('{"kind":"sphereStereographic","R":"0"}')
    with pytest.raises(InvalidMetric):
        parse_metric_spec('{"kind":"sphereStereographic","R":"-2"}')


def test_rational_grammar():
    # only [-]digits[/digits]: an exponent would turn a few bytes into
    # thousands of digits; a zero denominator and a part past the int
    # conversion limit are refused too
    long = "7" * 5000
    for bad in ("1e5000", "1.5", " 1", "+1", "1_0", "1/-2", "0x10", "1/0",
                long, "1/" + long):
        with pytest.raises(SchemaError) as err:
            parse_metric_spec({"kind": "sphereStereographic", "R": bad})
        assert err.value.path == "R"
        with pytest.raises(SchemaError) as err:
            parse_metric_spec({"kind": "jet", "order": 1,
                               "coeffs": [[0, 0, "1"], [1, 0, bad]]})
        assert err.value.path == "coeffs[1][2]"
    spec = parse_metric_spec('{"kind":"reciprocalLinear",'
                             '"a0":"2","a1":"-3/7","a2":4}')
    assert spec.linear == (2, Fraction(-3, 7), 4)
    spec = parse_metric_spec('{"kind":"reciprocalLinear",'
                             '"a0":"007","a1":"-0","a2":"-6/004"}')
    assert spec.linear == (7, 0, Fraction(-3, 2))
    assert all(type(c) is Fraction for c in spec.linear)


def test_unreadable_json_is_schema_error():
    for doc in ('{"kind":"flat","R":' + "7" * 5000 + "}", "[" * 100000):
        with pytest.raises(SchemaError) as err:
            parse_metric_spec(doc)
        assert err.value.path == "<document>"


def test_reciprocal_linear_expansion():
    spec = parse_metric_spec(
        '{"kind":"reciprocalLinear","a0":"2","a1":"3","a2":"5"}')
    rho = expand_metric(spec, 5)
    a0, a1, a2 = Fraction(2), Fraction(3), Fraction(5)
    # 1/(a0 + a1 u + a2 v) has coefficient
    # (-1)^(a+b) C(a+b, a) a1^a a2^b / a0^(a+b+1).
    for a in range(4):
        for b in range(4 - a):
            expected = (Fraction(-1) ** (a + b) * comb(a + b, a)
                        * a1 ** a * a2 ** b / a0 ** (a + b + 1))
            assert rho.coefficient(a, b) == expected


def test_reciprocal_linear_curvature_value():
    spec = parse_metric_spec(
        '{"kind":"reciprocalLinear","a0":"2","a1":"3","a2":"5"}')
    rho = expand_metric(spec, 8)
    k = gaussian_curvature_jet(rho)
    # K = -(a1^2 + a2^2) / (2 (a0 + a1 u + a2 v)) at the origin.
    assert k.coefficient(0, 0) == Fraction(-34, 4)


def test_reciprocal_linear_requires_nonzero_a0():
    for a0 in ("0", "-2"):
        with pytest.raises(InvalidMetric):
            parse_metric_spec('{"kind":"reciprocalLinear","a0":"%s",'
                              '"a1":"1","a2":"1"}' % a0)
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"reciprocalLinear","a0":"1","a1":"1"}')
    assert err.value.path == "a2"


def test_parse_explicit_jet():
    spec = parse_metric_spec(
        '{"kind":"jet","order":4,"coeffs":[[0,0,"1"],[1,0,"1/2"]]}')
    assert spec.order == 4
    rho = expand_metric(spec, 4)
    assert rho.coefficient(0, 0) == 1
    assert rho.coefficient(1, 0) == Fraction(1, 2)
    assert rho.coefficient(0, 4) == 0
    # coefficients stay (p, q) pairs, unreduced, until the jet is built
    # over the lcm of the denominators of the slots it keeps
    spec = parse_metric_spec('{"kind":"jet","order":3,"coeffs":'
                             '[[0,0,"6/4"],[1,1,"-2/6"],[3,0,"5/7"]]}')
    assert spec.coeffs == ((0, 0, (6, 4)), (1, 1, (-2, 6)), (3, 0, (5, 7)))
    assert expand_metric(spec, 2) == Jet2D(
        {(0, 0): Fraction(3, 2), (1, 1): Fraction(-1, 3)}, 2)
    assert expand_metric(spec, 2).den == 6


def test_jet_schema_paths():
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"jet","coeffs":[[0,0,"1"]]}')
    assert err.value.path == "order"
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"jet","order":2,"coeffs":"x"}')
    assert err.value.path == "coeffs"
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"jet","order":2,"coeffs":[[0,0]]}')
    assert err.value.path == "coeffs[0]"
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"jet","order":2,"coeffs":[[0,0,"x"]]}')
    assert err.value.path == "coeffs[0][2]"
    with pytest.raises(SchemaError) as err:
        parse_metric_spec(
            '{"kind":"jet","order":2,"coeffs":[[0,0,"1"],[0,0,"2"]]}')
    assert err.value.path == "coeffs[1]"
    with pytest.raises(SchemaError) as err:
        parse_metric_spec('{"kind":"jet","order":2,"coeffs":[[-1,0,"1"]]}')
    assert err.value.path == "coeffs[0][0]"


def test_jet_invariants():
    with pytest.raises(InvalidMetric):
        parse_metric_spec('{"kind":"jet","order":2,"coeffs":[[1,0,"1"]]}')
    with pytest.raises(InvalidMetric):
        parse_metric_spec('{"kind":"jet","order":2,"coeffs":[[0,0,"0"]]}')
    with pytest.raises(InvalidMetric):
        parse_metric_spec('{"kind":"jet","order":2,"coeffs":[[0,0,"-1/3"]]}')
    with pytest.raises(InvalidMetric):
        parse_metric_spec(
            '{"kind":"jet","order":2,"coeffs":[[0,0,"1"],[3,0,"1"]]}')


def test_jet_truncate_and_extend():
    spec = parse_metric_spec(
        '{"kind":"jet","order":3,"coeffs":[[0,0,"1"],[3,0,"7"]]}')
    low = expand_metric(spec, 2)
    assert low.order == 2
    with pytest.raises(OrderExhausted):
        expand_metric(spec, 8)
    high = expand_metric(spec, 8, extend=True)
    assert high.order == 8
    assert high.coefficient(3, 0) == 7
    assert high.coefficient(6, 0) == 0


def test_parse_accepts_dict_and_bytes():
    doc = {"kind": "jet", "order": 1, "coeffs": [[0, 0, "3/4"]]}
    a = parse_metric_spec(doc)
    b = parse_metric_spec(json.dumps(doc).encode("utf-8"))
    assert a == b
    assert a.coeffs == ((0, 0, (3, 4)),)


def test_load_metric_spec_from_file(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"kind":"sphereStereographic","R":"2"}')
    spec = load_metric_spec(p)
    assert spec.radius == 2
