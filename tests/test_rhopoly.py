"""Ring-level checks for RhoPoly and PiScaled."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatjets.errors import NonInvertibleConstantTerm
from heatjets.rhopoly import VAR00, PiScaled, RhoPoly, mono_weight

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)

variables = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def rho_polys(draw):
    n_terms = draw(st.integers(0, 4))
    num = {}
    for _ in range(n_terms):
        n_vars = draw(st.integers(0, 3))
        mono = {}
        for _ in range(n_vars):
            var = draw(variables)
            mono[var] = mono.get(var, 0) + draw(st.integers(1, 2))
        num[tuple(sorted(mono.items()))] = draw(rationals)
    return RhoPoly(num, draw(st.integers(0, 3)))


@st.composite
def point_values(draw):
    vals = {VAR00: draw(rationals.filter(bool))}
    for a in range(4):
        for b in range(4):
            if (a, b) != VAR00:
                vals[(a, b)] = draw(rationals)
    return vals


def canonical(p):
    assert all(c for c in p.num.values())
    if not p.num:
        assert p.den == 0
    terms = p.terms()
    if p.den > 0:
        assert any(not (m and m[0][0] == VAR00) for m, _ in terms)
    for mono, _ in terms:
        assert list(mono) == sorted(mono)
        assert all(e > 0 for _, e in mono)


def test_constant_and_var_shapes():
    assert RhoPoly.const(0) == RhoPoly.zero()
    assert not RhoPoly.zero()
    v = RhoPoly.var(1, 0)
    assert v.weights() == {1}


def test_rho00_cancellation():
    r00 = RhoPoly.var(0, 0)
    p = r00 * r00 * RhoPoly({(): 1}, den=0)
    q = p * RhoPoly({(): 1}, den=3)  # rho00^2 / rho00^3
    assert q.den == 1
    assert dict(q.terms()) == {(): 1}


def test_inverse_round_trip():
    r00 = RhoPoly.var(0, 0)
    x = RhoPoly.const(Fraction(3, 7)) * r00 ** 2
    assert x.inverse() * x == RhoPoly.one()
    y = RhoPoly({(): Fraction(5)}, den=2)  # 5 / rho00^2
    assert y.inverse() * y == RhoPoly.one()


def test_inverse_keeps_integral_coefficients():
    (c,) = RhoPoly.var(0, 0).inverse().num.values()
    assert type(c) is int and c == 1
    (c,) = (2 * RhoPoly.var(0, 0)).inverse().num.values()
    assert type(c) is Fraction and c == Fraction(1, 2)


def test_inverse_rejects_sums_and_other_vars():
    with pytest.raises(NonInvertibleConstantTerm):
        (RhoPoly.var(0, 0) + RhoPoly.one()).inverse()
    with pytest.raises(NonInvertibleConstantTerm):
        RhoPoly.var(2, 0).inverse()
    with pytest.raises(NonInvertibleConstantTerm):
        RhoPoly.zero().inverse()


@settings(max_examples=60)
@given(rho_polys(), rho_polys(), rho_polys())
def test_ring_axioms(p, q, r):
    canonical(p)
    assert RhoPoly(dict(p.terms()), p.den) == p
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + RhoPoly.zero() == p
    assert p * RhoPoly.one() == p
    assert p - p == RhoPoly.zero()
    for derived in (p + q, p * q, p - q):
        canonical(derived)
        assert RhoPoly(dict(derived.terms()), derived.den) == derived


@settings(max_examples=60)
@given(rho_polys(), rho_polys(), point_values())
def test_substitute_is_a_homomorphism(p, q, vals):
    assert (p + q).substitute(vals) == p.substitute(vals) + q.substitute(vals)
    assert (p * q).substitute(vals) == p.substitute(vals) * q.substitute(vals)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.one_of(rationals, rho_polys()),
                          st.one_of(rationals, rho_polys())), max_size=4))
def test_dot_is_the_sum_of_products(pairs):
    total = RhoPoly.dot(pairs)
    canonical(total)
    assert total == RhoPoly.sum([RhoPoly.const(0) + p * q for p, q in pairs])


def test_sum_matches_pairwise_addition():
    parts = [RhoPoly.var(a, b) * RhoPoly({(): 1}, den=d)
             for (a, b, d) in [(0, 0, 0), (1, 0, 2), (0, 1, 1), (2, 0, 0)]]
    total = RhoPoly.zero()
    for part in parts:
        total = total + part
    assert RhoPoly.sum(parts) == total


def test_int_and_fraction_coefficients_mix():
    a = RhoPoly.const(2)
    b = RhoPoly.const(Fraction(2))
    assert a == b
    assert (a * RhoPoly.var(1, 1)) == (b * RhoPoly.var(1, 1))


def test_scalar_operations():
    v = RhoPoly.var(1, 0)
    assert 2 * v == v + v
    assert v * Fraction(1, 2) + v * Fraction(1, 2) == v
    assert (1 - v) + v == RhoPoly.one()
    assert v ** 3 == v * v * v
    assert v ** 0 == RhoPoly.one()


def test_weights_track_derivative_orders():
    p = RhoPoly.var(2, 0) * RhoPoly.var(0, 0) + RhoPoly.var(1, 0) ** 2
    assert p.weights() == {2}
    assert mono_weight((((1, 2), 2),)) == 6


def test_pi_scaled_arithmetic():
    a = PiScaled(Fraction(1, 3), 1)
    b = PiScaled(Fraction(1, 6), 1)
    assert a + b == PiScaled(Fraction(1, 2), 1)
    assert a - a == PiScaled(0)
    assert (a - a) + b == b
    assert PiScaled(0) + a == a
    assert a * b == PiScaled(Fraction(1, 18), 2)
    assert a * 3 == PiScaled(1, 1)
    with pytest.raises(ValueError):
        a + PiScaled(1, 2)


def test_pi_scaled_zero_is_canonical():
    z = PiScaled(Fraction(0), 5)
    assert z.pi_power == 0
    assert not z
