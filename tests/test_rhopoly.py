"""Ring-level checks for RhoPoly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatjets.cli import PRECONDITION_ERRORS
from heatjets.errors import IndexOutOfRange, NonInvertibleConstantTerm
from heatjets.heatinv import generic_rho_jet
from heatjets.rhopoly import MAX_VAR_ORDER, VAR00, RhoPoly, mono_weight

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


@st.composite
def poly_values(draw):
    """Values of the variables of ``rho_polys``: rationals or RhoPoly
    values, with rho_00 an invertible q or q * rho_00^d."""
    vals = {VAR00: draw(rationals.filter(bool)) * RhoPoly.var(0, 0) ** draw(
        st.integers(0, 2))}
    for var in draw(st.lists(variables, max_size=6)):
        if var != VAR00:
            vals[var] = draw(rationals | rho_polys())
    return vals


@settings(max_examples=60)
@given(rho_polys(), poly_values(), point_values())
def test_substitute_of_polys_composes(p, vals, point):
    # putting RhoPoly values in and then a point is putting in the values'
    # own values at that point
    got = p.substitute(vals)
    assert isinstance(got, RhoPoly)
    canonical(got)
    assert got.substitute(point) == p.substitute(
        {var: v.substitute(point) if isinstance(v, RhoPoly) else v
         for var, v in vals.items()})


def test_substitute_of_polys_needs_an_invertible_rho00():
    p = RhoPoly({((VAR00, -1),): 1})
    with pytest.raises(NonInvertibleConstantTerm):
        p.substitute({(1, 0): RhoPoly.var(1, 0)})
    with pytest.raises(NonInvertibleConstantTerm):
        p.substitute({VAR00: RhoPoly.var(1, 0)})
    assert p.substitute({VAR00: RhoPoly.var(0, 0) * 2}) == \
        RhoPoly({((VAR00, -1),): Fraction(1, 2)})


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


# -- the packed monomial layout ---------------------------------------------

# rho_00 exponents e with -E00 <= e < E00 pack, and total degrees below DEG
E00 = 2 ** 14
DEG = 2 ** 15

far_variables = st.tuples(st.integers(0, 12), st.integers(0, 12))


@st.composite
def public_views(draw):
    """A {monomial: coeff} dict in the ``terms()`` shape, and a den."""
    num = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = {}
        for _ in range(draw(st.integers(0, 4))):
            var = draw(st.one_of(st.just(VAR00), far_variables))
            mono[var] = mono.get(var, 0) + draw(st.integers(1, 3))
        num[tuple(sorted(mono.items()))] = draw(rationals)
    return num, draw(st.integers(0, 4))


def laurent(num, den):
    """{(rho_00 exponent, other powers): coeff} of num / rho_00^den."""
    out = {}
    for mono, c in num:
        rest = tuple((var, e) for var, e in mono if var != VAR00)
        e = dict(mono).get(VAR00, 0) - den
        out[(e, rest)] = out.get((e, rest), 0) + c
    return {m: c for m, c in out.items() if c}


def view(p):
    return laurent(p.terms(), p.den)


def schoolbook(x, y):
    """Product of two `laurent` dicts, monomial by monomial."""
    out = {}
    for (e1, r1), c1 in x.items():
        for (e2, r2), c2 in y.items():
            powers = dict(r1)
            for var, e in r2:
                powers[var] = powers.get(var, 0) + e
            key = (e1 + e2, tuple(sorted(powers.items())))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


@settings(max_examples=80)
@given(public_views())
def test_packed_round_trip(view_and_den):
    num, den = view_and_den
    p = RhoPoly(num, den)
    canonical(p)
    expected = laurent(num.items(), den)
    assert p.den == max([0] + [-e for e, _ in expected])
    assert view(p) == expected


@settings(max_examples=60)
@given(public_views(), public_views(), public_views())
def test_packed_products_match_schoolbook(x, y, z):
    p, q, r = (RhoPoly(num, den) for num, den in (x, y, z))
    assert view(p * q) == schoolbook(view(p), view(q))
    total = {}
    for a, b in ((p, q), (q, r), (r, r)):
        for m, c in schoolbook(view(a), view(b)).items():
            total[m] = total.get(m, 0) + c
    dot = RhoPoly.dot([(p, q), (q, r), (r, r)])
    assert view(dot) == {m: c for m, c in total.items() if c}


def test_far_variables_decode():
    for s in range(13):
        for b in range(s + 1):
            assert RhoPoly.var(s - b, b).terms() == [((((s - b, b), 1),), 1)]
    p = RhoPoly.var(0, 12) * RhoPoly.var(7, 5) ** 2 * RhoPoly.var(1, 0)
    assert p.terms() == [((((0, 12), 1), ((1, 0), 1), ((7, 5), 2)), 1)]
    top = RhoPoly.var(MAX_VAR_ORDER, 0) * RhoPoly.var(0, MAX_VAR_ORDER)
    assert top.terms() == [((((0, MAX_VAR_ORDER), 1),
                             ((MAX_VAR_ORDER, 0), 1)), 1)]


def test_variable_order_cap_is_an_exit_3_error():
    assert issubclass(IndexOutOfRange, PRECONDITION_ERRORS)
    for a, b in ((MAX_VAR_ORDER + 1, 0), (0, MAX_VAR_ORDER + 1), (40, 40)):
        with pytest.raises(IndexOutOfRange):
            RhoPoly.var(a, b)
        with pytest.raises(IndexOutOfRange):
            RhoPoly({(((a, b), 1),): 1})
    # the generic jet of a_32 is refused while it is built, before any work
    with pytest.raises(IndexOutOfRange):
        generic_rho_jet(MAX_VAR_ORDER + 1)
    with pytest.raises(ValueError):
        RhoPoly({(((1, 0), -1),): 1})


def power(var, e, den=0):
    return RhoPoly({((var, e),): 1} if e else {(): 1}, den)


def test_largest_packable_exponents_build_and_multiply():
    hi = power(VAR00, E00 - 1)
    assert hi.terms() == [(((VAR00, E00 - 1),), 1)]
    lo = power(VAR00, 0, den=E00)
    assert (lo.den, lo.terms()) == (E00, [((), 1)])
    assert hi * lo == RhoPoly({(): 1}, den=1)
    half = power(VAR00, E00 // 2)
    assert (half * power(VAR00, E00 // 2 - 1)).terms() == hi.terms()
    assert power(VAR00, 0, den=E00 // 2) ** 2 == lo
    for var in ((1, 0), (0, MAX_VAR_ORDER)):
        top = power(var, DEG - 1)
        assert top.terms() == [(((var, DEG - 1),), 1)]
        assert (power(var, DEG // 2) * power(var, DEG // 2 - 1)) == top
        assert (top * lo).den == E00
        assert (top * lo * hi) == top * RhoPoly({(): 1}, den=1)
    mixed = power((1, 0), DEG // 2) * power((0, 1), DEG // 2 - 1)
    assert dict(mixed.terms()) == {(((0, 1), DEG // 2 - 1),
                                    ((1, 0), DEG // 2)): 1}


def test_one_step_past_the_packed_range_is_refused():
    hi = power(VAR00, E00 - 1)
    lo = power(VAR00, 0, den=E00)
    top = power((0, MAX_VAR_ORDER), DEG - 1)
    for build in (lambda: power(VAR00, E00),
                  lambda: power(VAR00, 0, den=E00 + 1),
                  lambda: power((1, 0), DEG),
                  lambda: RhoPoly({(((1, 0), DEG // 2), ((0, 1), DEG // 2)):
                                   1}),
                  lambda: hi * RhoPoly.var(0, 0),
                  lambda: lo * power(VAR00, 0, den=1),
                  lambda: power(VAR00, E00 // 2) ** 2,
                  lambda: power((1, 0), DEG // 2) ** 2,
                  lambda: top * RhoPoly.var(1, 0),
                  lambda: RhoPoly.dot([(RhoPoly.one(), 1), (hi, hi)]),
                  lo.inverse):
        with pytest.raises(IndexOutOfRange):
            build()
    assert hi.inverse() == power(VAR00, 0, den=E00 - 1)

