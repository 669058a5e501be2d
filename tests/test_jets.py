"""Jet2D arithmetic, calculus, and order-tracking checks."""

from fractions import Fraction
from math import gcd, lcm, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatjets.errors import (IndexOutOfRange, NonInvertibleConstantTerm,
                             OrderExhausted)
from heatjets.heatinv import generic_rho_jet
from heatjets.jets import STRIDE, Jet2D
from heatjets.laplace import gaussian_curvature_jet
from heatjets.oracle import golden_a1
from heatjets.rhopoly import RhoPoly

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
#: ints and Fractions mixed, for the integral product kernel
scalars = st.one_of(st.integers(-9, 9),
                    st.fractions(min_value=-9, max_value=9,
                                 max_denominator=12))


@st.composite
def jets(draw, min_order=0, max_order=5, min_val=0, coefficients=rationals):
    order = draw(st.integers(min_order, max_order))
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.integers(0, order))
        b = draw(st.integers(0, order - a))
        if a + b >= min_val:
            coeffs[(a, b)] = draw(coefficients)
    return Jet2D(coeffs, order)


@st.composite
def invertible_jets(draw):
    f = draw(jets())
    coeffs = dict(f.coeffs)
    coeffs[(0, 0)] = draw(rationals.filter(bool))
    return Jet2D(coeffs, f.order)


@st.composite
def rho_polys(draw):
    """Small RhoPoly values over rho_00^0..rho_00^3."""
    num = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = {}
        for _ in range(draw(st.integers(0, 2))):
            var = draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
            mono[var] = mono.get(var, 0) + 1
        num[tuple(sorted(mono.items()))] = draw(rationals)
    return RhoPoly(num, draw(st.integers(0, 3)))


@st.composite
def mixed_jets(draw, min_order=0):
    """Jets whose coefficients mix exact scalars and RhoPoly values."""
    order = draw(st.integers(min_order, 4))
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.integers(0, order))
        b = draw(st.integers(0, order - a))
        coeffs[(a, b)] = draw(st.one_of(rationals, rho_polys()))
    return Jet2D(coeffs, order)


def common(f, g):
    n = min(f.order, g.order)
    return f.truncate(n), g.truncate(n)


def test_constructors_and_access():
    f = Jet2D({(2, 1): Fraction(3)}, 4)
    assert f.coefficient(2, 1) == 3
    assert f.coefficient(0, 0) == 0
    assert f.valuation() == 3
    with pytest.raises(IndexOutOfRange):
        f.coefficient(4, 1)
    assert Jet2D.zero(3).valuation() == 4
    assert not Jet2D.constant(0, 3)


def test_zero_coefficients_are_stripped():
    f = Jet2D({(1, 0): Fraction(0), (0, 1): Fraction(2)}, 3)
    assert (1, 0) not in f.coeffs
    g = f - f
    assert not g.coeffs


#: concrete jets, or jets whose coefficients mix scalars and RhoPoly values
either_ring = jets() | mixed_jets()


@settings(max_examples=60)
@given(either_ring, either_ring, either_ring)
def test_ring_axioms(f, g, h):
    fg, gf = f + g, g + f
    assert fg == gf
    a, b = common(f * g, g * f)
    assert a == b
    a, b = common((f + g) + h, f + (g + h))
    assert a == b
    a, b = common((f * g) * h, f * (g * h))
    assert a == b
    a, b = common(f * (g + h), f * g + f * h)
    assert a == b
    assert f - f == Jet2D.zero(f.order)


def schoolbook_product(f, g, cap):
    """Reference for the integral kernel: one Fraction per pair."""
    ref = {}
    for (a1, b1), c1 in f.coeffs.items():
        for (a2, b2), c2 in g.coeffs.items():
            if a1 + a2 + b1 + b2 <= cap:
                key = (a1 + a2, b1 + b2)
                ref[key] = ref.get(key, 0) + Fraction(c1) * Fraction(c2)
    return {k: v for k, v in ref.items() if v}


def test_mul_matches_polynomial_convolution():
    # low-degree data in a high-order jet behaves as an exact polynomial
    f = Jet2D({(1, 0): Fraction(2), (0, 2): Fraction(-1)}, 10)
    g = Jet2D({(0, 0): Fraction(3), (1, 1): Fraction(5)}, 10)
    prod = f * g
    assert prod.coeffs == schoolbook_product(f, g, prod.order)


#: a factor with a constant term, and one of valuation 2
ONE_PLUS = Jet2D({(0, 0): Fraction(2, 3), (1, 2): 5, (0, 1): -1}, 4)
VALUED = Jet2D({(2, 0): Fraction(1, 2), (1, 2): -3}, 4)


@settings(max_examples=200)
@given(jets(max_order=6, coefficients=scalars),
       jets(max_order=6, coefficients=scalars), st.integers(0, 14))
@example(Jet2D.zero(4), ONE_PLUS, 4)  # empty left factor
@example(ONE_PLUS, Jet2D.zero(4), 4)  # empty right factor
@example(ONE_PLUS, VALUED, 0)
@example(VALUED, Jet2D({(1, 2): 7, (0, 4): 1}, 4), 1)  # below both valuations
def test_integral_kernel_matches_schoolbook_product(f, g, cap):
    # caps run from below the lowest product degree to above f.order + g.order
    prod = f._mul_capped(g, cap)
    assert prod.order == cap
    assert prod.coeffs == schoolbook_product(f, g, cap)
    assert all(prod.coeffs.values())


@given(jets(max_order=6, coefficients=st.integers(-9, 9)),
       jets(max_order=6, coefficients=st.integers(-9, 9)), st.integers(0, 14))
def test_integral_kernel_keeps_int_coefficients(f, g, cap):
    # common denominator 1 on both sides: no Fraction is built
    prod = f._mul_capped(g, cap)
    assert prod.coeffs == schoolbook_product(f, g, cap)
    assert all(type(c) is int for c in prod.coeffs.values())


nonzero_scalars = scalars.filter(bool)


@given(nonzero_scalars, nonzero_scalars, nonzero_scalars,
       jets(max_order=6, min_val=2, coefficients=scalars),
       jets(max_order=6, min_val=2, coefficients=scalars),
       st.integers(2, 14))
def test_integral_kernel_drops_cancelled_slots(p, q, t, f_rest, g_rest, cap):
    # u * (q t v) + v * (-p t u) cancels at u v; the terms of degree >= 2
    # reach degree 3 or more with the degree-1 terms, never the slot u v
    f = Jet2D({**f_rest.coeffs, (1, 0): p, (0, 1): q}, 6)
    g = Jet2D({**g_rest.coeffs, (0, 1): q * t, (1, 0): -p * t}, 6)
    prod = f._mul_capped(g, cap)
    assert (1, 1) not in prod.coeffs
    assert prod.coeffs == schoolbook_product(f, g, cap)


def per_pair_product(f, g, cap):
    """Reference product: each slot is the RhoPoly.sum of its c1 * c2."""
    slots = {}
    for (a1, b1), c1 in f.coeffs.items():
        for (a2, b2), c2 in g.coeffs.items():
            if a1 + a2 + b1 + b2 <= cap:
                slots.setdefault((a1 + a2, b1 + b2), []).append(
                    RhoPoly.const(0) + c1 * c2)
    sums = {k: RhoPoly.sum(terms) for k, terms in slots.items()}
    return {k: v for k, v in sums.items() if v}


@settings(max_examples=80)
@given(mixed_jets(), st.one_of(mixed_jets(), jets(max_order=4)))
def test_rhopoly_product_matches_per_pair_sums(f, g):
    for left, right in ((f, g), (g, f)):
        prod = left * right
        assert prod.coeffs == per_pair_product(left, right, prod.order)
        assert all(prod.coeffs.values())


def test_rhopoly_product_drops_cancelled_slots():
    # p q + q (-p) cancels at u v; p and q sit over different rho_00 powers
    p = RhoPoly.var(1, 0) * RhoPoly({(): Fraction(1, 3)}, den=2)
    q = RhoPoly.var(0, 1) + 2
    f = Jet2D({(1, 0): p, (0, 1): q}, 3)
    g = Jet2D({(0, 1): q, (1, 0): -p, (0, 0): Fraction(1, 2)}, 3)
    prod = f * g
    assert (1, 1) not in prod.coeffs
    assert prod.coeffs == per_pair_product(f, g, prod.order)


def test_valuation_aware_product_order():
    # u^4 known to order 6, times an order-2 factor: the band rule keeps
    # the product trusted to order 6, not 2.
    f = Jet2D({(4, 0): 1}, 6)
    g = Jet2D({(0, 0): Fraction(1), (2, 0): Fraction(7)}, 2)
    assert (f * g).order == 6
    assert (f * g).coefficient(6, 0) == 7


def test_addition_order_is_min():
    f = Jet2D.constant(Fraction(1), 5)
    g = Jet2D.constant(Fraction(1), 2)
    assert (f + g).order == 2


@settings(max_examples=50)
@given(jets(min_order=1) | mixed_jets(min_order=1),
       jets(min_order=1) | mixed_jets(min_order=1))
def test_product_rule(f, g):
    lhs = (f * g).diff(1, 0)
    rhs = f.diff(1, 0) * g + f * g.diff(1, 0)
    a, b = common(lhs, rhs)
    assert a == b


def test_diff_factorials_and_exhaustion():
    f = Jet2D({(3, 2): Fraction(1)}, 5)
    d = f.diff(2, 1)
    assert d.coefficient(1, 1) == 12  # 3*2 * 2
    assert d.order == 2
    with pytest.raises(OrderExhausted):
        d.diff(0, 3)


@settings(max_examples=50)
@given(invertible_jets())
def test_inverse_round_trip(f):
    inv = f.inverse()
    assert f * inv == Jet2D.constant(Fraction(1), f.order)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(NonInvertibleConstantTerm):
        Jet2D({(1, 0): Fraction(1)}, 3).inverse()


def test_newton_inverse_on_the_generic_factor():
    # the Newton loop runs on RhoPoly jets as on concrete ones: rho times
    # its inverse is 1, and K = -(1/(2 rho)) div(grad rho / rho) at the
    # origin is 12 pi a_1
    rho = generic_rho_jet(4)
    assert rho * rho.inverse() == Jet2D.constant(RhoPoly.one(), 4)
    poly, _ = golden_a1()
    k0 = gaussian_curvature_jet(generic_rho_jet(2)).constant_term()
    assert k0 == 12 * poly


def test_sphere_conformal_factor_jet():
    # rho = 4 (1 + u^2 + v^2)^(-2) for the unit sphere in stereographic
    # coordinates: order-2 jet is 4 - 8 u^2 - 8 v^2.
    base = Jet2D({(0, 0): Fraction(1), (2, 0): Fraction(1),
                  (0, 2): Fraction(1)}, 2)
    rho = (base * base).inverse() * Fraction(4)
    assert rho.coeffs == {(0, 0): 4, (2, 0): -8, (0, 2): -8}


@settings(max_examples=40)
@given(invertible_jets().filter(lambda f: f.order >= 1))
def test_log_derivative_identity(f):
    # d/du log f = f_u / f, with the constant of log irrelevant
    lhs = f.log_nonconstant().diff(1, 0)
    rhs = f.diff(1, 0) * f.inverse()
    a, b = common(lhs, rhs)
    assert a == b


def test_log_of_product_splits():
    one_u = Jet2D({(0, 0): Fraction(1), (1, 0): Fraction(1)}, 6)
    one_v = Jet2D({(0, 0): Fraction(1), (0, 1): Fraction(1)}, 6)
    both = one_u * one_v
    split = one_u.log_nonconstant() + one_v.log_nonconstant()
    assert both.log_nonconstant() == split


@settings(max_examples=60)
@given(jets(max_order=4), jets(min_order=1, min_val=1),
       jets(min_order=1, min_val=1))
def test_compose_is_the_schoolbook_sum(f, p, q):
    # f(p, q) = sum c p^a q^b, truncated to the order all three are known to
    n = min(f.order, p.order, q.order)
    expected = Jet2D.zero(n)
    for (a, b), c in f.coeffs.items():
        term = Jet2D.constant(c, n)
        for factor in [p] * a + [q] * b:
            term = term * factor
        expected = expected + term.truncate(n)
    assert f.compose(p, q) == expected


def test_compose_rotation_fixes_u2_plus_v2():
    # u^2 + v^2 is fixed by the rational rotation (3/5, 4/5)
    r = Jet2D({(2, 0): Fraction(1), (0, 2): Fraction(1)}, 4)
    c, s = Fraction(3, 5), Fraction(4, 5)
    rotated = r.compose(Jet2D({(1, 0): c, (0, 1): -s}, 4),
                        Jet2D({(1, 0): s, (0, 1): c}, 4))
    assert rotated == r


def test_compose_round_trip():
    f = Jet2D({(1, 0): Fraction(2), (0, 1): Fraction(-3),
               (2, 1): Fraction(1, 2)}, 4)
    c, s = Fraction(3, 5), Fraction(4, 5)
    there = f.compose(Jet2D({(1, 0): c, (0, 1): -s}, 4),
                      Jet2D({(1, 0): s, (0, 1): c}, 4))
    back = there.compose(Jet2D({(1, 0): c, (0, 1): s}, 4),
                         Jet2D({(1, 0): -s, (0, 1): c}, 4))
    assert back == f


def test_compose_refuses_a_constant_term():
    f = Jet2D({(1, 0): Fraction(1)}, 3)
    u = Jet2D({(1, 0): Fraction(1)}, 3)
    shifted = Jet2D({(0, 0): Fraction(1), (1, 0): Fraction(1)}, 3)
    with pytest.raises(ValueError):
        f.compose(shifted, u)
    with pytest.raises(ValueError):
        f.compose(u, shifted)


def test_truncate_refuses_extension():
    f = Jet2D.constant(Fraction(1), 2)
    with pytest.raises(ValueError):
        f.truncate(5)
    assert f.truncate(0).order == 0


# -- the integral representation against a Fraction-dict reference ----------

def ref(jet):
    """(order, {(a, b): Fraction}) of a jet, read through its view."""
    return jet.order, {k: Fraction(c) for k, c in jet.coeffs.items()}


def ref_clean(order, d):
    return order, {k: c for k, c in d.items() if c and sum(k) <= order}


def ref_valuation(f):
    return min((a + b for a, b in f[1]), default=f[0] + 1)


def ref_mul(f, g, cap=None):
    if cap is None:
        cap = min(f[0] + ref_valuation(g), g[0] + ref_valuation(f))
    out = {}
    for (a1, b1), c1 in f[1].items():
        for (a2, b2), c2 in g[1].items():
            out[(a1 + a2, b1 + b2)] = out.get((a1 + a2, b1 + b2), 0) + c1 * c2
    return ref_clean(cap, out)


def ref_add(f, g, sign=1):
    out = dict(f[1])
    for k, c in g[1].items():
        out[k] = out.get(k, 0) + sign * c
    return ref_clean(min(f[0], g[0]), out)


def ref_inverse(f):
    """x with f x = 1, solved degree by degree from x_0 = 1/f_0."""
    x = {(0, 0): 1 / f[1][(0, 0)]}
    for d in range(1, f[0] + 1):
        for a in range(d + 1):
            s = sum(c * x.get((a - p, d - a - q), 0)
                    for (p, q), c in f[1].items() if p + q)
            x[(a, d - a)] = -s * x[(0, 0)]
    return ref_clean(f[0], x)


def assert_matches(jet, want):
    """`jet` equals the reference, is in the canonical integral form, and
    its view holds ints exactly where the common denominator is 1."""
    order, coeffs = want
    assert ref(jet) == want
    assert jet == Jet2D(coeffs, order)
    den = lcm(*(c.denominator for c in coeffs.values()))
    assert jet.den == den and gcd(den, *jet.num.values()) == 1
    assert all(type(c) is (int if den == 1 else Fraction)
               for c in jet.coeffs.values())


#: large coprime denominators stress the content division
BIG = (Fraction(10007, 10009), Fraction(-1, 10007 * 10009))
wide_scalars = st.one_of(scalars, st.sampled_from(BIG))
HALVES = Jet2D({(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2),
                (2, 0): Fraction(-5, 2)}, 3)


@settings(max_examples=150, deadline=None)
@given(jets(max_order=5, coefficients=wide_scalars),
       jets(max_order=5, coefficients=wide_scalars), wide_scalars,
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 5))
@example(HALVES, HALVES, 0, 1, 0, 0)  # a zero scalar
@example(HALVES, Jet2D({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2),
                        (2, 0): Fraction(5, 2)}, 3), 2, 0, 1, 1)
@example(Jet2D.zero(4), HALVES, Fraction(1, 3), 0, 0, 2)  # empty: val 5
@example(Jet2D({(0, 0): BIG[0], (1, 1): BIG[1]}, 4),
         Jet2D({(1, 0): Fraction(10009), (2, 2): BIG[0]}, 4), BIG[0], 2, 2, 3)
def test_concrete_operations_match_the_fraction_reference(f, g, c, du, dv,
                                                          cut):
    # the content that cancels (HALVES times 2, HALVES plus its mirror) must
    # come out as ints over denominator 1
    rf, rg = ref(f), ref(g)
    assert f.valuation() == ref_valuation(rf)
    assert_matches(f * g, ref_mul(rf, rg))
    assert_matches(f._mul_capped(g, cut), ref_mul(rf, rg, cut))
    for scalar in (c, int(c)):
        assert_matches(f * scalar, ref_clean(f.order, {
            k: v * scalar for k, v in rf[1].items()}))
        assert_matches(scalar * f, ref(f * scalar))
    assert_matches(f + g, ref_add(rf, rg))
    assert_matches(f - g, ref_add(rf, rg, -1))
    if du + dv <= f.order:
        assert_matches(f.diff(du, dv), ref_clean(f.order - du - dv, {
            (a - du, b - dv): v * perm(a, du) * perm(b, dv)
            for (a, b), v in rf[1].items()}))
    assert_matches(f.truncate(min(cut, f.order)),
                   ref_clean(min(cut, f.order), rf[1]))
    if f.constant_term():
        assert_matches(f.inverse(), ref_inverse(rf))
    p = g - Jet2D.constant(g.constant_term(), g.order)
    q = f - Jet2D.constant(f.constant_term(), f.order)
    n = min(f.order, p.order, q.order)
    want = (n, {})
    for (a, b), v in rf[1].items():
        term = (n, {(0, 0): v})
        for factor in [ref(p)] * a + [ref(q)] * b:
            term = ref_mul(term, factor, n)
        want = ref_add(want, ref_clean(n, term[1]))
    assert_matches(f.compose(p, q), want)


def assert_same_slots(jet, want):
    """`jet` holds the reference's coefficients, and keeps them as they are
    (``den`` None) exactly when a RhoPoly coefficient survives."""
    order, coeffs = want
    assert jet.order == order and jet.coeffs == coeffs
    assert jet == Jet2D(coeffs, order)
    assert (jet.den is None) == (RhoPoly in map(type, jet.num.values()))


#: the RhoPoly slot (1, 0) cancels in f + g, and truncation to degree 0 and
#: the derivative by v drop it, so those results go back to the int form;
#: the product capped at degree 0 is the RhoPoly constant 3/2, equal to the
#: reference's concrete jet
CANCELS = (Jet2D({(0, 0): Fraction(1, 2), (1, 0): RhoPoly.var(1, 0)}, 2),
           Jet2D({(0, 0): 3, (1, 0): -RhoPoly.var(1, 0), (0, 1): 3}, 2))


@settings(max_examples=100, deadline=None)
@given(mixed_jets(), mixed_jets(), st.one_of(scalars, rho_polys()),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 4))
@example(*CANCELS, 2, 0, 1, 0)
@example(*CANCELS, RhoPoly.var(0, 0), 1, 0, 1)
def test_operations_on_either_ring_match_the_reference(f, g, c, du, dv, cut):
    # the reference of test_concrete_operations_match_the_fraction_reference
    # on the coefficients as they are, RhoPoly values included
    rf, rg = (f.order, dict(f.coeffs)), (g.order, dict(g.coeffs))
    assert_same_slots(f, rf)
    assert f.valuation() == ref_valuation(rf)
    assert all(f.coefficient(a, b) == rf[1].get((a, b), 0)
               for a in range(f.order + 1) for b in range(f.order + 1 - a))
    assert_same_slots(f * g, ref_mul(rf, rg))
    assert_same_slots(f._mul_capped(g, cut), ref_mul(rf, rg, cut))
    assert_same_slots(f + g, ref_add(rf, rg))
    assert_same_slots(f - g, ref_add(rf, rg, -1))
    want = ref_clean(f.order, {k: v * c for k, v in rf[1].items()})
    assert_same_slots(f * c, want)
    assert_same_slots(c * f, want)
    if du + dv <= f.order:
        assert_same_slots(f.diff(du, dv), ref_clean(f.order - du - dv, {
            (a - du, b - dv): v * perm(a, du) * perm(b, dv)
            for (a, b), v in rf[1].items()}))
    assert_same_slots(f.truncate(min(cut, f.order)),
                      ref_clean(min(cut, f.order), rf[1]))
    zero = f - f
    assert zero.den == 1 and not zero.num and zero == Jet2D.zero(f.order)


def test_equality_with_rhopoly_jets_reads_the_coefficients():
    # a concrete jet equals a RhoPoly jet of the same order whose
    # coefficients are the same constants
    half = Jet2D({(1, 0): Fraction(1, 2)}, 2)
    assert half == Jet2D({(1, 0): RhoPoly.const(Fraction(1, 2))}, 2)
    assert Jet2D.constant(2, 3) == Jet2D.constant(RhoPoly.const(2), 3)
    assert Jet2D.constant(2, 3) != Jet2D.constant(RhoPoly.const(2), 2)
    assert half != Jet2D({(1, 0): RhoPoly.var(0, 0)}, 2)


def test_orders_at_the_key_stride_are_refused():
    Jet2D.zero(STRIDE - 1)
    for build in (lambda: Jet2D.zero(STRIDE),
                  lambda: Jet2D.constant(1, STRIDE),
                  lambda: Jet2D({(1, 0): 1}, STRIDE + 5)):
        with pytest.raises(IndexOutOfRange):
            build()
    # a product's order may reach the stride from factors below it
    high = Jet2D({(STRIDE // 2, 0): 1}, STRIDE - 1)
    with pytest.raises(IndexOutOfRange):
        high * high
