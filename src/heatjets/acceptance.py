"""The acceptance criteria of the package, as one ordered registry.

``CRITERIA`` is run by ``heatinv verify`` and by the test suite alike.  Each
entry is (number, name, budget in seconds, check); a check returns ``None``
on success or a one-line failure message.  Checks never use ``assert``, so
they keep checking under ``python -O``.

Every check is exact arithmetic.  The random jets come from seeded
generators, so every run sees the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .commutator import (
    RationalMatrix,
    filtration_vectors,
    x_operator_by_sum,
    x_operator_closed,
    x_operator_recurrence,
)
from .curvature import curvature_frame, heat_invariant_curvature_form
from .errors import DegenerateCurvatureCoordinates
from .heatinv import (
    PiScaled,
    heat_invariant,
    heat_invariant_via_frozen,
    render_closed_form,
    render_pi_scaled,
    required_order,
    symbolic_heat_invariant,
)
from .jets import Jet2D
from .laplace import ConformalLaplacian, gaussian_curvature_jet
from .metrics import expand_metric, parse_metric_spec
from .oracle import golden_a1, sphere_heat_coefficients
from .record import Record
from .rhopoly import mono_degree


class Criterion(Record):
    """One entry of ``CRITERIA``; `check` returns None or a failure message."""
    __slots__ = ("number", "name", "budget_seconds", "check")


def _random_jet(rng: random.Random, order: int) -> Jet2D:
    """Dense rational jet: numerators in [-30, 30], denominators in [1, 10],
    with a positive constant term."""
    coeffs = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            coeffs[(a, b)] = Fraction(rng.randint(-30, 30),
                                      rng.randint(1, 10))
    coeffs[(0, 0)] = abs(coeffs[(0, 0)]) + 1
    return Jet2D(coeffs, order=order)


def _unit_sphere_jet(order: int) -> Jet2D:
    spec = parse_metric_spec('{"kind":"sphereStereographic","R":"1"}')
    return expand_metric(spec, order)


def _a1_closed_form_identity():
    poly, _ = golden_a1()
    form = symbolic_heat_invariant(1).form
    if form.poly != poly:
        return "symbolic a_1 differs from the classical closed form"
    text = render_closed_form(form)
    if text != ("(rho_u^2 + rho_v^2 - rho*rho_uu - rho*rho_vv) "
                "/ (24*pi*rho^3)"):
        return f"symbolic a_1 renders as {text!r}"


def _flat_zeros():
    for c in (Fraction(1), Fraction(7, 3)):
        for n in (1, 2, 3):
            value = heat_invariant(n, Jet2D.constant(c, 8 * n)).form
            if value:
                return (f"a_{n}(rho={c}) = {render_pi_scaled(value)}, "
                        "expected 0")


def _sphere_spectrum_exact():
    rho = _unit_sphere_jet(required_order(8, "eq311"))
    for n, q in enumerate(sphere_heat_coefficients(8)[1:], start=1):
        value = heat_invariant(n, rho.truncate(required_order(n, "eq311")))
        if value.form != PiScaled(q):
            return (f"unit sphere a_{n} = {render_pi_scaled(value.form)}, "
                    f"the spectrum gives ({q})/pi")
        if n == 1 and render_pi_scaled(value.form) != "1/(12*pi)":
            return "unit sphere a_1 does not render as 1/(12*pi)"


def _cross_path_equality():
    # eq310 is read off eq311's table of images, so this checks eq310's own
    # constants and the frozen operator, not the table
    rng = random.Random(5001)
    for i in range(20):
        rho = _random_jet(rng, order=16)
        for n in (1, 2, 3, 4):
            work = rho.truncate(required_order(n, "eq310"))
            if heat_invariant(n, work).form != \
                    heat_invariant_via_frozen(n, work).form:
                return f"eq311 and eq310 disagree at n={n} on jet {i}"


def _curvature_path_equality():
    rng = random.Random(6001)
    checked = 0
    while checked < 5:
        rho = _random_jet(rng, order=14)
        if curvature_frame(rho).degenerate:
            continue
        checked += 1
        for n in (1, 2):
            if heat_invariant_curvature_form(n, rho).form != \
                    heat_invariant(n, rho).form:
                return (f"curvature route disagrees with eq311 at n={n} "
                        f"on jet {checked}")
    try:
        heat_invariant_curvature_form(1, _unit_sphere_jet(14))
    except DegenerateCurvatureCoordinates:
        return None
    return "the degenerate sphere jet was not rejected"


def _commutator_three_way():
    rng = random.Random(7001)
    b = RationalMatrix.random(4, rng)
    a = RationalMatrix.random(4, rng)
    for m in range(1, 6):
        by_sum = x_operator_by_sum(b, a, m)
        rec = x_operator_recurrence(b, a, m)
        if not (by_sum == rec == x_operator_closed(b, a, m)):
            return f"X_{m} differs across the three definitions"
    for m in range(6, 9):
        if x_operator_recurrence(b, a, m) != x_operator_closed(b, a, m):
            return f"X_{m} recurrence and closed form differ"
    for m in range(1, 11):
        if len(set(filtration_vectors(m))) != 2 ** (m - 1):
            return f"|V_{m}| != 2^{m - 1}"


def _scaling_chart_homogeneity():
    # a_n is a metric invariant: the chart phi(z) = p + i q = (3+4i)/5 z
    # + (1/2 - i/3) z^2 pulls rho back to rho(p, q) (p_u^2 + q_u^2)
    rng = random.Random(8001)
    for n in (1, 2):
        rho = _random_jet(rng, order=8 * n)
        base = heat_invariant(n, rho).form
        for c in (Fraction(2), Fraction(3, 5)):
            if heat_invariant(n, rho * c).form.q != base.q / c ** n:
                return f"a_{n}({c} rho) != {c}^-{n} a_{n}(rho)"
        p = Jet2D({(1, 0): Fraction(3, 5), (0, 1): Fraction(-4, 5),
                   (2, 0): Fraction(1, 2), (1, 1): Fraction(2, 3),
                   (0, 2): Fraction(-1, 2)}, rho.order + 1)
        q = Jet2D({(1, 0): Fraction(4, 5), (0, 1): Fraction(3, 5),
                   (2, 0): Fraction(-1, 3), (1, 1): 1,
                   (0, 2): Fraction(1, 3)}, rho.order + 1)
        p_u, q_u = p.diff(1, 0), q.diff(1, 0)
        pulled = rho.compose(p, q) * (p_u * p_u + q_u * q_u)
        if heat_invariant(n, pulled).form != base:
            return f"a_{n} moved under a holomorphic change of chart"
        form = symbolic_heat_invariant(n).form
        if form.poly.weights() != {2 * n}:
            return f"symbolic a_{n} is not of weight {2 * n}"
        if {form.poly.den - mono_degree(m)
                for m, _ in form.poly.terms()} != {n}:
            return f"symbolic a_{n} is not of degree -{n} in rho"


def _curvature_closed_forms():
    # Gilkey's invariants specialised to surfaces, with the nonnegative
    # Laplacian D:
    #   pi a_1 = K/12,  pi a_2 = (K^2 - DK)/60,
    #   pi a_3 = K^3/315 - K DK/120 + |grad K|^2/210 + D^2K/560,
    #   pi a_4 = K^4/1260 - K^2 DK/315 + K |grad K|^2/252 + (DK)^2/1080
    #            + K D^2K/945 - <grad K, grad DK>/630 - D|grad K|^2/2520
    #            - D^3K/7560,
    # with <grad f, grad g> = (f Dg + g Df - D(fg))/2.  D^3K at the origin
    # reads K to order 6, so rho to order 8.
    rng = random.Random(10001)
    for i in range(5):
        rho = _random_jet(rng, order=24)
        low = rho.truncate(8)
        lap = ConformalLaplacian(low)
        k = gaussian_curvature_jet(low, lap)
        dk = lap.apply(k)
        d2k = lap.apply(dk)

        def inner(f, df, g, dg):
            """Jet of <grad f, grad g>, given df = Df and dg = Dg."""
            return (f * dg + g * df - lap.apply(f * g)) * Fraction(1, 2)
        grad2 = inner(k, dk, k, dk)
        k0, dk0, d2k0, d3k0, g2, dg2, gkdk = (
            Fraction(jet.constant_term()) for jet in (
                k, dk, d2k, lap.apply(d2k), grad2, lap.apply(grad2),
                inner(k, dk, dk, d2k)))
        expected = (k0 / 12,
                    (k0 ** 2 - dk0) / 60,
                    k0 ** 3 / 315 - k0 * dk0 / 120 + g2 / 210 + d2k0 / 560,
                    k0 ** 4 / 1260 - k0 ** 2 * dk0 / 315 + k0 * g2 / 252
                    + dk0 ** 2 / 1080 + k0 * d2k0 / 945 - gkdk / 630
                    - dg2 / 2520 - d3k0 / 7560)
        for n, q in enumerate(expected, start=1):
            value = heat_invariant(n, rho).form
            if value.q != q:
                return (f"a_{n} on jet {i} is {render_pi_scaled(value)}, "
                        f"not ({q})/pi")


CRITERIA = (
    Criterion(1, "a1-closed-form-identity", 1.0, _a1_closed_form_identity),
    Criterion(2, "flat-zeros", 10.0, _flat_zeros),
    Criterion(3, "sphere-spectrum-exact", 10.0, _sphere_spectrum_exact),
    Criterion(4, "cross-path-equality", 300.0, _cross_path_equality),
    Criterion(5, "curvature-path-equality", 120.0, _curvature_path_equality),
    Criterion(6, "commutator-three-way", 30.0, _commutator_three_way),
    Criterion(7, "scaling-chart-homogeneity", 60.0,
              _scaling_chart_homogeneity),
    Criterion(8, "curvature-closed-forms", 60.0, _curvature_closed_forms),
)
