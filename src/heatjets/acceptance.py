"""The acceptance criteria of the package, as one ordered registry.

``CRITERIA`` is run by ``heatinv verify`` and by the test suite alike.  Each
entry is (number, name, budget in seconds, check); a check returns ``None``
on success or a one-line failure message.  Checks never use ``assert``, so
they keep checking under ``python -O``.

Every check except the spectral fit (criterion 4) is exact arithmetic.  The
random jets come from seeded generators, so every run sees the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import mpmath

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
    heat_invariant,
    heat_invariant_via_frozen,
    render_closed_form,
    render_pi_scaled,
    symbolic_heat_invariant,
)
from .jets import Jet2D
from .laplace import ConformalLaplacian, gaussian_curvature_jet
from .metrics import expand_metric, parse_metric_spec
from .oracle import SphereSpectrum, fit_diagonal_coefficients, golden_a1
from .rhopoly import PiScaled, mono_degree


class Criterion(NamedTuple):
    number: int
    name: str
    budget_seconds: float
    check: Callable[[], Optional[str]]


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
    poly, pi_power = golden_a1()
    form = symbolic_heat_invariant(1).form
    if form.poly != poly or form.pi_power != pi_power:
        return "symbolic a_1 differs from the classical closed form"
    text = render_closed_form(form)
    if text != ("(rho_u^2 + rho_v^2 - rho*rho_uu - rho*rho_vv) "
                "/ (24*pi*rho^3)"):
        return f"symbolic a_1 renders as {text!r}"


def _flat_zeros():
    for c in (Fraction(1), Fraction(7, 3)):
        for n in (1, 2, 3):
            value = heat_invariant(n, Jet2D.constant(c, 8 * n)).form
            if value != PiScaled(Fraction(0)):
                return (f"a_{n}(rho={c}) = {render_pi_scaled(value)}, "
                        "expected 0")


def _sphere_a1_exact():
    value = heat_invariant(1, _unit_sphere_jet(8)).form
    text = render_pi_scaled(value)
    if value != PiScaled(Fraction(1, 12), 1) or text != "1/(12*pi)":
        return f"unit sphere a_1 = {text}, expected 1/(12*pi)"


def _sphere_a2_spectral_fit():
    exact = heat_invariant(2, _unit_sphere_jet(16)).form
    fit = fit_diagonal_coefficients(SphereSpectrum(Fraction(1)), n_terms=3)
    with mpmath.workdps(40):
        target = (mpmath.mpf(exact.q.numerator) / exact.q.denominator
                  / mpmath.pi ** exact.pi_power)
        rel = abs(fit.coefficients[2] - target) / abs(target)
        if not rel < mpmath.mpf(10) ** -6:
            return f"spectral a_2 off by {mpmath.nstr(rel, 5)} relative"


def _cross_path_equality():
    rng = random.Random(5001)
    for i in range(20):
        rho = _random_jet(rng, order=16)
        for n in (1, 2):
            work = rho.truncate(8 * n)
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


def _scaling_rotation_homogeneity():
    rng = random.Random(8001)
    for n in (1, 2):
        rho = _random_jet(rng, order=8 * n)
        base = heat_invariant(n, rho).form
        for c in (Fraction(2), Fraction(3, 5)):
            if heat_invariant(n, rho * c).form != base * (1 / c ** n):
                return f"a_{n}({c} rho) != {c}^-{n} a_{n}(rho)"
        rotated = rho.compose_linear(Fraction(3, 5), Fraction(-4, 5),
                                     Fraction(4, 5), Fraction(3, 5))
        if heat_invariant(n, rotated).form != base:
            return f"a_{n} moved under a Pythagorean rotation"
        form = symbolic_heat_invariant(n).form
        if form.poly.weights() != {2 * n}:
            return f"symbolic a_{n} is not of weight {2 * n}"
        if {form.poly.den - mono_degree(m)
                for m, _ in form.poly.terms()} != {n}:
            return f"symbolic a_{n} is not of degree -{n} in rho"


def _symbolic_a2():
    form = symbolic_heat_invariant(2).form
    if not form.poly.num:
        return "symbolic a_2 is zero"
    if form.poly.weights() != {4}:
        return "symbolic a_2 is not of weight 4"


def _curvature_closed_forms():
    # Gilkey's invariants specialised to surfaces, with the nonnegative
    # Laplacian Delta: pi a_1 = K/12, pi a_2 = (K^2 - Delta K)/60 and
    # pi a_3 = K^3/315 - K Delta K/120 + |grad K|^2/210 + Delta^2 K/560.
    # K, Delta K, grad K and Delta^2 K at the origin need rho to order 6.
    rng = random.Random(10001)
    for i in range(5):
        rho = _random_jet(rng, order=24)
        low = rho.truncate(6)
        lap = ConformalLaplacian(low)
        k = gaussian_curvature_jet(low, lap)
        dk = lap.apply(k)
        k0, dk0 = Fraction(k.constant_term()), Fraction(dk.constant_term())
        d2k0 = Fraction(lap.apply(dk).constant_term())
        grad2 = (Fraction(k.coefficient(1, 0)) ** 2
                 + Fraction(k.coefficient(0, 1)) ** 2) / low.constant_term()
        expected = (k0 / 12,
                    (k0 ** 2 - dk0) / 60,
                    k0 ** 3 / 315 - k0 * dk0 / 120 + grad2 / 210
                    + d2k0 / 560)
        for n, q in enumerate(expected, start=1):
            value = heat_invariant(n, rho.truncate(8 * n)).form
            if value != PiScaled(q, 1):
                return (f"a_{n} on jet {i} is {render_pi_scaled(value)}, "
                        f"not ({q})/pi")


CRITERIA = (
    Criterion(1, "a1-closed-form-identity", 1.0, _a1_closed_form_identity),
    Criterion(2, "flat-zeros", 10.0, _flat_zeros),
    Criterion(3, "sphere-a1-exact", 5.0, _sphere_a1_exact),
    Criterion(4, "sphere-a2-spectral-fit", 120.0, _sphere_a2_spectral_fit),
    Criterion(5, "cross-path-equality", 300.0, _cross_path_equality),
    Criterion(6, "curvature-path-equality", 120.0, _curvature_path_equality),
    Criterion(7, "commutator-three-way", 30.0, _commutator_three_way),
    Criterion(8, "scaling-rotation-homogeneity", 300.0,
              _scaling_rotation_homogeneity),
    Criterion(9, "symbolic-a2", 60.0, _symbolic_a2),
    Criterion(10, "curvature-closed-forms", 60.0, _curvature_closed_forms),
)
