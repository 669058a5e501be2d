"""Exact references for every coefficient a workload asks for.

None of them is taken from the route the benchmark times:

* sphere: a_n = c_n / (pi R^(2n)) with c = 1/12, 1/60, 1/315, 1/1260, 1/3465,
  the sphere heat-trace series (checked against the explicit spectrum).
* dense, curvature: the eq310 (frozen-operator) route on the same jet, and
  for n = 2 also Gilkey's a_2 = (K^2 - Delta K) / (60 pi) with K from
  ``gaussian_curvature_jet``.
* symbolic: a_1 equals ``oracle.golden_a1``; a_2 has 19 terms over rho^6 and
  a_3 80 terms over rho^9; every monomial of a_n has weight 2n; and the
  closed form, evaluated at the seeded jet, equals eq310 on that jet.

``count_failures`` compares one `heatinv compute --format json` reply with
these references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from heatjets.heatinv import heat_invariant_via_frozen
from heatjets.laplace import ConformalLaplacian, gaussian_curvature_jet
from heatjets.oracle import golden_a1

SPHERE_COEFFICIENTS = {1: Fraction(1, 12), 2: Fraction(1, 60),
                       3: Fraction(1, 315), 4: Fraction(1, 1260),
                       5: Fraction(1, 3465)}

#: (numerator terms, rho denominator power) of the symbolic a_2 and a_3.
SYMBOLIC_SHAPES = {2: (19, 6), 3: (80, 9)}


@dataclass(frozen=True)
class Expected:
    """What one a_n must be.

    `values`: every exact rational that q (numeric) or the closed form at the
    oracle jet (symbolic) must equal; every a_n (n >= 1) carries 1/pi.
    A closed form is evaluated at the Taylor coefficients `point`; `shape`
    is its (terms, rho power) when known and `taylor` its exact numerator
    {monomial: coefficient} when known.
    """
    values: tuple
    point: dict | None = None
    shape: tuple | None = None
    taylor: dict | None = None


def gilkey_a2(rho) -> Fraction:
    """q of a_2 = (K^2 - Delta K) / (60 pi) at the origin."""
    k = gaussian_curvature_jet(rho)
    dk0 = ConformalLaplacian(rho).apply(k).constant_term()
    return (Fraction(k.constant_term()) ** 2 - Fraction(dk0)) / 60


def _eq310(n, rho) -> Fraction:
    return heat_invariant_via_frozen(n, rho.truncate(8 * n)).form.q


def references(request) -> dict:
    """{n: Expected} for every n of the request."""
    if request.workload == "sphere":
        r2 = request.radius ** 2
        return {n: Expected((SPHERE_COEFFICIENTS[n] / r2 ** n,))
                for n in request.ns}
    rho = request.jet()
    symbolic = request.workload == "symbolic"
    out = {}
    for n in request.ns:
        values = (_eq310(n, rho),)
        if n == 2:
            values += (gilkey_a2(rho.truncate(8)),)
        if not symbolic:
            out[n] = Expected(values)
        elif n == 1:
            poly, _ = golden_a1()
            taylor = {m: Fraction(c) for m, c in poly.terms()}
            out[n] = Expected(values, request.coeffs,
                              (len(taylor), poly.den), taylor)
        else:
            out[n] = Expected(values, request.coeffs, SYMBOLIC_SHAPES.get(n))
    return out


def closed_form_taylor(doc) -> dict:
    """Numerator of a closed-form reply in Taylor-coefficient variables.

    The reply uses derivative values, rho_(a,b) = a! b! t_ab, so a monomial
    prod rho_(a,b)^e becomes prod (a! b!)^e t_ab^e.
    """
    out = {}
    for term in doc["terms"]:
        coeff = Fraction(term["coefficient"])
        mono = []
        for a, b, e in term["monomial"]:
            coeff *= (factorial(a) * factorial(b)) ** e
            mono.append(((a, b), e))
        mono = tuple(sorted(mono))
        out[mono] = out.get(mono, 0) + coeff
    return {m: c for m, c in out.items() if c}


def evaluate_taylor(num: dict, rho_power: int, coeffs: dict) -> Fraction:
    """num(t) / t_00^rho_power at the Taylor coefficients `coeffs`."""
    total = Fraction(0)
    for mono, c in num.items():
        term = Fraction(c)
        for var, e in mono:
            term *= Fraction(coeffs.get(var, 0)) ** e
        total += term
    return total / Fraction(coeffs[(0, 0)]) ** rho_power


def value_matches(n, doc, expected: Expected) -> bool:
    """True when the reply `doc` for a_n meets `expected`."""
    if doc.get("piPower") != 1:
        return False
    if doc.get("kind") == "numeric":
        got = Fraction(doc["q"])
    elif doc.get("kind") == "closedForm":
        num = closed_form_taylor(doc)
        rho_power = doc["rhoDenominatorPower"]
        if doc.get("n") != n:
            return False
        if any(sum(e * (a + b) for (a, b), e in m) != 2 * n for m in num):
            return False
        if expected.shape and expected.shape != (len(num), rho_power):
            return False
        if expected.taylor is not None and expected.taylor != num:
            return False
        got = evaluate_taylor(num, rho_power, expected.point)
    else:
        return False
    return all(got == v for v in expected.values)


def count_failures(ns, expected: dict, exit_code, stdout) -> int:
    """Coefficients of one request that failed: all of them on a nonzero
    exit or an unreadable reply, else each a_n missing or wrong."""
    if exit_code != 0:
        return len(ns)
    try:
        results = json.loads(stdout)["results"]
        by_n = {r["n"]: r["value"] for r in results}
    except (ValueError, KeyError, TypeError):
        return len(ns)
    failed = 0
    for n in ns:
        want = expected[n]
        try:
            ok = value_matches(n, by_n[n], want)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            ok = False  # missing or malformed a_n
        failed += not ok
    return failed
