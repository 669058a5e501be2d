"""Heat-kernel diagonal coefficients a_n(x) for conformal 2-D metrics.

For ds^2 = rho(u,v)(du^2 + dv^2) the heat kernel diagonal expands as
K(t,x,x) ~ (1/t) sum_n a_n(x) t^n, and each a_n at the origin of the chart
is a finite sum of iterated-Laplacian images of monomials:

    a_n = sum_{m=n+1..4n} sum_{k=n+1..m} sum_{s=0..k-n}
          C_nksm * rho_0^(k-n) * Delta^k(u^(2k-2n-2s) v^(2s)) |_(0,0)

with the paper's constants C_nksm (``heat_constant``).  By Chu-Vandermonde
and Gamma(j + 1/2) = (2j)! sqrt(pi) / (4^j j!) these Gamma sums equal
(-1)^n C(m-n, k-n) C(k-n, s) / (4^(k-n+1) k! (k-n)! pi); the sums over m
(hockey stick) and s (binomial theorem) leave one radial polynomial per k,

    P_k = c_nk (rho_0 (u^2 + v^2))^(k-n),
    c_nk = (-1)^n C(3n+1, k-n+1) / (4^(k-n+1) k! (k-n)! pi),

and a_n = sum_{k=n+1..4n} Delta^k P_k at the origin.  Feeding the fully
generic conformal factor (Taylor coefficients as formal variables) through
this sum yields a_n as a closed-form rational polynomial in the metric
derivatives; feeding a concrete rational jet yields an exact number q/pi.
a_n is a local invariant of weight 2n, so it reads the jet of rho only to
order 2n; ``required_order`` states the order every route reads.

An equivalent second route expands the resolvent around the origin-frozen
Laplacian Delta_0 and sums binomially weighted mixed powers
Delta^k Delta_0^(m-k) applied to explicit seed polynomials.  The two routes
share no constants and must agree exactly; the test suite relies on that.

Everything here is exact: rationals, rational polynomials, and a tracked
power of 1/pi.  Decimal output is a presentation concern handled elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .errors import IndexOutOfRange, OrderExhausted
from .jets import Jet2D
from .laplace import ConformalLaplacian, FrozenLaplacian
from .rhopoly import PiScaled, RhoPoly

#: Universal leading (Weyl) coefficient in dimension 2: a_0 = 1/(4 pi).
#: Not produced by the main sum (its index ranges are empty at n = 0);
#: sourced from eigenvalue-counting asymptotics instead.
WEYL_A0 = PiScaled(Fraction(1, 4), 1)


def gamma_half_rational(j: int) -> Fraction:
    """q with Gamma(j + 1/2) = q sqrt(pi), i.e. (2j)! / (4^j j!)."""
    if j < 0:
        raise IndexOutOfRange(f"Gamma(j + 1/2) ratio needs j >= 0, got {j}")
    return Fraction(factorial(2 * j), 4 ** j * factorial(j))


def heat_constant(n: int, k: int, s: int, m: int) -> PiScaled:
    """The exact constant C_nksm multiplying one monomial image.

    C_nksm = (-1)^n/(4 pi^2) * sum_{l=0}^{m-k}
             Gamma(k+l-n-s+1/2) Gamma(s+m-k-l+1/2)
             / (k! l! (m-k-l)! (2k-2n-2s)! (2s)!);

    the two sqrt(pi) factors combine so the value is rational times 1/pi.
    The paper's constant; the routes use its m-sum in closed form instead.
    """
    if not (n >= 1 and n + 1 <= k <= m <= 4 * n and 0 <= s <= k - n):
        raise IndexOutOfRange(
            f"indices (n,k,s,m)=({n},{k},{s},{m}) outside the summation "
            "ranges n+1 <= k <= m <= 4n, 0 <= s <= k-n")
    total = Fraction(0)
    for l in range(m - k + 1):
        g = gamma_half_rational(k + l - n - s) * gamma_half_rational(s + m - k - l)
        total += g / (factorial(k) * factorial(l) * factorial(m - k - l)
                      * factorial(2 * k - 2 * n - 2 * s) * factorial(2 * s))
    return PiScaled(Fraction((-1) ** n, 4) * total, 1)


def _radial_terms(n: int, scale, r2: Jet2D):
    """(D, k -> D P_k): D P_k = D c_nk scale^(k-n) r2^(k-n) to order 2k.

    D = lcm_k den(c_nk) puts every c_nk over one common denominator, so each
    D c_nk is an integer and the pipelines stay integral wherever scale and
    r2 are; multiplying by an integer commutes with Delta, so the sum is
    divided by D once at the end.  eq311 passes scale = rho_0 and
    r2 = u^2 + v^2, the curvature route 1/E and the pull-back of u^2 + v^2.
    r2 is read to 2n + 2; it has valuation 2, so the product's valuation
    rule gives r2^j the order 2n + 2j = 2k by itself.
    """
    c = {k: Fraction((-1) ** n * comb(3 * n + 1, k - n + 1),
                     4 ** (k - n + 1) * factorial(k) * factorial(k - n))
         for k in range(n + 1, 4 * n + 1)}
    d = lcm(*(q.denominator for q in c.values()))
    r2 = r2.truncate(2 * n + 2)
    powers = [r2]  # r2^j, j = 1..3n
    for _ in range(3 * n - 1):
        powers.append(powers[-1] * r2)

    def term(k):
        j = k - n
        return powers[j - 1] * (scale ** j * int(c[k] * d))
    return d, term


def _nested_laplacian_sum(lap: ConformalLaplacian, n: int, scale, r2: Jet2D):
    """(sum_{k=n+1..4n} Delta^k P_k)(0), P_k from ``_radial_terms``.

    By linearity the sum equals Delta^(n+1) Q at the origin, where
    Q = P_(n+1) + Delta(P_(n+2) + Delta(... + Delta P_(4n))): 4n
    applications of Delta.  Each P_k has valuation >= 2k - 2n and order 2k, so
    every intermediate keeps the band order - valuation <= 2n and 1/rho is
    never needed beyond degree 2n.  The nesting runs on the integral
    multiples D P_k, and the constant term is divided by D once.
    """
    d, term = _radial_terms(n, scale, r2)
    q = term(4 * n)
    for k in range(4 * n - 1, n, -1):
        q = term(k) + lap.apply(q)
    return lap.apply_power(q, n + 1).constant_term() * Fraction(1, d)


def generic_rho_jet(order: int) -> Jet2D:
    """The fully generic conformal factor: every Taylor coefficient a variable."""
    coeffs = {(a, b): RhoPoly.var(a, b)
              for a in range(order + 1) for b in range(order + 1 - a)}
    return Jet2D(coeffs, order)


@dataclass(frozen=True)
class ClosedForm:
    """a_n as an exact polynomial identity: poly * pi^(-pi_power).

    `poly` lives in the Taylor-coefficient variables rho_ab over a power of
    rho_00; every numerator monomial has derivative-order weight exactly 2n.
    """
    n: int
    poly: RhoPoly
    pi_power: int

    def substitute(self, rho: Jet2D) -> PiScaled:
        """Evaluate at a concrete rational jet."""
        q = self.poly.substitute(rho.coeffs)
        return PiScaled(q, self.pi_power)


@dataclass(frozen=True)
class HeatInvariantResult:
    n: int
    form: object  # ClosedForm for a symbolic run, PiScaled for a numeric one
    truncation_order: int


def _is_symbolic(rho: Jet2D) -> bool:
    return isinstance(rho.constant_term(), RhoPoly)


def _wrap(n, total, symbolic, order) -> HeatInvariantResult:
    if symbolic:
        # a vanishing constant term of a jet reads as the int 0
        form = ClosedForm(n=n, poly=total or RhoPoly.zero(), pi_power=1)
    else:
        form = PiScaled(total, 1)
    return HeatInvariantResult(n=n, form=form, truncation_order=order)


def required_order(n: int, path: str) -> int:
    """The order of the jet of rho that route `path` reads for a_n.

    a_n is a local invariant of weight 2n: every monomial of its closed form
    has derivative weight 2n (Gilkey, J. Diff. Geom. 10 (1975)), and the
    eq311 and eq310 pipelines invert rho to degree 2n and no further.  The
    curvature route reads the pull-back r2 of u^2 + v^2 to order 2n + 2, so
    z = K - K(0) and w = Delta K - (Delta K)(0) to order 2n + 1 (r2 is
    quadratic in them), hence K to order 2n + 3 and rho to order 2n + 5.
    """
    if path == "curvature":
        return 2 * n + 5
    return 2 * n


def _require_order(n: int, rho: Jet2D, path: str) -> int:
    """required_order(n, path), after checking that `rho` carries it."""
    order = required_order(n, path)
    if rho.order < order:
        raise OrderExhausted(
            f"a_{n} on the {path} route needs a conformal factor jet of "
            f"order >= {order}, got {rho.order}")
    return order


def heat_invariant(n: int, rho: Jet2D) -> HeatInvariantResult:
    """a_n(origin) by the direct monomial-image sum.

    Terms sharing k are collected into the radial polynomial
    P_k = c_nk (rho_0 (u^2 + v^2))^(k-n) of the module docstring, and
    sum_k Delta^k P_k is evaluated by Horner nesting: 4n Laplacian
    applications in all.
    """
    if n < 1:
        raise IndexOutOfRange(f"heat_invariant needs n >= 1, got {n}")
    order = _require_order(n, rho, "eq311")
    total = _nested_laplacian_sum(ConformalLaplacian(rho), n,
                                  rho.constant_term(),
                                  Jet2D({(2, 0): 1, (0, 2): 1}, 2 * n + 2))
    return _wrap(n, total, _is_symbolic(rho), order)


def heat_invariant_via_frozen(n: int, rho: Jet2D) -> HeatInvariantResult:
    """a_n(origin) by the independent frozen-operator binomial route.

    a_n = sum_m rho_0^(m-n) (-1)^(m-n)/(4 m!) *
          sum_{k=0}^m (-1)^k C(m,k) Delta^k Delta_0^(m-k) (f_m) |_(0,0),

    where the seed f_m = sum_p g(m-n-p) g(p) u^(2m-2n-2p) v^(2p)
    / ((2m-2n-2p)! (2p)!) = (u^2 + v^2)^(m-n) / (4^(m-n) (m-n)!), with g the
    rational Gamma(.+1/2) ratio.  It shares no constant with heat_invariant.
    """
    if n < 1:
        raise IndexOutOfRange(f"heat_invariant needs n >= 1, got {n}")
    order = _require_order(n, rho, "eq310")
    symbolic = _is_symbolic(rho)
    lap = ConformalLaplacian(rho)
    frozen = FrozenLaplacian(rho)
    rho0 = rho.constant_term()
    parts = []
    for m in range(n + 1, 4 * n + 1):
        seed_coeffs = {}
        for p in range(m - n + 1):
            w = (gamma_half_rational(m - n - p) * gamma_half_rational(p)
                 / (factorial(2 * m - 2 * n - 2 * p) * factorial(2 * p)))
            seed_coeffs[(2 * m - 2 * n - 2 * p, 2 * p)] = w
        seed = Jet2D(seed_coeffs, 2 * m)
        frozen_images = [seed]
        for _ in range(m):
            frozen_images.append(frozen.apply(frozen_images[-1]))
        inner = []
        for k in range(m + 1):
            val = lap.apply_power(frozen_images[m - k], k).constant_term()
            if val:
                inner.append(val * ((-1) ** k * comb(m, k)))
        if not inner:
            continue
        tot = RhoPoly.sum(inner) if symbolic else sum(inner, Fraction(0))
        factor = Fraction((-1) ** (m - n), 4 * factorial(m))
        parts.append((rho0 ** (m - n) * tot) * factor)
    if symbolic:
        total = RhoPoly.sum(parts)
    else:
        total = sum(parts, Fraction(0))
    return _wrap(n, total, symbolic, order)


def symbolic_heat_invariant(n: int) -> HeatInvariantResult:
    """Closed-form a_n (eq311) for the fully generic conformal factor."""
    return heat_invariant(n, generic_rho_jet(required_order(n, "eq311")))


# -- rendering ---------------------------------------------------------------

def _var_index(a: int, b: int) -> int:
    """Total order of the derivative variables: rho < rho_u < rho_v < rho_uu < ..."""
    return (a + b) * (a + b + 1) // 2 + b


def _var_name(a: int, b: int, latex: bool = False) -> str:
    if a == 0 and b == 0:
        return r"\rho" if latex else "rho"
    sub = "u" * a + "v" * b
    return rf"\rho_{{{sub}}}" if latex else f"rho_{sub}"


def _derivative_value_terms(poly: RhoPoly):
    """Terms converted from Taylor-coefficient to derivative-value variables.

    rho_ab (Taylor) = (d_u^a d_v^b rho)(0) / (a! b!), so each monomial picks
    up the inverse factorial product.  Returns a list of (sort_key, mono,
    Fraction coefficient) sorted by total degree, then lexicographically on
    the exponent vector read from the highest derivative variable down
    (this puts pure low-derivative monomials first, matching the customary
    way these formulas are printed).
    """
    converted = []
    max_idx = 0
    for mono, c in poly.terms():
        coeff = Fraction(c)
        indexed = []
        for (a, b), e in mono:
            coeff /= Fraction(factorial(a) * factorial(b)) ** e
            idx = _var_index(a, b)
            indexed.append((idx, (a, b), e))
            max_idx = max(max_idx, idx)
        indexed.sort()
        converted.append((indexed, coeff))
    keyed = []
    for indexed, coeff in converted:
        degree = sum(e for _, _, e in indexed)
        exps = {idx: e for idx, _, e in indexed}
        rev = tuple(exps.get(i, 0) for i in range(max_idx, -1, -1))
        keyed.append(((degree, rev), indexed, coeff))
    keyed.sort(key=lambda item: item[0])
    return [(mono, coeff) for _, mono, coeff in keyed]


def _content(coeffs):
    """Positive-leading rational content so residual coefficients are coprime ints."""
    num_gcd = 0
    den_lcm = 1
    for c in coeffs:
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = lcm(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    if coeffs and coeffs[0] < 0:
        content = -content
    return content


def _monomial_str(indexed, latex: bool) -> str:
    factors = []
    for _, (a, b), e in indexed:
        name = _var_name(a, b, latex)
        if e == 1:
            factors.append(name)
        else:
            factors.append(f"{name}^{{{e}}}" if latex else f"{name}^{e}")
    sep = " " if latex else "*"
    return sep.join(factors)


def render_closed_form(form: ClosedForm, fmt: str = "plain") -> str:
    latex = fmt == "latex"
    if fmt not in ("plain", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    terms = _derivative_value_terms(form.poly)
    if not terms:
        return "0"
    content = _content([c for _, c in terms])
    pieces = []
    for i, (indexed, coeff) in enumerate(terms):
        q = coeff / content
        assert q.denominator == 1
        mag, neg = abs(q.numerator), q.numerator < 0
        mono = _monomial_str(indexed, latex)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}{' ' if latex else '*'}{mono}"
        if i == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    numerator = " ".join(pieces)
    sign = "-" if content < 0 else ""
    p, q_den = abs(content.numerator), content.denominator
    den_factors = []
    if q_den != 1:
        den_factors.append(str(q_den))
    if form.pi_power == 1:
        den_factors.append(r"\pi" if latex else "pi")
    elif form.pi_power > 1:
        den_factors.append((r"\pi^{%d}" % form.pi_power) if latex
                           else f"pi^{form.pi_power}")
    d = form.poly.den
    if d == 1:
        den_factors.append(_var_name(0, 0, latex))
    elif d > 1:
        den_factors.append((r"\rho^{%d}" % d) if latex
                           else f"rho^{d}")
    num_str = f"({numerator})" if not latex else numerator
    if p != 1:
        num_str = (f"{p} {num_str}" if latex else f"{p}*{num_str}")
    if not den_factors:
        return f"{sign}{num_str}"
    if latex:
        return rf"{sign}\frac{{{num_str}}}{{{' '.join(den_factors)}}}"
    return f"{sign}{num_str} / ({'*'.join(den_factors)})"


def closed_form_to_json(form: ClosedForm) -> dict:
    """Machine-readable closed form in derivative-value variables."""
    terms = []
    for indexed, coeff in _derivative_value_terms(form.poly):
        terms.append({
            "monomial": [[a, b, e] for _, (a, b), e in indexed],
            "coefficient": str(coeff),
        })
    return {
        "kind": "closedForm",
        "n": form.n,
        "piPower": form.pi_power,
        "rhoDenominatorPower": form.poly.den,
        "variables": "derivativeValues",
        "terms": terms,
    }


def parse_closed_form_json(doc) -> ClosedForm:
    """Inverse of closed_form_to_json; reconstructs the identical polynomial."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    num = {}
    for term in doc["terms"]:
        coeff = Fraction(term["coefficient"])
        mono = []
        for a, b, e in term["monomial"]:
            coeff *= Fraction(factorial(a) * factorial(b)) ** e
            mono.append(((a, b), e))
        mono = tuple(sorted(mono))
        num[mono] = num.get(mono, 0) + coeff
    poly = RhoPoly(num, doc["rhoDenominatorPower"])
    return ClosedForm(n=doc["n"], poly=poly, pi_power=doc["piPower"])


def render_pi_scaled(value: PiScaled, fmt: str = "plain") -> str:
    """Exact numeric rendering, e.g. 1/(12*pi); pi is never expanded."""
    if fmt not in ("plain", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    if not value.q:
        return "0"
    p = value.q.numerator
    den_factors = []
    if value.q.denominator != 1:
        den_factors.append(str(value.q.denominator))
    if value.pi_power:
        if fmt == "latex":
            den_factors.append(r"\pi" if value.pi_power == 1
                               else r"\pi^{%d}" % value.pi_power)
        else:
            den_factors.append("pi" if value.pi_power == 1
                               else f"pi^{value.pi_power}")
    if not den_factors:
        return str(p)
    if fmt == "latex":
        sign = "-" if p < 0 else ""
        return rf"{sign}\frac{{{abs(p)}}}{{{' '.join(den_factors)}}}"
    den = den_factors[0] if len(den_factors) == 1 \
        else "(" + "*".join(den_factors) + ")"
    return f"{p}/{den}"
