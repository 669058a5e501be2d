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

The radial sum reads only the 2-jet of its radial function: the value
S_n(f) = sum_k c_nk Delta^k(f^(k-n))(0), which ``_nested_laplacian_sum``
gives for the terms ``_radial_terms(n, 1, f)`` up to their common
denominator, is a_n for every f = rho_0 (u^2 + v^2) + O(|(u, v)|^3), and
another quadratic part changes it (property-tested for n <= 3).  The
curvature route is this sum with another cubic tail.

A second route, the paper's expression (3.10), expands the resolvent
around the origin-frozen Laplacian Delta_0 and sums binomially weighted
mixed powers Delta^k Delta_0^(m-k) applied to explicit seed polynomials.
It is linear in Delta^k too and runs through the same Horner chain, so its
agreement with eq311 checks its own constants and Delta_0, not the chain.

Everything here is exact: every a_n is a rational, or a rational polynomial,
times one 1/pi, the factor (4 pi)^(-m/2) of dimension m = 2.  Decimal output
is a presentation concern handled elsewhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

from .errors import IndexOutOfRange, OrderExhausted
from .jets import Jet2D, _has_rhopoly, _IntegralJet
from .laplace import ConformalLaplacian, FrozenLaplacian
from .record import Record
from .rhopoly import RhoPoly, mono_degree


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
    return PiScaled(Fraction((-1) ** n, 4) * total)


def _radial_terms(n: int, scale, r2: Jet2D):
    """(D, T): T_k = D P_k = D c_nk scale^(k-n) r2^(k-n) to order 2k for
    k = n+1..4n, and T_k = None (zero) for k = 0..n.

    D = lcm_k den(c_nk) puts every c_nk over one common denominator, so each
    D c_nk is an integer and the pipelines stay integral wherever scale and
    r2 are; multiplying by an integer commutes with Delta, so the sum is
    divided by D once at the end.  eq311 passes scale = rho_0 and
    r2 = u^2 + v^2, the curvature route 1/E and the pull-back of u^2 + v^2.
    r2 is read to 2n + 2; it has valuation 2, so the product's valuation
    rule gives r2^j the order 2n + 2j = 2k by itself.
    """
    c = [Fraction((-1) ** n * comb(3 * n + 1, j + 1),
                  4 ** (j + 1) * factorial(j + n) * factorial(j))
         for j in range(1, 3 * n + 1)]  # c_nk with j = k - n
    d = lcm(*(q.denominator for q in c))
    r2 = r2.truncate(2 * n + 2)
    power = r2  # r2^j, j = 1..3n
    terms = [None] * (n + 1)
    for j, c_nk in enumerate(c, 1):
        if j > 1:
            power = power * r2
        terms.append(power * (scale ** j * int(c_nk * d)))
    return d, terms


def _nested_laplacian_sum(lap: ConformalLaplacian, terms):
    """(sum_k Delta^k T_k)(0) for terms T_0..T_top, None meaning zero.

    By linearity the sum is Q_0(0) for Q_top = T_top and
    Q_k = T_k + Delta Q_(k+1): top applications of Delta, and the only
    loop that chains them.  The routes pass terms T_k of order 2k whose band
    order - valuation is at most 2n, so every intermediate keeps that band
    and rho (or 1/rho) is never read beyond degree 2n.

    On concrete jets every T_k is taken once into the integral form
    (``jets._IntegralJet``, packed with the stride of T_top), the Horner
    additions run on ints and the applications pass that form from one to
    the next, so no ``Fraction`` is built until the constant term.
    """
    top = terms[-1]
    if not _has_rhopoly(top):
        stride = top.order + 1
        terms = [t if t is None else _IntegralJet.of(t, stride)
                 for t in terms]
    q = terms[-1]
    for t in reversed(terms[:-1]):
        q = lap.apply(q) if t is None else t + lap.apply(q)
    return q.constant_term()


def generic_rho_jet(order: int) -> Jet2D:
    """The fully generic conformal factor: every Taylor coefficient a variable."""
    coeffs = {(a, b): RhoPoly.var(a, b)
              for a in range(order + 1) for b in range(order + 1 - a)}
    return Jet2D(coeffs, order)


class PiScaled(Record):
    """The exact rational q times 1/pi: a numeric a_n, or a constant C_nksm."""
    __slots__ = ("q",)

    def __bool__(self):
        return bool(self.q)


#: Universal leading (Weyl) coefficient in dimension 2: a_0 = 1/(4 pi).
#: Not produced by the main sum (its index ranges are empty at n = 0);
#: sourced from eigenvalue-counting asymptotics instead.
WEYL_A0 = PiScaled(Fraction(1, 4))


class ClosedForm(Record):
    """a_n as an exact polynomial identity: poly / pi.

    `poly` lives in the Taylor-coefficient variables rho_ab over a power of
    rho_00; every numerator monomial has derivative-order weight exactly 2n.
    """
    __slots__ = ("n", "poly")

    def substitute(self, rho: Jet2D) -> PiScaled:
        """Evaluate at a concrete rational jet."""
        return PiScaled(self.poly.substitute(rho.coeffs))


class HeatInvariantResult(Record):
    __slots__ = ("form",)  # ClosedForm if symbolic, PiScaled if numeric


def _is_symbolic(rho: Jet2D) -> bool:
    return isinstance(rho.constant_term(), RhoPoly)


def _wrap(n, total, symbolic) -> HeatInvariantResult:
    if symbolic:
        # a vanishing constant term of a jet reads as the int 0
        return HeatInvariantResult(ClosedForm(n, total or RhoPoly.zero()))
    return HeatInvariantResult(PiScaled(total))


def required_order(n: int, path: str) -> int:
    """The order of the jet of rho that route `path` reads for a_n.

    a_n is a local invariant of weight 2n: every monomial of its closed form
    has derivative weight 2n (Gilkey, J. Diff. Geom. 10 (1975)), and the
    eq311 and eq310 pipelines read rho, or its inverse, to degree 2n and no
    further.  The curvature route reads the pull-back r2 of u^2 + v^2 to
    order 2n + 2, so z = K - K(0) and w = Delta K - (Delta K)(0) to order
    2n + 1 (r2 is quadratic in them), hence K to order 2n + 3 and rho to
    order 2n + 5.
    """
    if path == "curvature":
        return 2 * n + 5
    return 2 * n


def _require_order(n: int, rho: Jet2D, path: str) -> int:
    """required_order(n, path), after checking n >= 1 and that `rho` carries it."""
    if n < 1:
        raise IndexOutOfRange(f"a_n on the {path} route needs n >= 1, got {n}")
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
    _require_order(n, rho, "eq311")
    d, terms = _radial_terms(n, rho.constant_term(),
                             Jet2D({(2, 0): 1, (0, 2): 1}, 2 * n + 2))
    total = _nested_laplacian_sum(ConformalLaplacian(rho), terms)
    return _wrap(n, total * Fraction(1, d), _is_symbolic(rho))


def heat_invariant_via_frozen(n: int, rho: Jet2D) -> HeatInvariantResult:
    """a_n(origin) by the paper's frozen-operator binomial sum (3.10).

    a_n = sum_m rho_0^(m-n) (-1)^(m-n)/(4 m!) *
          sum_{k=0}^m (-1)^k C(m,k) Delta^k Delta_0^(m-k) (f_m) |_(0,0),

    where the seed f_m = sum_p g(m-n-p) g(p) u^(2m-2n-2p) v^(2p)
    / ((2m-2n-2p)! (2p)!) = (u^2 + v^2)^(m-n) / (4^(m-n) (m-n)!), with g the
    rational Gamma(.+1/2) ratio.  The sum is linear in Delta^k: the frozen
    images are collected per k into G_k = sum_m w_m (-1)^k C(m,k)
    Delta_0^(m-k) f_m, of order 2k, and sum_k Delta^k G_k runs through
    eq311's Horner chain (4n applications of Delta, sum_m m of Delta_0).
    Its seeds and weights are the paper's Gamma sums, not eq311's c_nk.
    """
    _require_order(n, rho, "eq310")
    frozen = FrozenLaplacian(rho)
    rho0 = rho.constant_term()
    g = [Jet2D.zero(2 * k) for k in range(4 * n + 1)]
    for m in range(n + 1, 4 * n + 1):
        seed_coeffs = {}
        for p in range(m - n + 1):
            w = (gamma_half_rational(m - n - p) * gamma_half_rational(p)
                 / (factorial(2 * m - 2 * n - 2 * p) * factorial(2 * p)))
            seed_coeffs[(2 * m - 2 * n - 2 * p, 2 * p)] = w
        image = Jet2D(seed_coeffs, 2 * m)  # Delta_0^(m-k) f_m
        weight = rho0 ** (m - n) * Fraction((-1) ** (m - n), 4 * factorial(m))
        for k in range(m, -1, -1):
            g[k] = g[k] + image * (weight * ((-1) ** k * comb(m, k)))
            if k:
                image = frozen.apply(image)
    total = _nested_laplacian_sum(ConformalLaplacian(rho), g)
    return _wrap(n, total, _is_symbolic(rho))


def symbolic_heat_invariant(n: int) -> HeatInvariantResult:
    """Closed-form a_n (eq311) for the fully generic conformal factor."""
    return heat_invariant(n, generic_rho_jet(required_order(n, "eq311")))


# -- rendering ---------------------------------------------------------------

def _is_latex(fmt: str) -> bool:
    """True for "latex", False for "plain"; any other format is refused."""
    if fmt not in ("plain", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    return fmt == "latex"


def _power(base: str, e: int, latex: bool) -> str:
    """base^e, or base alone when e is 1."""
    if e == 1:
        return base
    return f"{base}^{{{e}}}" if latex else f"{base}^{e}"


def _var_name(a: int, b: int, latex: bool) -> str:
    if a == 0 and b == 0:
        return r"\rho" if latex else "rho"
    sub = "u" * a + "v" * b
    return rf"\rho_{{{sub}}}" if latex else f"rho_{sub}"


def _denominator(q_den: int, rho_power: int, latex: bool) -> str:
    """q_den (unless 1), pi and rho^rho_power (unless rho_power is 0), joined."""
    factors = [str(q_den)] if q_den != 1 else []
    factors.append(r"\pi" if latex else "pi")
    if rho_power:
        factors.append(_power(_var_name(0, 0, latex), rho_power, latex))
    return (" " if latex else "*").join(factors)


def _taylor_scale(mono) -> int:
    """prod (a! b!)^e over a monomial's ((a, b), e) factors.

    rho_ab (Taylor) = (d_u^a d_v^b rho)(0) / (a! b!), so a coefficient of
    Taylor-coefficient variables is this times the same coefficient of
    derivative-value variables.
    """
    return prod((factorial(a) * factorial(b)) ** e for (a, b), e in mono)


def _derivative_value_terms(poly: RhoPoly):
    """(mono, Fraction coefficient) in derivative-value variables, sorted.

    The factors of a monomial run rho < rho_u < rho_v < rho_uu < ...
    (by (a + b, b)).  Terms sort by total degree, then by their (variable,
    exponent) pairs read from the highest variable down, which puts pure
    low-derivative monomials first, the customary way these formulas are
    printed.
    """
    terms = []
    for mono, c in poly.terms():
        mono = sorted(mono, key=lambda f: (sum(f[0]), f[0][1]))
        terms.append((mono, Fraction(c) / _taylor_scale(mono)))
    terms.sort(key=lambda t: (mono_degree(t[0]),
                              [((a + b, b), e) for (a, b), e in t[0][::-1]]))
    return terms


def render_closed_form(form: ClosedForm, fmt: str = "plain") -> str:
    latex = _is_latex(fmt)
    terms = _derivative_value_terms(form.poly)
    if not terms:
        return "0"
    # positive-leading rational content, so the residual coefficients are
    # coprime integers
    content = Fraction(gcd(*(c.numerator for _, c in terms)),
                       lcm(*(c.denominator for _, c in terms)))
    if terms[0][1] < 0:
        content = -content
    sep = " " if latex else "*"
    pieces = []
    for mono, coeff in terms:
        q = coeff / content
        if q.denominator != 1:
            raise ArithmeticError(
                f"coefficient {coeff} is not an integer multiple of the "
                f"content {content}")
        factors = [_power(_var_name(a, b, latex), e, latex)
                   for (a, b), e in mono]
        if abs(q) != 1 or not factors:
            factors.insert(0, str(abs(q)))
        pieces.append(("- " if q < 0 else "+ ") + sep.join(factors))
    numerator = " ".join(pieces)  # the lead term drops "+ " or tightens "- "
    numerator = numerator[2:] if numerator[0] == "+" else "-" + numerator[2:]
    p = abs(content.numerator)
    if numerator == "1":  # a constant numerator prints as its content alone
        num_str = str(p)
    else:
        num_str = numerator if latex else f"({numerator})"
        if p != 1:
            num_str = f"{p}{sep}{num_str}"
    sign = "-" if content < 0 else ""
    den = _denominator(content.denominator, form.poly.den, latex)
    if latex:
        return rf"{sign}\frac{{{num_str}}}{{{den}}}"
    return f"{sign}{num_str} / ({den})"


def closed_form_to_json(form: ClosedForm) -> dict:
    """Machine-readable closed form in derivative-value variables."""
    terms = [{"monomial": [[a, b, e] for (a, b), e in mono],
              "coefficient": str(coeff)}
             for mono, coeff in _derivative_value_terms(form.poly)]
    return {
        "kind": "closedForm",
        "n": form.n,
        "piPower": 1,
        "rhoDenominatorPower": form.poly.den,
        "variables": "derivativeValues",
        "terms": terms,
    }


def parse_closed_form_json(doc) -> ClosedForm:
    """Inverse of closed_form_to_json; reconstructs the identical polynomial.

    Raises ValueError unless the document's piPower is 1, the only power of
    1/pi an a_n carries.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if doc["piPower"] != 1:
        raise ValueError(f"piPower must be 1, got {doc['piPower']!r}")
    num = {}
    for term in doc["terms"]:
        mono = tuple(sorted(((a, b), e) for a, b, e in term["monomial"]))
        coeff = Fraction(term["coefficient"]) * _taylor_scale(mono)
        num[mono] = num.get(mono, 0) + coeff
    poly = RhoPoly(num, doc["rhoDenominatorPower"])
    return ClosedForm(n=doc["n"], poly=poly)


def render_pi_scaled(value: PiScaled, fmt: str = "plain") -> str:
    """Exact numeric rendering, e.g. 1/(12*pi); pi is never expanded."""
    latex = _is_latex(fmt)
    if not value.q:
        return "0"
    p = value.q.numerator
    den = _denominator(value.q.denominator, 0, latex)
    if latex:
        sign = "-" if p < 0 else ""
        return rf"{sign}\frac{{{abs(p)}}}{{{den}}}"
    return f"{p}/({den})" if "*" in den else f"{p}/{den}"
