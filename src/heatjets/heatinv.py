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

The monomial images do not depend on n; only the weights do.  So every
route evaluates its sum through one table of linear functionals per
request (``_image_table``), the transpose of a Horner chain (Bostan,
Lecerf and Schost, "Tellegen's principle into practice", ISSAC 2003):
with L_0 = delta_0 (the value at the origin) and L_(k+1)(f) = L_k(Delta f),
L_k(u^a v^b) = Delta^k(u^a v^b)(0) is the paper's monomial image, and

    sum_k (Delta^k T_k)(0) = sum_k L_k(T_k)

for any terms T_k.  A request whose largest index is N runs the chain
once, to k = 4N, and reads every a_n off it as it passes k = n+1..4n, where
one Horner chain per a_n would make sum_n 4n applications of Delta.

The terms of eq311 and eq310, w (u^2 + v^2)^(k-n), are radial, and their
tables run in the complex coordinates z = u + iv and zbar = u - iv on both
rings.  There Delta = -(4/rho) d_z d_zbar, whose flat part moves
z^p zbar^q to the one monomial z^(p-1) zbar^(q-1), and u^2 + v^2 = z zbar
is one monomial, so every such term is read off one slot on the diagonal.
Only the slots that feed those reads are kept: at step k the cone
p, q >= k - N, p + q <= 2k, a fixed (2N + 1)(2N + 2)/2 slots, where the
real band of 2N grows with k, and the chain applies Delta nowhere.  Both
complex chains convert between u, v and z, zbar through one integer table
(``_conversion_table``): 2^(p+q) r_pq, for rho = sum r_pq z^p zbar^q, is a
linear form in the rho_ab with coefficients kappa (-i)^b, kappa an
integer.

On concrete jets (``_GaussianChain``) the coefficients of 1/rho in z, zbar
are Gaussian rationals over the denominator of its one Newton inverse,
the chain gathers over them, and M_k[(q, p)] is the conjugate of
M_k[(p, q)], so half the cone is kept, as pairs of ints.  On ``RhoPoly``
jets (``_ComplexChain``) the chain divides by rho on the generic factor's
formal complex Taylor coefficients r_pq, and each a_n, a polynomial in the
r_pq, is converted to the rho_ab once (``_real_form``).  The conversion is
exact: a_n is real at real rho_ab and unchanged by r_pq <-> r_qp (the chain
is symmetric in p and q), so it is the real part of the expansion of one
monomial of each conjugate pair, counted twice, and (-i)^b enters every
rho-monomial as the power (-i)^B of its v-weight B = sum b e, whose real
part is (-1)^(B/2) or 0.  The expansion runs on integers, and the result
is divided once by 4^n.

The curvature route's terms, the powers of u^2 + v^2 pulled back to the
curvature coordinates, are not radial; its table keeps the real band
(``_GatherChain``) and applies Delta once, to the one term it reads last.

The radial sum reads only the 2-jet of its radial function: the value
S_n(f) = sum_k c_nk Delta^k(f^(k-n))(0), which ``_radial_sums`` gives, is
a_n for every f = rho_0 (u^2 + v^2) + O(|(u, v)|^3), and another quadratic
part changes it (property-tested for n <= 3).  The curvature route is this
sum with another cubic tail.

A second route, the paper's expression (3.10), expands the resolvent
around the origin-frozen Laplacian Delta_0 and sums binomially weighted
mixed powers Delta^k Delta_0^(m-k) applied to explicit seed polynomials.
It is linear in Delta^k too and is read off the same table, so its
agreement with eq311 checks its own constants and Delta_0, not the table.

Everything here is exact: every a_n is a rational, or a rational polynomial,
times one 1/pi, the factor (4 pi)^(-m/2) of dimension m = 2.  Decimal output
is a presentation concern handled elsewhere.  A concrete jet has one
representation, int numerators over one denominator (``heatjets.jets``), and
the table keeps its functionals the same way, so a numeric a_n builds a
number of ``Fraction`` values that depends on n only, not on the size of
the jet.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

from .errors import IndexOutOfRange, OrderExhausted
from .jets import STRIDE, Jet2D
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


def _radial_powers(r2: Jet2D, top: int):
    """[r2, r2^2, ..., r2^(3 top)], with r2 read to order 2 top + 2; r2 has
    valuation 2, so the product's valuation rule gives r2^j the order
    2 top + 2j by itself."""
    r2 = r2.truncate(2 * top + 2)
    powers = [r2]
    for _ in range(3 * top - 1):
        powers.append(powers[-1] * r2)
    return powers


def _radial_terms(n: int, scale, powers):
    """(D, T): T_k = D P_k = D c_nk scale^(k-n) r2^(k-n) to order 2k for
    k = n+1..4n, and T_k = None (zero) for k = 0..n, from the powers
    r2^1..r2^(3N) of ``_radial_powers`` for some N >= n.

    D = lcm_k den(c_nk) puts every c_nk over one common denominator, so each
    D c_nk is an integer and the pipelines stay integral wherever scale and
    r2 are; multiplying by an integer commutes with Delta, so the sum is
    divided by D once at the end.  eq311 passes scale = rho_0 and
    r2 = u^2 + v^2, the curvature route 1/E and the pull-back of u^2 + v^2.
    r2^j truncated to 2n + 2j = 2k is the j-th power of r2 truncated to
    2n + 2, since r2 has valuation 2.
    """
    c = [Fraction((-1) ** n * comb(3 * n + 1, j + 1),
                  4 ** (j + 1) * factorial(j + n) * factorial(j))
         for j in range(1, 3 * n + 1)]  # c_nk with j = k - n
    d = lcm(*(q.denominator for q in c))
    terms = [None] * (n + 1)
    for j, c_nk in enumerate(c, 1):
        terms.append(powers[j - 1].truncate(2 * n + 2 * j)
                     * (scale ** j * int(c_nk * d)))
    return d, terms


def _fraction_total(n, reads):
    """a_n from the (numerator, denominator) reads of a concrete table,
    None meaning zero, over their lcm: one ``Fraction``."""
    reads = [r for r in reads if r is not None]
    den = lcm(*(d for _, d in reads))
    return Fraction(sum(p * (den // d) for p, d in reads), den)


class _GatherChain:
    """The functionals M_k = L_k o (1/rho) of a concrete rho for terms that
    are not radial (the curvature route's), on int numerators over one
    denominator: one row per degree d, indexed by b of the slot (d - b, b),
    where a row that is all zero is not kept.

    M_k[beta] = sum_gamma (1/rho)[gamma] L_k[beta + gamma] is a gather over
    output slots: for a term gamma = (p, q) of degree e, row d of M_k gains
    (1/rho)[gamma] times the slice q..q + d of row d + e of L_k.  A step
    costs one gcd.  The chain stops at M_(top-2), so a read at k = top
    applies Delta once.
    """

    def __init__(self, lap: ConformalLaplacian, top):
        self.band, self.stop = top // 2, top - 2
        inverse = lap.inverse_factor(self.band)
        # the terms (q, numerator) of 1/rho by degree e, for e = 0..order
        self.inverse = [[] for _ in range(inverse.order + 1)]
        for k, c in inverse.num.items():
            self.inverse[k // STRIDE].append((k % STRIDE, c))
        self.inverse_den = inverse.den
        self.rows, self.den = {0: [inverse.num[0]]}, inverse.den  # M_0

    def read(self, t):
        """L_k(t) = M_(k-1)(-(t_uu + t_vv)) of a concrete jet t, as
        (numerator, denominator)."""
        rows, total = self.rows, 0
        for key, c in t.num.items():
            d, b = divmod(key, STRIDE)
            row = rows.get(d - 2)
            if row is not None:
                a = d - b
                if a > 1:
                    total += a * (a - 1) * c * row[b]
                if b > 1:
                    total += b * (b - 1) * c * row[b - 2]
        return -total, self.den * t.den

    total = staticmethod(_fraction_total)

    def step(self, k):
        """M_k on the degrees 2k - band..2k, from M_(k-1)."""
        images = {}  # rows of L_k: -a(a-1) M[(a-2, b)] - b(b-1) M[(a, b-2)]
        for d, row in self.rows.items():
            d += 2
            images[d] = [-(d - b) * (d - b - 1) * x - b * (b - 1) * y
                         for b, (x, y) in enumerate(zip(row + [0, 0],
                                                        [0, 0] + row))]
        rows = {}
        for d in range(max(0, 2 * k - self.band), 2 * k + 1):
            row = None
            # L_k vanishes above degree 2k
            for e, terms in enumerate(self.inverse[:2 * k - d + 1]):
                image = images.get(d + e)
                if image is not None:
                    for q, c in terms:
                        part = image[q:q + d + 1]
                        row = ([c * v for v in part] if row is None else
                               [r + c * v for r, v in zip(row, part)])
            if row is not None and any(row):
                rows[d] = row
        den = self.den * self.inverse_den
        g = gcd(den, *(v for row in rows.values() for v in row))
        if g > 1:
            rows = {d: [v // g for v in row] for d, row in rows.items()}
        self.rows, self.den = rows, den // g


def _conversion_table(order):
    """kappa[s][b][p], the coefficient of z^p zbar^(s-p) in
    (z + zbar)^(s-b) (z - zbar)^b, for b, p = 0..s and s <= order: one
    integer table, by Pascal's rule, from which both complex chains convert
    between u, v and z, zbar.  Row b of s is row b of s - 1 times z + zbar,
    and row s is row s - 1 of s - 1 times z - zbar."""
    table = [[[1]]]
    for _ in range(order):
        rows = table[-1]
        last = rows[-1]
        table.append([[x + y for x, y in zip([0] + row, row + [0])]
                      for row in rows]
                     + [[x - y for x, y in zip([0] + last, last + [0])]])
    return table


def _complex_forms(order):
    """{(p, q): 2^s r_pq} for p + q = s <= order, as integer linear forms
    in the rho_ab with each (-i)^b left out.

    With u = (z + zbar)/2 and v = (z - zbar)/(2i), the coefficient r_pq of
    z^p zbar^q in rho = sum rho_ab u^a v^b is 2^(-s) sum_b kappa_(pq,b)
    (-i)^b rho_(s-b,b), with kappa_(pq,b) from ``_conversion_table``.
    """
    forms = {}
    for s, rows in enumerate(_conversion_table(order)):
        for p in range(s + 1):
            forms[(p, s - p)] = RhoPoly({(((s - b, b), 1),): row[p]
                                         for b, row in enumerate(rows)})
    return forms


def _real_form(poly: RhoPoly, forms, den) -> RhoPoly:
    """poly / den in the rho_ab, for a poly in the r_pq of weight 2n that
    is unchanged by r_pq <-> r_qp, with forms = ``_complex_forms`` and den a
    multiple of 4^n.

    At real rho_ab, r_qp is the conjugate of r_pq, so the monomials m and
    conj(m) of such a poly sum to 2 Re m, and one of each pair is expanded,
    with weight 2 unless m = conj(m).  The (-i)^b left out of the forms
    multiply a rho-monomial of v-weight B = sum b e by (-i)^B, whose real
    part is (-1)^(B/2) for even B and 0 for odd B.  Every monomial of
    weight 2n carries 2^(-2n) from the forms, which leaves den / 4^n.
    """
    half = {}
    for mono, c in poly.terms():
        conj = tuple(sorted(((q, p), e) for (p, q), e in mono))
        if mono <= conj:
            half[mono] = c if mono == conj else 2 * c
    expanded = RhoPoly(half, poly.den).substitute(forms)
    real = {}
    for mono, c in expanded.terms():
        v = sum(b * e for (_, b), e in mono)
        if v % 2 == 0:
            real[mono] = Fraction(-c if v % 4 else c, den)
    return RhoPoly(real, expanded.den)


class _Cone:
    """What the two complex chains share: the cone they keep and their one
    read.  Every term they read is w (u^2 + v^2)^j = w (z zbar)^j with
    j >= k - N, read off the one diagonal slot (j - 1, j - 1) of M_(k-1),
    and every later slot that feeds such a read lies on or above the
    diagonal one of a step.  So step k keeps only the cone p, q >= k - N,
    p + q <= 2k, at most (2N + 1)(2N + 2)/2 slots, and the last read needs
    M_(4N-1): the chains apply Delta nowhere."""

    def __init__(self, top):
        self.n, self.stop, self.k = top // 4, top - 1, 0

    def diagonal(self, t):
        """(j, w, M_(k-1)[(j-1, j-1)]) for t = w (u^2 + v^2)^j, w as
        ``t.num`` holds it (a numerator over ``t.den`` on concrete jets),
        or None where L_k(t) is zero; any other t raises ``ValueError``."""
        num = t.num
        if not num:
            return None
        j = t.valuation() // 2
        key = 2 * j * STRIDE
        w = num.get(key)
        if w is None or len(num) != j + 1 or any(
                num.get(key + 2 * i) != w * comb(j, i)
                for i in range(1, j + 1)):
            raise ValueError("the complex tables read only terms "
                             "w (u^2 + v^2)^j")
        if not j:
            return None  # L_k(1) = 0 for k >= 1
        if j <= self.k - self.n:
            raise ValueError(f"a term of degree {2 * j} at k = {self.k + 1} "
                             "lies below the table's cone")
        x = self.m.get(self.slot(j - 1))
        return None if x is None else (j, w, x)

    @staticmethod
    def slot(p):
        """The key of the diagonal slot (p, p) in ``m``."""
        return p, p


class _GaussianChain(_Cone):
    """The functionals M_k = L_k o (1/rho) of a concrete rho on the cone of
    ``_Cone``, for radial terms, in Z = z/2 and Zbar = zbar/2.

    There u = Z + Zbar, v = -i(Z - Zbar), u^2 + v^2 = 4 Z Zbar and
    Delta = -(1/rho) d_Z d_Zbar.  With F[(p, q)] the value of a functional
    F at Z^p Zbar^q and s_xy the coefficient of Z^x Zbar^y in 1/rho,

        L_k[(p, q)] = -pq M_(k-1)[(p-1, q-1)],
        M_k[(p, q)] = sum_(x, y) s_xy L_k[(p+x, q+y)],

    a gather over the nonzero s_xy, where L_k vanishes above degree 2k.
    The s_xy are Gaussian integers over the denominator of the one Newton
    inverse of rho, to order 2N: s_xy = sum_b kappa_(xy,b) (-i)^b
    (1/rho)_(x+y-b,b), with kappa from ``_conversion_table`` and no power
    of 2.  Since rho is real, M_k[(q, p)] is the conjugate of M_k[(p, q)],
    so only p <= q is kept, as (re, im) int pairs over one denominator with
    their content divided out: a step costs one gcd and builds no
    ``Fraction``.  Slots are keyed as jets key theirs, (p, q) as
    (p + q) * STRIDE + q.  A read of w (u^2 + v^2)^j = 4^j w (Z Zbar)^j is
    -4^j j^2 w M_(k-1)[(j-1, j-1)], a real value.
    """

    def __init__(self, lap: ConformalLaplacian, top):
        super().__init__(top)
        inverse = lap.inverse_factor(2 * self.n)
        num, terms = inverse.num, []
        # upto[e]: (key of (x, y), re s_xy, im s_xy) of the nonzero s_xy
        # with x + y <= e
        self.upto = []
        for d, rows in enumerate(_conversion_table(2 * self.n)):
            for x in range(d + 1):
                re = im = 0
                for b, row in enumerate(rows):
                    c = num.get(d * STRIDE + b, 0) * row[x]
                    if b % 2:
                        im += c if b % 4 == 3 else -c  # (-i)^b = -i, i
                    else:
                        re += -c if b % 4 else c  # (-i)^b = 1, -1
                if re or im:
                    terms.append((d * STRIDE + d - x, re, im))
            self.upto.append(list(terms))
        self.inverse_den = self.den = inverse.den
        self.m = {0: (num[0], 0)}  # M_0

    def read(self, t):
        """L_k(t) of t = w (u^2 + v^2)^j as (numerator, denominator), or
        None where it is zero."""
        found = self.diagonal(t)
        if found is None:
            return None
        j, w, (re, _) = found
        return -(4 ** j) * j * j * w * re, self.den * t.den

    @staticmethod
    def slot(p):
        return 2 * p * STRIDE + p

    total = staticmethod(_fraction_total)

    def step(self, k):
        """M_k on the cone p, q >= k - N, p + q <= 2k, from M_(k-1)."""
        lo, out = max(0, k - self.n), {}
        images = {}  # L_k on both halves of the cone
        for key, (re, im) in self.m.items():
            d, q = divmod(key, STRIDE)
            w = -(d - q + 1) * (q + 1)
            images[key + 2 * STRIDE + 1] = w * re, w * im
            images[(d + 2) * STRIDE + d - q + 1] = w * re, -w * im
        get = images.get
        for d in range(2 * lo, 2 * k + 1):
            terms = self.upto[2 * k - d]  # L_k vanishes above degree 2k
            for q in range(d - lo, (d - 1) // 2, -1):
                key, re, im = d * STRIDE + q, 0, 0
                for o, sr, si in terms:
                    v = get(key + o)
                    if v is not None:
                        lr, li = v
                        re += sr * lr - si * li
                        im += sr * li + si * lr
                if re or im:
                    out[key] = re, im
        den = self.den * self.inverse_den
        g = gcd(den, *(c for v in out.values() for c in v))
        if g > 1:
            out = {key: (re // g, im // g) for key, (re, im) in out.items()}
        self.k, self.m, self.den = k, out, den // g


class _ComplexChain(_Cone):
    """The functionals M_k = L_k o (1/rho) of the generic factor of order
    2N, in the complex coordinates z = u + iv and zbar = u - iv, on the
    cone of ``_Cone``.

    With rho = sum r_pq z^p zbar^q, the r_pq formal variables keyed as
    ``RhoPoly.var(p, q)``, F[(p, q)] the value of a functional F at
    z^p zbar^q, and Delta = -(4/rho) d_z d_zbar,

        L_(k+1)[(p, q)] = -4pq M_k[(p-1, q-1)],
        M_k[beta] = (1/r_00)(L_k[beta] - sum_(gamma != 0) r_gamma
                    M_k[beta + gamma]),

    solved from degree 2k down with one ``RhoPoly.dot`` per slot, into
    which the one pair of L_k[beta] is folded.  A term w (z zbar)^j is read
    as L_k[(j, j)] = -4j^2 M_(k-1)[(j-1, j-1)].

    Each a_n, a polynomial in the r_pq, becomes one in the rho_ab in
    ``total`` (``_real_form``).  A rho other than the generic factor gets
    the generic factor's converted reads with its own coefficients put in
    by ``RhoPoly.substitute``, one read at a time, since their weights
    hold its coefficients.
    """

    def __init__(self, lap: ConformalLaplacian, top):
        super().__init__(top)
        band, rho = 2 * self.n, lap.rho
        if rho.order < band:
            raise OrderExhausted(
                f"the table reads rho to order {band}, have {rho.order}")
        coeffs = {(a, d - a): rho.coefficient(a, d - a)
                  for d in range(band + 1) for a in range(d + 1)}
        self.values = None if all(
            c == RhoPoly.var(*slot) for slot, c in coeffs.items()) else {
                slot: c if isinstance(c, RhoPoly) else RhoPoly.const(c)
                for slot, c in coeffs.items()}
        self.forms = _complex_forms(band)
        self.inv0 = RhoPoly.var(0, 0).inverse()
        # (gamma, -r_gamma / r_00) for gamma != 0, by degree
        self.tail = [(slot, -RhoPoly.var(*slot) * self.inv0)
                     for slot in coeffs if slot != (0, 0)]
        self.scaled = {}  # w -> w / r_00
        self.m = {(0, 0): self.inv0}  # M_0

    def read(self, t):
        """L_k(t) of t = w (u^2 + v^2)^j as the pair (-4 j^2 w,
        M_(k-1)[(j-1, j-1)]), or None where it is zero."""
        found = self.diagonal(t)
        if found is None:
            return None
        j, w, x = found
        if t.den is not None:  # a concrete term, as at an int rho_00
            w = Fraction(w, t.den)
        return -4 * j * j * w, x

    def total(self, n, reads):
        """a_n in the rho_ab, from the reads of a_n."""
        reads = [r for r in reads if r is not None]
        if self.values is None:
            return _real_form(RhoPoly.dot(reads), self.forms, 4 ** n)
        return RhoPoly.dot(
            (w, _real_form(x, self.forms, 4 ** n).substitute(self.values))
            for w, x in reads)

    def step(self, k):
        """M_k on the cone p, q >= k - N, p + q <= 2k, from M_(k-1)."""
        lo, m, out = max(0, k - self.n), self.m, {}
        for d in range(2 * k, 2 * lo - 1, -1):
            reach = 2 * k - d  # M_k vanishes above degree 2k
            for p in range(lo, d - lo + 1):
                q = d - p
                pairs = []
                x = m.get((p - 1, q - 1))
                if x is not None:
                    w = -4 * p * q
                    if w not in self.scaled:
                        self.scaled[w] = self.inv0 * w
                    pairs.append((self.scaled[w], x))
                for (a, b), t in self.tail:
                    if a + b > reach:
                        break
                    x = out.get((p + a, q + b))
                    if x is not None:
                        pairs.append((t, x))
                if pairs:
                    value = RhoPoly.dot(pairs)
                    if value:
                        out[(p, q)] = value
        self.k, self.m = k, out


def _image_table(lap: ConformalLaplacian, terms, radial):
    """Yield (n, sum_k (Delta^k T_k)(0)) for each n of `terms`, in
    increasing n, as the table passes k = 4n.

    `terms` maps n to its terms T_0..T_4n (None meaning zero), where T_k
    has order 2k and no term below degree 2(k - n), and `radial` says that
    every T_k is w (u^2 + v^2)^(k-n), as on eq311 and eq310.  The table
    keeps M_k = L_k o (1/rho), from which L_(k+1) needs no product; L_k
    vanishes above degree 2k, and with N the largest n, rho, or 1/rho, is
    read to degree 2N, so a request makes at most one Newton inverse.  The
    kernel follows the ring of rho that ``lap`` read when it was built and
    the shape of the terms, which the route knows:

    * radial terms: ``_GaussianChain`` on concrete jets, ``_ComplexChain``
      on ``RhoPoly`` ones, whose terms must be radial.  Both keep the cone
      of ``_Cone``, make 4N - 1 steps and apply Delta nowhere;
    * other terms, on concrete jets: ``_GatherChain``.  With F[beta] the
      value of a functional F at u^a v^b, beta = (a, b),

          L_k(T) = M_(k-1)(-(T_uu + T_vv)),
          L_(k+1)[(a, b)] = -a(a-1) M_k[(a-2, b)] - b(b-1) M_k[(a, b-2)],

      and every later read and step needs M_k only from degree 2(k - N)
      up: a band of 2N, the band of one Horner chain of a_N.  It stops at
      M_(4N-2) and reads L_(4N)(T) of the one term T of a_N as
      L_(4N-1)(Delta T), which costs what M_(4N-1) would at the degrees of
      T_uu + T_vv alone.

    A chain steps to M_stop, and a read past it applies ``lap``.  No M_k
    outlives the next step.
    """
    top = 4 * max(terms)
    chain = (_ComplexChain if lap.symbolic else
             _GaussianChain if radial else _GatherChain)(lap, top)
    reads = {n: [] for n in sorted(terms)}
    for k in range(1, top + 1):
        for n in list(reads):
            t = terms[n][k]
            if t is not None:
                reads[n].append(
                    chain.read(lap.apply(t) if k > chain.stop + 1 else t))
            if k == 4 * n:
                yield n, chain.total(n, reads.pop(n))
        if k <= chain.stop:
            chain.step(k)


def _radial_sums(lap: ConformalLaplacian, ns, scale, r2: Jet2D = None):
    """Yield (n, S_n) for the sorted n of `ns`, read off one table, where
    S_n = sum_k c_nk Delta^k((scale r2)^(k-n))(0) reads r2 to order
    2n + 2.  The powers of r2 are formed once, for the largest n.  r2 None
    is u^2 + v^2 itself, whose terms the table reads on its cone."""
    radial = r2 is None
    if radial:
        r2 = Jet2D({(2, 0): 1, (0, 2): 1}, 2 * max(ns) + 2)
    powers = _radial_powers(r2, max(ns))
    d, terms = {}, {}
    for n in ns:
        d[n], terms[n] = _radial_terms(n, scale, powers)
    for n, total in _image_table(lap, terms, radial):
        yield n, total * Fraction(1, d[n])


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


def _require_order(n: int, rho: Jet2D, path: str):
    """Check that n >= 1 and that `rho` carries required_order(n, path)."""
    if n < 1:
        raise IndexOutOfRange(f"a_n on the {path} route needs n >= 1, got {n}")
    order = required_order(n, path)
    if rho.order < order:
        raise OrderExhausted(
            f"a_{n} on the {path} route needs a conformal factor jet of "
            f"order >= {order}, got {rho.order}")


def _route(ns, rho: Jet2D, path: str, setup):
    """Yield (n, a_n(origin)) on route `path` for the distinct n of `ns`,
    in increasing n: the one driver that admits a batch request.

    With N the largest n, the steps run in this order, so the error raised
    is that of the first check that fails: (1) the first n != 0 is checked
    against rho (``_require_order``); (2) `setup(rho, positive)` runs on rho
    truncated to min(rho.order, required_order(N, path)), with the sorted
    n >= 1; it may refuse rho (a degenerate curvature frame) and returns
    the sums, an iterable of (n, total); (3) every other n is checked;
    (4) n = 0 gives WEYL_A0; (5) the sums are read, and a ``RhoPoly`` total
    becomes a ``ClosedForm``, any other a ``PiScaled``.  A setup that
    defers its work until its sums are read meets no property of rho
    before every n has passed.
    """
    positive = sorted(set(ns) - {0})
    if positive:
        _require_order(next(n for n in ns if n), rho, path)
        order = min(rho.order, required_order(positive[-1], path))
        sums = setup(rho.truncate(order), positive)
        for n in ns:
            if n:
                _require_order(n, rho, path)
    if 0 in ns:
        yield 0, WEYL_A0
    if positive:
        for n, total in sums:
            yield n, (ClosedForm(n, total) if isinstance(total, RhoPoly)
                      else PiScaled(total))


def _one(batch, n: int, rho: Jet2D, path: str) -> HeatInvariantResult:
    """a_n(origin) as `batch` of the one index n, which must be >= 1."""
    _require_order(n, rho, path)
    [(_, form)] = batch((n,), rho)
    return HeatInvariantResult(form)


def _eq311_sums(rho: Jet2D, ns):
    """eq311's sums, built when read: radial, of scale rho_0 and u^2 + v^2."""
    yield from _radial_sums(ConformalLaplacian(rho), ns, rho.constant_term())


def heat_invariants(ns, rho: Jet2D):
    """Yield (n, a_n(origin)) by the direct monomial-image sum for the
    distinct n of `ns`, in increasing n, each as the table passes k = 4n;
    admitted by ``_route``.

    Terms sharing k are collected into the radial polynomial
    P_k = c_nk (rho_0 (u^2 + v^2))^(k-n) of the module docstring, and every
    a_n is read off one table.
    """
    return _route(ns, rho, "eq311", _eq311_sums)


def heat_invariant(n: int, rho: Jet2D) -> HeatInvariantResult:
    """a_n(origin) by the direct monomial-image sum: ``heat_invariants``
    of the one index n >= 1."""
    return _one(heat_invariants, n, rho, "eq311")


def _frozen_terms(n: int, frozen: FrozenLaplacian, rho0):
    """eq310's terms G_0..G_4n of a_n: its frozen images collected per k."""
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
    return g


def _eq310_sums(rho: Jet2D, ns):
    """eq310's sums, built when read: its frozen terms read off the table."""
    frozen, rho0 = FrozenLaplacian(rho), rho.constant_term()
    yield from _image_table(ConformalLaplacian(rho),
                            {n: _frozen_terms(n, frozen, rho0) for n in ns},
                            True)


def heat_invariants_via_frozen(ns, rho: Jet2D):
    """Yield (n, a_n(origin)) by the paper's frozen-operator binomial sum
    (3.10) for the distinct n of `ns`, in increasing n, each as the table
    passes k = 4n.

    a_n = sum_m rho_0^(m-n) (-1)^(m-n)/(4 m!) *
          sum_{k=0}^m (-1)^k C(m,k) Delta^k Delta_0^(m-k) (f_m) |_(0,0),

    where the seed f_m = sum_p g(m-n-p) g(p) u^(2m-2n-2p) v^(2p)
    / ((2m-2n-2p)! (2p)!) = (u^2 + v^2)^(m-n) / (4^(m-n) (m-n)!), with g the
    rational Gamma(.+1/2) ratio.  The sum is linear in Delta^k: the frozen
    images are collected per k into G_k = sum_m w_m (-1)^k C(m,k)
    Delta_0^(m-k) f_m, homogeneous of degree 2(k - n), and sum_k
    L_k(G_k) is read off eq311's table (sum_m m applications of Delta_0 per
    n).  Its seeds and weights are the paper's Gamma sums, not eq311's c_nk.
    Admitted by ``_route``.
    """
    return _route(ns, rho, "eq310", _eq310_sums)


def heat_invariant_via_frozen(n: int, rho: Jet2D) -> HeatInvariantResult:
    """a_n(origin) by the paper's expression (3.10):
    ``heat_invariants_via_frozen`` of the one index n >= 1."""
    return _one(heat_invariants_via_frozen, n, rho, "eq310")


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
    numerator = " ".join(pieces)[2:]  # the lead q > 0 drops its "+ "
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
