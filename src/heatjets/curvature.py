"""Curvature coordinates and the invariant form of the heat coefficients.

Near a point where the map (K, Delta K) built from the Gaussian curvature
has nonvanishing Jacobian, the shifted functions z = K - K(0) and
w = Delta K - (Delta K)(0) serve as coordinates, and the frozen Laplacian
is encoded by three scalars at the point:

    2E = -Delta(z^2),   2F = -Delta(z w),   2G = -Delta(w^2).

Since z and w vanish at the origin, these are gradients there:
E = |grad K|^2 / rho, F = <grad K, grad Delta K> / rho and
G = |grad Delta K|^2 / rho, read off the first-order coefficients of the K
and Delta K jets.  The tests recompute E, F and G from the expanded
product-rule identities as an independent check.

The heat coefficients then take a coordinate-free shape.  The polynomials
P_k = c_nk (rho_0 (u^2 + v^2))^(k-n) of the direct path depend on u and v
only through u^2 + v^2.  With rho_0 = 1/E and that one pull-back

    u^2 + v^2 -> z^2 + (F z - E w)^2 / (EG - F^2)

they give a_n = sum_k Delta^k P_k at the origin again, now polynomials in z
and w, read off the same table of monomial images as the direct path.
(1/E) times the pulled-back u^2 + v^2 is rho_0 (u^2 + v^2) plus a cubic
tail, so by the radial-sum lemma of ``heatinv`` this route is eq311 with
another tail: its agreement with eq311 checks the frame (E, F, G) and that
lemma, not an independent pipeline.
The pull-back is read to order 2n + 2, so z and w to order 2n + 1 and rho
to order 2n + 5 = ``heatinv.required_order(n, "curvature")``; the frame
alone reads rho to order FRAME_MIN_ORDER = 5 (Delta K to first order).  A
request builds the frame, z, w and the pull-back once, for its largest n,
and one Newton inverse of rho serves K, Delta K and the table.

Negative E powers live in the rational fraction field, so this path applies
to concrete rational jets only.  Degeneracy (vanishing Jacobian: constant
curvature, flat metrics, curvatures functionally dependent on one variable)
is detected exactly and reported as an error, never silently worked around.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateCurvatureCoordinates, OrderExhausted
from .heatinv import HeatInvariantResult, _one, _radial_sums, _route
from .jets import Jet2D, _has_rhopoly
from .laplace import ConformalLaplacian, gaussian_curvature_jet
from .record import Record

FRAME_MIN_ORDER = 5


class CurvatureFrame(Record):
    """Pointwise curvature data: K, Delta K, the E/F/G scalars, degeneracy.

    Every field is a Fraction but `degenerate`, a bool.
    """
    __slots__ = ("k0", "dk0", "e", "f", "g", "jacobian", "degenerate")


def _frame_and_coordinates(rho: Jet2D):
    """(curvature frame, its Laplacian, z jet, w jet) from one jet computation."""
    if _has_rhopoly(rho):
        raise TypeError("curvature frames are defined for concrete jets only")
    if rho.order < FRAME_MIN_ORDER:
        raise OrderExhausted(
            f"curvature frame needs a jet of order >= {FRAME_MIN_ORDER}, "
            f"got {rho.order}")
    lap = ConformalLaplacian(rho)
    k = gaussian_curvature_jet(rho, lap)
    dk = lap.apply(k)
    k0 = Fraction(k.constant_term())
    dk0 = Fraction(dk.constant_term())
    ku, kv = k.coefficient(1, 0), k.coefficient(0, 1)
    du, dv = dk.coefficient(1, 0), dk.coefficient(0, 1)
    rho0 = Fraction(rho.constant_term())
    jac = Fraction(ku * dv - kv * du)
    frame = CurvatureFrame(k0=k0, dk0=dk0, e=(ku * ku + kv * kv) / rho0,
                           f=(ku * du + kv * dv) / rho0,
                           g=(du * du + dv * dv) / rho0, jacobian=jac,
                           degenerate=jac == 0)
    z = k - Jet2D.constant(k0, k.order)
    w = dk - Jet2D.constant(dk0, dk.order)
    return frame, lap, z, w


def curvature_frame(rho: Jet2D) -> CurvatureFrame:
    """E, F, G and the degeneracy predicate, all exact, at the origin.

    The frame reads K and Delta K to first order only, so it is computed
    from rho truncated to FRAME_MIN_ORDER whatever the order of the input.
    """
    return _frame_and_coordinates(
        rho.truncate(min(rho.order, FRAME_MIN_ORDER)))[0]


def _curvature_sums(rho: Jet2D, ns):
    """The route's setup: the frame, z, w and the pulled-back u^2 + v^2,
    built at once, so that a degenerate frame is refused before the later
    n are checked; the radial sums are read off the table later."""
    frame, lap, z, w = _frame_and_coordinates(rho)
    if frame.degenerate:
        raise DegenerateCurvatureCoordinates(
            "the (K, Delta K) Jacobian vanishes at the origin")
    e, f = frame.e, frame.f
    # u^2 + v^2 pulled back to the curvature coordinates
    x = z * f - w * e
    r2 = z * z + x * x * (1 / (e * frame.g - f ** 2))
    return _radial_sums(lap, ns, 1 / e, r2)


def heat_invariants_curvature_form(ns, rho: Jet2D):
    """Yield (n, a_n(origin)) through curvature coordinates for the distinct
    n of `ns`, in increasing n, each as the table passes k = 4n; admitted
    by ``heatinv._route``.

    Exactly equals the direct conformal-path value whenever the coordinates
    exist; raises DegenerateCurvatureCoordinates otherwise.  A nonzero
    Jacobian makes E and EG - F^2 = (Jacobian / rho_0)^2 nonzero.  The
    frame, z, w and the pulled-back u^2 + v^2 are built once, at the order
    of the largest n.
    """
    return _route(ns, rho, "curvature", _curvature_sums)


def heat_invariant_curvature_form(n: int, rho: Jet2D) -> HeatInvariantResult:
    """a_n(origin) through curvature coordinates:
    ``heat_invariants_curvature_form`` of the one index n >= 1."""
    return _one(heat_invariants_curvature_form, n, rho, "curvature")
