"""Seeded inputs of the four benchmark workloads.

Every input is a pure function of (workload, seed): each workload draws from
its own ``random.Random`` seeded with the string "<workload>:<seed>", which
Python hashes deterministically.  The program under test only ever sees the
metric-spec document written from ``Request.metric``; the exact coefficients
stay here for the oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from heatjets.curvature import FRAME_MIN_ORDER, curvature_frame
from heatjets.jets import Jet2D

WORKLOADS = ("symbolic", "dense", "curvature", "sphere")

DENSE_ORDER = 32
CURVATURE_ORDER = 22
#: Order of the jet the symbolic closed forms are substituted into (8 n, n = 3).
SYMBOLIC_CHECK_ORDER = 24


@dataclass(frozen=True)
class Request:
    """One `heatinv compute` request and the exact data behind its input."""
    workload: str
    ns: tuple
    path: str
    metric: dict | None      # metric-spec document; None = generic factor
    coeffs: dict | None      # Taylor coefficients {(a, b): Fraction} of rho
    order: int | None        # order of `coeffs`
    radius: Fraction | None  # sphere radius

    def argv(self, metric_file=None):
        """`heatinv compute` arguments; `metric_file` holds `self.metric`."""
        args = ["compute"]
        if self.metric is not None:
            args += ["--metric", str(metric_file)]
        for n in self.ns:
            args += ["--n", str(n)]
        return args + ["--path", self.path, "--format", "json"]

    def jet(self):
        return Jet2D(self.coeffs, self.order)


def random_jet_coeffs(rng: random.Random, order: int) -> dict:
    """Dense rational jet: numerators in [-40, 40], denominators in [1, 12].

    The constant term is made positive and nonzero, as a conformal factor's
    value at the base point must be.
    """
    coeffs = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            coeffs[(a, b)] = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    coeffs[(0, 0)] = abs(coeffs[(0, 0)]) + 1
    return coeffs


def jet_document(coeffs: dict, order: int) -> dict:
    return {"kind": "jet", "order": order,
            "coeffs": [[a, b, str(c)] for (a, b), c in sorted(coeffs.items())
                       if c]}


def usable_curvature_jet(coeffs: dict, order: int) -> bool:
    """True when the curvature route accepts the jet: a nonzero (K, Delta K)
    Jacobian, E != 0 and EG - F^2 != 0 at the origin."""
    # The frame at the origin depends on the jet only up to FRAME_MIN_ORDER.
    frame = curvature_frame(Jet2D(coeffs, order).truncate(FRAME_MIN_ORDER))
    return (not frame.degenerate and frame.e != 0
            and frame.e * frame.g - frame.f ** 2 != 0)


def sphere_radius(rng: random.Random) -> Fraction:
    """R = p/q in lowest terms with one-digit p != q in [5, 9].

    Keeping both parts one digit keeps the coefficient sizes, and hence the
    cost, alike from seed to seed.
    """
    while True:
        p, q = rng.randint(5, 9), rng.randint(5, 9)
        if p != q and gcd(p, q) == 1:
            return Fraction(p, q)


def make_request(workload: str, seed: int) -> Request:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "symbolic":
        # The program gets no input; the seeded jet is for the oracle only.
        return Request(workload, (1, 2, 3), "eq311", None,
                       random_jet_coeffs(rng, SYMBOLIC_CHECK_ORDER),
                       SYMBOLIC_CHECK_ORDER, None)
    if workload == "dense":
        coeffs = random_jet_coeffs(rng, DENSE_ORDER)
        return Request(workload, (1, 2, 3, 4), "eq311",
                       jet_document(coeffs, DENSE_ORDER), coeffs, DENSE_ORDER,
                       None)
    if workload == "curvature":
        while True:
            coeffs = random_jet_coeffs(rng, CURVATURE_ORDER)
            if usable_curvature_jet(coeffs, CURVATURE_ORDER):
                break
        return Request(workload, (1, 2), "curvature",
                       jet_document(coeffs, CURVATURE_ORDER), coeffs,
                       CURVATURE_ORDER, None)
    if workload == "sphere":
        radius = sphere_radius(rng)
        return Request(workload, (1, 2, 3, 4, 5), "eq311",
                       {"kind": "sphereStereographic", "R": str(radius)},
                       None, None, radius)
    raise ValueError(f"unknown workload {workload!r}")
