"""Exact heat-kernel coefficients for conformally flat 2-D metrics.

The diagonal heat kernel of a surface expands as K(t,x,x) ~ sum a_n(x)
t^(n-1); this package computes the a_n exactly, either as closed-form
polynomials in the derivatives of the conformal factor or as rational
multiples of 1/pi for a concrete metric jet.  The computation is
exact rational arithmetic throughout, and so is every acceptance check;
mpmath is loaded only by ``--approx``.

Import each name from the module that defines it: ``jets`` (``Jet2D``),
``rhopoly`` (``RhoPoly``), ``heatinv`` (the eq311 and eq310 routes,
``required_order``, the result types ``PiScaled`` and ``ClosedForm``, and
the renderers), ``curvature``, ``laplace``,
``metrics``, ``oracle``, ``commutator`` and ``errors``.  The package root
re-exports nothing, so ``import heatjets.cli`` loads only what the CLI runs.
From the standard library that is argparse (with gettext), json, re, math
and fractions (with decimal and numbers).  The result and specification
types are plain ``__slots__`` classes on ``record.Record``, so no
dataclasses, typing or inspect is loaded.
"""
