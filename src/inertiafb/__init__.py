"""Inertial inexact forward-backward solvers for nonsmooth nonconvex problems.

The package bundles:

* a composite-problem abstraction ``f = f0 + f1`` with a structured convex
  term (:mod:`inertiafb.problem`),
* an inexact inertial proximal engine driven by a dual FISTA loop with a
  primal-dual gap certificate (:mod:`inertiafb.prox_engine`),
* three solvers built on that engine: an inertial method with Lipschitz
  backtracking (:mod:`inertiafb.i2piano`), an inertial line-search method on
  a merit function (:mod:`inertiafb.ipila`) and an inexact ISTA baseline
  (:mod:`inertiafb.iista`),
* a trace/certifier pair that replays the descent inequalities over solver
  output (:mod:`inertiafb.trace`, :mod:`inertiafb.certify`),
* an image-deblurring problem library (:mod:`inertiafb.imaging`) and a CLI
  benchmark driver (:mod:`inertiafb.cli`).
"""
