"""Inertial inexact forward-backward solvers for nonsmooth nonconvex problems."""
