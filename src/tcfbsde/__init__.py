"""Time-changed forward-backward SDE toolkit.

Simulation of alpha-stable subordinators and their inverses, driving noises
in operational time, dual forward-backward solvers on packed ensembles with
duality composition, adjoint equations and maximum-principle certification,
and a worked cash management application.
"""

__version__ = "0.1.0"
