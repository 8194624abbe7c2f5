"""Column generation for the generalized assignment problem.

Four pricing strategies (plain minimum reduced cost, directional dual
smoothing, heuristic and exact template pricing) over a shared knapsack
kernel and a warm-started simplex master, plus a Lagrangian-relaxation
baseline. Each name has one public path, in its module: import the
modules, for example ``gapcg.driver.run``.
"""

from . import driver, instance, knapsack, lagrangian, pricing, rmp, simplex  # noqa: F401

__version__ = "0.1.0"
