"""Correctness check of a benchmark pass, run after timing.

A cell passes when
* its status is one of ``optimal``, ``rc_converged``, ``gap_closed``;
* every column-generation cell on its instance reports the same ``lb_int``
  (the ceiling of the master LP optimum), and an ``lr`` cell reports no
  more than that;
* ``lb_int`` is at most the HiGHS MILP incumbent and ``ub`` at least the
  HiGHS dual bound. HiGHS runs through scipy with a time cap; its bound pair
  is cached per instance text, so a repeated seed pays for it once.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gapcg import instance

PASSING_STATUSES = ("optimal", "rc_converged", "gap_closed")


def highs_bounds(inst, time_cap: float):
    """(incumbent or None, dual bound) of the GAP as a MILP, by HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    m, n = inst.num_machines, inst.num_jobs
    idx = np.arange(m * n).reshape(m, n)
    assign = coo_array((np.ones(m * n), (np.tile(np.arange(n), m), idx.ravel())),
                       shape=(n, m * n))
    load = coo_array((inst.resource.ravel().astype(float),
                      (np.repeat(np.arange(m), n), idx.ravel())), shape=(m, m * n))
    res = milp(inst.cost.ravel().astype(float),
               integrality=np.ones(m * n), bounds=Bounds(0, 1),
               constraints=[LinearConstraint(assign, 1, 1),
                            LinearConstraint(load, -np.inf, inst.capacity.astype(float))],
               options={"time_limit": time_cap})
    incumbent = float(res.fun) if res.x is not None else None
    dual = getattr(res, "mip_dual_bound", None)
    if dual is None or not math.isfinite(dual):
        dual = -math.inf
    return incumbent, float(dual)


class HighsCache:
    """HiGHS bound pairs keyed by the instance text and the time cap."""

    def __init__(self, path: Path, time_cap: float):
        self.path = path
        self.time_cap = time_cap
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.data = {}

    def bounds(self, inst):
        text = instance.serialize(inst)
        key = hashlib.sha256(f"{self.time_cap}\n{text}".encode()).hexdigest()
        if key not in self.data:
            self.data[key] = highs_bounds(inst, self.time_cap)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data), encoding="utf-8")
            tmp.replace(self.path)
        incumbent, dual = self.data[key]
        return incumbent, dual


def check_pass(cells, reports, instances, highs) -> list[str | None]:
    """One failure reason (or None) per cell of a pass.

    ``cells`` are ``(instance key, method)`` pairs, ``reports`` the matching
    :class:`gapcg.driver.RunReport` objects or an error string, and
    ``instances`` maps instance keys to instances.
    """
    reasons: list[str | None] = [None] * len(cells)
    cg_bound = {}
    for k, ((key, method), rep) in enumerate(zip(cells, reports)):
        if isinstance(rep, str):
            reasons[k] = rep
        elif rep.status not in PASSING_STATUSES:
            reasons[k] = f"status {rep.status}"
        elif rep.lb_int is None:
            reasons[k] = "no lower bound"
        elif method != "lr":
            cg_bound.setdefault(key, set()).add(rep.lb_int)
    for k, ((key, method), rep) in enumerate(zip(cells, reports)):
        if reasons[k] is not None:
            continue
        bounds = cg_bound.get(key, set())
        if len(bounds) > 1:
            reasons[k] = f"CG cells disagree on lb_int: {sorted(bounds)}"
            continue
        if method == "lr" and bounds and rep.lb_int > min(bounds):
            reasons[k] = f"lr lb_int {rep.lb_int} above CG lb_int {min(bounds)}"
            continue
        incumbent, dual = highs.bounds(instances[key])
        if incumbent is not None and rep.lb_int > incumbent + 1e-6:
            reasons[k] = f"lb_int {rep.lb_int} above HiGHS incumbent {incumbent}"
        elif rep.ub is not None and rep.ub < dual - 1e-6:
            reasons[k] = f"ub {rep.ub} below HiGHS dual bound {dual}"
    return reasons
