"""Reference renderings and per-config report code the report tests compare the library against."""

import csv
import io
import re

import numpy as np

from jensenlab.experiments import _BATCH_FREE, _ratio_arrays, _Rows
from jensenlab.models import BOUNDED, DECAY, POWER


def csv_by_repr(report) -> str:
    """``emit_report(report, fmt="csv")`` written row by row with ``repr`` for every float."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    prof = report.details.get("profile")
    if prof is not None:
        w.writerow(["shell_edge_low", "shell_edge_high", "sup_defect", "samples"])
        edges = prof["edges"]
        for lo, hi, sup in zip(edges, edges[1:], prof["sup_defect"]):
            w.writerow([repr(lo), repr(hi), repr(sup), prof["samples_per_shell"]])
        return buf.getvalue()
    rows = report.samples
    dim = rows.X.shape[1] if len(rows) else 0
    w.writerow(["theorem_id", "index", "role"] + [f"x{k}" for k in range(dim)]
               + ["deviation", "bound", "ratio"])
    for i in range(len(rows)):
        floats = [*rows.X[i].tolist(), float(rows.deviation[i]), float(rows.bound[i]),
                  float(rows.ratio[i])]
        w.writerow([report.theorem_id, i, rows.roles[rows.role[i]], *map(repr, floats)])
    return buf.getvalue()


def assemble_rows(X, role_data, tol):
    """One config's (rows, max_dev, bound_value, max_ratio, witnesses), role by role.

    role_data: list of (role, devs, bounds).  One row per point, worst role kept.
    """
    roles, devs, bounds = zip(*role_data)
    stacked = np.stack([_ratio_arrays(d, b, tol) for d, b in zip(devs, bounds)])  # (roles, n)
    worst_role = np.argmax(stacked, axis=0)
    pick = (worst_role, np.arange(X.shape[0]))
    rows = _Rows(X, roles, worst_role, np.stack(devs)[pick], np.stack(bounds)[pick], stacked[pick])
    max_dev = float(max(np.max(d) for d in devs))
    bound_value = float(max(np.max(b) for b in bounds))
    max_ratio = float(np.max(stacked))
    order = np.argsort(-rows.ratio)[:3]
    witnesses = rows.dicts(order)
    return rows, max_dev, bound_value, max_ratio, witnesses


# steps for base^-n to fall to 2^-40, at the bases of the limit theorems
FLOORS = {2.0: 40, 3.0: 25}


def auto_n_max(cfg, base: float, arg_scale: float = 1.0) -> int:
    """One config's iteration cap: enough for the slowest perturbation's gap to clear tol."""
    if cfg.limits.n_max is not None:
        return cfg.limits.n_max
    tol = cfg.limits.tol
    R = max(cfg.sampler.radius_range[1] * arg_scale, 1.0)
    need = FLOORS[base]
    for p in cfg.model.perturbations:
        if p.kind == POWER and p.delta > 0.0:
            rate = (1.0 - p.p) * np.log(base)
            n = np.log(max(2.0 * p.delta * R**p.p / tol, 1.0)) / rate
        elif p.kind in (BOUNDED, DECAY) and p.amplitude > 0.0:
            n = np.log(max(3.0 * p.amplitude / tol, 1.0)) / np.log(base)
        else:
            continue
        need = max(need, int(np.ceil(min(n, 600))) + 6)  # n is inf once a/tol overflows
    return min(need, 600)


def head_differences(a, b, path=""):
    """The key paths outside _BATCH_FREE at which two config_to_dict heads
    differ: a's keys first, then those b alone holds, lists index by index."""
    if a == b or re.sub(r"\[\d+\]", "[]", path) in _BATCH_FREE:
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in [*a, *(k for k in b if k not in a)]
                for p in head_differences(a.get(key), b.get(key), f"{path}.{key}" if path else key)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in head_differences(x, y, f"{path}[{i}]")]
    return [path]
