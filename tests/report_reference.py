"""Reference renderings the report tests compare the library against."""

import csv
import io


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
