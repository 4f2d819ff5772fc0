"""Compare two result files written by ``run.py --out``.

Prints one row per workload and metric: for each side the number of runs,
the median and the first and third quartiles, then the ratio of the new
median to the old one.
"""

from __future__ import annotations

import json
import statistics


def load(path):
    """{(workload, metric): (unit, [values])} from a JSON-lines result file."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                unit, values = table.setdefault((rec["workload"], name), (m["unit"], []))
                values.append(m["value"])
            unit, values = table.setdefault((rec["workload"], "failed_ratio"), ("ratio", []))
            values.append(rec["failed_ratio"])
    return table


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rows(old, new):
    out = []
    for key in sorted(set(old) | set(new)):
        workload, metric = key
        cells = [workload, metric]
        meds = []
        unit = (old.get(key) or new.get(key))[0]
        for side in (old, new):
            values = side.get(key, (unit, []))[1]
            if values:
                q1, med, q3 = quartiles(values)
                cells += [str(len(values)), f"{med:.6g}", f"{q1:.6g}", f"{q3:.6g}"]
                meds.append(med)
            else:
                cells += ["0", "-", "-", "-"]
                meds.append(None)
        a, b = meds
        cells.append(f"{b / a:.4f}" if a and b is not None else "-")
        cells.insert(2, unit)
        out.append(cells)
    return out


def main(old_path, new_path):
    header = ["workload", "metric", "unit", "n_old", "med_old", "q1_old", "q3_old",
              "n_new", "med_new", "q1_new", "q3_new", "new/old"]
    table = [header] + rows(load(old_path), load(new_path))
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0
