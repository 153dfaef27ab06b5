"""The CSV renderer and the deform-table rows as qlab built them before its
results became columns: one dict per row, one csv.writer call per row and
one formatted string per cell.  Tests compare the column renderer and
ExperimentResult.rows against these."""

import csv
import io
import math

from qlab import deformation
from qlab.errors import SaturationError


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _render_csv(rows) -> str:
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row.values()])
    return buffer.getvalue()


def deform_table_rows(spec: deformation.DeformationSpec, lam: float, n_max: int) -> list:
    rows = []
    factorial = 1.0  # f(1) ... f(n), multiplied in that order
    for n in range(n_max + 1):
        big = deformation.big_f(n, spec)
        roundtrip = abs(deformation.big_f_inverse(big, spec) - n)
        row = {"n": n}
        if spec.kind == "q":
            row["q_number"] = deformation.q_number(n, lam)
        row["f"] = deformation.f_of_n(n, spec)
        row["big_f"] = big
        row["phi"] = deformation.phi_of_z(n, spec)
        if spec.kind == "q":
            row["commutator"] = deformation.q_number(n + 1, lam) - deformation.q_number(n, lam)
        if n:
            factorial *= row["f"]
            if math.isinf(factorial):
                raise SaturationError(f"deformed factorial overflows at n = {n}",
                                      largest_safe_n=n - 1)
        row["f_factorial"] = factorial
        row["roundtrip_err"] = roundtrip
        rows.append(row)
    return rows
