"""planck_coefficient_check as qlab computed it before every <n> came from
one table: three passes, the raw coefficients one lam at a time, the
convention probe in one grid a (convention, lam), and a second
mean_occupation pass for the residuals, so that a row could be summed up to
three times.  Tests compare the one-table check against this, field for
field.  It refuses an x as the one-table check does: one whose printed
coefficient underflows to 0 or overflows to -inf, before any row is summed."""

import math

from qlab.errors import ParameterError
from qlab.thermo import (_PLANCK_X_MIN, CONVENTIONS, PlanckCheckReport, _check_convention,
                         _check_temperature, _moments, bose_einstein, mean_occupation,
                         planck_correction_coefficient)


def _raw_coefficients(xs, lam, convention):
    rows = _moments([1.0 / _check_temperature(1.0 / x) for x in xs], lam, convention)
    return [(m.mean_n - bose_einstein(x)) / (lam * lam) for x, m in zip(xs, rows)]


def planck_coefficient_check(lam_grid, x, convention="sym"):
    _check_convention(convention)
    grid = sorted((float(v) for v in lam_grid), reverse=True)
    if len(set(grid)) < len(grid) or len(grid) < 2 or grid[-1] <= 0 or grid[0] > 0.1:
        raise ParameterError("lam grid must contain >= 2 distinct values in (0, 0.1]")

    printed = planck_correction_coefficient(x)
    if printed == 0.0:
        raise ParameterError(f"x = {x!r}: the printed coefficient underflows to 0")
    if printed == -math.inf:
        raise ParameterError(f"x = {x!r}: the printed coefficient overflows; "
                             f"x must be >= {_PLANCK_X_MIN!r}")
    raw = [_raw_coefficients((x,), lam, convention)[0] for lam in grid]
    extrapolated = [((l1 / l2) ** 2 * k2 - k1) / ((l1 / l2) ** 2 - 1.0)
                    for (l1, k1), (l2, k2) in zip(zip(grid, raw), zip(grid[1:], raw[1:]))]
    limit = extrapolated[-1] if extrapolated else raw[-1]

    probe = (0.5, 1.0, 2.0)
    scales = {conv: [] for conv in CONVENTIONS}
    for conv, ratios in scales.items():
        ks = zip(*(_raw_coefficients(probe, lam, conv) for lam in (0.02, 0.01, 0.005)))
        for xp, (k1, k2, k3) in zip(probe, ks):
            e1 = (4.0 * k2 - k1) / 3.0
            e2 = (4.0 * k3 - k2) / 3.0
            ratios.append((16.0 * e2 - e1) / 15.0 / planck_correction_coefficient(xp))
    spread = {c: max(v) - min(v) for c, v in scales.items()}
    matched = min(spread, key=lambda c: spread[c] / max(abs(sum(scales[c])) / 3.0, 1e-30))
    matched_scale = sum(scales[matched]) / len(scales[matched])
    snapped = round(2.0 * matched_scale) / 2.0
    if abs(matched_scale - snapped) < 1e-4:
        matched_scale = snapped

    resid = [mean_occupation(1.0 / x, lam, matched) - bose_einstein(x)
             - lam * lam * matched_scale * printed for lam in grid]
    residual_ratios = [r1 / r2 if r2 != 0 else math.inf for r1, r2 in zip(resid, resid[1:])]

    return PlanckCheckReport(x, convention, grid, raw, extrapolated,
                             limit, printed, limit / printed,
                             matched, matched_scale, residual_ratios)
