"""Statistical mechanics of a single deformed oscillator.

Partition function, mean occupation, specific heat and its 1/ln T
high-temperature law, the small-lam deformed Planck formula with its
coefficient check, and the blue-shift law.  Units: k_B = hbar = omega = 1,
so the only temperature variable is x = 1/T.

Two spectrum conventions coexist because the energy ordering of A A† + A†A
is a modeling choice: "sym" uses E_n = (F(n) + F(n+1))/2 and "num" uses
E_n = F(n).  Which one reproduces the printed small-lam Planck correction
is decided empirically by planck_coefficient_check, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .deformation import q_number
from .errors import ParameterError, SaturationError

CONVENTIONS = ("sym", "num")

# Below this |lambda| the partition sums and C use their lambda = 0 closed forms.
EPS_SWITCH = 1e-6

_TAIL_REL = 1e-15
_MAX_TERMS = 200_000
_SINH_MAX_ARG = 709.0
_EULER_GAMMA = 0.5772156649015329


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ParameterError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def _level(n: int, lam: float, convention: str) -> float:
    if convention == "sym":
        return 0.5 * (q_number(n, lam) + q_number(n + 1, lam))
    return q_number(n, lam)


def energy_levels(n_max: int, lam: float, convention: str = "sym",
                  hbar_omega: float = 1.0) -> list[float]:
    """E_0..E_n_max for the chosen spectrum convention.

    Raises SaturationError with the largest safe index when lam*n_max
    overflows the double range of sinh.
    """
    _check_convention(convention)
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    if abs(lam) >= EPS_SWITCH and (n_max + 1) * abs(lam) > _SINH_MAX_ARG:
        raise SaturationError(
            "energy levels overflow double range",
            largest_safe_n=int(_SINH_MAX_ARG / abs(lam)) - 1)
    return [hbar_omega * _level(n, lam, convention) for n in range(n_max + 1)]


def _sum_states(beta: float, lam: float, convention: str):
    """(Z_shifted, sum n w_n, cutoff, E_0) with the adaptive tail rule.

    Weights are taken relative to the ground state, w_n = exp(-beta (E_n -
    E_0)), so the leading term is exactly 1 and the sum never underflows;
    Z = exp(-beta E_0) * Z_shifted.  Terms decrease from n = 0 because E_n
    is strictly increasing; the loop stops once the geometric continuation
    of the last term, w_n/(1 - w_n/w_{n-1}), falls below 1e-15 * Z.
    """
    e0 = _level(0, lam, convention)
    z = 0.0
    s = 0.0
    w_prev = None
    n = 0
    while n < _MAX_TERMS:
        w = math.exp(-beta * (_level(n, lam, convention) - e0))
        z += w
        s += n * w
        if w == 0.0:
            break
        if w_prev is not None and w < w_prev:
            ratio = w / w_prev
            if w / (1.0 - ratio) < _TAIL_REL * z:
                break
        w_prev = w
        n += 1
    else:
        raise SaturationError("partition sum did not terminate", largest_safe_n=_MAX_TERMS)
    return z, s, n, e0


def partition_function(t: float, lam: float, convention: str = "sym") -> tuple[float, int]:
    """(Z, cutoff_used).  For lam = 0 the geometric closed form is used."""
    _check_convention(convention)
    if t <= 0:
        raise ParameterError("temperature must be positive")
    beta = 1.0 / t
    if abs(lam) < EPS_SWITCH:
        z = 1.0 / -math.expm1(-beta)
        if convention == "sym":
            z *= math.exp(-0.5 * beta)
        return z, 0
    z, _, cutoff, e0 = _sum_states(beta, lam, convention)
    return math.exp(-beta * e0) * z, cutoff


def log_partition(t: float, lam: float, convention: str = "sym") -> float:
    """ln Z; the lam = 0 closed form is expm1-based to survive beta -> 0."""
    _check_convention(convention)
    if t <= 0:
        raise ParameterError("temperature must be positive")
    beta = 1.0 / t
    if abs(lam) < EPS_SWITCH:
        base = -math.log(-math.expm1(-beta))
        return base - 0.5 * beta if convention == "sym" else base
    z, _, _, e0 = _sum_states(beta, lam, convention)
    return math.log(z) - beta * e0


def mean_occupation(t: float, lam: float, convention: str = "sym") -> float:
    """<n> = sum n e^{-beta E_n} / Z with the same adaptive cutoff."""
    _check_convention(convention)
    if t <= 0:
        raise ParameterError("temperature must be positive")
    beta = 1.0 / t
    if abs(lam) < EPS_SWITCH:
        return 1.0 / math.expm1(beta)  # both conventions: the shift cancels
    z, s, _, _ = _sum_states(beta, lam, convention)
    return s / z


def specific_heat(t: float, lam: float, convention: str = "sym") -> float:
    """C = beta^2 d^2(ln Z)/d beta^2 by central differences.

    Relative step 1e-4 in beta with one Richardson extrapolation, per the
    calibration all tolerance claims are made against.  At lam = 0 the
    difference quotient would only deliver ~1e-8 (roundoff divided by the
    squared step), so the undeformed closed form is returned instead, the
    same way the partition sums switch to closed forms there.
    """
    _check_convention(convention)
    if t <= 0:
        raise ParameterError("temperature must be positive")
    beta = 1.0 / t
    if abs(lam) < EPS_SWITCH:
        em = -math.expm1(-beta)  # C = x^2 e^x / (e^x - 1)^2, overflow-free
        return beta * beta * math.exp(-beta) / (em * em)

    def second_diff(rel: float) -> float:
        up = log_partition(1.0 / (beta * (1.0 + rel)), lam, convention)
        mid = log_partition(t, lam, convention)
        dn = log_partition(1.0 / (beta * (1.0 - rel)), lam, convention)
        return (up - 2.0 * mid + dn) / (rel * rel)

    coarse = second_diff(1e-4)
    fine = second_diff(5e-5)
    return (4.0 * fine - coarse) / 3.0


def _log_sinh(x: float) -> float:
    """ln sinh x for x > 0, overflow-free."""
    return x + math.log(-0.5 * math.expm1(-2.0 * x))


def specific_heat_law(t: float, lam: float, convention: str = "sym") -> float:
    """High-temperature law C_law = 1/L - 1/L^2 of the deformed specific heat.

    The "sym" levels are exactly E_n = sinh(lam (n + 1/2)) / (2 sinh(lam/2)),
    so Z is a midpoint sum of exp(-beta E) on a grid of spacing lam, and
    int_0^inf exp(-a sinh u) du = ln(2/a) - gamma + O(a) gives Z ~ L/lam with
    L = ln(4T sinh(lam/2)) - gamma (gamma: Euler's constant).  For "num",
    E_n = sinh(lam n)/sinh(lam) is a trapezoid sum, whose half end weight
    adds lam/2: L = ln(2T sinh lam) - gamma + lam/2.  Either way
    C = beta^2 d^2 ln Z/d beta^2 = 1/L - 1/L^2: the specific heat decays
    like 1/ln T instead of settling at the equipartition value 1.

    The law is asymptotic: at T = 1e2, lam = 0.1 it is still 8% off, at
    T = 1e6 under 1e-5.  The midpoint sum also carries a log-periodic
    ripple (period lam in ln T) of order exp(-pi^2/lam): 4e-3 relative at
    lam = 1, below 1e-5 for lam <= 0.5.  It is only defined here where
    L > 1 (C_law > 0), and lam = 0 has no such law.
    """
    _check_convention(convention)
    if t <= 0:
        raise ParameterError("temperature must be positive")
    if lam == 0:
        raise ParameterError("the 1/ln T law needs lam != 0; "
                             "the undeformed C tends to 1")
    a = abs(lam)
    if convention == "sym":
        big_l = math.log(4.0 * t) + _log_sinh(0.5 * a) - _EULER_GAMMA
    else:
        big_l = math.log(2.0 * t) + _log_sinh(a) - _EULER_GAMMA + 0.5 * a
    if big_l <= 1.0:
        raise ParameterError(f"the 1/ln T law needs L > 1, got L = {big_l:.6g} "
                             f"at T = {t!r}, lam = {lam!r}")
    return 1.0 / big_l - 1.0 / (big_l * big_l)


@dataclass(frozen=True)
class ThermoTable:
    lam: float
    convention: str
    temperatures: list[float]
    z: list[float]
    mean_n: list[float]
    c: list[float]
    planck_approx: list[float]
    cutoff_used: int


def thermo_table(temperatures, lam: float, convention: str = "sym") -> ThermoTable:
    """Per-temperature Z, <n>, C and the small-lam Planck value, in input order."""
    _check_convention(convention)
    temps = [float(t) for t in temperatures]
    if not temps:
        raise ParameterError("temperature grid is empty")
    rows = [(*partition_function(t, lam, convention),
             mean_occupation(t, lam, convention),
             specific_heat(t, lam, convention),
             deformed_planck_approx(t, lam)) for t in temps]
    z, cutoffs, mean_n, c, planck = (list(col) for col in zip(*rows))
    return ThermoTable(lam, convention, temps, z, mean_n, c, planck, max(cutoffs))


def bose_einstein(x: float) -> float:
    """1/(e^x - 1), expm1-stable."""
    if x <= 0:
        raise ParameterError("x must be positive")
    return 1.0 / math.expm1(x)


def planck_correction_coefficient(x: float) -> float:
    """The printed lam^2 coefficient -x (e^{3x} + 4 e^{2x} + e^x)/(e^x - 1)^4.

    Evaluated in the algebraically identical overflow-free form
    -x (e^{-x} + 4 e^{-2x} + e^{-3x})/(1 - e^{-x})^4.
    """
    if x <= 0:
        raise ParameterError("x must be positive")
    em = math.exp(-x)
    denom = (-math.expm1(-x)) ** 4
    return -x * (em + 4.0 * em * em + em * em * em) / denom


def deformed_planck_approx(t: float, lam: float, hbar_omega: float = 1.0) -> float:
    """Small-lam occupation 1/(e^x - 1) + lam^2 * correction, x = hbar_omega/T."""
    if t <= 0:
        raise ParameterError("temperature must be positive")
    x = hbar_omega / t
    return bose_einstein(x) + lam * lam * planck_correction_coefficient(x)


@dataclass(frozen=True)
class PlanckCheckReport:
    x: float
    convention: str
    lam_grid: list[float]
    raw_coefficients: list[float]
    extrapolated: list[float]
    limit: float
    printed_coefficient: float
    ratio_to_printed: float
    matched_convention: str
    matched_scale: float
    residual_ratios: list[float]

    def converged(self, sig_digits: int = 3) -> bool:
        """Last two extrapolants agree when rounded to sig_digits digits."""
        if len(self.extrapolated) < 2:
            return False
        a, b = self.extrapolated[-2], self.extrapolated[-1]
        return f"{a:.{sig_digits}g}" == f"{b:.{sig_digits}g}"


def _raw_coefficient(x: float, lam: float, convention: str) -> float:
    return (mean_occupation(1.0 / x, lam, convention) - bose_einstein(x)) / (lam * lam)


def planck_coefficient_check(lam_grid, x: float, convention: str = "sym") -> PlanckCheckReport:
    """Convergence report for [<n> - Bose]/lam^2 against the printed coefficient.

    Computes the raw coefficient on the grid, Richardson-extrapolates
    successive pairs (the correction series is even in lam), and identifies
    which spectrum convention tracks the printed coefficient with an
    x-independent scale — probed internally at x in {0.5, 1, 2}.  Residual
    ratios are the O(lam^4) scaling evidence after subtracting the matched
    coefficient.
    """
    _check_convention(convention)
    grid = sorted((float(v) for v in lam_grid), reverse=True)
    if len(grid) < 2 or grid[-1] <= 0 or grid[0] > 0.1:
        raise ParameterError("lam grid must contain >= 2 values in (0, 0.1]")
    if x <= 0:
        raise ParameterError("x must be positive")

    raw = [_raw_coefficient(x, lam, convention) for lam in grid]
    extrapolated = []
    for (l1, k1), (l2, k2) in zip(zip(grid, raw), zip(grid[1:], raw[1:])):
        r = (l1 / l2) ** 2
        extrapolated.append((r * k2 - k1) / (r - 1.0))
    limit = extrapolated[-1] if extrapolated else raw[-1]
    printed = planck_correction_coefficient(x)

    # identify the x-independent convention on a fixed probe set: two
    # Richardson levels remove the lam^2 and lam^4 error of the raw ratio
    scales = {}
    for conv in CONVENTIONS:
        ratios = []
        for xp in (0.5, 1.0, 2.0):
            k1, k2, k3 = (_raw_coefficient(xp, lam, conv) for lam in (0.02, 0.01, 0.005))
            e1 = (4.0 * k2 - k1) / 3.0
            e2 = (4.0 * k3 - k2) / 3.0
            ratios.append((16.0 * e2 - e1) / 15.0 / planck_correction_coefficient(xp))
        scales[conv] = ratios
    spread = {c: max(v) - min(v) for c, v in scales.items()}
    matched = min(spread, key=lambda c: spread[c] / max(abs(sum(scales[c])) / 3.0, 1e-30))
    matched_scale = sum(scales[matched]) / len(scales[matched])
    # the match is a simple rational constant, not a fitted parameter:
    # snap to the nearest half-integer when the estimate is that close,
    # so the residual below is a clean lam^4 remainder
    snapped = round(2.0 * matched_scale) / 2.0
    if abs(matched_scale - snapped) < 1e-4:
        matched_scale = snapped

    residual_ratios = []
    resid = [mean_occupation(1.0 / x, lam, matched) - bose_einstein(x)
             - lam * lam * matched_scale * printed for lam in grid]
    for r1, r2 in zip(resid, resid[1:]):
        residual_ratios.append(r1 / r2 if r2 != 0 else math.inf)

    return PlanckCheckReport(x, convention, grid, raw, extrapolated,
                             limit, printed, limit / printed,
                             matched, matched_scale, residual_ratios)


def blue_shift(n: float, lam: float) -> tuple[float, float]:
    """Relative frequency shift of a vibrating mode holding n quanta.

    exact = [omega_q(n) - omega_q(0)]/omega_q(0) = cosh(lam n) - 1;
    approx = lam^2 n^2 / 2.  The pair quantifies where the quadratic law
    stops being trustworthy (lam*n approaching 1).
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    half = 0.5 * lam * n
    exact = 2.0 * math.sinh(half) ** 2  # cosh(lam n) - 1 without cancellation
    approx = 0.5 * (lam * n) ** 2
    return exact, approx
