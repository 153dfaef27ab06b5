"""Statistical mechanics of a single deformed oscillator.

Partition function, mean occupation, specific heat and its 1/ln T
high-temperature law, the small-lam deformed Planck formula with its
coefficient check, and the blue-shift law.  Units: k_B = hbar = omega = 1,
so the only temperature variable is x = 1/T.

Two spectrum conventions coexist because the energy ordering of A A† + A†A
is a modeling choice: "sym" uses E_n = (F(n) + F(n+1))/2 and "num" uses
E_n = F(n).  Which one reproduces the printed small-lam Planck correction
is decided empirically by planck_coefficient_check, not assumed.

ln Z, <n> and C = beta^2 Var E all come from one pass over the spectrum,
_moments: a closed-form cutoff, a centred variance, and a direct sum, or an
Euler-Maclaurin tail from level 1 where the levels are smooth.  numpy is
imported only by that pass and by energy_levels; the closed forms (the blue
shift, the Planck formula, the 1/ln T law) run without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .deformation import _SINH_MAX_ARG, _log_sinh
from .errors import ParameterError, SaturationError

if TYPE_CHECKING:
    import numpy as np

CONVENTIONS = ("sym", "num")

_EULER_GAMMA = 0.5772156649015329
_TINY = sys.float_info.min
_T_MIN, _T_MAX = 1e-300, 1e300  # keeps 1/T and the tail's energies ~1e3 T finite
_TAIL_LOG = math.log(1e18)  # levels left out weigh < 1e-18 of level 1 (_moments)
_BLOCK = 1 << 13  # levels per block: temporaries stay this long however long the sum
_EM_LAM, _EM_SLOPE = 1e-3, 1e-2  # smooth enough for _em_tail from level 1 (_moments)
# Step of the tail's trapezoid rule in s = ln u.  The integrand is analytic
# for |Im s| < pi/2, so 1/8 errs by ~1e-20 (1/4 measured 6e-14); a binary
# step from an integer start keeps the nodes exact.
_LN_U_STEP = 0.125
# Gregory's end correction, sum_{k>=0} f(m+k) = int_m^inf f + sum_k
# _GREGORY[k] f(m+k): Euler-Maclaurin with forward differences up to the 6th.
_GREGORY = (12023 / 17280, -6961 / 15120, 66109 / 120960, -33 / 70,
            31523 / 120960, -1247 / 15120, 275 / 24192)


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ParameterError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def _check_lam(lam: float) -> float:
    if not math.isfinite(lam):
        raise ParameterError(f"lambda must be finite, got {lam!r}")
    return abs(lam)  # the spectrum is even in lam


class _Spectrum(NamedTuple):
    """E_n = sinh(a (n + shift))/scale, a = |lam| > 0.

    "num": shift 0, scale sinh a (E_n = n_q).  "sym": shift 1/2, scale
    2 sinh(a/2) = sinh(a)/cosh(a/2), exact even where a/2 underflows
    (E_n = (n_q + (n+1)_q)/2).  E_0 = shift, and the spacing is >= 1 and
    grows with n.  Where a (n + shift) underflows, E_n = n + shift, as in
    q_number.
    """
    a: float
    shift: float
    scale: float

    def energy(self, n: np.ndarray) -> np.ndarray:
        import numpy as np

        arg = self.a * (n + self.shift)
        return np.where(arg < _TINY, n + self.shift, np.sinh(arg) / self.scale)

    def index(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The inverse n(E) of energy() and its slope dn/dE."""
        import numpy as np

        y = self.scale * e
        linear = y < _TINY
        n = np.where(linear, e, np.arcsinh(y) / self.a) - self.shift
        return n, np.where(linear, 1.0, (self.scale / self.a) / np.hypot(1.0, y))


def _spectrum(a: float, convention: str) -> _Spectrum:
    if convention == "sym":
        return _Spectrum(a, 0.5, math.sinh(a) / math.cosh(0.5 * a))
    return _Spectrum(a, 0.0, math.sinh(a))


class _Moments(NamedTuple):
    log_z: float
    mean_n: float
    heat: float    # C = beta^2 Var E
    cutoff: int    # largest level index inside the tail bound
    terms: int     # levels summed one by one
    tail: str      # "closed", "direct" or "direct+em"


def _block_moments(n: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(sum w, mean n, mean x, sum w (x - mean x)^2) of levels weighted w;
    all zeros where every weight underflows (a cold level 1)."""
    import numpy as np

    total = float(np.sum(w))
    if total == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    p = w / total
    mean_x = float(np.sum(p * x))
    d = x - mean_x
    return total, float(np.sum(p * n)), mean_x, float(np.sum(w * d * d))


def _merge(a, b):
    """Pool two _block_moments results (Chan, Golub & LeVeque 1983)."""
    wa, na, xa, qa = a
    wb, nb, xb, qb = b
    w = wa + wb
    share = wb / w
    d = xb - xa
    return w, na + (nb - na) * share, xa + d * share, qa + qb + d * d * wa * share


def _em_tail(m: int, beta: float, spec: _Spectrum):
    """Weighted points (n, x, w) that stand for the levels n >= m.

    With u = beta (E - E_m) the integral of e^-x over n in [m, inf) is
    e^-x_m times that of e^-u dn/du over u > 0, taken by the trapezoid
    rule in ln u.  dn/du has its branch points at |u| = rho, |Im ln u| >=
    pi/2, so the rule holds even where rho << 1; the nodes span
    u in [min(rho, 1) e^-42, 45 - ln min(rho, 1)], outside which less than
    1e-18 of the integral lies.  Gregory's correction at n = m .. m+6 turns
    the integral into the sum.
    """
    import numpy as np

    e_m = float(spec.energy(np.float64(m)))
    ln_rho = math.log(min(beta * math.hypot(e_m, 1.0 / spec.scale), 1.0))
    u = np.exp(np.arange(math.floor(ln_rho) - 42.0, math.log(45.0 - ln_rho), _LN_U_STEP))
    n_u, slope = spec.index(e_m + u / beta)
    x_m = beta * (e_m - spec.shift)
    n_g = m + np.arange(len(_GREGORY), dtype=float)
    x_g = beta * (spec.energy(n_g) - spec.shift)
    return (np.concatenate((n_u, n_g)), np.concatenate((x_m + u, x_g)),
            np.concatenate((_LN_U_STEP * (u / beta) * slope * np.exp(-(x_m + u)),
                            np.array(_GREGORY) * np.exp(-x_g))))


def _moments(beta: float, lam: float, convention: str) -> _Moments:
    """ln Z, <n> and C = beta^2 Var E from one pass over the spectrum.

    With x_n = beta (E_n - E_0), the levels from N on weigh at most
    e^-x_N/(1 - e^-beta).  So levels 0, 1 and every level with
    x_n < K + min(x_1, K), K = ln(1e18) - ln(1 - e^-beta), leave out less
    than 1e-18 of w_1 = e^-x_1, which carries <n> and C when cold.  The
    last such index is E_n inverted in closed form.  lam = 0 has closed forms.
    Levels >= 1 are summed in Chan-Golub-LeVeque-pooled blocks (a centred C),
    or by _em_tail(1) where the slope s = x' is small: Gregory's rule errs by
    ~G_7 D^7 g <= 0.01 * 42 s^7 on g = x^j e^-x (j <= 2), against a sum >= 1/s,
    so by 0.5 s^8 relative: 5e-17 for beta E'(1) <= _EM_SLOPE at n = 1, and
    3e-21 at most for s ~ |lam| x further out, where |lam| <= _EM_LAM.
    """
    import numpy as np

    a = _check_lam(lam)
    if a == 0.0:
        em = -math.expm1(-beta)
        log_z = -math.log(em) - (0.5 * beta if convention == "sym" else 0.0)
        heat = (beta * math.exp(-0.5 * beta) / em) ** 2
        return _Moments(log_z, bose_einstein(beta), heat, 0, 0, "closed")
    spec = _spectrum(a, convention) if a <= _SINH_MAX_ARG else None
    if spec is not None:
        k = _TAIL_LOG - math.log(-math.expm1(-beta))
        x_1 = beta * float(spec.energy(np.float64(1.0)) - spec.shift)
        with np.errstate(over="ignore"):  # an infinite cutoff is caught below
            n_cut, _ = spec.index(np.float64(spec.shift + (k + min(x_1, k)) / beta))
        n_end = max(2, math.ceil(n_cut)) if math.isfinite(n_cut) else math.inf
    if spec is None or not a * (n_end - 1 + spec.shift) <= _SINH_MAX_ARG:
        raise SaturationError(f"the levels up to the cutoff overflow the double "
                              f"range at lambda = {lam!r}, T = {1.0 / beta!r}",
                              largest_safe_n=int(_SINH_MAX_ARG / a) - 1)
    smooth = a <= _EM_LAM and beta * a * math.cosh(a + a * spec.shift) / spec.scale <= _EM_SLOPE
    direct = 1 if smooth else n_end
    excited = _block_moments(*_em_tail(1, beta, spec)) if smooth else None  # levels >= 1
    for start in range(1, direct, _BLOCK):
        n = np.arange(start, min(start + _BLOCK, direct), dtype=float)
        x = beta * (spec.energy(n) - spec.shift)
        block = _block_moments(n, x, np.exp(-x))
        excited = block if excited is None else _merge(excited, block)
    total, mean_n, _, m2 = _merge((1.0, 0.0, 0.0, 0.0), excited)
    return _Moments(math.log1p(excited[0]) - beta * spec.shift, mean_n, m2 / total,
                    n_end - 1, direct, "direct+em" if smooth else "direct")


def energy_levels(n_max: int, lam: float, convention: str = "sym") -> list[float]:
    """E_0..E_n_max for the chosen spectrum convention.

    Raises SaturationError with the largest safe index when lam*n_max
    overflows the double range of sinh.
    """
    import numpy as np

    _check_convention(convention)
    a = _check_lam(lam)
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    if a != 0.0 and (n_max + 1) * a > _SINH_MAX_ARG:
        raise SaturationError("energy levels overflow double range",
                              largest_safe_n=int(_SINH_MAX_ARG / a) - 1)
    n = np.arange(n_max + 1, dtype=float)
    if a == 0.0:
        return (n + 0.5 if convention == "sym" else n).tolist()
    return _spectrum(a, convention).energy(n).tolist()


def _check_temperature(t: float) -> None:
    if not _T_MIN <= t <= _T_MAX:  # rejects nan too
        raise ParameterError(f"temperature must lie in [{_T_MIN:g}, {_T_MAX:g}], "
                             f"got {t!r}")


def _read(t: float, lam: float, convention: str) -> _Moments:
    _check_convention(convention)
    _check_temperature(t)
    return _moments(1.0 / t, lam, convention)


def partition_function(t: float, lam: float, convention: str = "sym") -> tuple[float, int]:
    """(Z, cutoff_used), cutoff_used = 0 for the lam = 0 closed form."""
    m = _read(t, lam, convention)
    return math.exp(m.log_z), m.cutoff


def log_partition(t: float, lam: float, convention: str = "sym") -> float:
    """ln Z, finite for every T in range."""
    return _read(t, lam, convention).log_z


def mean_occupation(t: float, lam: float, convention: str = "sym") -> float:
    """<n> = sum n e^{-beta E_n} / Z."""
    return _read(t, lam, convention).mean_n


def specific_heat(t: float, lam: float, convention: str = "sym") -> float:
    """C = beta^2 Var E = beta^2 d^2 ln Z/d beta^2, as a centred variance."""
    return _read(t, lam, convention).heat


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
    _check_temperature(t)
    a = _check_lam(lam)
    if a == 0:
        raise ParameterError("the 1/ln T law needs lam != 0; "
                             "the undeformed C tends to 1")
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
    cutoff_used: int  # the largest over the grid
    terms: int        # levels summed one by one, over the grid
    tail: str         # how the row with the largest cutoff was summed


def thermo_table(temperatures, lam: float, convention: str = "sym") -> ThermoTable:
    """Per-temperature Z, <n>, C and the small-lam Planck value, in input order."""
    _check_convention(convention)
    temps = [float(t) for t in temperatures]
    if not temps:
        raise ParameterError("temperature grid is empty")
    rows = [_read(t, lam, convention) for t in temps]
    hottest = max(rows, key=lambda m: m.cutoff)
    return ThermoTable(lam, convention, temps, [math.exp(m.log_z) for m in rows],
                       [m.mean_n for m in rows], [m.heat for m in rows],
                       [deformed_planck_approx(t, lam) for t in temps],
                       hottest.cutoff, sum(m.terms for m in rows), hottest.tail)


def bose_einstein(x: float) -> float:
    """1/(e^x - 1), as e^-x/(1 - e^-x) so that no x overflows."""
    if x <= 0:
        raise ParameterError("x must be positive")
    return math.exp(-x) / -math.expm1(-x)


def planck_correction_coefficient(x: float) -> float:
    """The printed lam^2 coefficient -x (e^{3x} + 4 e^{2x} + e^x)/(e^x - 1)^4.

    Evaluated in the algebraically identical overflow-free form
    -x (e^{-x} + 4 e^{-2x} + e^{-3x})/(1 - e^{-x})^4, dividing by 1 - e^{-x}
    one factor at a time so that a tiny x gives ~ -6/x^3 (or -inf), not a
    zero division.
    """
    if x <= 0:
        raise ParameterError("x must be positive")
    em = math.exp(-x)
    d = -math.expm1(-x)
    return -x / d * (em + 4.0 * em * em + em * em * em) / d / d / d


def deformed_planck_approx(t: float, lam: float) -> float:
    """Small-lam occupation 1/(e^x - 1) + lam^2 * correction, x = 1/T."""
    _check_temperature(t)
    _check_lam(lam)
    x = 1.0 / t
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

    def converged(self) -> bool:
        """Last two extrapolants agree when rounded to 3 significant digits."""
        if len(self.extrapolated) < 2:
            return False
        a, b = self.extrapolated[-2], self.extrapolated[-1]
        return f"{a:.3g}" == f"{b:.3g}"


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

    printed = planck_correction_coefficient(x)  # ParameterError unless x > 0
    if printed == 0.0:
        raise ParameterError(f"x = {x!r}: the printed coefficient underflows to 0")
    raw = [_raw_coefficient(x, lam, convention) for lam in grid]
    extrapolated = []
    for (l1, k1), (l2, k2) in zip(zip(grid, raw), zip(grid[1:], raw[1:])):
        r = (l1 / l2) ** 2
        extrapolated.append((r * k2 - k1) / (r - 1.0))
    limit = extrapolated[-1] if extrapolated else raw[-1]

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
    if not abs(lam * n) <= _SINH_MAX_ARG:
        raise SaturationError(f"cosh(lam n) overflows past lam n = {_SINH_MAX_ARG:g}",
                              largest_safe_n=int(_SINH_MAX_ARG / abs(lam)))
    half = 0.5 * lam * n
    exact = 2.0 * math.sinh(half) ** 2  # cosh(lam n) - 1 without cancellation
    approx = 0.5 * (lam * n) ** 2
    return exact, approx
