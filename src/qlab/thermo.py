"""Statistical mechanics of a single deformed oscillator.

Partition function, mean occupation, specific heat and its 1/ln T
high-temperature law, the small-lam deformed Planck formula with its
coefficient check, and the blue-shift law.  Units: k_B = hbar = omega = 1,
so the only temperature variable is x = 1/T.

Two spectrum conventions coexist because the energy ordering of A A† + A†A
is a modeling choice: "sym" uses E_n = (F(n) + F(n+1))/2 and "num" uses
E_n = F(n).  Which one reproduces the printed small-lam Planck correction
is decided empirically by planck_coefficient_check, not assumed.

ln Z, <n> and C = beta^2 Var E all come from one pass over the spectrum
for a whole temperature grid, _moments (one temperature is a grid of one):
a closed-form cutoff, a centred variance, Gregory's rule over the smooth
head of the levels, 1 .. J, and a direct sum past it.  numpy is
imported only by that pass and by energy_levels; the closed forms (the blue
shift, the Planck formula, the 1/ln T law) run without it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .deformation import _LN2, _SINH_MAX_ARG, _TINY, _log_cosh, _log_sinh, _past_sinh
from .errors import _BLOCK, WORK_BUDGET, ParameterError, SaturationError

if TYPE_CHECKING:
    import numpy as np

CONVENTIONS = ("sym", "num")

_EULER_GAMMA = 0.5772156649015329
_BLUE_MAX_ARG = 2.0 * math.asinh(math.sqrt(0.5 * sys.float_info.max))  # cosh x - 1 overflows past
_T_MIN, _T_MAX = 1e-300, 1e300  # keeps 1/T and the tail's energies ~1e3 T finite
_TAIL_LOG = math.log(1e18)  # levels left out weigh < 1e-18 of level 1 (_moments)
_EM_SLOPE = 1e-2  # Gregory's rule sums the levels up to where x' nears this (_moments)
# WORK_BUDGET units (~2 us) per temperature and per level or head node summed (README)
_POINT_COST, _LEVEL_COST = 16.0, 0.01
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
    q_number.  Past a (n + shift) or a = _SINH_MAX_ARG (scale inf), where a
    sinh overflows, E_n takes _past_sinh's form, inf where the level overflows.
    """
    a: float
    shift: float
    scale: float

    def energy(self, n: np.ndarray) -> np.ndarray:
        import numpy as np

        arg = self.a * (n + self.shift)
        out = np.where(arg < _TINY, n + self.shift, np.sinh(arg) / self.scale)
        if self.scale == math.inf or (arg.max() if arg.ndim else arg) > _SINH_MAX_ARG:
            past = (arg > _SINH_MAX_ARG) | (self.scale == math.inf)  # E_n need not overflow
            out[past] = _past_sinh(arg[past], self.a * (1.0 - self.shift), np,
                                   math.log1p(2.0 * self.shift))  # scale = (1 + 2 shift) sinh h
        return out

    def index(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The inverse n(E) of energy() and, where y = scale E is finite (the tail's
        nodes), its slope dn/dE; past that, asinh y = ln E + ln scale + ln 2."""
        import numpy as np

        y = self.scale * e
        big = np.arcsinh(y)
        if not (y.max() if y.ndim else y) < math.inf:
            ln_scale = _log_sinh(self.a) - _log_cosh(self.shift * self.a)
            big = np.where(y < math.inf, big, np.log(e) + (ln_scale + _LN2))
        n, slope = big / self.a - self.shift, (self.scale / self.a) / np.hypot(1.0, y)
        if (y.min() if y.ndim else y) < _TINY:  # E = n + shift where scale E underflows
            linear = y < _TINY
            n, slope = np.where(linear, e - self.shift, n), np.where(linear, 1.0, slope)
        return n, slope


def _spectrum(a: float, convention: str) -> _Spectrum:
    scale = math.sinh(a) if a <= _SINH_MAX_ARG else math.inf  # energy() then needs no scale
    shift = 0.5 if convention == "sym" else 0.0
    return _Spectrum(a, shift, scale / math.cosh(shift * min(a, _SINH_MAX_ARG)))


class _Moments(NamedTuple):
    log_z: float
    mean_n: float
    heat: float    # C = beta^2 Var E
    cutoff: int    # largest level index inside the tail bound
    terms: int     # level 0, the levels summed one by one and the head's nodes
    tail: str      # "closed", "direct" or "direct+em"


def _segments(sizes: tuple[int, ...], first: tuple[int, ...]):
    """(spread, sums, n) for flat arrays cut into segments sizes long: spread(v)
    repeats v[i] sizes[i] times (v[0] for one segment), sums(a) sums each
    segment's view as np.sum would, and n counts first[i], first[i] + 1, .."""
    import numpy as np

    add, ends = np.add.reduce, list(accumulate(sizes))
    if len(sizes) == 1:
        n = np.arange(first[0], first[0] + ends[0], dtype=float)
        return (lambda v: v[0]), (lambda a: [float(add(a))]), n
    cuts, reps = list(zip([0, *ends], ends)), np.array(sizes)
    offsets = np.array([f - i for f, (i, _) in zip(first, cuts)]).repeat(reps)
    return ((lambda v: np.array(v).repeat(reps)),
            (lambda a: [float(add(a[i:j])) for i, j in cuts]), np.arange(float(ends[-1])) + offsets)


def _merge(a, b):
    """Pool two blocks (Chan, Golub & LeVeque 1983)."""
    wa, na, xa, qa = a
    wb, nb, xb, qb = b
    w = wa + wb
    share = wb / w
    d = xb - xa
    return w, na + (nb - na) * share, xa + d * share, qa + qb + d * d * wa * share


def _pool(spec: _Spectrum, betas: list[float], levels: list, heads: list) -> list:
    """Each row's blocks, (sum w, mean n, mean x, sum w (x - mean x)^2) of a segment
    (row, size, ..) weighted w = e^-x, pooled in order, in chunks of at most _BLOCK
    elements or one longer segment: levels (row, size, start .. start + size - 1),
    or a head (row, size, ends), Gregory's sum over levels 1 .. J (_head)."""
    import numpy as np

    chunks, pooled = [], [None] * len(betas)
    for head, segments in ((False, levels), (True, heads)):
        size = _BLOCK
        for seg in segments:
            if size + seg[1] > _BLOCK:
                chunks.append((head, []))
                size = 0
            chunks[-1][1].append(seg)
            size += seg[1]
    for head, chunk in chunks:
        rows, size, start = zip(*chunk)
        spread, sums, n = _segments(size, (0,) * len(size) if head else start)
        if head:
            n, x, w = _head(spec, betas, chunk)
        else:
            x = spread([betas[r] for r in rows]) * (spec.energy(n) - spec.shift)
            w = np.exp(-x)
        total = sums(w)
        p = w / spread(total)  # nan in the all-zero segments, which are dropped below
        mean_x = sums(p * x)
        d = x - spread(mean_x)
        for r, t, mn, mx, m in zip(rows, total, sums(p * n), mean_x, sums(w * d * d)):
            block = (t, mn, mx, m) if t else (0.0, 0.0, 0.0, 0.0)
            pooled[r] = block if pooled[r] is None else _merge(pooled[r], block)
    return pooled


def _grid(b: float, e_m: float, spec: _Spectrum) -> tuple[float, int]:
    """u_0 and the node count of the trapezoid rule in ln u on u_0, u_0 + _LN_U_STEP, ..
    for the tail from energy e_m: [min(rho, 1) e^-42, 45 - ln min(rho, 1)], rho =
    beta |E_m + i/scale|, where dn/du has its branch points (|Im ln u| >= pi/2)."""
    ln_rho = math.log(min(b * math.hypot(e_m, 1.0 / spec.scale), 1.0))
    u_0 = math.floor(ln_rho) - 42.0
    return u_0, math.ceil((math.log(45.0 - ln_rho) - u_0) / _LN_U_STEP)


def _head(spec: _Spectrum, betas: list[float], chunk: list):
    """(n, x, w) of each head's nodes, for each end (m, u_0, nodes, arg_error), m = 1
    or J: +-e^-x_m times the integral of e^-u dn/du over u = beta (E - E_m) > 0
    (_grid), then Gregory's weights on levels m, m +- 1, .., m +- 6.  E_J takes back
    the rounding of |lam| (J + shift), which would move the integral's end."""
    import numpy as np

    g = len(_GREGORY)
    ends = [(betas[r], *end) for r, _, ends in chunk for end in ends]
    b, m, u_0, _, arg_error = np.array(ends).T
    sign = np.sign(1.5 - m)
    n_g = m[:, None] + sign[:, None] * np.arange(float(g))
    e_g = spec.energy(n_g)
    x_g = b[:, None] * (e_g - spec.shift)
    e_m = e_g[:, 0]
    if len(ends) > len(chunk):  # a tail from J: dE/d(a (n + shift)) = |E + i/scale|
        e_m = e_m + arg_error * np.hypot(e_m, 1.0 / spec.scale)
    spread, _, k = _segments([end[3] for end in ends], (0,) * len(ends))
    u = np.exp(spread(u_0) + k * _LN_U_STEP)
    u_b = u / spread(b)
    n, slope = spec.index(spread(e_m) + u_b)
    x = spread(b * (e_m - spec.shift)) + u
    trapezoid = (n, x, spread(sign * _LN_U_STEP) * u_b * slope * np.exp(-x))
    gregory = (n_g, x_g, np.array(_GREGORY) * np.exp(-x_g))
    if len(chunk) == 1:  # a single temperature's call
        return [np.concatenate((t, e.ravel())) for t, e in zip(trapezoid, gregory)]
    cut_t = [0, *accumulate(sum(end[2] for end in ends) for *_, ends in chunk)]
    cut_g = [0, *accumulate(len(ends) for *_, ends in chunk)]
    return [np.concatenate([v for i in range(len(chunk))
                            for v in (t[cut_t[i]:cut_t[i + 1]], e[cut_g[i]:cut_g[i + 1]].ravel())])
            for t, e in zip(trapezoid, gregory)]


def _check_cost(points: int, summed: int) -> None:
    if not (cost := points * _POINT_COST + summed * _LEVEL_COST) <= WORK_BUDGET:
        terms = f" and {summed} terms to sum" if summed else ""
        raise ParameterError(f"{points} temperatures{terms} cost {cost:.6g} work units, past "
                             f"the limit of {WORK_BUDGET}")


def _moments(betas: list[float], lam: float, convention: str) -> list[_Moments]:
    """ln Z, <n> and C = beta^2 Var E at each beta of a grid, in one pass.

    With x_n = beta (E_n - E_0), the levels from N on weigh at most e^-x_N/(1 - e^-beta).
    So levels 0, 1 and every level with x_n < K + min(x_1, K), K = ln(1e18) - ln(1 -
    e^-beta), leave out less than 1e-18 of w_1 = e^-x_1, which carries <n> and C when
    cold; the last, the cutoff, is E_n inverted in closed form.  lam = 0 has closed
    forms.  A head 1 .. J takes Gregory's rule (_head), where it has fewer nodes than
    levels, and the rest are summed one by one, in Chan-Golub-LeVeque-pooled blocks.
    With s = x'(n), x^(k) <= |lam|^(k-1) s, so the 7th derivative of g = x^j e^-x
    (j <= 2), left to the rule's next coefficient 0.0094, is at most ~42 * 877 s m^6 g
    (877 partitions of 7), m = max(s, |lam|).  J, in closed form, is the last level
    with s m^6 <= _EM_SLOPE^7: an end errs by <= 3.5e-12 w_J against a head of over
    367 such weights, 1e-14 relative (1e-16 measured).  Where 7 |lam| <= _EM_SLOPE,
    s <= _EM_SLOPE (1 + x/7) and (1 + x/7)^7 <= e^x keep s m^6 w below that bound at
    every level, so J is the cutoff, and a head there runs to infinity, where w <
    1e-18 w_1.  The grid is planned and priced (_check_cost) before any sum; each row
    is bit for bit its own grid's.
    """
    import numpy as np

    a = _check_lam(lam)
    if a == 0.0:
        return [_Moments(-math.log(-math.expm1(-b)) - (0.5 * b if convention == "sym" else 0.0),
                         bose_einstein(b), (b * math.exp(-0.5 * b) / -math.expm1(-b)) ** 2,
                         0, 0, "closed") for b in betas]
    spec = _spectrum(a, convention)
    g = len(_GREGORY)
    # s m^6 <= _EM_SLOPE^7 is beta a cosh(a (n + shift))/scale <= _EM_SLOPE min(1, _EM_SLOPE/a)^6
    ln_y = (7.0 * math.log(_EM_SLOPE) - 6.0 * math.log(max(a, _EM_SLOPE))
            + _log_sinh(a) - _log_cosh(spec.shift * a) - math.log(a))
    # e^-x is 0 where x overflows, and 0/0 marks a block whose weights all underflow
    with np.errstate(all="ignore"):
        e_1 = float(spec.energy(np.float64(1.0)))
        cuts = [spec.shift + (k + min(b * (e_1 - spec.shift), k)) / b  # E at x = K + min(x_1, K)
                for b in betas for k in [_TAIL_LOG - math.log(-math.expm1(-b))]]
        one = len(cuts) == 1  # a 0-d float64 passes index faster than an array
        cuts = spec.index(np.float64(cuts[0]) if one else np.array(cuts))[0]
        rows, levels, heads = [], [], []
        for r, (b, c) in enumerate(zip(betas, [float(cuts)] if one else cuts.tolist())):
            n_end = max(2, math.ceil(c))
            y = max(ln_y - math.log(b), 0.0)  # acosh e^y = y + ln(1 + sqrt(1 - e^-2y))
            join = int(min((y + math.log1p(math.sqrt(-math.expm1(-2.0 * y)))) / a - spec.shift,
                           n_end - 1))
            if join and 7.0 * a <= _EM_SLOPE:  # then the bound holds at every level
                join = n_end - 1
            size = 0
            if join > 42.0 / _LN_U_STEP:  # a head has more nodes than that
                ends = [(1, *_grid(b, e_1, spec), 0.0)]
                if ends[0][2] + g < join < n_end - 1:  # a tail from J, subtracted, E_J's sinh
                    arg = Fraction(a) * Fraction(join + spec.shift)  # argument exact
                    ends.append((join, *_grid(b, float(spec.energy(np.float64(join))), spec),
                                 float(arg - Fraction(a * (join + spec.shift)))))
                size = sum(nodes + g for _, _, nodes, _ in ends)
            if join > size > 0:  # a head only where it sums fewer terms
                heads.append((r, size, ends))
            else:
                join = size = 0
            levels += [(r, min(_BLOCK, n_end - s), s) for s in range(join + 1, n_end, _BLOCK)]
            rows.append((n_end - 1, n_end - join + size, "direct+em" if size else "direct"))
        _check_cost(len(betas), sum([row[1] for row in rows]))
        pooled = _pool(spec, betas, levels, heads)
    return [_Moments(math.log1p(ex[0]) - b * spec.shift, m[1], m[3] / m[0], *row)
            for b, row, ex in zip(betas, rows, pooled) for m in [_merge((1.0, 0.0, 0.0, 0.0), ex)]]


def energy_levels(n_max: int, lam: float, convention: str = "sym") -> list[float]:
    """E_0..E_n_max for the chosen spectrum convention, at every finite lam.
    A SaturationError where a level, not its sinh, overflows the double
    range names the last index whose level is finite."""
    import numpy as np

    _check_convention(convention)
    a = _check_lam(lam)
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    with np.errstate(all="ignore"):  # sinh overflows where energy() patches it (0/0 at lam = 0)
        levels = _spectrum(a, convention).energy(np.arange(n_max + 1.0))
    if not levels[-1] < math.inf:  # the levels increase with n
        safe = int(np.argmax(levels == math.inf)) - 1
        raise SaturationError(f"energy levels past n = {safe} overflow the double range",
                              largest_safe_n=safe)
    return levels.tolist()


def _check_temperature(t: float) -> float:
    if not _T_MIN <= t <= _T_MAX:  # rejects nan too
        raise ParameterError(f"temperature must lie in [{_T_MIN:g}, {_T_MAX:g}], "
                             f"got {t!r}")
    return t


def _read(t: float, lam: float, convention: str) -> _Moments:
    _check_convention(convention)
    return _moments([1.0 / _check_temperature(t)], lam, convention)[0]


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


class ThermoTable(NamedTuple):
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
    _check_cost(len(temps), 0)  # before any work per temperature
    rows = _moments([1.0 / _check_temperature(t) for t in temps], lam, convention)
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


class PlanckCheckReport(NamedTuple):
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


def _raw_coefficients(xs: tuple[float, ...], lam: float, convention: str) -> list[float]:
    rows = _moments([1.0 / _check_temperature(1.0 / x) for x in xs], lam, convention)  # one grid
    return [(m.mean_n - bose_einstein(x)) / (lam * lam) for x, m in zip(xs, rows)]


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
    if len(set(grid)) < len(grid) or len(grid) < 2 or grid[-1] <= 0 or grid[0] > 0.1:
        raise ParameterError("lam grid must contain >= 2 distinct values in (0, 0.1]")

    printed = planck_correction_coefficient(x)  # ParameterError unless x > 0
    if printed == 0.0:
        raise ParameterError(f"x = {x!r}: the printed coefficient underflows to 0")
    raw = [_raw_coefficients((x,), lam, convention)[0] for lam in grid]
    extrapolated = [((l1 / l2) ** 2 * k2 - k1) / ((l1 / l2) ** 2 - 1.0)
                    for (l1, k1), (l2, k2) in zip(zip(grid, raw), zip(grid[1:], raw[1:]))]
    limit = extrapolated[-1] if extrapolated else raw[-1]

    # identify the x-independent convention on a fixed probe set: two
    # Richardson levels remove the lam^2 and lam^4 error of the raw ratio
    probe = (0.5, 1.0, 2.0)  # 1/(1/x) = x: one grid a lam, rows bit for bit single temperatures
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
    # the match is a simple rational constant, not a fitted parameter:
    # snap to the nearest half-integer when the estimate is that close,
    # so the residual below is a clean lam^4 remainder
    snapped = round(2.0 * matched_scale) / 2.0
    if abs(matched_scale - snapped) < 1e-4:
        matched_scale = snapped

    resid = [mean_occupation(1.0 / x, lam, matched) - bose_einstein(x)
             - lam * lam * matched_scale * printed for lam in grid]
    residual_ratios = [r1 / r2 if r2 != 0 else math.inf for r1, r2 in zip(resid, resid[1:])]

    return PlanckCheckReport(x, convention, grid, raw, extrapolated,
                             limit, printed, limit / printed,
                             matched, matched_scale, residual_ratios)


def blue_shift(n: float, lam: float) -> tuple[float, float]:
    """Relative frequency shift of a vibrating mode holding n quanta.

    exact = [omega_q(n) - omega_q(0)]/omega_q(0) = cosh(lam n) - 1;
    approx = lam^2 n^2 / 2.  The pair quantifies where the quadratic law
    stops being trustworthy (lam*n approaching 1).  exact overflows past
    |lam| n = 710.48, a SaturationError naming the last integer n before.
    """
    if not 0 <= n < math.inf:
        raise ParameterError(f"n must be finite and >= 0, got {n!r}")
    s = math.sinh(0.5 * lam * n) if abs(lam * n) <= 2.0 * _SINH_MAX_ARG else math.inf
    exact = 2.0 * s ** 2 if abs(s) <= 1e154 else math.inf  # cosh(lam n) - 1 without cancellation
    if exact == math.inf:  # past |s| = 1e154, where s ** 2 may raise, 2 s^2 overflows
        raise SaturationError(f"cosh(lam n) - 1 overflows past lam n = {_BLUE_MAX_ARG:.6g}",
                              largest_safe_n=math.floor(_BLUE_MAX_ARG / abs(lam)))
    return exact, 0.5 * (lam * n) ** 2
