"""Classical deformed oscillator.

Deformed amplitude transformation, deformed Poisson bracket verification,
amplitude-dependent frequency, exact closed-form solutions, the implicit
momentum-velocity relation, and RK4 as one rotation for cross-validation.

Units: omega = m = 1; alpha = (q + ip)/sqrt(2), so |alpha|^2 = (q^2+p^2)/2.

numpy is imported only by the functions that build arrays (exact_alpha and
the RK4 integrator), so the scalar maps, the bracket and the implicit
momentum run without it.  The closed-form q(t) from (q0, qdot0) is
sqrt(2) Re exact_alpha((q0 + i p0)/sqrt 2, lam, t) with
p0 = momentum_from_velocity(q0, qdot0, lam).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .deformation import (_LN2, _SINH_MAX_ARG, _log_cosh, _log_sinh, _omega, _omega_limit,
                          _q_f, _sech, lambda_over_sinh, q_number)
from .errors import _BLOCK, WORK_BUDGET, ParameterError, SaturationError, SolverError

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)


class ClassicalState(NamedTuple):
    q: float
    p: float
    lam: float

    @property
    def alpha(self) -> complex:
        return complex(self.q, self.p) / math.sqrt(2.0)

    @property
    def intensity(self) -> float:
        return 0.5 * (self.q * self.q + self.p * self.p)


def deform_amplitude(alpha: complex, lam: float) -> complex:
    """alpha_q = f(I) alpha, I = |alpha|^2, f = sqrt(sinh(lam I)/(I sinh lam))
    as f_of_n takes it; 0 at alpha = 0.  A SaturationError where omega_q gives one."""
    intensity = _intensity(alpha)
    if intensity == 0.0:
        return 0j
    _check_saturation(intensity, lam, 1.0)
    return _q_f(intensity, lam) * alpha


def omega_q(intensity: float, lam: float) -> float:
    """Orbit-dependent frequency (lam/sinh lam) cosh(lam * intensity); 1 at lam = 0.
    A SaturationError, naming the largest safe intensity, where the value overflows."""
    if intensity < 0:
        raise ParameterError("intensity must be >= 0")
    return _check_saturation(intensity, lam, 1.0)


def _check_saturation(intensity: float, lam: float, margin: float) -> float:
    """omega_q(margin * intensity), or a SaturationError naming the largest safe
    intensity where it overflows; an infinite intensity at lam = 0 too."""
    if not math.isfinite(lam):
        raise ParameterError(f"lambda must be finite, got {lam!r}")
    omega = _omega(lam * (margin * intensity), lam)
    if not omega < math.inf:
        safe = _omega_limit(lam, margin)
        raise SaturationError(f"intensity {intensity!r} at lambda = {lam!r} is past "
                              f"the largest safe intensity {safe!r}", largest_safe_n=safe)
    return omega


def _intensity(alpha: complex) -> float:
    """|alpha|^2 as a float product, inf where it overflows: ** would raise
    an OverflowError there."""
    a = abs(alpha)
    return a * a


def poisson_bracket_check(alpha: complex, lam: float, h: float = 1e-4) -> float:
    """Finite-difference {alpha_q, alpha_q*} against the closed form.

    The bracket d/dq(a_q) d/dp(a_q*) - d/dp(a_q) d/dq(a_q*) is evaluated by
    central differences with step h and compared with
    -i (lam/sinh lam) sqrt(1 + |alpha_q|^4 sinh^2 lam), taken as
    _bracket_frequency's hypot; returns the absolute deviation.
    """
    if not 1e-6 <= h <= 1e-3:
        raise ParameterError("finite-difference step must lie in [1e-6, 1e-3]")
    q0, p0 = _SQRT2 * alpha.real, _SQRT2 * alpha.imag

    def a_q(q: float, p: float) -> complex:
        return deform_amplitude(complex(q, p) / math.sqrt(2.0), lam)

    da_dq = (a_q(q0 + h, p0) - a_q(q0 - h, p0)) / (2.0 * h)
    da_dp = (a_q(q0, p0 + h) - a_q(q0, p0 - h)) / (2.0 * h)
    bracket = da_dq * da_dp.conjugate() - da_dp * da_dq.conjugate()
    target = -1j * _bracket_frequency(lam, _intensity(deform_amplitude(alpha, lam)))
    return abs(bracket - target)


def _bracket_frequency(lam: float, aq2: float) -> float:
    """(lam/sinh lam) sqrt(1 + aq2^2 sinh^2 lam), aq2 = |alpha_q|^2, written
    as hypot(lam/sinh lam, aq2 lam), since (lam/sinh lam) sinh lam = lam: no
    sinh or square to overflow, for every lam and aq2.
    """
    return math.hypot(lambda_over_sinh(lam), aq2 * lam)


def exact_alpha(alpha0: complex, lam: float, t) -> complex | np.ndarray:
    """Closed-form orbit alpha(t) = alpha0 exp(-i t omega_q(|alpha0|^2)).

    ``t`` may be a scalar or an array.
    """
    import numpy as np

    omega = omega_q(_intensity(alpha0), lam)
    t = np.asarray(t, dtype=float)
    _check_phase(max(-float(t.min(initial=0.0)), float(t.max(initial=0.0))), omega)
    e = np.exp(-1j * t * omega)
    out = alpha0 * e  # named, so that numpy never takes e in place as e * alpha0 (elision)
    return complex(out) if out.ndim == 0 else out


def exact_alpha_deformed(alpha_q0: complex, lam: float, t: float) -> complex:
    """Closed-form orbit of the deformed variable under the deformed bracket.

    Frequency (lam/sinh lam) sqrt(1 + |alpha_q0|^4 sinh^2 lam); consistent
    with exact_alpha through the amplitude map (sqrt(1+sinh^2) = cosh).
    """
    freq = _bracket_frequency(lam, _intensity(alpha_q0))
    _check_phase(abs(t), freq)
    return alpha_q0 * cmath.exp(-1j * t * freq)


def _check_phase(t_max: float, omega: float) -> None:
    if not t_max * omega < math.inf:
        raise ParameterError(f"t = {t_max!r} takes the orbit phase past the double range")


# Bisection alone closes any bracket of doubles in fewer steps than this.
_MAX_BISECTIONS = 2200
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
_LN_SMALLEST = math.log(5e-324)  # below this exponent a double is 0


def _newton_bisect(fdf, lo: float, hi: float) -> float:
    """Root of f in [lo, hi], where fdf(x) returns (f(x), f'(x)).

    Safeguarded Newton in the manner of Brent (1973): f(lo) and f(hi) must
    differ in sign, every Newton step must land strictly inside the
    shrinking sign-change bracket and at most halve the step before last,
    and any other step (an inf or NaN one included) bisects.  A root at an
    endpoint is returned as is, and so is a bracket that is one point (the
    callers' brackets are proven, so the root is there to rounding).  Stops
    once a step is within 4 eps |x|.
    """
    if lo == hi:
        return lo
    f_lo, f_hi = fdf(lo)[0], fdf(hi)[0]
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if not (lo <= hi and (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo)):
        raise SolverError(f"root not bracketed in [{lo}, {hi}]",
                          residual=min(abs(f_lo), abs(f_hi)))
    lo_negative = f_lo < 0.0
    x = 0.5 * (lo + hi)
    step = before = hi - lo
    for _ in range(_MAX_BISECTIONS):
        f, df = fdf(x)
        if f == 0.0:
            return x
        if (f < 0.0) == lo_negative:
            lo = x
        else:
            hi = x
        newton = f / df if 0.0 < abs(df) < math.inf else math.inf
        if abs(newton) <= _ROOT_RTOL * abs(x):
            return x - newton
        x_new = x - newton
        if not lo < x_new < hi or abs(2.0 * newton) > abs(before):
            x_new = 0.5 * (lo + hi)
            if hi - lo <= 2.0 * _ROOT_RTOL * abs(x_new) or x_new in (lo, hi):
                return x_new
        before, step = step, x - x_new
        x = x_new
    raise SolverError("root finder did not converge", residual=f)


def momentum_from_velocity(q: float, qdot: float, lam: float) -> float:
    """Solve p = (sinh lam / lam) qdot / cosh((lam/2)(q^2 + p^2)) for p.

    With c = (sinh lam / lam)|qdot| the root p of the residual
    p - c sech((lam/2)(q^2 + p^2)) takes the sign of qdot.  It lies in
    [0, c sech(lam q^2/2)], and since p e^{|lam| p^2/2} <= 2c it also lies
    below max(2, sqrt(2 ln(2c)/|lam|)), which keeps the bracket short for a
    huge qdot.  The residual rises with slope >= 1 and cannot overflow; an
    underflowing root comes back as 0.  Past |lam| = _SINH_MAX_ARG, where c
    overflows although p need not, the root is found in logs
    (_momentum_in_logs).
    """
    if lam == 0 or qdot == 0.0:
        return float(qdot)
    if abs(lam) > _SINH_MAX_ARG:
        if not (math.isfinite(qdot) and abs(lam) <= 8e307):  # 2 ln c overflows past 9e307
            raise ParameterError(f"need a finite velocity and |lambda| <= 8e+307, "
                                 f"got {qdot}, {lam}")
        return math.copysign(_momentum_in_logs(q, abs(qdot), abs(lam)), qdot)
    c = abs(qdot) / lambda_over_sinh(lam)
    if not math.isfinite(c):
        raise ParameterError(f"velocity {qdot} too large for lambda = {lam}")
    q2 = q * q

    def fdf(p: float) -> tuple[float, float]:
        a = 0.5 * lam * (q2 + p * p)
        cs = c * _sech(a)
        return p - cs, 1.0 + cs * math.tanh(a) * lam * p

    hi = min(c * _sech(0.5 * lam * q2),
             max(2.0, math.sqrt(2.0 * math.log(max(2.0 * c, 1.0)) / abs(lam))))
    return math.copysign(_newton_bisect(fdf, 0.0, hi), qdot)


def _momentum_in_logs(q: float, v: float, a: float) -> float:
    """The root p >= 0 of p cosh((a/2)(q^2 + p^2)) = c, c = (sinh a / a) v,
    as u = ln p: u + ln cosh((a/2)(q^2 + e^{2u})) - ln c rises with slope
    >= 1.

    With y = a p^2, x = a0 + y/2, a0 = a q^2/2 and z = 2(ln c - a0) + ln a,
    ln cosh x = x - ln 2 + ln(1 + e^{-2x}) turns the root into
    y + ln y = z + 2 ln 2 - 2 ln(1 + e^{-2x}), within [z, z + 2 ln 2].  So
    y >= omega(z) (_wright_omega), x >= x_lo = a0 + omega(z)/2, and y lies in
    [omega(z_lo), omega(z + 2 ln 2)], z_lo = z + 2 ln 2 - 2 ln(1 + e^{-2 x_lo}):
    widened by 1e-9 against rounding, a bracket closed in a few steps
    however large a is.  Where z <= 1 (or overflows) the bracket is
    momentum_from_velocity's [p_lo, p_hi] in logs, with
    p_lo = c sech((a/2)(q^2 + p_hi^2)) <= p, since p <= p_hi.
    """
    ln_a = math.log(a)
    ln_c = math.log(v) + _log_sinh(a) - ln_a
    a0 = 0.5 * a * q * q

    def gdg(u: float) -> tuple[float, float]:
        p2 = math.exp(2.0 * u)
        arg = a0 + 0.5 * a * p2
        return u + _log_cosh(arg) - ln_c, 1.0 + a * p2 * math.tanh(arg)

    z = 2.0 * (ln_c - a0) + ln_a
    if 1.0 < z < math.inf:
        z_hi = z + 2.0 * _LN2
        z_lo = z_hi - 2.0 * math.log1p(math.exp(-2.0 * a0 - _wright_omega(z)))
        u_lo = 0.5 * (math.log(_wright_omega(z_lo) * (1.0 - 1e-9)) - ln_a)
        u_hi = 0.5 * (math.log(_wright_omega(z_hi) * (1.0 + 1e-9)) - ln_a)
    else:
        p_hi = max(2.0, math.sqrt(max(ln_c + _LN2, 0.0) / a * 2.0))  # 2 ln_c may overflow
        u_hi = min(ln_c - _log_cosh(a0), math.log(p_hi))
        if u_hi < _LN_SMALLEST:
            return 0.0  # the root underflows
        u_lo = ln_c - _log_cosh(a0 + 0.5 * a * math.exp(2.0 * u_hi))
    return math.exp(_newton_bisect(gdg, u_lo, u_hi))


def _wright_omega(z: float) -> float:
    """The root w of w + ln w = z for z >= 1 (Corless et al., "On the
    Lambert W function", 1996): four Newton steps from z - ln z."""
    w = z - math.log(z)
    for _ in range(4):
        w -= (w + math.log(w) - z) / (1.0 + 1.0 / w)
    return w


def approx_momentum(q: float, qdot: float, lam: float) -> float:
    """Small-lam expansion qdot [1 + lam^2/6 - (lam^2/8)(q^2 + qdot^2)]."""
    l2 = lam * lam
    return qdot * (1.0 + l2 / 6.0 - 0.125 * l2 * (q * q + qdot * qdot))


class Trajectory(NamedTuple):
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    alpha_sq_drift: float
    hq_drift: float
    max_exact_dev: float


def _step_count(t_end: float, dt: float, method: str) -> int:
    """max(1, round(|t_end / dt|)) for dt > 0, or a ParameterError naming
    WORK_BUDGET where that passes it or is not finite."""
    steps = abs(t_end / dt)
    if not steps <= WORK_BUDGET:
        raise ParameterError(f"t_end / dt = {steps:.6g} {method} steps is past the "
                             f"limit of {WORK_BUDGET}")
    return max(1, round(steps))


def _step_grid(t_end: float, dt: float) -> tuple[np.ndarray, float, int]:
    """(t, dt, n_steps): the RK4 time grid, dt snapped to land on t_end,
    stepping backward to a negative t_end, in at most WORK_BUDGET steps."""
    import numpy as np

    if dt <= 0:
        raise ParameterError("dt must be positive")
    n_steps = _step_count(t_end, dt, "RK4")
    dt = t_end / n_steps
    return np.arange(n_steps + 1.0) * dt, dt, n_steps  # float: one array, scaled in place


def _rk4(q: float, p: float, lam: float, dt: float, n_steps: int,
         out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """RK4 of qdot = w p, pdot = -w q, w = omega_q((q^2+p^2)/2), projected
    onto the conserved intensity, so that its n_steps steps are one rotation:
    its n_steps + 1 points q and p, written to ``out`` where one is given.

    The one integrator of the flow z' = -i omega_q(|z|^2/2) z, z = q + ip,
    shared with ``level``.  The flow keeps I = |z|^2/2 and commutes with
    phase rotations, so a step is z -> G z at the stage points z s_k:
    s1 = 1, s2 = 1 - i h1/2, s3 = 1 - i h2 s2/2, s4 = 1 - i h3 s3,
    h_k = dt omega_q(I |s_k|^2), and G = 1 - (i/6)(h1 + 2 h2 s2 + 2 h3 s3
    + h4 s4), expanded in reals (z_1/z would lose four digits of arg G at
    dt = 1e-4).  Projected onto I (Hairer, Lubich & Wanner, Geometric
    Numerical Integration, IV.4), step k turns z by k arg G, in blocks of
    _BLOCK steps, so that no temporary is longer than a block.

    I is checked once, up front: with w frozen, a step with dt w <= 1 takes
    the stages to at most 1.25 I; the check leaves a margin of 2.  A step
    too long for the orbit is a SolverError where a stage omega_q overflows or
    |G|^{2 n_steps} > 2, the plain steps taking I past 2 I (zero stays zero).
    """
    import numpy as np

    intensity = 0.5 * (q * q + p * p)
    _check_saturation(intensity, lam, 2.0)
    lam_i = lam * intensity

    def h(s2: float) -> float:  # dt omega_q at z s, |s|^2 = s2
        return dt * _omega(lam_i * s2, lam)

    h1 = h(1.0)
    h2 = h(1.0 + 0.25 * h1 * h1)
    a3 = 1.0 - 0.25 * h1 * h2  # s_3 = a3 - i h2/2, s_4 = a4 - i h3 a3
    h3 = h(a3 * a3 + 0.25 * h2 * h2)
    a4, b4 = 1.0 - 0.5 * h2 * h3, h3 * a3
    h4 = h(a4 * a4 + b4 * b4)
    re_g = 1.0 - (h1 * h2 + h2 * h3 + h3 * h4) / 6.0 + h1 * h2 * h3 * h4 / 24.0
    im_g = -(h1 + 2.0 * (h2 + h3) + h4) / 6.0 + (h1 * h2 * h3 + h2 * h3 * h4) / 12.0
    g2 = re_g * re_g + im_g * im_g
    if not (g2 <= 2.0 ** (1.0 / n_steps) or intensity == 0.0 and g2 < math.inf):
        raise SolverError(f"RK4 diverged: dt * omega_q = {dt * omega_q(intensity, lam):.3g} "
                          "is too long a step for this orbit", residual=None)
    angle = math.atan2(-im_g, re_g)
    q_arr, p_arr = out or (np.empty(n_steps + 1), np.empty(n_steps + 1))
    for start in range(0, n_steps + 1, _BLOCK):
        b = slice(start, start + _BLOCK)
        phase = np.arange(start, min(start + _BLOCK, n_steps + 1), dtype=float)
        cos, sin = np.cos(np.multiply(phase, angle, out=phase)), np.sin(phase, out=phase)
        np.add(np.multiply(q, cos, out=q_arr[b]), p * sin, out=q_arr[b])
        np.subtract(np.multiply(p, cos, out=cos), np.multiply(q, sin, out=sin), out=p_arr[b])
    return q_arr, p_arr


def integrate_eom(state0: ClassicalState, t_end: float, dt: float = 1e-3) -> Trajectory:
    """Fixed-step RK4 trajectory of qdot = omega_q p, pdot = -omega_q q.

    omega_q is taken at the stage points, the steps projected onto the
    conserved |alpha|^2 (_rk4).  Reports the max drift of |alpha|^2 and of
    the deformed Hamiltonian, plus the max deviation from the closed-form q(t),
    in blocks of _BLOCK steps: only t, q and p span the run, 24 MB at WORK_BUDGET.
    """
    import numpy as np

    lam, alpha0 = state0.lam, state0.alpha
    t_arr, dt, n_steps = _step_grid(t_end, dt)
    q_arr, p_arr = _rk4(float(state0.q), float(state0.p), lam, dt, n_steps)
    peaks = np.zeros(3)  # the drifts of |alpha|^2 and H_q, the deviation from q(t)
    for start in range(0, n_steps + 1, _BLOCK):
        b = slice(start, start + _BLOCK)
        intensity = 0.5 * (q_arr[b] * q_arr[b] + p_arr[b] * p_arr[b])
        hq = q_number(intensity, lam)  # the conserved H_q = sinh(lam I)/sinh(lam)
        if not start:
            i0, hq0 = intensity[0], hq[0]
        q_exact = _SQRT2 * exact_alpha(alpha0, lam, t_arr[b]).real
        np.maximum(peaks, [np.max(np.abs(intensity - i0)), np.max(np.abs(hq - hq0)),
                           np.max(np.abs(q_arr[b] - q_exact))], out=peaks)
    return Trajectory(t_arr, q_arr, p_arr, *peaks.tolist())
