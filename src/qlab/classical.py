"""Classical deformed oscillator.

Deformed amplitude transformation, deformed Poisson bracket verification,
amplitude-dependent frequency, exact closed-form solutions, the implicit
momentum-velocity relation, and RK4 integration for cross-validation.

Units: omega = m = 1; alpha = (q + ip)/sqrt(2), so |alpha|^2 = (q^2+p^2)/2.

numpy is imported only by the functions that build arrays (exact_alpha,
exact_q, the RK4 integrator), so the scalar maps, the bracket and the
implicit momentum run without it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .deformation import (_LN2, _SINH_MAX_ARG, _log_cosh, _log_sinh, _sech,
                          lambda_over_sinh, q_number)
from .errors import WORK_BUDGET, ParameterError, SaturationError, SolverError

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ClassicalState:
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
    """alpha_q = sqrt(sinh(lam |alpha|^2)/(|alpha|^2 sinh lam)) * alpha.

    The scale factor is sqrt(I_q / I) with I = |alpha|^2 continued to real
    argument; alpha = 0 maps to 0 (continuous limit).  Raises
    SaturationError, as omega_q does, where |lam| I passes 709 and I_q
    overflows.  Past |lam| = _SINH_MAX_ARG, where I_q/I underflows long
    before its square root does, the scale is taken as
    e^{(x - |lam|)/2} sqrt(|lam| (1 - e^{-2x})/x), x = |lam| I.
    """
    intensity = _intensity(alpha)
    if intensity == 0.0:
        return 0j
    _check_saturation(intensity, lam, 1.0)
    a = abs(lam)
    if a > _SINH_MAX_ARG:
        x = a * intensity
        return (math.exp(0.5 * (x - a)) * math.sqrt(a * (-math.expm1(-2.0 * x) / x))
                * alpha)
    return math.sqrt(q_number(intensity, lam) / intensity) * alpha


def omega_q(intensity: float, lam: float) -> float:
    """Orbit-dependent frequency (lam/sinh lam) cosh(lam * intensity); 1 at lam = 0.

    Raises SaturationError, with the largest safe intensity, where
    |lam| * intensity would overflow cosh.
    """
    if intensity < 0:
        raise ParameterError("intensity must be >= 0")
    _check_saturation(intensity, lam, 1.0)
    return lambda_over_sinh(lam) * math.cosh(lam * intensity)


def _check_saturation(intensity: float, lam: float, margin: float) -> None:
    """SaturationError unless margin * |lam| * intensity <= _SINH_MAX_ARG, past
    which cosh(lam * intensity) overflows; an infinite intensity at lam = 0 too."""
    scale = margin * abs(lam)
    if not scale * intensity <= _SINH_MAX_ARG:
        safe = _SINH_MAX_ARG / scale if scale else math.inf  # lam = 0: the double range
        safe = int(safe) if safe < sys.float_info.max else sys.float_info.max
        raise SaturationError(f"intensity {intensity!r} at lambda = {lam!r} is past "
                              f"the largest safe intensity {safe:.6g}", largest_safe_n=safe)


def _intensity(alpha: complex) -> float:
    """|alpha|^2, and inf where it overflows rather than an OverflowError."""
    try:
        return abs(alpha) ** 2
    except OverflowError:
        return math.inf


def hamiltonian_q(intensity: float, lam: float) -> float:
    """Conserved deformed Hamiltonian sinh(lam |alpha|^2)/sinh(lam)."""
    return q_number(intensity, lam)


def poisson_bracket_check(alpha: complex, lam: float, h: float = 1e-4) -> float:
    """Finite-difference {alpha_q, alpha_q*} against the closed form.

    The bracket d/dq(a_q) d/dp(a_q*) - d/dp(a_q) d/dq(a_q*) is evaluated by
    central differences with step h and compared with
    -i (lam/sinh lam) sqrt(1 + |alpha_q|^4 sinh^2 lam) (_bracket_frequency);
    returns the absolute deviation.
    """
    if not 1e-6 <= h <= 1e-3:
        raise ParameterError("finite-difference step must lie in [1e-6, 1e-3]")
    q0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag

    def a_q(q: float, p: float) -> complex:
        return deform_amplitude(complex(q, p) / math.sqrt(2.0), lam)

    da_dq = (a_q(q0 + h, p0) - a_q(q0 - h, p0)) / (2.0 * h)
    da_dp = (a_q(q0, p0 + h) - a_q(q0, p0 - h)) / (2.0 * h)
    bracket = da_dq * da_dp.conjugate() - da_dp * da_dq.conjugate()
    aq = abs(deform_amplitude(alpha, lam))
    aq4 = aq ** 4 if aq < 1e77 else math.inf  # past 1e77, ** raises OverflowError
    target = -1j * _bracket_frequency(lam, aq * aq, aq4)
    return abs(bracket - target)


def _bracket_frequency(lam: float, aq2: float, aq4: float) -> float:
    """(lam/sinh lam) sqrt(1 + aq4 sinh^2 lam) with aq4 = aq2^2 = |alpha_q|^4.

    Where sinh lam or the term under the root overflows (|lam| I past about
    355 already), it is the same value written as hypot(lam/sinh lam,
    aq2 lam).
    """
    if abs(lam) <= _SINH_MAX_ARG:
        sh = math.sinh(lam)
        under = 1.0 + aq4 * sh * sh
        if under < math.inf:
            return lambda_over_sinh(lam) * math.sqrt(under)
    return math.hypot(lambda_over_sinh(lam), aq2 * lam)


def exact_alpha(alpha0: complex, lam: float, t) -> complex | np.ndarray:
    """Closed-form orbit alpha(t) = alpha0 exp(-i t omega_q(|alpha0|^2)).

    ``t`` may be a scalar or an array.
    """
    import numpy as np

    omega = omega_q(_intensity(alpha0), lam)
    t = np.asarray(t, dtype=float)
    _check_phase(float(np.max(np.abs(t), initial=0.0)), omega)
    out = alpha0 * np.exp(-1j * t * omega)
    return complex(out) if out.ndim == 0 else out


def exact_alpha_deformed(alpha_q0: complex, lam: float, t: float) -> complex:
    """Closed-form orbit of the deformed variable under the deformed bracket.

    Frequency (lam/sinh lam) sqrt(1 + |alpha_q0|^4 sinh^2 lam); consistent
    with exact_alpha through the amplitude map (sqrt(1+sinh^2) = cosh).
    """
    aq2 = abs(alpha_q0) ** 2
    freq = _bracket_frequency(lam, aq2, aq2 * aq2)
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
        if not math.isfinite(qdot):
            raise ParameterError(f"velocity must be finite, got {qdot}")
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
    >= 1.  The bracket is momentum_from_velocity's [p_lo, p_hi] in logs, with
    p_lo = c sech((a/2)(q^2 + p_hi^2)) <= p, since p <= p_hi.
    """
    ln_c = math.log(v) + _log_sinh(a) - math.log(a)
    a0 = 0.5 * a * q * q
    p_hi = max(2.0, math.sqrt(max(ln_c + _LN2, 0.0) / a * 2.0))  # 2 ln_c may overflow
    u_hi = min(ln_c - _log_cosh(a0), math.log(p_hi))
    if u_hi < _LN_SMALLEST:
        return 0.0  # the root underflows

    def gdg(u: float) -> tuple[float, float]:
        p2 = math.exp(2.0 * u)
        arg = a0 + 0.5 * a * p2
        return u + _log_cosh(arg) - ln_c, 1.0 + a * p2 * math.tanh(arg)

    u_lo = ln_c - _log_cosh(a0 + 0.5 * a * math.exp(2.0 * u_hi))
    return math.exp(_newton_bisect(gdg, u_lo, u_hi))


def approx_momentum(q: float, qdot: float, lam: float) -> float:
    """Small-lam expansion qdot [1 + lam^2/6 - (lam^2/8)(q^2 + qdot^2)]."""
    l2 = lam * lam
    return qdot * (1.0 + l2 / 6.0 - 0.125 * l2 * (q * q + qdot * qdot))


def exact_q(q0: float, qdot0: float, lam: float, t) -> float | np.ndarray:
    """Closed-form q(t) = q0 cos(Omega t) + p0 sin(Omega t) from (q0, qdot0).

    p0 comes from the implicit momentum relation, and the orbit is
    sqrt(2) Re exact_alpha((q0 + i p0)/sqrt 2): the resummed form of the
    four-exponential solution.  ``t`` may be a scalar or an array.
    """
    import numpy as np

    p0 = momentum_from_velocity(q0, qdot0, lam)
    out = _SQRT2 * np.real(exact_alpha(complex(q0, p0) / _SQRT2, lam, t))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class Trajectory:
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
    return np.arange(n_steps + 1) * dt, dt, n_steps


def _rk4(q: float, p: float, lam: float, dt: float,
         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of qdot = w p, pdot = -w q, w = omega_q((q^2+p^2)/2).

    The one integrator of the nonlinear flow alpha' = -i omega_q(|alpha|^2)
    alpha, alpha = (q + ip)/sqrt 2, shared by this module and ``level``.
    Scalar floats and math.cosh: for one trajectory this beats numpy.

    The flow conserves the intensity I, so it is checked once, up front.
    With w frozen, a step with dt w <= 1 takes the RK4 stages to at most
    1.25 I; the check leaves a margin of 2.  A step too long for the orbit
    frequency makes RK4 diverge instead, which ends in a SolverError once
    the last intensity is past that margin or not finite.
    """
    import numpy as np

    intensity = 0.5 * (q * q + p * p)
    _check_saturation(intensity, lam, 2.0)
    c1 = lambda_over_sinh(lam)
    q_arr = np.empty(n_steps + 1)
    p_arr = np.empty(n_steps + 1)
    q_arr[0] = q
    p_arr[0] = p
    cosh = math.cosh
    try:
        for i in range(1, n_steps + 1):
            w = c1 * cosh(lam * 0.5 * (q * q + p * p))
            k1q, k1p = w * p, -w * q
            q2, p2 = q + 0.5 * dt * k1q, p + 0.5 * dt * k1p
            w = c1 * cosh(lam * 0.5 * (q2 * q2 + p2 * p2))
            k2q, k2p = w * p2, -w * q2
            q3, p3 = q + 0.5 * dt * k2q, p + 0.5 * dt * k2p
            w = c1 * cosh(lam * 0.5 * (q3 * q3 + p3 * p3))
            k3q, k3p = w * p3, -w * q3
            q4, p4 = q + dt * k3q, p + dt * k3p
            w = c1 * cosh(lam * 0.5 * (q4 * q4 + p4 * p4))
            k4q, k4p = w * p4, -w * q4
            q += dt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
            p += dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
            q_arr[i] = q
            p_arr[i] = p
    except OverflowError:
        q = math.inf
    if not 0.5 * (q * q + p * p) <= 2.0 * intensity:
        raise SolverError(f"RK4 diverged: dt * omega_q = "
                          f"{dt * omega_q(intensity, lam):.3g} is too long a step "
                          "for this orbit", residual=None)
    return q_arr, p_arr


def integrate_eom(state0: ClassicalState, t_end: float, dt: float = 1e-3) -> Trajectory:
    """Fixed-step RK4 trajectory of qdot = omega_q p, pdot = -omega_q q.

    omega_q is evaluated at the instantaneous intensity (q^2+p^2)/2.
    Reports the max drift of the conserved |alpha|^2 and of the deformed
    Hamiltonian, plus the max deviation from the closed-form q(t).
    """
    import numpy as np

    lam = state0.lam
    t_arr, dt, n_steps = _step_grid(t_end, dt)
    q_arr, p_arr = _rk4(float(state0.q), float(state0.p), lam, dt, n_steps)

    intensity = 0.5 * (q_arr * q_arr + p_arr * p_arr)
    alpha_sq_drift = float(np.max(np.abs(intensity - intensity[0])))
    hq = q_number(intensity, lam)  # hamiltonian_q over the samples
    hq_drift = float(np.max(np.abs(hq - hq[0])))
    q_exact = _SQRT2 * exact_alpha(state0.alpha, lam, t_arr).real
    max_exact_dev = float(np.max(np.abs(q_arr - q_exact)))
    return Trajectory(t_arr, q_arr, p_arr, alpha_sq_drift, hq_drift, max_exact_dev)
