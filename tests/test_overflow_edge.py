"""Every value built on n_q = sinh(n lam)/sinh(lam), and the frequency
omega_q = (lam/sinh lam) cosh(lam I), is inf, or a SaturationError,
exactly where the value itself leaves the double range, and the 40-digit
value just before it.

For one lam a decade from 1e-3 to 1e300, plus 709.5, and both signs:
q_number, big_f, f_of_n and big_f_inverse on their scalar and array
paths, and energy_levels in both conventions are checked at the last
integer n whose value is finite and at the next n; deform_amplitude, which
shares omega_q's SaturationError, just below and past omega_q's last finite
intensity.

The tolerance is 8 ulp plus x ulp, x the argument of the sinh the value
is built from, capped at 1500: one rounding of n*lam moves e^x by up to
x/2 ulp, and the rounding of an exponent near x in exp or sinh about as
much again (numpy's sinh, on energy_levels' path below 709, measured
0.64 x ulp).  At the last finite n every such x is below 1500,
except for n = 1 past |lam| = 1500, where x - |lam| is exact.

omega_q, one RK4 step and the wave speed are checked the same way at
I = 0, 1e-3, 0.25, 1 and the last finite intensity, for lam by decade and
a dense band past 709, and so is deform_amplitude's edge, by the rule
8 + x ulp uncapped, x = |lam| I (assert_matches).
"""

import functools
import math
import sys

import mpmath
import numpy as np
import pytest

from qlab import classical, thermo, wave
from qlab.deformation import big_f, big_f_inverse, f_of_n, q_deform, q_number
from qlab.errors import SaturationError

LAMBDAS = [10.0 ** k for k in range(-3, 301)] + [709.5]
MAX = sys.float_info.max


def ulps(got: float, want) -> float:
    """|got - want| for an mpf ``want``, in ulps of want rounded to double."""
    return float(abs(mpmath.mpf(got) - want)) / math.ulp(float(want))


def tolerance(x) -> float:
    return 8.0 + min(float(x), 1500.0)


def last_finite(value, estimate: float) -> int:
    """The last integer n >= 0 whose 40-digit value is at most DBL_MAX."""
    n = max(int(estimate), 0)
    while value(n + 1) <= MAX:
        n += 1
    while value(n) > MAX:
        n -= 1
    return n


@pytest.mark.parametrize("lam", LAMBDAS)
def test_values_saturate_where_they_overflow(lam):
    with mpmath.workdps(40):
        a = mpmath.mpf(lam)
        ln_2sinh = float(a + mpmath.log(-mpmath.expm1(-2 * a)))

        def n_q(n):
            return mpmath.sinh(n * a) / mpmath.sinh(a)

        def f(n):
            return mpmath.sqrt(n_q(n) / n) if n else mpmath.mpf(0)

        n_big = last_finite(n_q, (math.log(MAX) + ln_2sinh) / lam)
        n_f = last_finite(f, (2.0 * math.log(MAX) + ln_2sinh) / lam)
        checks = [(q_number, None, n_big, n_q(n_big)), (big_f, "spec", n_big, n_q(n_big)),
                  (f_of_n, "spec", n_f, f(n_f))]
        x_edge = float(n_q(n_big))
        root = mpmath.asinh(mpmath.mpf(x_edge) * mpmath.sinh(a)) / a
        root_max = mpmath.asinh(mpmath.mpf(MAX) * mpmath.sinh(a)) / a
        # deform_amplitude takes the intensities omega_q takes, up to its last finite one
        alpha = math.sqrt(last_finite_intensity(lam)) * (1.0 - 4.0 * sys.float_info.epsilon)
        i_edge = mpmath.mpf(alpha) ** 2
        amplitude = mpmath.sqrt(n_q(i_edge) / i_edge) * alpha
    for sign in (1.0, -1.0):
        spec = q_deform(sign * lam)
        for fn, second, n, want in checks:
            other = spec if second else sign * lam
            got = [fn(float(n), other), *fn(np.array([float(n), n + 1.0]), other).tolist()]
            assert fn(n + 1.0, other) == math.inf and got[2] == math.inf, (fn.__name__, n)
            for g in got[:2]:
                assert ulps(g, want) <= tolerance(n * lam), (fn.__name__, sign * lam, n)
        for x, want in ((x_edge, root), (MAX, root_max)):
            for g in (big_f_inverse(x, spec), big_f_inverse(np.array([x]), spec)[0]):
                assert ulps(g, want) <= 2.0, (x, sign * lam)
        assert big_f_inverse(math.inf, spec) == math.inf
        got = classical.deform_amplitude(complex(alpha, 0.0), sign * lam)
        assert got.imag == 0.0
        assert_matches(got.real, amplitude, float(i_edge) * lam, sign * lam)
        with pytest.raises(SaturationError):
            classical.deform_amplitude(complex(alpha * (1.0 + 1e-15), 0.0), sign * lam)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("convention, shift", [("sym", 0.5), ("num", 0.0)])
def test_energy_levels_saturate_where_a_level_overflows(lam, convention, shift):
    with mpmath.workdps(40):
        a = mpmath.mpf(lam)
        scale = mpmath.sinh(a) if shift == 0.0 else 2 * mpmath.sinh(a / 2)

        def level(n):
            return mpmath.sinh(a * (n + shift)) / scale

        n_max = last_finite(level, (math.log(MAX) + float(mpmath.log(2 * scale))) / lam - shift)
        want = level(n_max)
    for sign in (1.0, -1.0):
        if n_max >= 1:
            got = thermo.energy_levels(n_max, sign * lam, convention)[-1]
            assert ulps(got, want) <= tolerance((n_max + shift) * lam), (sign * lam, n_max)
        with pytest.raises(SaturationError) as info:
            thermo.energy_levels(n_max + 1, sign * lam, convention)
        assert info.value.largest_safe_n == n_max


@pytest.mark.parametrize("n, lam", [(0.5, 2000.0), (0.1, 1500.0), (1e-300, 700.0),
                                    (2.0 ** -1000, 5.0), (0.999, 1419.0), (1e-5, 710.0)])
def test_f_of_n_where_n_q_underflows_first(n, lam):
    """n_q underflows the normal range long before f = sqrt(n_q/n) does:
    f(0.5) at lam = 2000 is 1.0e-217, where n_q is 5e-435.  The exponent
    here is about x - |lam|, so the tolerance takes |lam| for x."""
    with mpmath.workdps(40):
        a, m = mpmath.mpf(lam), mpmath.mpf(n)
        want = mpmath.sqrt(mpmath.sinh(m * a) / (m * mpmath.sinh(a)))
    for sign in (1.0, -1.0):
        spec = q_deform(sign * lam)
        for got in (f_of_n(n, spec), f_of_n(np.array([n]), spec)[0]):
            assert ulps(got, want) <= tolerance(lam), (n, sign * lam)


# omega_q = (lam/sinh lam) cosh(lam I): lam by decade, and a dense band past
# 709, where lam/sinh lam turns subnormal (715.7) and 0 (752.5), and where
# e^{-|lam|/2} does (1416)
OMEGA_LAMBDAS = [10.0 ** k for k in range(-3, 301)] + [
    709.5, 715.7, 716.0, 720.0, 730.0, 745.0, 751.0, 760.0, 800.0, 1416.0, 1420.0]
INTENSITIES = (0.0, 1e-3, 0.25, 1.0)


def omega_exact(lam: float, intensity: float):
    """omega_q at the exact product of the two doubles, 40 digits."""
    with mpmath.workdps(40):
        a = abs(mpmath.mpf(lam))
        return a / mpmath.sinh(a) * mpmath.cosh(a * mpmath.mpf(intensity))


@functools.lru_cache(maxsize=None)
def last_finite_intensity(lam: float, margin: float = 1.0) -> float:
    """The last double I whose 40-digit omega_q(margin I) is at most DBL_MAX."""
    a = abs(lam)
    with mpmath.workdps(40):
        x_max = mpmath.acosh(mpmath.mpf(MAX) * mpmath.sinh(a) / a)
        i = float(x_max / a / margin)
    while omega_exact(lam, margin * i) > MAX:
        i = math.nextafter(i, 0.0)
    while omega_exact(lam, margin * math.nextafter(i, math.inf)) <= MAX:
        i = math.nextafter(i, math.inf)
    return i


def assert_matches(got: float, want, x: float, where) -> None:
    """Within 8 + x ulp where the value is normal, x = |lam| I: one rounding of
    lam I moves the exponent x by up to x/2 ulp, and the rest of the arithmetic
    less than 8.  The ulps are counted in the exponent, |ln(got/want)| over
    the relative ulp, which is the plain count while x eps << 1 and stays
    meaningful past it (lam I = 1e17 rounds by up to 8).  Within 16 units of
    2^-1074 where the value is subnormal or 0."""
    if abs(want) >= sys.float_info.min:
        w = float(min(abs(want), MAX))
        err = abs(mpmath.log(mpmath.mpf(got) / want)) * (w / math.ulp(w)) if got else math.inf
        assert err <= 8.0 + x, (where, float(err))
    else:
        assert abs(got - float(want)) <= 16 * 2.0 ** -1074, where


def named_limit(call, past: float) -> float:
    """The largest_safe_n of the SaturationError that call(past) raises."""
    with pytest.raises(SaturationError) as info:
        call(past)
    return info.value.largest_safe_n


SIGNS = (1.0, -1.0)


@pytest.mark.parametrize("lam", OMEGA_LAMBDAS)
def test_omega_q_saturates_where_it_overflows(lam):
    """omega_q matches mpmath up to the last finite intensity, which is the
    40-digit one to the ulp that the rounding of lam I moves it by, and the
    next intensity raises, naming it."""
    edge = last_finite_intensity(lam)
    (limit,) = {named_limit(lambda i: classical.omega_q(i, sign * lam), 2.0 * edge)
                for sign in SIGNS}
    assert abs(limit - edge) <= math.ulp(edge), (lam, limit, edge)
    for i in (*INTENSITIES, limit):
        want = omega_exact(lam, i)
        for sign in SIGNS:
            assert_matches(classical.omega_q(i, sign * lam), want, i * lam, (sign * lam, i))
    for sign in SIGNS:
        assert named_limit(lambda i: classical.omega_q(i, sign * lam),
                           math.nextafter(limit, math.inf)) == limit


def rk4_step_exact(q0: float, lam: float, dt: float):
    """p after one projected RK4 step from (q0, 0), 40 digits: q0 sin(arg G)."""
    with mpmath.workdps(40):
        intensity = mpmath.mpf(0.5 * (q0 * q0))
        a = abs(mpmath.mpf(lam))
        c = a / mpmath.sinh(a)

        def h(s):
            return dt * c * mpmath.cosh(a * intensity * abs(s) ** 2)

        h1 = h(1)
        s2 = 1 - 0.5j * h1
        h2 = h(s2)
        s3 = 1 - 0.5j * h2 * s2
        h3 = h(s3)
        s4 = 1 - 1j * h3 * s3
        g = 1 - 1j / 6 * (h1 + 2 * h2 * s2 + 2 * h3 * s3 + h(s4) * s4)
        return q0 * g.imag / abs(g)


@pytest.mark.parametrize("lam", OMEGA_LAMBDAS)
def test_rk4_step_factor_saturates_where_a_stage_overflows(lam):
    """One RK4 step, a turn by arg G, taken at dt omega_q = 1e-3 (dt = 1 where
    omega_q < 1e-3), matches mpmath up to the last intensity whose doubled
    intensity, the check's margin, has a finite omega_q; the next raises.
    Each stage factor is dt omega_q at I |s_k|^2, and |s_k|^2 = 1 + O(h^2)
    rounds up to three times in double before its product with lam I, each
    rounding as costly as that of lam I: so 8 + 2x ulp (measured: 1.14 x at
    lam = 715.7, next 0.81 x)."""
    edge = last_finite_intensity(lam, 2.0)

    def step(q0, lam, dt=1e-3):
        return classical._rk4(q0, 0.0, lam, dt, 1)[1][1]

    (limit,) = {named_limit(lambda q0: step(q0, sign * lam), 2.0 * math.sqrt(2.0 * edge))
                for sign in SIGNS}
    assert abs(limit - edge) <= math.ulp(edge), (lam, limit, edge)
    q_edge = math.sqrt(2.0 * limit)
    while 0.5 * (q_edge * q_edge) > limit:
        q_edge = math.nextafter(q_edge, 0.0)
    for q0 in [math.sqrt(2.0 * i) for i in INTENSITIES if i < limit] + [q_edge]:
        omega = float(omega_exact(lam, 0.5 * (q0 * q0)))
        dt = 1e-3 / omega if omega > 1e-3 else 1.0
        want = rk4_step_exact(q0, lam, dt)
        for sign in SIGNS:
            assert_matches(step(q0, sign * lam, dt), want, q0 * q0 * lam, (sign * lam, q0))
    for sign in SIGNS:
        assert named_limit(lambda q0: step(q0, sign * lam),
                           math.nextafter(q_edge, math.inf)) == limit


def wave_speed(mu: float, lam: float) -> tuple[float, float]:
    """(mu, speed) that solve_mu gives for phi = 2 sqrt(mu) cos theta on four
    points and pi = 0, whose invariant is mu to rounding."""
    amplitude = 2.0 * math.sqrt(mu)
    return wave.solve_mu(np.array([amplitude, 0.0, -amplitude, 0.0]), np.zeros(4), lam)


@pytest.mark.parametrize("lam", OMEGA_LAMBDAS)
def test_wave_speed_saturates_where_it_overflows(lam):
    """The speed omega_q(mu) matches mpmath at the mu solve_mu finds, up to the
    last finite intensity, and a mu past it raises, naming it."""
    edge = last_finite_intensity(lam)
    (limit,) = {named_limit(lambda mu: wave_speed(mu, sign * lam), 2.0 * edge)
                for sign in SIGNS}
    assert abs(limit - edge) <= math.ulp(edge), (lam, limit, edge)
    for target in (*INTENSITIES[1:], limit):
        try:
            mu, _ = wave_speed(target, lam)
        except SaturationError:  # mu rounded past the limit
            target = math.nextafter(target, 0.0)
            mu, _ = wave_speed(target, lam)
        assert mu <= limit
        want = omega_exact(lam, mu)
        for sign in SIGNS:
            assert_matches(wave_speed(target, sign * lam)[1], want, mu * lam, (sign * lam, mu))
