"""Every value built on n_q = sinh(n lam)/sinh(lam) is inf, or a
SaturationError, exactly where the value itself leaves the double range,
and the 40-digit value just before it.

For one lam a decade from 1e-3 to 1e300, plus 709.5, and both signs:
q_number, big_f, f_of_n and big_f_inverse on their scalar and array
paths, deform_amplitude, and energy_levels in both conventions are
checked at the last integer n whose value is finite and at the next n.

The tolerance is 8 ulp plus x ulp, x the argument of the sinh the value
is built from, capped at 1500: one rounding of n*lam moves e^x by up to
x/2 ulp, and the rounding of an exponent near x in exp or sinh about as
much again (numpy's sinh, on energy_levels' path below 709, measured
0.64 x ulp).  At the last finite n every such x is below 1500,
except for n = 1 past |lam| = 1500, where x - |lam| is exact.
"""

import math
import sys

import mpmath
import numpy as np
import pytest

from qlab import classical, thermo
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
        # deform_amplitude takes |lam| I <= 709 (the bound omega_q's cosh sets)
        alpha = math.sqrt(709.0 / lam) * (1.0 - 4.0 * sys.float_info.epsilon)
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
        assert abs(got.real - amplitude) <= (tolerance(709.0) * math.ulp(float(amplitude))
                                             + 2.0 ** -1074), sign * lam
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
