"""mpmath oracle for the thermodynamic moments of the deformed spectrum.

It sums E_n = sinh(|lam| (n + s))/scale exactly at 20 digits: term by term
where the weights fall below e^-60 within 1000 levels, and otherwise by
the Euler-Maclaurin formula from n = 0, with a composite Gauss-Legendre
integral (panel ends at most a factor 1e4 apart in x) and eight Bernoulli
corrections from the Taylor series of the summand, which varies on a scale
of T >= 1e2 levels there.
"""

import mpmath
import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(48)
_EM_ORDER = 8


def oracle(t: float, lam: float, convention: str) -> tuple[float, float, float]:
    """(ln Z, <n>, C) of E_n = sinh(|lam| (n + s))/scale, 20 digits."""
    with mpmath.workdps(20):
        a = abs(mpmath.mpf(lam))
        shift = mpmath.mpf(1) / 2 if convention == "sym" else mpmath.mpf(0)
        scale = 2 * mpmath.sinh(a / 2) if convention == "sym" else mpmath.sinh(a)
        beta = 1 / mpmath.mpf(t)

        def x_of(n):
            return beta * (mpmath.sinh(a * (n + shift)) / scale - shift)

        def n_of(x):
            return mpmath.asinh(scale * (shift + x / beta)) / a - shift

        def terms(n, weight):
            x = x_of(n)
            w = weight * mpmath.exp(-x)
            return (w, n * w, x * w, x * x * w)

        sums = [mpmath.mpf(0)] * 4  # levels n >= 1; level 0 adds (1, 0, 0, 0)
        n_cut = n_of(mpmath.mpf(60))
        if n_cut < 1000:
            for n in range(1, int(n_cut) + 2):
                sums = [s + v for s, v in zip(sums, terms(mpmath.mpf(n), 1))]
        else:
            # panels end at x = 0.1 .. 60, and below 0.1 at x = 0.1/1e4^k down to
            # level 1: hot enough, x(n) rises like e^{|lam| n} there (T = 1e300)
            xs = [mpmath.mpf(x) for x in (0.1, 1, 3, 10, 30, 60)]
            while n_of(xs[0]) > 1:
                xs.insert(0, xs[0] / 10000)
            ends = [mpmath.mpf(0)] + [n_of(x) for x in xs]
            for lo, hi in zip(ends, ends[1:]):
                mid, half = (lo + hi) / 2, (hi - lo) / 2
                for node, weight in zip(_NODES, _WEIGHTS):
                    point = terms(mid + half * mpmath.mpf(node), half * mpmath.mpf(weight))
                    sums = [s + v for s, v in zip(sums, point)]
            # Taylor coefficients at n = 0 of x(n), of g = e^-x (by g' = -x' g),
            # and of the summands n g, x g, x^2 g
            order = 2 * _EM_ORDER
            xs = [mpmath.mpf(0)] + [
                beta * a ** k / mpmath.factorial(k) / scale
                * (mpmath.cosh(a * shift) if k % 2 else mpmath.sinh(a * shift))
                for k in range(1, order + 1)]
            g = [mpmath.mpf(1)]
            for k in range(1, order + 1):
                g.append(-sum(j * xs[j] * g[k - j] for j in range(1, k + 1)) / k)

            def times(p, q):
                return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(order + 1)]

            series = (g, [mpmath.mpf(0)] + g[:-1], times(xs, g), times(xs, times(xs, g)))
            for i, c in enumerate(series):
                # sum_{n>=0} f(n) = int_0^inf f + f(0)/2 - sum_j B_2j/(2j)! f^(2j-1)(0)
                sums[i] += c[0] / 2 - sum(mpmath.bernoulli(2 * j) / (2 * j) * c[2 * j - 1]
                                          for j in range(1, _EM_ORDER + 1))
            sums[0] -= 1
        excited, s_n, s_x, s_xx = sums
        z = 1 + excited
        return (float(mpmath.log1p(excited) - beta * shift), float(s_n / z),
                float(s_xx / z - (s_x / z) ** 2))
