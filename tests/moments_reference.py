"""The thermodynamic moments as qlab computed them before thermo_table
evaluated a whole temperature grid in shared numpy calls: one _moments
pass per temperature, its blocks summed with np.sum and pooled in order.
Tests compare thermo's grid pass against this, bit for bit.  Its cutoff
follows the rule that a value saturates where it overflows: the cutoff
energy is at most about 1.5e303, so its index is finite (where scale E
overflows, index takes asinh(scale E) in logs), and so is every level
below it."""

import math

import numpy as np

from qlab.thermo import (_BLOCK, _EM_LAM, _EM_SLOPE, _GREGORY, _LN_U_STEP, _TAIL_LOG,
                         _check_lam, _Moments, _spectrum, bose_einstein)


def _block_moments(n, x, w):
    total = float(np.sum(w))
    if total == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    p = w / total
    mean_x = float(np.sum(p * x))
    d = x - mean_x
    return total, float(np.sum(p * n)), mean_x, float(np.sum(w * d * d))


def _merge(a, b):
    wa, na, xa, qa = a
    wb, nb, xb, qb = b
    w = wa + wb
    share = wb / w
    d = xb - xa
    return w, na + (nb - na) * share, xa + d * share, qa + qb + d * d * wa * share


def _em_tail(m, beta, spec):
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


def moments(beta, lam, convention):
    """The moments of one temperature, 1/beta."""
    a = _check_lam(lam)
    if a == 0.0:
        em = -math.expm1(-beta)
        log_z = -math.log(em) - (0.5 * beta if convention == "sym" else 0.0)
        heat = (beta * math.exp(-0.5 * beta) / em) ** 2
        return _Moments(log_z, bose_einstein(beta), heat, 0, 0, "closed")
    spec = _spectrum(a, convention)
    k = _TAIL_LOG - math.log(-math.expm1(-beta))
    with np.errstate(over="ignore", invalid="ignore"):  # scale inf past 709, sinh patched
        x_1 = beta * float(spec.energy(np.float64(1.0)) - spec.shift)
        n_cut, _ = spec.index(np.float64(spec.shift + (k + min(x_1, k)) / beta))
        n_end = max(2, math.ceil(n_cut))
        smooth = (a <= _EM_LAM
                  and beta * a * math.cosh(a + a * spec.shift) / spec.scale <= _EM_SLOPE)
        direct = 1 if smooth else n_end
        excited = _block_moments(*_em_tail(1, beta, spec)) if smooth else None
        for start in range(1, direct, _BLOCK):
            n = np.arange(start, min(start + _BLOCK, direct), dtype=float)
            x = beta * (spec.energy(n) - spec.shift)
            block = _block_moments(n, x, np.exp(-x))
            excited = block if excited is None else _merge(excited, block)
    total, mean_n, _, m2 = _merge((1.0, 0.0, 0.0, 0.0), excited)
    return _Moments(math.log1p(excited[0]) - beta * spec.shift, mean_n, m2 / total,
                    n_end - 1, direct, "direct+em" if smooth else "direct")
