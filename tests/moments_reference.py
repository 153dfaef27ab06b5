"""The thermodynamic moments as qlab computed them before thermo_table
evaluated a whole temperature grid in shared numpy calls: one _moments
pass per temperature, its blocks summed with np.sum and pooled in order.
Tests compare thermo's grid pass against this, bit for bit.  It follows
thermo's plan: a head of levels 1 .. J by Gregory's rule (two tails in
ln u where J is short of the cutoff) where thermo's price for it is the
lower, the rest one by one.  Its cutoff follows the rule that a value
saturates where it overflows: the cutoff energy is at most about 1.5e303,
so its index is finite (where scale E overflows, index takes asinh(scale E)
in logs), and so is every level below it."""

import math
from fractions import Fraction

import numpy as np

from qlab.deformation import _log_cosh, _log_sinh
from qlab.thermo import (_BLOCK, _EM_SLOPE, _GREGORY, _LEVEL_COST, _LN_U_STEP, _NODE_COST,
                         _TAIL_LOG, _check_lam, _Moments, _spectrum, bose_einstein)


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
    """The trapezoid nodes of the tail from level m (+ from 1, - from J > 1),
    on the grid of thermo._grid, with E_J corrected for the rounding of its
    sinh argument."""
    e_m = float(spec.energy(np.float64(m)))
    ln_rho = math.log(min(beta * math.hypot(e_m, 1.0 / spec.scale), 1.0))
    u = np.exp(np.arange(math.floor(ln_rho) - 42.0, math.log(45.0 - ln_rho), _LN_U_STEP))
    if m > 1:
        arg = spec.a * (m + spec.shift)
        error = float(Fraction(spec.a) * Fraction(m + spec.shift) - Fraction(arg))
        e_m = float(e_m + error * np.hypot(e_m, 1.0 / spec.scale))
    n_u, slope = spec.index(e_m + u / beta)
    x = beta * (e_m - spec.shift) + u
    step = _LN_U_STEP if m == 1 else -_LN_U_STEP
    return n_u, x, step * (u / beta) * slope * np.exp(-x)


def _gregory(m, beta, spec):
    """Gregory's levels m, m + 1, .. from level 1, and J, J - 1, .. back from J."""
    n_g = m + (1.0 if m == 1 else -1.0) * np.arange(float(len(_GREGORY)))
    x_g = beta * (spec.energy(n_g) - spec.shift)
    return n_g, x_g, np.array(_GREGORY) * np.exp(-x_g)


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
        # the last level J with beta E'(J) <= _EM_SLOPE min(1, _EM_SLOPE/a)^6, or
        # the cutoff where 7 a <= _EM_SLOPE
        bound = 7.0 * math.log(_EM_SLOPE) - 6.0 * math.log(max(a, _EM_SLOPE))
        y = max(bound + _log_sinh(a) - _log_cosh(spec.shift * a) - math.log(a)
                - math.log(beta), 0.0)
        join = int(min((y + math.log1p(math.sqrt(-math.expm1(-2.0 * y)))) / a - spec.shift,
                       n_end - 1))
        if join and 7.0 * a <= _EM_SLOPE:
            join = n_end - 1
        parts = [_em_tail(1, beta, spec)]
        if len(parts[0][0]) + len(_GREGORY) < join < n_end - 1:
            parts.append(_em_tail(join, beta, spec))
        parts += [_gregory(m, beta, spec) for m in [1, join][:len(parts)]]
        size = sum(len(p[0]) for p in parts)
        if not size * _NODE_COST < join * _LEVEL_COST:  # the head is priced higher
            join = size = 0
        excited = _block_moments(*map(np.concatenate, zip(*parts))) if size else None
        for start in range(join + 1, n_end, _BLOCK):
            n = np.arange(start, min(start + _BLOCK, n_end), dtype=float)
            x = beta * (spec.energy(n) - spec.shift)
            block = _block_moments(n, x, np.exp(-x))
            excited = block if excited is None else _merge(excited, block)
    total, mean_n, _, m2 = _merge((1.0, 0.0, 0.0, 0.0), excited)
    return _Moments(math.log1p(excited[0]) - beta * spec.shift, mean_n, m2 / total,
                    n_end - 1, n_end - join + size, "direct+em" if size else "direct")
