"""Deformation calculus, the one home of F(n) and its overflow-free forms.

q-numbers, the deformation function f(n), the operator spectrum
F(n) = n f^2(n), its increments phi(n), the inverse of F, and the
overflow-free sech, ln cosh, ln sinh and omega_q.  All are pure
functions; q_number, f_of_n, big_f, big_f_inverse (so phi_of_z too) also
answer a whole float64 array by the same formulas and switch points as
masks, importing numpy on that branch only.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import sys
from typing import NamedTuple

from .errors import WORK_BUDGET, ParameterError

# sinh overflows double just above this argument.
_SINH_MAX_ARG = 709.0
_LN_MAX = math.log(sys.float_info.max)  # exp overflows past it
_COSH_MAX = math.acosh(sys.float_info.max)  # cosh overflows past it
_TINY = sys.float_info.min
_LN2 = math.log(2.0)

_Q = "q"
_IDENTITY = "identity"
_CUSTOM = "custom"


class _SpecFields(NamedTuple):
    kind: str
    lam: float = 0.0
    table: tuple[float, ...] | None = None


class DeformationSpec(_SpecFields):
    """Selects the deformation: q-type with parameter ``lam``, the identity
    deformation (f == 1), or a user-supplied table of f(n) values.

    Use the module-level constructors :func:`q_deform`, :func:`identity` and
    :func:`custom` rather than instantiating directly.  A custom spec also
    carries ``nodes``, its table of F(n) = n f(n)^2, which big_f joins
    linearly and big_f_inverse inverts; being no field, it stays out of
    equality, hash and repr.
    """

    nodes: tuple[float, ...] | None = None

    def _frozen(self, *args):
        raise AttributeError("a DeformationSpec is immutable")

    __setattr__ = __delattr__ = _frozen

    @classmethod
    def _make(cls, iterable):  # and so _replace: every spec is checked
        return cls(*iterable)

    def __new__(cls, kind: str, lam: float = 0.0, table: tuple[float, ...] | None = None):
        if kind not in (_Q, _IDENTITY, _CUSTOM):
            raise ParameterError(f"unknown deformation kind: {kind!r}")
        if not math.isfinite(lam):
            raise ParameterError("deformation parameter must be finite")
        self = super().__new__(cls, kind, lam, table)
        if kind == _CUSTOM:
            if not table:
                raise ParameterError("custom deformation needs a nonempty f table")
            if any(not math.isfinite(v) or v <= 0.0 for v in table):
                raise ParameterError("custom f table must be strictly positive and finite")
            big = tuple(n * v * v for n, v in enumerate(table))
            if any(b >= a for a, b in zip(big[1:], big)):
                raise ParameterError("custom f table gives a non-increasing F(n); not invertible")
            object.__setattr__(self, "nodes", big)
        return self


def q_deform(lam: float) -> DeformationSpec:
    return DeformationSpec(_Q, lam=float(lam))


def identity() -> DeformationSpec:
    return DeformationSpec(_IDENTITY)


def custom(f_values) -> DeformationSpec:
    return DeformationSpec(_CUSTOM, table=tuple(float(v) for v in f_values))


def _is_array(x) -> bool:
    """True for an ndarray of one or more dimensions, asked without numpy."""
    return getattr(x, "ndim", 0) > 0


def _check_nonnegative(x, message: str) -> None:
    if (x < 0).any() if _is_array(x) else x < 0:
        raise ParameterError(message)


def _sech(x: float) -> float:
    """1/cosh(x) as 2e/(1 + e^2), e = exp(-|x|): no cosh to overflow, so it
    goes to 0 past |x| of about 745 and never raises."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def _log_cosh(x: float) -> float:
    """ln cosh x for x >= 0, overflow-free."""
    return x + math.log1p(math.exp(-2.0 * x)) - _LN2


def _log_sinh(x: float) -> float:
    """ln sinh x for x >= 0, overflow-free; -inf at 0 (an argument that underflowed)."""
    return x + math.log(-0.5 * math.expm1(-2.0 * x)) if x else -math.inf


def _omega(lam_i: float, lam: float) -> float:
    """omega_q = (lam/sinh lam) cosh(lam I) at lam_i = lam I, inf (nan at a nan lam_i)
    exactly where the value overflows.  x = |lam_i|, a = |lam|: past cosh's range
    a e^{x-a}/(1 - e^{-2a}), e^{x-a} in halves; else the plain product, lam/sinh lam past
    sinh's as 2a h^2, h = e^{-a/2}, and with h last where that is subnormal (a > 715.6)."""
    x, a = abs(lam_i), abs(lam)
    if not x <= _COSH_MAX:  # or nan, as at an infinite I at lam = 0
        e = math.exp(min(0.5 * (x - a), _LN_MAX))
        return (a / -math.expm1(-2.0 * a) * e) * e if a else math.inf
    if a <= _SINH_MAX_ARG:
        return (lam / math.sinh(lam) if lam else 1.0) * math.cosh(x)
    h = math.exp(-0.5 * a)
    if (c := (a * h) * (2.0 * h)) >= _TINY:
        return c * math.cosh(x)
    return ((2.0 * a * h) * math.cosh(x)) * h


def _omega_limit(lam: float, margin: float = 1.0) -> float:
    """The largest I with _omega at margin I finite: acosh(DBL_MAX sinh a/a)/(margin a),
    a = |lam|, in logs, then checked one ulp each way; DBL_MAX/margin at lam = 0."""
    a = abs(lam)
    i = min((_LN_MAX + _LN2 + (_log_sinh(a) - math.log(a))) / a if a else math.inf,
            sys.float_info.max) / margin
    while i > 0.0 and not _omega(lam * (margin * i), lam) < math.inf:
        i = math.nextafter(i, 0.0)
    while _omega(lam * (margin * math.nextafter(i, math.inf)), lam) < math.inf:
        i = math.nextafter(i, math.inf)
    return i


def _past_sinh(x, a: float, m, ln_c=0.0, root: bool = False):
    """sinh(x)/(c sinh a), c = e^ln_c, as e^{x-a-ln_c} expm1(-2x)/expm1(-2a), which
    only the value itself can overflow: n_q at x = n a, c = 1, or a thermal level.
    With root its square root, f = sqrt(n_q/n) at c = n, whose expm1 ratio is >= 1
    past x = a.  m is math, or numpy for arrays."""
    d = 0.5 * (x - a - ln_c) if root else x - a - ln_c
    e = m.exp(d) if m is not math or d <= _LN_MAX else math.inf  # math.exp raises; nan d: inf
    if root:
        return e * m.sqrt(m.expm1(-2.0 * x) / math.expm1(-2.0 * a))
    return e * m.expm1(-2.0 * x) / math.expm1(-2.0 * a)


def q_number(n, lam: float):
    """The q-integer n_q = sinh(n*lam)/sinh(lam), q = e^lam.

    Accepts nonnegative real ``n`` (continuous extension), or an array of
    them.  The plain ratio is accurate for every lam down to the
    subnormals, since sinh keeps its relative accuracy there; only where
    n*lam underflows the normal range (lam = 0 included, n = inf too) is
    the limit n lam/sinh(lam) returned.  Past n|lam| or |lam| =
    _SINH_MAX_ARG, where a sinh overflows, the ratio takes _past_sinh's
    form, so n_q is inf exactly where it leaves the double range.  Even in lam.
    """
    _check_nonnegative(n, "q_number requires n >= 0")
    a = abs(lam)
    if _is_array(n):
        import numpy as np

        with np.errstate(all="ignore"):  # a form runs where it may overflow, kept where it applies
            x = n * a
            out = np.sinh(n * lam) / (math.sinh(lam) if a <= _SINH_MAX_ARG else math.inf)
            if a > _SINH_MAX_ARG or x.max(initial=0.0) > _SINH_MAX_ARG:  # a sinh overflowed
                past = (x > _SINH_MAX_ARG) | (a > _SINH_MAX_ARG)
                out[past] = _past_sinh(x[past], a, np)
        small = ~(x >= _TINY)  # nan: n = inf at lam = 0
        out[small] = n[small] * lambda_over_sinh(lam)
        return out
    x = n * a
    if not x >= _TINY:  # nan: n = inf at lam = 0
        return n * lambda_over_sinh(lam)
    if x > _SINH_MAX_ARG or a > _SINH_MAX_ARG:
        return _past_sinh(x, a, math)
    return math.sinh(n * lam) / math.sinh(lam)


def lambda_over_sinh(lam: float) -> float:
    """lam/sinh(lam), and its limit 1 at lam = 0: omega_q at I = 0 (_omega), which
    past sinh's range takes 2|lam| e^{-|lam|} as two halves of the exponential."""
    return _omega(0.0, lam)


def _interp(x, xp, fp, what: str):
    """np.interp(x, xp, fp) for x in [xp[0], xp[-1]], else a ParameterError; a
    scalar x in np.interp's arithmetic, so that the two agree bit for bit.

    An x up to 4 ulp past the top, as sqrt(F)^2 may round, counts as the top.
    """
    inside = (xp[0] <= x) & (x <= xp[-1] * (1.0 + 4.0 * sys.float_info.epsilon))
    if not (inside.all() if _is_array(x) else inside):
        bad = x[~inside][0] if _is_array(x) else x
        raise ParameterError(f"{what} = {bad} outside the custom table range "
                             f"[{xp[0]}, {xp[-1]}]")
    if _is_array(x):
        import numpy as np

        return np.interp(x, xp, fp)  # which clamps at the top
    x = min(x, xp[-1])
    j = bisect.bisect_right(xp, x) - 1
    if xp[j] == x:
        return float(fp[j])
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


def f_of_n(n, spec: DeformationSpec):
    """Deformation function f(n) >= 0; accepts real n >= 0, or an array.

    Identity, and q-deform at lam = 0 -> 1.  q-deform -> sqrt(n_q/n) for
    n > 0, its limit inf at n = inf, and the pinned convention lam/sinh(lam)
    at n = 0; where n_q over- or underflows before f, _past_sinh's root
    form, so f is inf exactly where it overflows.  Custom -> table lookup
    (linear interpolation at non-integer n).
    """
    _check_nonnegative(n, "f_of_n requires n >= 0")
    if spec.kind == _CUSTOM:
        return _interp(n, range(len(spec.table)), spec.table, "n")
    a = abs(spec.lam)
    if _is_array(n):
        import numpy as np

        if spec.kind == _IDENTITY or a == 0:
            return np.ones_like(n, dtype=float)
        with np.errstate(all="ignore"):  # 0/0 at n = 0 and inf/inf at n = inf are replaced
            big = q_number(n, spec.lam)
            out = np.sqrt(big / n)
            if (past := (big == math.inf) | ((big < _TINY) & (n * a >= _TINY))).any():
                out[past] = _past_sinh(n[past] * a, a, np, np.log(n[past]), root=True)
        out[n == 0] = lambda_over_sinh(spec.lam)
        out[n == math.inf] = math.inf
        return out
    if spec.kind == _IDENTITY or a == 0:
        return 1.0
    return _q_f(n, spec.lam) if n else lambda_over_sinh(spec.lam)


def _q_f(n: float, lam: float) -> float:
    """f(n) = sqrt(n_q/n) of a q spec at lam != 0 (or 1 at lam = 0), n > 0."""
    big = q_number(n, lam)
    if big == math.inf or big < _TINY <= n * abs(lam):  # n_q left the range, f need not
        return _past_sinh(n * abs(lam), abs(lam), math, math.log(n), root=True)
    return math.sqrt(big / n)


def big_f(n, spec: DeformationSpec):
    """F(n) = n*f^2(n), the spectrum of the deformed number operator; for a
    custom spec its nodes joined linearly, the F that big_f_inverse inverts.
    Accepts real n >= 0, or an array."""
    _check_nonnegative(n, "big_f requires n >= 0")
    if spec.kind == _Q:
        return q_number(n, spec.lam)
    if spec.kind == _CUSTOM:
        return _interp(n, range(len(spec.nodes)), spec.nodes, "n")
    return n.astype(float) if _is_array(n) else float(n)


def big_f_inverse(x, spec: DeformationSpec):
    """Solve F(y) = x for y >= 0; accepts an array of x too.

    F is strictly increasing for every valid spec.  In the q case the
    continuous extension F(y) = sinh(y*lam)/sinh(lam) inverts in closed
    form, y = asinh(x sinh|lam|)/|lam|, and y = x sinh|lam|/|lam| where
    x sinh|lam| underflows the normal range.  Where x sinh|lam| overflows,
    or sinh(lam) does (past _SINH_MAX_ARG), asinh(x sinh|lam|) is taken as
    ln x + ln sinh|lam| + ln 2, to within e^-40 past 20, and below that (a
    huge lam only) as asinh(x e^lam/2); so every finite x has its finite
    root, and inf gives inf.  In the custom case the piecewise-linear
    extension of the table is inverted.
    """
    _check_nonnegative(x, "big_f_inverse requires x >= 0")
    if spec.kind == _CUSTOM:
        return _interp(x, spec.nodes, range(len(spec.nodes)), "x")
    if spec.kind == _IDENTITY or spec.lam == 0:
        return x.astype(float) if _is_array(x) else float(x)
    lam = abs(spec.lam)
    sinh = math.sinh(lam) if lam <= _SINH_MAX_ARG else math.inf
    if _is_array(x):
        import numpy as np

        with np.errstate(all="ignore"):  # every branch runs everywhere, kept where it applies
            z = x * sinh  # nan at x = 0 past 709, where the asinh form gives 0
            y_lam = np.where(z < math.inf, np.arcsinh(z), np.log(x) + (_log_sinh(lam) + _LN2))
            if sinh == math.inf:
                half = math.exp(0.5 * min(lam, 765.0))  # x >= 5e-324 is past 20 from 765 on
                y_lam = np.where(y_lam <= 20.0, np.arcsinh((x * half) * (0.5 * half)), y_lam)
            return np.where(z < _TINY, x / lambda_over_sinh(lam), y_lam / lam)
    z = x * sinh
    if z < math.inf:
        return math.asinh(z) / lam if z >= _TINY else x / lambda_over_sinh(lam)
    y_lam = math.log(x) + (_log_sinh(lam) + _LN2) if x else -math.inf
    if y_lam <= 20.0:
        half = math.exp(0.5 * min(lam, 765.0))  # x >= 5e-324 is past 20 from 765 on
        y_lam = math.asinh((x * half) * (0.5 * half))
    return y_lam / lam


def phi_of_z(z: float, spec: DeformationSpec) -> float:
    """phi(z) = (z+1) f^2(z+1) - z f^2(z) = F(z+1) - F(z)."""
    return big_f(z + 1, spec) - big_f(z, spec)


def _read_csv_rows(source, what: str) -> list[tuple[int, list[float]]]:
    """(line number, values) for each data row of a small numeric CSV file.

    ``source`` is a path or an open text file (UTF-8, LF or CRLF line ends).
    Blank lines are skipped, and so is the first nonblank row if it does not
    parse as numbers (a header).  An unreadable file, any later non-numeric
    row, a nan or infinite cell or a data row past WORK_BUDGET raises
    ParameterError naming ``what`` and the line.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {what} file: {exc}")
    rows = []
    header_allowed = True
    reader = csv.reader(io.StringIO(text))
    for cells in reader:
        if not any(c.strip() for c in cells):
            continue
        try:
            values = [float(c) for c in cells]
        except ValueError:
            if not header_allowed:
                raise ParameterError(f"{what} line {reader.line_num}: non-numeric data")
        else:
            if not all(map(math.isfinite, values)):
                raise ParameterError(f"{what} line {reader.line_num}: non-finite value")
            if len(rows) == WORK_BUDGET:  # the bound of --n, before the rows cost more
                raise ParameterError(f"{what} line {reader.line_num}: more than "
                                     f"WORK_BUDGET = {WORK_BUDGET} data rows")
            rows.append((reader.line_num, values))
        header_allowed = False
    return rows


def load_f_table(source) -> DeformationSpec:
    """Build a custom DeformationSpec from two-column CSV (n, f(n)).

    ``source`` is a path or an open text file; a header row is optional;
    UTF-8 with LF or CRLF line endings.
    """
    rows = _read_csv_rows(source, "f table")
    if not rows:
        raise ParameterError("empty f table")
    pairs = []
    for line_no, r in rows:
        if len(r) < 2:
            raise ParameterError(f"f table line {line_no}: needs two columns (n, f)")
        pairs.append((int(r[0]), r[1]))
    pairs.sort()
    if [n for n, _ in pairs] != list(range(len(pairs))):
        raise ParameterError("f table must cover n = 0..n_max without gaps")
    return custom([v for _, v in pairs])
