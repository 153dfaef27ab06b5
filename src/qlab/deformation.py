"""Deformation calculus, the one home of F(n) and its overflow-free forms.

q-numbers, the deformation function f(n), the operator spectrum
F(n) = n f^2(n), its increments phi(n), deformed factorials, the inverse
of F, and the overflow-free sech, ln cosh and ln sinh.  All are pure
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
from dataclasses import dataclass, field

from .errors import ParameterError, SaturationError

# sinh overflows double just above this argument.
_SINH_MAX_ARG = 709.0
_LN2 = math.log(2.0)

_Q = "q"
_IDENTITY = "identity"
_CUSTOM = "custom"


@dataclass(frozen=True)
class DeformationSpec:
    """Selects the deformation: q-type with parameter ``lam``, the identity
    deformation (f == 1), or a user-supplied table of f(n) values.

    Use the module-level constructors :func:`q_deform`, :func:`identity` and
    :func:`custom` rather than instantiating directly.  A custom spec also
    carries ``nodes``, its table of F(n) = n f(n)^2, which big_f joins
    linearly and big_f_inverse inverts.
    """

    kind: str
    lam: float = 0.0
    table: tuple[float, ...] | None = None
    nodes: tuple[float, ...] | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.kind not in (_Q, _IDENTITY, _CUSTOM):
            raise ParameterError(f"unknown deformation kind: {self.kind!r}")
        if not math.isfinite(self.lam):
            raise ParameterError("deformation parameter must be finite")
        if self.kind == _CUSTOM:
            if not self.table:
                raise ParameterError("custom deformation needs a nonempty f table")
            if any(not math.isfinite(v) or v <= 0.0 for v in self.table):
                raise ParameterError("custom f table must be strictly positive and finite")
            big = tuple(n * v * v for n, v in enumerate(self.table))
            if any(b >= a for a, b in zip(big[1:], big)):
                raise ParameterError("custom f table gives a non-increasing F(n); not invertible")
            object.__setattr__(self, "nodes", big)

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
    """1/cosh(x), going to 0 where cosh would overflow instead of raising."""
    x = abs(x)
    return 1.0 / math.cosh(x) if x < _SINH_MAX_ARG else 2.0 * math.exp(-x)


def _log_cosh(x: float) -> float:
    """ln cosh x for x >= 0, overflow-free."""
    return x + math.log1p(math.exp(-2.0 * x)) - _LN2


def _log_sinh(x: float) -> float:
    """ln sinh x for x >= 0, overflow-free; -inf at 0 (an argument that underflowed)."""
    return x + math.log(-0.5 * math.expm1(-2.0 * x)) if x else -math.inf


def q_number(n, lam: float):
    """The q-integer n_q = sinh(n*lam)/sinh(lam), q = e^lam.

    Accepts nonnegative real ``n`` (continuous extension), or an array of
    them.  The plain ratio is accurate for every lam down to the
    subnormals, since sinh keeps its relative accuracy there; only where
    n*lam underflows the normal range (lam = 0 included, n = inf too) is
    the limit n lam/sinh(lam) returned.  Past |lam| = _SINH_MAX_ARG, where
    sinh(lam) overflows and only n < 1 stays finite, it is the same ratio
    written as e^{(n-1)|lam|} (1 - e^{-2n|lam|}) / (1 - e^{-2|lam|}).  Even
    in lam.
    """
    _check_nonnegative(n, "q_number requires n >= 0")
    a = abs(lam)
    if _is_array(n):
        import numpy as np

        with np.errstate(all="ignore"):  # the ratio runs everywhere, kept where it applies
            x = n * a
            out = (np.exp(x - a) * np.expm1(-2.0 * x) / math.expm1(-2.0 * a)
                   if a > _SINH_MAX_ARG else np.sinh(n * lam) / math.sinh(lam))
        small = ~(x >= sys.float_info.min)  # nan: n = inf at lam = 0
        out[small] = n[small] * lambda_over_sinh(lam)
        out[x > _SINH_MAX_ARG] = math.inf
        return out
    x = n * a
    if not x >= sys.float_info.min:  # nan: n = inf at lam = 0
        return n * lambda_over_sinh(lam)
    if x > _SINH_MAX_ARG:
        return math.inf
    if a > _SINH_MAX_ARG:
        return math.exp(x - a) * math.expm1(-2.0 * x) / math.expm1(-2.0 * a)
    return math.sinh(n * lam) / math.sinh(lam)


def lambda_over_sinh(lam: float) -> float:
    """lam/sinh(lam), and its limit 1 at lam = 0.

    Past |lam| = _SINH_MAX_ARG, where sinh overflows, it is the same value
    written as 2|lam| e^{-|lam|} / (1 - e^{-2|lam|}); the denominator rounds
    to 1 there, and e^{-|lam|} is taken as two halves so that only the
    final product can leave the normal range.
    """
    a = abs(lam)
    if a > _SINH_MAX_ARG:
        half = math.exp(-0.5 * a)
        return (a * half) * (2.0 * half)
    return 1.0 if lam == 0 else lam / math.sinh(lam)


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
    n > 0, its limit inf at n = inf, and the pinned convention
    lam/sinh(lam) at n = 0.  Custom -> table lookup (linear interpolation
    at non-integer n).
    """
    _check_nonnegative(n, "f_of_n requires n >= 0")
    if spec.kind == _CUSTOM:
        return _interp(n, range(len(spec.table)), spec.table, "n")
    if _is_array(n):
        import numpy as np

        if spec.kind == _IDENTITY or spec.lam == 0:
            return np.ones_like(n, dtype=float)
        with np.errstate(all="ignore"):  # 0/0 at n = 0 and inf/inf at n = inf are replaced
            out = np.sqrt(q_number(n, spec.lam) / n)
        out[n == 0] = lambda_over_sinh(spec.lam)
        out[n == math.inf] = math.inf
        return out
    if spec.kind == _IDENTITY or spec.lam == 0:
        return 1.0
    if n == math.inf:
        return math.inf
    return math.sqrt(q_number(n, spec.lam) / n) if n else lambda_over_sinh(spec.lam)


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
    x sinh|lam| underflows the normal range.  Past |lam| = _SINH_MAX_ARG,
    where sinh(lam) overflows, asinh(x sinh|lam|) is taken as ln x + |lam|.
    Like q_number, it saturates where y|lam| passes _SINH_MAX_ARG.  In the
    custom case the piecewise-linear extension of the table is inverted.
    """
    _check_nonnegative(x, "big_f_inverse requires x >= 0")
    if spec.kind == _CUSTOM:
        return _interp(x, spec.nodes, range(len(spec.nodes)), "x")
    if spec.kind == _IDENTITY:
        return x.astype(float) if _is_array(x) else float(x)
    lam = abs(spec.lam)
    if _is_array(x):
        import numpy as np

        with np.errstate(all="ignore"):  # every branch runs everywhere, kept where it applies
            if lam > _SINH_MAX_ARG:
                half = math.exp(0.5 * min(lam, 765.0))  # past 765 only x = 0 is below 20
                y_lam = np.log(x) + lam
                y_lam = np.where(y_lam <= 20.0, np.arcsinh((x * half) * (0.5 * half)), y_lam)
                linear = False
            else:
                z = x * math.sinh(lam)
                y_lam, linear = np.arcsinh(z), ~(z >= sys.float_info.min)  # nan: inf at 0
            if np.any(y_lam > _SINH_MAX_ARG):
                raise SaturationError("F value beyond double range; cannot invert",
                                      largest_safe_n=_SINH_MAX_ARG / lam)
            return np.where(linear, x / lambda_over_sinh(lam), y_lam / lam)
    if lam > _SINH_MAX_ARG:
        if x == 0.0:
            return 0.0
        # sinh(lam) = e^lam/2 in double here, so asinh(x sinh lam) is
        # ln(2 x sinh lam) = ln x + lam to within e^-40 once that passes 20;
        # below that, x >= 5e-324 keeps lam < 765 and e^(lam/2) finite
        y_lam = math.log(x) + lam
        if y_lam <= 20.0:
            half = math.exp(0.5 * lam)
            y_lam = math.asinh((x * half) * (0.5 * half))
    else:
        z = x * math.sinh(lam)
        if not z >= sys.float_info.min:  # asinh(z) = z keeps no digits (nan: inf at 0)
            return x / lambda_over_sinh(lam)
        y_lam = math.asinh(z)
    if y_lam > _SINH_MAX_ARG:
        raise SaturationError("F value beyond double range; cannot invert",
                              largest_safe_n=_SINH_MAX_ARG / lam)
    return y_lam / lam


def phi_of_z(z: float, spec: DeformationSpec) -> float:
    """phi(z) = (z+1) f^2(z+1) - z f^2(z) = F(z+1) - F(z)."""
    return big_f(z + 1, spec) - big_f(z, spec)


def commutator_function(n: float, lam: float) -> float:
    """(sinh lam(n+1) - sinh lam*n)/sinh lam; the lam -> 0 limit is 1."""
    return q_number(n + 1, lam) - q_number(n, lam)


def f_factorial(n: int, spec: DeformationSpec, convention: str = "f") -> float:
    """Deformed factorial.

    convention "q": [n]! = n_q (n-1)_q ... 1_q with [0]! = 1 (requires a
    q-type or identity spec).  convention "f": running product
    f(1) f(2) ... f(n) with the empty product 1 at n = 0.
    """
    if n < 0 or n != int(n):
        raise ParameterError("f_factorial requires a nonnegative integer n")
    if convention not in ("q", "f"):
        raise ParameterError(f"unknown factorial convention: {convention!r}")
    if convention == "q" and spec.kind == _CUSTOM:
        raise ParameterError("q-convention factorial needs a q-type or identity spec")
    out = 1.0
    for k in range(1, int(n) + 1):
        out *= q_number(k, spec.lam) if convention == "q" else f_of_n(k, spec)
        if math.isinf(out):
            raise SaturationError(
                f"deformed factorial overflows at n = {k}", largest_safe_n=k - 1)
    return out


def _read_csv_rows(source, what: str) -> list[tuple[int, list[float]]]:
    """(line number, values) for each data row of a small numeric CSV file.

    ``source`` is a path or an open text file (UTF-8, LF or CRLF line ends).
    Blank lines are skipped, and so is the first nonblank row if it does not
    parse as numbers (a header).  An unreadable file or any later
    non-numeric row raises ParameterError naming ``what`` and the line.
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
            rows.append((reader.line_num, [float(c) for c in cells]))
        except ValueError:
            if not header_allowed:
                raise ParameterError(f"{what} line {reader.line_num}: non-numeric data")
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
