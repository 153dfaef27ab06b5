"""Scalar deformation calculus.

q-numbers, the deformation function f(n), the operator spectrum
F(n) = n f^2(n), its increments phi(n), deformed factorials, and the
inverse of F.  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import sys
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import ParameterError, SaturationError

# sinh overflows double just above this argument.
_SINH_MAX_ARG = 709.0

_Q = "q"
_IDENTITY = "identity"
_CUSTOM = "custom"


@dataclass(frozen=True)
class DeformationSpec:
    """Selects the deformation: q-type with parameter ``lam``, the identity
    deformation (f == 1), or a user-supplied table of f(n) values.

    Use the module-level constructors :func:`q_deform`, :func:`identity` and
    :func:`custom` rather than instantiating directly.
    """

    kind: str
    lam: float = 0.0
    table: tuple[float, ...] | None = None

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
            big = [n * v * v for n, v in enumerate(self.table)]
            if any(b >= a for a, b in zip(big[1:], big)):
                raise ParameterError("custom f table gives a non-increasing F(n); not invertible")

def q_deform(lam: float) -> DeformationSpec:
    return DeformationSpec(_Q, lam=float(lam))


def identity() -> DeformationSpec:
    return DeformationSpec(_IDENTITY)


def custom(f_values) -> DeformationSpec:
    return DeformationSpec(_CUSTOM, table=tuple(float(v) for v in f_values))


def q_number(n: float, lam: float) -> float:
    """The q-integer n_q = sinh(n*lam)/sinh(lam), q = e^lam.

    Accepts nonnegative real ``n`` (continuous extension).  The plain ratio
    is accurate for every lam down to the subnormals, since sinh keeps its
    relative accuracy there; only where n*lam underflows the normal range
    (lam = 0 included) is the limit n returned.  Even in lam.
    """
    if n < 0:
        raise ParameterError("q_number requires n >= 0")
    x = n * abs(lam)
    if x < sys.float_info.min:
        return float(n)
    if x > _SINH_MAX_ARG:
        return math.inf
    return math.sinh(n * lam) / math.sinh(lam)


def lambda_over_sinh(lam: float) -> float:
    """lam/sinh(lam), and its limit 1 at lam = 0."""
    return 1.0 if lam == 0 else lam / math.sinh(lam)


def _custom_f(n: float, table) -> float:
    n_max = len(table) - 1
    if n < 0 or n > n_max:
        raise ParameterError(f"custom f table covers n = 0..{n_max}, got {n}")
    i = int(n)
    if i == n:
        return table[i]
    # linear interpolation at non-integer arguments (continuous extension)
    frac = n - i
    return table[i] * (1.0 - frac) + table[i + 1] * frac


def f_of_n(n: float, spec: DeformationSpec) -> float:
    """Deformation function f(n) >= 0; accepts real n >= 0.

    Identity -> 1.  q-deform -> sqrt(n_q/n) for n > 0, and the pinned
    convention lam/sinh(lam) at n = 0.  Custom -> table lookup (linear
    interpolation at non-integer n).
    """
    if n < 0:
        raise ParameterError("f_of_n requires n >= 0")
    if spec.kind == _IDENTITY:
        return 1.0
    if spec.kind == _CUSTOM:
        return _custom_f(n, spec.table)
    if n == 0:
        return lambda_over_sinh(spec.lam)
    return math.sqrt(q_number(n, spec.lam) / n)


def big_f(n: float, spec: DeformationSpec) -> float:
    """F(n) = n*f^2(n), the spectrum of the deformed number operator."""
    if n < 0:
        raise ParameterError("big_f requires n >= 0")
    if spec.kind == _IDENTITY:
        return float(n)
    if spec.kind == _Q:
        return q_number(n, spec.lam)
    v = _custom_f(n, spec.table)
    return n * v * v


def big_f_inverse(x: float, spec: DeformationSpec) -> float:
    """Solve F(y) = x for y >= 0 to tolerance 1e-12.

    F is strictly increasing for every valid spec, so the root is found by
    bracketed monotone root-finding on the continuous extension
    F(y) = sinh(y*lam)/sinh(lam) in the q case, and by inverting the
    piecewise-linear extension of the table in the custom case.
    """
    if x < 0:
        raise ParameterError("big_f_inverse requires x >= 0")
    if spec.kind == _IDENTITY:
        return float(x)
    if spec.kind == _CUSTOM:
        nodes = [n * v * v for n, v in enumerate(spec.table)]
        if x > nodes[-1]:
            raise ParameterError(
                f"x = {x} above the custom table range (F max = {nodes[-1]})")
        i = bisect.bisect_left(nodes, x)
        if i == 0:
            return 0.0
        lo, hi = nodes[i - 1], nodes[i]
        return (i - 1) + (x - lo) / (hi - lo)
    if x == 0.0:
        return 0.0
    lam = spec.lam
    hi = 1.0
    while q_number(hi, lam) < x:
        hi *= 2.0
        if not math.isfinite(q_number(hi, lam)):
            hi = _SINH_MAX_ARG / abs(lam)  # largest argument sinh can take
            if q_number(hi, lam) < x:
                raise SaturationError("F value beyond double range; cannot invert",
                                      largest_safe_n=hi)
            break
    return brentq(lambda y: q_number(y, lam) - x, 0.0, hi, xtol=1e-13, rtol=8.9e-16)


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
        if convention == "q":
            lam = spec.lam if spec.kind == _Q else 0.0
            out *= q_number(k, lam)
        else:
            out *= f_of_n(k, spec)
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
