"""Shared error taxonomy.

Two branches: ParameterError for precondition/validation failures and
SolverError for runtime/numerical failures.  The CLI maps them to exit
codes 2 and 3 respectively.  Past WORK_BUDGET, the most steps, levels,
grid points or cells one run may compute (about 2 s at about 2 us a unit;
RK4 and leapfrog take their steps in closed form, far below a unit each),
a size is a ParameterError.
"""

WORK_BUDGET, _POINT_COST = 1_000_000, 16  # and the units a thermal row costs (thermo's price)
_BLOCK = 1 << 13  # points a block: long runs pass in blocks, their temporaries 64 KB of doubles
_T_MIN, _T_MAX = 1e-300, 1e300  # temperatures: keeps 1/T and the tail's energies ~1e3 T finite


class QlabError(Exception):
    pass


class ParameterError(QlabError, ValueError):
    """A precondition on user-supplied input was violated."""


class SolverError(QlabError, RuntimeError):
    """An iterative or numerical procedure failed to produce a result."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SaturationError(SolverError):
    """A quantity overflowed the double range; carries the largest safe index."""

    def __init__(self, message, largest_safe_n):
        super().__init__(message)
        self.largest_safe_n = largest_safe_n


class CutoffError(ParameterError):
    """A requested series cutoff is too small; carries the estimated requirement."""

    def __init__(self, message, required_cutoff):
        super().__init__(message)
        self.required_cutoff = required_cutoff
