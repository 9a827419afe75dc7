"""Exception types shared across the package, each with the command line's
exit code for it: 2 for bad input, 3 for an internal inconsistency."""


class CheshireError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ValidationError(CheshireError, ValueError):
    """An input violates a documented precondition (bad state, config, ...)."""


class OrthogonalPostselection(CheshireError):
    """Postselection amplitude (or success probability) is numerically zero,
    so the requested postselected quantity is undefined."""


class GridTooSmall(CheshireError):
    """A pointer shift pushes significant wavefunction amplitude off the grid."""


class FlatObjective(CheshireError):
    """The optimization objective is identically zero; no optimum exists."""


class ConsistencyError(CheshireError):
    """An internal numerical consistency check failed (e.g. a probability
    outside [0, 1])."""

    exit_code = 3


class PositivityError(ConsistencyError):
    """A density that must be pointwise non-negative dipped below tolerance,
    signalling inconsistent inputs."""
