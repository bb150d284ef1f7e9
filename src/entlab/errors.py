"""Exception types raised by the library."""

from __future__ import annotations


class EntanglementLabError(Exception):
    """Base class for all library errors.

    ``deviation`` carries the measured magnitude of the violated invariant
    when one is available (e.g. how far a matrix is from Hermiticity).
    """

    def __init__(self, message: str, deviation: float | None = None):
        super().__init__(message)
        self.deviation = deviation


class NotHermitian(EntanglementLabError):
    """A matrix is not Hermitian, or not a finite 4x4 matrix at all."""


class NotConverged(EntanglementLabError):
    """LAPACK failed to converge on a finite matrix, e.g. one whose entries
    span hundreds of orders of magnitude."""


class TraceNotOne(EntanglementLabError):
    """Density-matrix validation: trace differs from one."""


class NotPSD(EntanglementLabError):
    """A matrix that must be positive semidefinite has a negative eigenvalue."""


class ParameterOutOfRange(EntanglementLabError, ValueError):
    """An argument, of the library or the command line, out of range or ill-formed."""


class SeparableInput(EntanglementLabError):
    """A pair comparison was requested for a separable state."""


class SelfTestFailure(EntanglementLabError):
    """An invariant that ``entlab selftest`` checks does not hold."""
