"""Exception hierarchy shared across the package.

Input problems (bad framings, malformed text, out-of-range parameters) raise
ValueError subclasses so that callers can treat them like ordinary argument
errors.  Internal cross-check failures raise InternalDisagreement, which is
deliberately *not* a ValueError: it signals a bug, not bad input.
"""

__all__ = [
    "SpinDefectError",
    "PrecisionError",
    "UnrecognizedForm",
    "NoAdmissibleRearrangement",
    "DegenerateEuler",
    "NoSpinForm",
    "NoSolution",
    "InternalDisagreement",
]


class SpinDefectError(Exception):
    """Base class for every error raised by this package."""


class PrecisionError(SpinDefectError):
    """A floating-point evaluation did not land close enough to an integer."""


class UnrecognizedForm(SpinDefectError, ValueError):
    """Seifert data could not be normalized onto any catalogued case."""


class NoAdmissibleRearrangement(SpinDefectError):
    """The defect engine cannot split the data: every fiber multiplicity is
    odd, so no presentation meets its normalization conditions."""


class DegenerateEuler(SpinDefectError, ValueError):
    """The rational Euler number vanishes; the boundary is not a rational
    homology sphere and the defect is undefined."""


class NoSpinForm(SpinDefectError, ValueError):
    """The requested spin structure does not exist: ``sigma`` and
    ``LensSpace`` raise it for a sign eps that labels no spin structure on
    the lens space, and ``classify``, ``delta_engine`` and
    ``seifert_to_plumbing`` for Seifert labels that fail the spin
    constraints (no re-presentation has even central framing and vanishing
    meridian spin values)."""


class NoSolution(SpinDefectError):
    """A tree's Wu system M x = diag(M) over GF(2) has more solutions than
    the enumeration lists: its kernel dimension exceeds the cap.  The
    system itself is always solvable."""


class InternalDisagreement(SpinDefectError):
    """Two independent computation routes returned different answers."""
