"""Exception and warning types shared across the package."""

import os
import sys

_PACKAGE = os.path.dirname(os.path.abspath(__file__)) + os.sep


class PropfitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PropfitError):
    """Model evaluated at a point outside its valid domain."""


class NonFiniteError(PropfitError):
    """A computed quantity came out NaN or infinite."""


class SingularError(PropfitError):
    """A matrix required to be invertible is numerically singular."""


class ZeroMeanError(PropfitError):
    """The mean function is zero at an observation, so relative quantities are undefined."""


class ZeroResponseError(PropfitError):
    """An observed response is zero (or nonpositive) where 1/y**2 weights are required."""


class NoBracketError(PropfitError):
    """The curves do not cross at or below 0 before their gap turns non-finite:
    the intersection dose has no root."""


class TangencyError(PropfitError):
    """The two curves meet tangentially; the intersection dose is not locally identifiable."""


class ModeError(PropfitError):
    """Requested two-curve fitting mode is invalid for the chosen method."""


class ConfigError(PropfitError):
    """Invalid run configuration or input table."""


class Rejected(Exception):
    """Flow control: a simulated dataset violated the positivity constraint.

    Not a subclass of :class:`PropfitError`; callers of the generator catch
    it and redraw (counting the rejection), they never surface it.
    """


def first_errors(*per_row) -> tuple:
    """Per row, the first error (not None) among equal-length per-row sequences."""
    return tuple(next((e for e in errs if e is not None), None) for errs in zip(*per_row))


class MultipleRootWarning(UserWarning):
    """Some rows' curves cross more than once at or below 0; each row's root
    is the crossing closest to zero. One warning per call counts the rows."""


class DerivativeNoiseWarning(UserWarning):
    """Curvature weights were computed from doubly finite-differenced Hessians."""


def outside_stacklevel() -> int:
    """The ``stacklevel`` at which :func:`warnings.warn`, called by the
    function calling this one, names the first frame outside propfit: the
    line that called into the package, however deep the call went."""
    frame, level = sys._getframe(1), 1
    while (frame.f_back is not None
           and os.path.abspath(frame.f_code.co_filename).startswith(_PACKAGE)):
        frame, level = frame.f_back, level + 1
    return level
