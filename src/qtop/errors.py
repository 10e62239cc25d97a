"""Exception taxonomy shared across the package.

Every failure mode that a caller can act on gets its own class.  The CLI
maps these onto exit codes: mathematical obstructions (the input symbol
genuinely lacks the property) exit 2, numerical non-convergence exits 3,
malformed input exits 4, and cross-check violations exit 5.
"""

from __future__ import annotations


class QtopError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- input

class InputError(QtopError):
    """Malformed input: bad file, bad flag, bad construction arguments."""


class DuplicateExponent(InputError):
    """Two terms carry the same exponent vector."""

    def __init__(self, exponents):
        self.exponents = tuple(exponents)
        super().__init__(f"duplicate exponent vector {self.exponents}")


class DimensionMismatch(InputError):
    """Matrix sizes or variable counts do not line up."""


class ZeroCoordinate(InputError):
    """Evaluation at a zero coordinate while a negative power is present."""


class OutOfDomain(InputError):
    """Chart point outside its domain (rho not in [0,1], unknown chart)."""


# ------------------------------------------------- mathematical obstruction

class Obstruction(QtopError):
    """The input fails a genuine mathematical property (not a numerics issue)."""


class SingularOnTorus(Obstruction):
    """det of the symbol vanishes (numerically) somewhere on the torus."""


class NotCanonical(Obstruction):
    """Wiener-Hopf partial indices are not all zero.

    Carries the offending indices so callers can report them.
    """

    def __init__(self, indices):
        self.indices = tuple(int(k) for k in indices)
        super().__init__(f"partial indices {list(self.indices)} are not all zero")


class NotFredholm(Obstruction):
    """A half-plane operator is not invertible: some slice is non-canonical.

    ``direction`` is the variable index that was factorized, ``where`` the
    offending fixed point (angle or (angle, t)) and ``indices`` the partial
    indices found there, when available.
    """

    def __init__(self, direction, where, indices=None, detail=""):
        self.direction = direction
        self.where = where
        self.indices = None if indices is None else tuple(int(k) for k in indices)
        msg = f"slice in variable {direction} at {where} is not canonically factorable"
        if self.indices is not None:
            msg += f": partial indices {list(self.indices)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NotHermitian(Obstruction):
    """A Hamiltonian-type input is not hermitian at the requested tolerance."""


class ChiralViolation(Obstruction):
    """Chiral (anticommutation / block) structure violated."""


class SymmetryViolation(Obstruction):
    """A declared symmetry-class relation fails on the input."""


# --------------------------------------------------- numerical breakdown

class NumericalFailure(QtopError):
    """The computation did not reach a trustworthy answer."""


class NonConvergent(NumericalFailure):
    """Residual failed to drop below tolerance within the allowed budget."""


class WindowTooSmall(NumericalFailure):
    """Partial-index scan window shows no linear tails; enlarge and retry."""


class IllConditioned(NumericalFailure):
    """A linear solve exceeded the condition-number bound."""


class Unstable(NumericalFailure):
    """A quantity required to stabilize across truncation sizes did not."""


class SizeOverflow(NumericalFailure):
    """Requested dense truncation exceeds the configured size cap."""


class TrackingAmbiguous(NumericalFailure):
    """Eigenvector tracking overlap fell below the floor; refine sampling."""


class CrossCheckFailed(QtopError):
    """Two independent computations of the same invariant disagree."""
