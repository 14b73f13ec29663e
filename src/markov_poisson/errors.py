"""Exception hierarchy shared across the toolkit.

Every error carries a short machine-readable ``code`` so command-line
reports can classify failures without parsing messages.
"""

from __future__ import annotations

import copyreg


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "toolkit-error"

    def __reduce__(self):
        # rebuild from the formatted message and the attributes, without
        # running a subclass __init__ on its own message: an error raised in
        # a worker process then reads as it would in the calling one
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class NegativeEntry(ToolkitError):
    """A transition kernel entry is negative beyond tolerance."""

    code = "negative-entry"


class RowSumViolation(ToolkitError):
    """A kernel row or a probability vector does not sum to one within tolerance.

    ``row`` is the kernel row's index, or a name for the probability vector.
    """

    code = "row-sum-violation"

    def __init__(self, row: int | str, deficit: float):
        where = row if isinstance(row, str) else f"row {row}"
        super().__init__(f"{where} sums to 1{deficit:+.3e}; |deficit| exceeds tolerance")
        self.row = row
        self.deficit = deficit


class MultipleRecurrentClasses(ToolkitError):
    """The chain has more than one closed communicating class."""

    code = "multiple-recurrent-classes"


class NegativityViolation(ToolkitError):
    """A function required to be nonnegative has negative entries."""

    code = "negativity-violation"


class DriftViolation(ToolkitError):
    """The drift inequality fails at one or more states outside C."""

    code = "drift-violation"

    def __init__(self, states, residuals):
        self.states = list(states)
        self.residuals = list(residuals)
        worst = max(self.residuals)
        super().__init__(
            f"drift inequality fails outside C at states {self.states} "
            f"(worst residual {worst:.3e})"
        )


class EmptyMinorization(ToolkitError):
    """The componentwise row minimum over C is identically zero."""

    code = "empty-minorization"


class MinorizationViolation(ToolkitError):
    """A supplied (lambda, phi) pair fails P^m(x, .) >= lambda*phi."""

    code = "minorization-violation"


class NegativeResidual(ToolkitError):
    """The residual kernel (P^m - lambda*phi)/(1-lambda) has a negative entry."""

    code = "negative-residual"


class InconsistentCertificate(ToolkitError):
    """phi or Q places mass on an endpoint y with P^m(x, y) = 0."""

    code = "inconsistent-certificate"


class Unreachable(ToolkitError):
    """Some state cannot reach the small set."""

    code = "unreachable"

    def __init__(self, state: int):
        super().__init__(f"state {state} cannot reach the small set")
        self.state = state


class SingularSystem(ToolkitError):
    """A linear system pivot fell below tolerance."""

    code = "singular-system"


class InvariantViolation(ToolkitError):
    """An identity the theory guarantees failed numerically.

    Raised for the stationary fixed point, the Poisson residual of the
    canonical solution and the occupation identity nu = pi.
    """

    code = "invariant-violation"


class MaxStepsExceeded(ToolkitError):
    """A simulated cycle did not regenerate within the step budget."""

    code = "max-steps-exceeded"

    def __init__(self, steps: int):
        super().__init__(f"cycle exceeded {steps} steps without regenerating")
        self.steps = steps


class BoundViolation(ToolkitError):
    """A guaranteed bound failed; indicates a certificate or implementation bug."""

    code = "bound-violation"

    def __init__(self, state, message):
        super().__init__(message)
        self.state = state


class QuadratureFailure(ToolkitError):
    """Numeric integration lost more mass than the tolerance allows."""

    code = "quadrature-failure"


class SearchExhausted(ToolkitError):
    """No feasible small-set endpoint exists on the search grid."""

    code = "search-exhausted"


class NonFiniteResult(ToolkitError):
    """A computed quantity overflowed to infinity or is NaN; no report can carry it."""

    code = "non-finite-result"


class SpecFileError(ToolkitError):
    """A chain-spec document failed to parse or validate."""

    code = "spec-file-error"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
