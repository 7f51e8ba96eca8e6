"""Exception taxonomy for the loewner package.

Three families matter to callers (and to the CLI exit codes):

* ``UsageError``        -- the request itself is malformed (exit code 1),
* ``ValidationError``   -- the inputs violate a documented precondition
                           (exit code 2),
* ``NumericalFailure``  -- the inputs were fine but the computation broke
                           down numerically (exit code 3).
"""


class LoewnerError(Exception):
    """Base class for all package-specific errors."""


class UsageError(LoewnerError):
    """A request that is malformed regardless of the numerical inputs."""


class UnknownFixture(UsageError):
    """Requested bundled example family does not exist."""


class UnknownSuite(UsageError):
    """Requested ensemble suite does not exist."""


class ValidationError(LoewnerError):
    """Input data violates a documented precondition."""


class ParseError(ValidationError):
    """A matrix-set document could not be parsed."""


class NonSquare(ValidationError):
    """A square matrix was expected."""


class NotHermitianWithinTolerance(ValidationError):
    """Input matrix is farther from Hermitian than the equality tolerance."""


class DimensionMismatch(ValidationError):
    """Operands do not share the required dimension."""


class AmbientMismatch(ValidationError):
    """Subspaces do not share their ambient dimension."""


class TrivialSubspace(ValidationError):
    """A proper nontrivial subspace was required."""


class NotPositiveSemidefinite(ValidationError):
    """A positive semidefinite matrix was required."""


class NotUnitVector(ValidationError):
    """A unit vector was required."""


class NotCommutingFamily(ValidationError):
    """The operation requires pairwise commuting members."""


class NotLowerBound(ValidationError):
    """The given matrix is not a lower bound of the set."""


class InfimumExists(ValidationError):
    """The set has an infimum, so distinct maximal lower bounds cannot exist."""


class NotMaximalForJZero(ValidationError):
    """The matrix is not a certified maximal lower bound of {J, 0}."""


class SingularTransform(ValidationError):
    """The congruence transform must be invertible."""


class NumericalFailure(LoewnerError):
    """The computation failed for numerical reasons."""


class ConvergenceFailure(NumericalFailure):
    """An iterative eigensolver did not converge."""


class RangeConditionViolated(NumericalFailure):
    """The coupling block leaves the range of the corner block, so the
    generalized Schur complement is undefined."""


class SchurRangeViolation(RangeConditionViolated):
    """Range condition broke down in one split of the positive maximal lower bound."""


class AngularExtractionFailed(NumericalFailure):
    """The null space is not a graph over the expected block."""


class DistinctnessFailure(NumericalFailure):
    """Perturbed routes could not produce distinct maximal lower bounds."""


class ConsistencyError(NumericalFailure):
    """Two independent computations of the same quantity disagreed."""
