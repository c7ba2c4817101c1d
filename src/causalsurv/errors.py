"""Exception hierarchy.

Grouped by pipeline stage so the CLI can map them onto exit codes:
graph/cohort/config problems are data errors, identification failures are
their own class, and estimation failures are numerical errors.
"""


class CausalSurvError(Exception):
    """Base class for all package errors."""


# --- causal graph -----------------------------------------------------------

class GraphError(CausalSurvError):
    pass


class CycleDetected(GraphError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("graph contains a cycle: " + " -> ".join(self.cycle))


class UnknownNode(GraphError):
    pass


class DuplicateNode(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class OverlappingSets(GraphError):
    pass


class TreatmentEqualsOutcome(GraphError):
    pass


class GraphTooLarge(GraphError):
    pass


class GraphFileError(GraphError):
    """Malformed graph JSON; message carries the offending position."""


class NotIdentifiable(CausalSurvError):
    """No observed backdoor set exists for the requested effect."""

    def __init__(self, message, open_path=None):
        self.open_path = open_path
        super().__init__(message)


# --- cohort data ------------------------------------------------------------

class CohortError(CausalSurvError):
    pass


class MissingColumn(CohortError):
    pass


class AmbiguousColumn(CohortError):
    """A mapped column name appears more than once in the header."""


class NonBinaryTreatment(CohortError):
    pass


class NonBinaryEvent(CohortError):
    pass


class NegativeTime(CohortError):
    pass


class NonIntegerTime(CohortError):
    pass


class EmptyArm(CohortError):
    pass


class RaggedRow(CohortError):
    pass


class MissingValue(CohortError):
    pass


class UnknownCovariate(CohortError):
    pass


# --- transformation / adjustment --------------------------------------------

class PositivityViolation(CausalSurvError):
    """An (arm, stratum) cell is empty; the plug-in estimator is undefined."""

    def __init__(self, arm, stratum):
        self.arm = arm
        self.stratum = tuple(stratum)
        super().__init__(
            f"empty stratum: arm={arm}, covariate levels={self.stratum!r}"
        )


class InvalidAdjustmentSet(CausalSurvError):
    pass


class NonMonotoneCounts(CausalSurvError):
    pass


# --- estimation -------------------------------------------------------------

class EstimationError(CausalSurvError):
    pass


class NoEvents(EstimationError):
    pass


class ConstantCovariate(EstimationError):
    pass


class MonotoneLikelihood(EstimationError):
    """Complete separation: a coefficient diverged during iteration."""


class SingularHessian(EstimationError):
    pass


class NonFiniteEstimate(EstimationError):
    """A fit's hazard ratio, interval bound or standard error is not finite."""


class NotConverged(EstimationError):
    pass


class EmptyGroup(EstimationError):
    pass


class LengthMismatch(EstimationError):
    pass


class EmptyCurve(CausalSurvError):
    pass


# --- simulation -------------------------------------------------------------

class InvalidConfig(CausalSurvError):
    pass
