"""Exception hierarchy shared by all abcc modules."""


class AbccError(Exception):
    """Base class for all library errors."""


class CapExceededError(AbccError):
    """An exhaustive enumeration would exceed the configured cap."""


class InvalidCommitteeSizeError(AbccError):
    """Committee size k is zero, negative, or larger than m."""


class InvalidRuleError(AbccError):
    """Rule construction rejected (unknown kind, bad weights, bad table)."""


class DomainMismatchError(AbccError):
    """Committee, vote, or model does not match the rule's (m, k)."""


class InvalidNoiseParamError(AbccError):
    """Noise parameter outside its admissible range (e.g. p not in (1/2, 1])."""


class NotMonotonicError(AbccError):
    """Level probabilities are not strictly decreasing."""


class NotNormalizedError(AbccError):
    """Model probabilities do not sum to exactly 1."""

    def __init__(self, deficit):
        self.deficit = deficit
        super().__init__(f"probabilities sum to 1 + ({deficit})")


class NoCounterexampleError(AbccError):
    """No adversarial construction exists for this rule."""


class DeltaSearchError(AbccError):
    """The delta halving search did not reach a negative gap (indicates a bug)."""


class PreconditionError(AbccError):
    """A documented operation precondition does not hold."""


class MetricAxiomError(AbccError):
    """A custom metric table violates a metric axiom."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class SizeMismatchError(AbccError):
    """Two sets that must have equal cardinality do not."""


class ProfileParseError(AbccError):
    """Malformed profile, rule, metric, or model file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotAccurateError(AbccError):
    """Sample-size bound requested for a configuration that is not accurate."""
