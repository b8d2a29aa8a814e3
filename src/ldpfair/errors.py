"""Exception hierarchy shared across the library."""


class LdpFairError(Exception):
    """Base class for all library errors."""


class InvalidDistributionError(LdpFairError):
    """An array that should be a probability distribution is not one."""


class DimensionMismatchError(LdpFairError):
    """Operands with incompatible shapes or alphabet sizes."""


class PreconditionError(LdpFairError):
    """A documented operation precondition was violated."""


class InfeasibleGammaError(LdpFairError):
    """The requested utility floor gamma exceeds what any encoder can achieve."""


class DivergenceError(LdpFairError):
    """An optimization did not finish: non-finite values, or an iteration cap reached."""


class DatasetError(LdpFairError):
    """Dataset ingestion, validation, or caching failure."""


class ConfigError(LdpFairError):
    """Invalid run configuration."""
