"""Exception types shared across the package."""


class VpccError(Exception):
    """Base class for all package-specific errors."""


class DomainError(VpccError):
    """An argument is outside the mathematical domain of the operation.

    ``field`` names the offending argument where the check is about one
    field, so a config parser can point at that field's key.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NotPSD(VpccError):
    """A matrix that must be positive semidefinite is not.

    Raised when an eigenvalue falls below the clamping band; this signals
    an algebra bug in moment assembly rather than a user input error.
    """


class MomentUndefined(VpccError):
    """The requested raw moment does not exist or is not supported."""


class SamplerMissing(VpccError):
    """A random entry carries moments only and cannot be sampled."""


class AllocationInfeasible(VpccError):
    """The current input cannot be certified within the risk budget."""


class ConfigError(VpccError):
    """A problem configuration failed validation.

    ``field`` holds the dotted path of the offending entry so command-line
    diagnostics can point at the exact location.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message
