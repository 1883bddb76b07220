"""Exception types shared across the package."""


class FsosecError(Exception):
    """Base class for package errors."""


class NonConvergent(FsosecError):
    """Raised when a numerical scheme has no contour, misses its tolerance
    within its budget, meets a non-finite value, or loses every digit."""


class ConfigError(FsosecError):
    """Raised for malformed, inconsistent or out-of-domain run configuration."""
