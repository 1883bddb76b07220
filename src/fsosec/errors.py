"""Exception types shared across the package."""


class FsosecError(Exception):
    """Base class for package errors."""


class PoleCollision(FsosecError):
    """Raised when the two Gamma pole families of a Mellin-Barnes integrand
    cannot be separated by an integration contour."""


class NonConvergent(FsosecError):
    """Raised when a numerical scheme misses its tolerance within its
    budget, meets a non-finite value, or rounding leaves it no digit."""


class ConfigError(FsosecError):
    """Raised for malformed, inconsistent or out-of-domain run configuration."""
