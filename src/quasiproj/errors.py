"""Exception hierarchy shared by the whole package."""


class QcError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QcError):
    """Bad run configuration (CLI exit code 2)."""


class SingularConfigError(QcError):
    """Singular geometric configuration (CLI exit code 3)."""


class SingularityError(SingularConfigError):
    """A test point fell on a window boundary, or grid lines are concurrent.

    The construction requires a regular grid; callers should perturb the
    shift vector and retry.
    """


class DegenerateWindowError(SingularConfigError):
    """A slice window collapsed to a point, or passes too near a vertex layer to be built."""


class ConsistencyError(QcError):
    """Internal invariant failed (hull or atom counts...): a fault, which the CLI raises."""


class CensusViolationError(ConsistencyError):
    """A classified vertex or overlap signature falls outside the known census."""


class PolygonError(ValueError):
    """Malformed polygon input (fewer than 3 vertices)."""
