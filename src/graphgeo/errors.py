"""Exception types shared across the package."""


class GraphGeoError(Exception):
    """Base class for all package errors."""


class DegenerateMetricError(GraphGeoError):
    """Metric matrix is singular or not positive definite."""


class DegeneratePlaneError(GraphGeoError):
    """Two vectors span no plane (parallel or one of them near zero)."""


class OutOfChartError(GraphGeoError):
    """A point, or the image of a point, left its coordinate chart box."""


class CapabilityError(GraphGeoError):
    """An operation needs jet data the object does not carry."""


class InvalidParameterError(GraphGeoError):
    """A parameter is outside its admissible range."""


class PreconditionError(GraphGeoError):
    """The caller violated a documented precondition of an operation."""


class FrameConstructionError(GraphGeoError):
    """Adapted frame construction failed its internal verification."""


class UnknownScenarioError(GraphGeoError, KeyError):
    """Scenario name not present in the registry."""

    def __str__(self) -> str:
        # the message itself, not the quoted repr that KeyError gives its key
        return Exception.__str__(self)
