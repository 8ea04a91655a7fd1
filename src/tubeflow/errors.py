"""Exception hierarchy for tubeflow."""


class TubeflowError(Exception):
    """Base class for all tubeflow errors."""


class GeometryError(TubeflowError):
    """Degenerate or otherwise unusable center-curve data."""


class MapError(TubeflowError):
    """The tube map is not invertible for the given parameters."""


class SolverError(TubeflowError):
    """A pressure boundary-value solve failed (singular system)."""


class ConfigurationError(TubeflowError):
    """Missing or inconsistent run configuration."""


class WallCollapseError(TubeflowError):
    """The elastic wall law produced a non-positive radius."""


class CouplingDivergenceError(TubeflowError):
    """The wall/pressure fixed point failed to converge.

    ``history`` holds the residual of each sweep of the failing step and
    ``t`` its end time.
    """

    def __init__(self, message, history, t):
        super().__init__(message)
        self.history = list(history)
        self.t = t


class ModelInconsistencyError(TubeflowError):
    """A solvability (compatibility) condition of the model is violated."""
