"""Exception types shared across the toolkit."""


class LevyapError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(LevyapError):
    pass


class InvalidMeasure(LevyapError):
    """Raised when a jump measure cannot be sampled or integrated as requested."""


class DivergentMoment(LevyapError):
    """Raised when a requested jump-measure moment is infinite."""


class ExitDetected(LevyapError):
    """A trajectory hit a critical point or exploded.

    Carries the offending state so callers can inspect time and flag.
    """

    def __init__(self, state):
        self.state = state
        super().__init__(f"trajectory exited at t={state.t:.6g} ({state.exit_flag})")


class InvalidGrid(LevyapError):
    pass


class DegenerateNullspace(LevyapError):
    """The discretized adjoint has nullspace dimension different from one."""


class EmptyMeasure(LevyapError):
    """An occupation measure with no mass was supplied."""


class NonPositiveEstimate(LevyapError):
    """Log-log fitting is impossible because too few estimates are positive."""


class AllTrajectoriesExited(LevyapError):
    """Every replicate exited before accumulating half of the horizon."""


class ConfigError(LevyapError):
    """Invalid run configuration (bad key, bad value, malformed file)."""
