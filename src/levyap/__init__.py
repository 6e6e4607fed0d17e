"""Top Lyapunov exponents of one-degree-of-freedom Hamiltonian systems
under small Brownian-plus-jump perturbations."""

from .errors import (AllTrajectoriesExited, ConfigError, DegenerateNullspace,
                     DivergentMoment, EmptyMeasure, ExitDetected, InvalidGrid,
                     InvalidMeasure, InvalidParameter, LevyapError,
                     NonPositiveEstimate)
from .estimators import (EstimatorConfig, LyapunovEstimate, SweepResult,
                         compute_Irho, lyapunov_direct, lyapunov_khasminskii,
                         lyapunov_theorem33_estimate, scaling_sweep)
from .fpcircle import (CircleDensity, CircleGrid, GeneratorMatrix,
                       build_generator, lyapunov_quadrature, solve_stationary)
from .frame import FrameCoefficients
from .marcus import (StepperConfig, TrajectoryState, VectorFieldSet, integrate,
                     step)
from .noise import JumpMeasureSpec, NoiseModel, jump_moment, trajectory_streams
from .systems import (DuffingSystem, NilpotentSystem, exact_theta_jump,
                      make_duffing, make_nilpotent)

__version__ = "0.1.0"
