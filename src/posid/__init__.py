"""Impulse response estimation under internal-positivity constraints."""

from .baselines import BaselineKind, run_baseline
from .errors import ConfigError, DataError, PosidError, SolverError
from .estimator import (FittedModel, PositiveIdConfig, PositiveIdModel,
                        compute_m0, identify, predict)
from .extensions import (FiniteResponseConfig, OscillatingPoleConfig,
                         OscillatingPoleModel, RepeatedPoleConfig,
                         RepeatedPoleModel, identify_finite_response,
                         identify_oscillating_poles, identify_repeated_pole)
from .experiments import (HeatingConfig, HeatingReport, McConfig,
                          McProtocol, MetricsReport, fit_impulse,
                          fit_output, run_heating, run_monte_carlo,
                          true_system)
from .kernels import (DominationBound, KernelSpec, decay_compatible,
                      domination_bound, window_kernel)
from .qp import ConvexQP, QPSolution
from .signals import (ImpulseResponse, TimeSeriesData, convolve,
                      read_impulse_csv, read_timeseries_csv,
                      write_impulse_csv)
from .tuning import (HyperparamSpace, SplitSpec, ThetaPoint, TuneResult,
                     default_split, tune)

__version__ = "0.1.0"

__all__ = [
    "BaselineKind", "ConfigError", "ConvexQP", "DataError",
    "DominationBound", "FiniteResponseConfig", "FittedModel",
    "HeatingConfig", "HeatingReport", "HyperparamSpace", "ImpulseResponse",
    "KernelSpec",
    "McConfig", "McProtocol", "MetricsReport", "OscillatingPoleConfig",
    "OscillatingPoleModel", "PosidError", "PositiveIdConfig",
    "PositiveIdModel", "QPSolution", "RepeatedPoleConfig",
    "RepeatedPoleModel", "SolverError", "SplitSpec",
    "ThetaPoint", "TimeSeriesData", "TuneResult", "compute_m0",
    "convolve", "decay_compatible", "default_split", "domination_bound",
    "fit_impulse", "fit_output", "identify", "identify_finite_response",
    "identify_oscillating_poles", "identify_repeated_pole", "predict",
    "read_impulse_csv", "read_timeseries_csv", "run_baseline",
    "run_heating", "run_monte_carlo", "true_system", "tune",
    "window_kernel", "write_impulse_csv",
]
