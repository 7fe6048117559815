"""Gaussian-process emulation of functions with step discontinuities.

Stationary kernels smooth over jumps; this package provides three
constructions that do not — the neural-network (arcsine) kernel, the
Gibbs kernel with sigmoid length-scale functions, and input warping —
together with constant-mean GP regression, maximum-likelihood fitting,
maximin Latin-hypercube designs and a replicated RMSE benchmark.
"""

from .benchmark import (
    ExperimentResult,
    MethodSpec,
    MethodSummary,
    TestFunction,
    default_methods,
    eval_test_function,
    evaluate,
    nonstationary_function,
    rmse,
    run_experiment,
    step_function,
    summarize,
    user_function,
    write_summary_csv,
)
from .config import (
    kernel_from_dict,
    kernel_to_dict,
    load_kernel,
    load_model,
    load_run_config,
    save_kernel,
    save_model,
)
from .design import (
    Design,
    DesignSpec,
    maximin_lhs,
    random_lhs,
    read_points_csv,
    uniform_test_set,
    write_design_csv,
)
from .domain import Box
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NumericsError,
    OptimizationError,
    ParameterError,
    StepGPError,
)
from .gp import FittedGP, TrainingSet, estimate_mu, fit
from .kernels import (
    ArctanLS,
    ArctanWarp,
    ConstantLS,
    ErfLS,
    ErfWarp,
    Exponential,
    GibbsKernel,
    HyperParam,
    Kernel,
    LengthScaleFn,
    LogisticLS,
    LogisticWarp,
    Matern32,
    Matern52,
    NeuralNet,
    NeuralNetShifted,
    PeriodicPairWarp,
    QuadraticLS,
    SquaredExponential,
    TanhLS,
    TanhWarp,
    WarpMap,
    WarpedKernel,
    compose,
    gram_matrix,
)
from .mle import (
    MLResult,
    default_bounds,
    log_likelihood,
    maximize_likelihood,
)

__version__ = "0.1.0"

__all__ = [
    "ArctanLS", "ArctanWarp", "Box", "ConfigError", "ConstantLS",
    "DataError", "Design", "DesignSpec", "DimensionError", "ErfLS",
    "ErfWarp", "ExperimentResult", "Exponential", "FittedGP", "GibbsKernel",
    "HyperParam", "Kernel", "LengthScaleFn", "LogisticLS", "LogisticWarp",
    "MLResult", "Matern32", "Matern52", "MethodSpec",
    "MethodSummary", "NeuralNet", "NeuralNetShifted", "NumericsError",
    "OptimizationError", "ParameterError", "PeriodicPairWarp",
    "QuadraticLS", "SquaredExponential", "StepGPError", "TanhLS",
    "TanhWarp", "TestFunction", "TrainingSet", "WarpMap", "WarpedKernel",
    "compose", "default_bounds", "default_methods", "estimate_mu",
    "eval_test_function", "evaluate", "fit", "gram_matrix",
    "kernel_from_dict", "kernel_to_dict", "load_kernel", "load_model",
    "load_run_config", "log_likelihood", "maximin_lhs",
    "maximize_likelihood", "nonstationary_function", "random_lhs",
    "read_points_csv", "rmse", "run_experiment", "save_kernel",
    "save_model", "step_function", "summarize", "uniform_test_set",
    "user_function", "write_design_csv", "write_summary_csv",
]
