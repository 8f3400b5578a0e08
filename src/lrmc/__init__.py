"""Regularization-free gradient descent for asymmetric low-rank matrix
completion, with spectral initialization, alignment metrics, experiment
harnesses, and numeric checks of the convergence theory."""

from .linalg import frobenius_norm, full_svd, spectral_norm
from .metrics import (balancing_norm, dist, gl_align, incoherence,
                      procrustes_align, relative_error)
from .model import FactorPair, GroundTruth
from .sampling import (LooSelector, ObservationMask, loo_cells, loo_project,
                       project, sample_mask)
from .solvers import (IterateTrace, RunResult, SolverConfig, SolverVariant,
                      gradient, objective, run, step)
from .spectral import loo_init, spectral_init, truncated_svd
from .experiments import (ExperimentSpec, gen_ground_truth, run_convergence,
                          run_phase, run_timing, extract_contour)

__version__ = "0.1.0"
