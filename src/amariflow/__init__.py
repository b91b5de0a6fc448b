"""Stochastic neural field dynamics as a gradient flow in the nonlocal
Hilbert scale built from a nonnegative definite connectivity kernel."""

from . import errors
from .config import (
    ExperimentConfig,
    default_config,
    parse_config,
    preset_fig1,
    serialize_config,
)
from .energy import (
    GainSpec,
    ModeFlow,
    fd_directional,
    grad_theta,
    phi_functional,
    psi_functional,
    theta_functional,
)
from .ergodic import (
    GibbsTarget,
    MomentReport,
    MomentSummary,
    compare_measures,
    detailed_balance_residual,
    ergodic_moments,
    gamma_cov,
    gibbs_log_density,
    gibbs_log_density_grad,
    rw_metropolis,
    write_moment_report_jsonl,
    write_samples_csv,
)
from .kernels import (
    FAMILIES,
    CauchyExp,
    Classification,
    CosineSum,
    DampedCosine,
    Exponential,
    Gaussian,
    Kernel,
    Laplace,
    MexicanHatExp,
    MexicanHatGauss,
    MexicanHatPoly,
    Sinc,
    Verdict,
    WizardHat,
    Zero,
    bochner_numeric_check,
    gram_min_eigenvalue,
    invert_density,
)
from .operator import (
    Field,
    Grid,
    SpectralDecomposition,
    apply_operator,
    build_operator_matrix,
    check_assumption5,
    inner_h,
    inner_hminus1,
    norm_h,
    norm_hminus1,
    norm_hplus1,
    project_S,
    spectral_decompose,
    write_spectrum_csv,
)
from .rng import derive_rng
from .sde import (
    NoisePath,
    NoiseSpec,
    SimConfig,
    TrajectoryRecord,
    convergence_table,
    detect_switches,
    doss_sussmann_simulate,
    em_simulate_full,
    galerkin_simulate,
    invariance_monitor,
    sample_noise_increments,
    write_events_csv,
    write_trajectory_csv,
)

__version__ = "0.1.0"
