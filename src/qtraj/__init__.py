"""Quantum trajectories of a monitored two-level system.

Discrete repeated-interaction measurement chain, diffusive stochastic master
equation (density, wave, and innovation forms), exponential reweighting
between measures, and statistical diagnostics of the chain-to-diffusion
convergence.
"""

from .convergence import (
    DiagonalObservable,
    ConvergenceReport,
    EnsembleSpec,
    distributional_test,
    ks_2samp,
    ks_critical_value,
    mean_vs_master,
    quadratic_variation_stats,
    residual_decay,
    run_full_report,
)
from .discrete import (
    DegenerateProbability,
    StepOutcome,
    TrajectoryRecord,
    drive_ensemble,
    ensemble_streams,
    increment_update,
    interaction_state,
    measurement_step,
    nonnormalized_maps,
    run_trajectory,
)
from .linalg import (
    adjoint,
    max_abs,
    partial_trace_system,
    tensor,
)
from .model import (
    DegenerateSpectrum,
    DensityMatrix,
    InteractionUnitary,
    ModelConfig,
    NotAState,
    Observable,
    WaveFunction,
    build_total_hamiltonian,
    build_unitary,
    make_density,
    make_observable,
    make_wave,
    purity,
)
from .rng import derive_seed, generator_for, mix64
from .sde import (
    MasterPath,
    SdePath,
    WavePath,
    backaction,
    euler_step_density,
    girsanov_weights,
    innovation_path,
    lindblad,
    master_evolve,
    master_on_grid,
    project_positive,
    sde_ensemble_final,
    simulate_belavkin,
    simulate_physical,
    simulate_wave,
    wave_ensemble_final,
    wavefunction_step,
)

__version__ = "0.1.0"
