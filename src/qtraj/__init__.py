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
    ks_2samp,
    ks_critical_value,
    run_full_report,
)
from .discrete import (
    DegenerateProbability,
    TrajectoryRecord,
    drive_ensemble,
    ensemble_streams,
    run_trajectory,
)
from .linalg import (
    adjoint,
    max_abs,
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
    build_unitary,
    make_observable,
)
from .rng import derive_seed, generator_for, mix64
from .sde import (
    MasterPath,
    SdePath,
    WavePath,
    master_evolve,
    master_on_grid,
    sde_ensemble_final,
    simulate_belavkin,
    simulate_physical,
    simulate_wave,
)

__version__ = "0.1.0"
