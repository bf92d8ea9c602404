"""Finite-volume solvers for barotropic compressible flow at low Mach
number, the matching incompressible limit scheme, and refinement-statistics
tooling on periodic structured grids.

The compressible scheme treats mass transport implicitly with an upwind
flux driven by a pressure-stabilized advective velocity, which keeps the
time step bounded away from zero as the Mach number drops while the total
energy stays non-increasing.  The limit scheme replaces the density update
by a pressure Poisson equation, solved directly in Fourier space.  The
analysis layer compares refinement sequences of either scheme through
Cesaro averages, first variances, and per-cell Wasserstein distances.
"""

from .analysis import (
    Ensemble,
    ErrorReport,
    Snapshot,
    cesaro,
    comp_snapshot,
    density_deviation,
    eoc,
    error_suite,
    first_variance,
    incomp_snapshot,
    make_ensemble,
    rel_energy_comp,
    rel_energy_incomp,
    w1_empirical,
)
from .compressible import (
    CompConfig,
    CompState,
    Trajectory,
    comp_step,
    init_comp,
    run_comp,
    total_energy,
    total_entropy,
)
from .config import ExperimentConfig, config_hash, load_config
from .fields import CellScalar, CellVector
from .harness import OutputBundle, run_experiment
from .incompressible import (
    IncompConfig,
    IncompState,
    incomp_step,
    init_incomp,
    kinetic_energy,
    pressure_solve,
    run_incomp,
)
from .mesh import Mesh, MeshSpec

__version__ = "0.1.0"
