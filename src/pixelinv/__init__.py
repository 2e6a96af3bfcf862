"""FEM forward operator and diagnostics for pixel-based inverse diffusion.

The package discretizes stationary diffusion on the unit square with a
coefficient that is constant on each square pixel, exposes the resulting
finitely-many-measurements forward map together with its exact Jacobian
(built from per-pixel stiffness matrices), and provides the analysis and
experiment tooling around it: reconstruction, condition numbers, and
batch studies of non-uniqueness, local minima and instability.
"""

from .mesh import (
    DiskSpec,
    PixelGrid,
    TriMesh,
    build_mesh,
    refine,
    refine_disk,
    resolve_disk,
    standard_disk_layout,
)
from .assembly import (
    LoadVector,
    StiffnessSet,
    assemble_global,
    assemble_load,
    assemble_pixel_matrices,
    element_stiffness,
    global_matrix,
)
from .linsolve import SolveReport, SolverError, solve_multi, solve_spd
from .forward import (
    JacobianStack,
    MeasurementMatrix,
    directional_derivative,
    forward_matrix,
    forward_pair_sweep,
    forward_pair_values,
    forward_pairs,
    true_reference,
)
from .analysis import (
    PairLayout,
    ReconstructionError,
    ResidualProblem,
    SpectralReport,
    SymmetricLayout,
    condition_number,
    loewner_min_eig,
    reconstruct_lm,
    residual,
    singular_values,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    load_config,
    run_nonuniqueness_sweep,
    run_property_suite,
    run_residual_landscape,
    run_stability_study,
    write_csv,
)

__version__ = "0.1.0"
