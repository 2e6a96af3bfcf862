"""FEM forward operator and diagnostics for pixel-based inverse diffusion.

The package discretizes stationary diffusion on the unit square with a
coefficient that is constant on each square pixel, exposes the resulting
finitely-many-measurements forward map together with its exact Jacobian
(built from per-pixel stiffness matrices), and provides the analysis and
experiment tooling around it: reconstruction, condition numbers, and
batch studies of non-uniqueness, local minima and instability.
"""

import importlib

# Each public name and the module that defines it. A name is imported on
# first use (PEP 562), so ``import pixelinv`` loads neither numpy nor scipy.
_EXPORTS = {
    "mesh": ("DiskSpec", "PixelGrid", "TriMesh", "build_mesh", "refine", "refine_disk", "resolve_disk",
             "standard_disk_layout"),
    "assembly": ("LoadVector", "StiffnessSet", "assemble_global", "assemble_load", "assemble_pixel_matrices",
                 "element_stiffness", "global_matrix"),
    "linsolve": ("SolveReport", "SolverError", "solve_multi", "solve_spd"),
    "forward": ("JacobianStack", "MeasurementMatrix", "directional_derivative", "forward_matrix",
                "forward_pair_sweep", "forward_pair_values", "forward_pairs", "true_reference"),
    "analysis": ("ReconstructionError", "ResidualProblem", "SpectralReport", "condition_number",
                 "loewner_min_eig", "reconstruct_lm", "residual", "singular_values"),
    "experiments": ("ExperimentConfig", "ExperimentResult", "load_config", "run_nonuniqueness_sweep",
                    "run_property_suite", "run_residual_landscape", "run_stability_study", "write_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
