"""gridsense: grid-state sensors on rotated lattices — states, noise,
Fisher information, logical-error model, and the constrained optimizer.

Everything runs in a truncated number basis (default dimension 30) with
plain numpy; the command-line entry point lives in gridsense.cli.

The names below are re-exported lazily (PEP 562): `import gridsense` loads
no submodule and so no numpy, and the first access of a name imports the
submodule that defines it. That keeps numpy's import after the CLI's choice
of BLAS thread count (see gridsense.cli).
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it contributes to the package.
_EXPORTS = {
    "fock": (
        "InvalidDimensionError", "NumericError", "annihilation",
        "check_density", "check_ket", "expectation", "hermitian_eig",
        "number_op", "position_op", "quadrature_op",
    ),
    "lattice": (
        "A_LATTICE", "GkpLattice", "OamCharge", "rotation_matrix",
        "symplectic_product", "theta_from_oam", "twisted_lattice",
    ),
    "states": (
        "comb_positions", "logical_state", "prepare_codeword", "rotate",
        "rotate_density", "squeeze",
    ),
    "channels": (
        "NoiseParams", "apply_dephasing", "apply_loss",
        "apply_momentum_diffusion", "effective_sigmas",
    ),
    "metrology": (
        "capacity", "cfi_homodyne", "measurement_efficiency", "qfi_mixed",
        "qfi_pure",
    ),
    "model": (
        "NoRootError", "PerrBreakdown", "ThetaStarResult", "balance",
        "gaussian_tail", "mc_perr", "perr_analytic", "theta_fit",
        "theta_sensitivity", "theta_star", "theta_star_grid",
        "tolerance_curve",
    ),
    "wigner": (
        "WignerGrid", "wigner_grid", "wigner_negativity", "wigner_point",
    ),
    "optimize": (
        "BOUNDS", "PARAM_ORDER", "TrainConfig", "TrainDiverged",
        "TrainableParams", "combined_loss", "fractional_sweep", "gradient",
        "lr_schedule", "pareto_sweep", "train",
    ),
    "pipeline": ("SensorSpec", "pipeline_qfi", "sensor_state"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """A re-exported name, or a submodule, imported on first access."""
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__),
                       name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
