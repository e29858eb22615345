"""gridsense: grid-state sensors on rotated lattices — states, noise,
Fisher information, logical-error model, and the constrained optimizer.

Everything runs in a truncated number basis (default dimension 30) with
plain numpy/scipy; the command-line entry point lives in gridsense.cli.
"""

from .fock import (
    InvalidDimensionError,
    NumericError,
    annihilation,
    check_density,
    check_ket,
    creation,
    expectation,
    hermitian_eig,
    ket_density,
    matrix_exp,
    number_op,
    position_op,
    quadrature_op,
)
from .lattice import (
    A_LATTICE,
    GkpLattice,
    OamCharge,
    hexagonal_lattice,
    oam_lattice,
    rotation_matrix,
    square_lattice,
    symplectic_product,
    theta_from_oam,
    twisted_lattice,
)
from .states import (
    TruncationError,
    comb_positions,
    logical_state,
    prepare_codeword,
    rotate,
    rotate_density,
    squeeze,
)
from .channels import (
    NoiseParams,
    apply_dephasing,
    apply_loss,
    apply_momentum_diffusion,
    effective_sigmas,
    loss_kraus,
)
from .metrology import (
    capacity,
    cfi_homodyne,
    measurement_efficiency,
    qfi_mixed,
    qfi_pure,
)
from .pipeline import SensorSpec, pipeline_qfi, sensor_ket, sensor_state
from .model import (
    NoRootError,
    PerrBreakdown,
    ThetaStarResult,
    balance,
    gaussian_tail,
    joint_optimum,
    mc_perr,
    perr_analytic,
    theta_fit,
    theta_sensitivity,
    theta_star,
    theta_star_grid,
    tolerance_curve,
)
from .wigner import (
    WignerGrid,
    wigner_grid,
    wigner_negativity,
    wigner_point,
)
from .optimize import (
    BOUNDS,
    PARAM_ORDER,
    TrainConfig,
    TrainDiverged,
    TrainableParams,
    combined_loss,
    fractional_sweep,
    gradient,
    lr_schedule,
    pareto_filter,
    pareto_sweep,
    train,
)

__version__ = "0.1.0"
