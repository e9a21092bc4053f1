"""Fixed-depth compilation of spin-Hamiltonian time evolution.

The package factors e^{-iHt} for a Pauli-sum Hamiltonian H into the
time-independent form K^dagger e^{-i h0 t} K, where K is a product of
single-string rotations found by minimizing a trace cost over a Cartan
decomposition of the dynamical Lie algebra of H.

Layering (each module only reaches downward):

    pauli       exact string algebra, real-weighted sums, dense conversion
    lie         DLA closure, involution split, commuting subalgebra
    zassenhaus  product ansatz K(theta): one signed k-string per factor, theta -> angles
    adjoint     the ansatz's adjoint action compiled to sparse rotations
    optimize    BFGS with Armijo backtracking, analytic cost/gradient plumbing
    evolution   dense verification: exact propagators, error curves, Trotter
    models      named spin-chain Hamiltonians
    pipeline    end-to-end runs, records, benchmark grid
    cli         command-line front end
"""

from .errors import (
    CapacityError,
    CartanSimError,
    ConfigError,
    DimensionError,
    NumericalError,
    OptimizerError,
    PauliParseError,
    ResourceLimitError,
    StagnationError,
    StructuralError,
)
from .pauli import (
    AlgebraElement,
    PauliString,
    SymmetryFrame,
    bracket,
    bracket_strings,
    canonical_key,
    commutes,
    hs_inner,
    parse_label,
    pauli_mul,
    phased_permutation,
    sort_strings,
    string_dense,
    symmetry_frame,
    to_dense,
    y_parity,
)
from .lie import (
    CartanReport,
    CartanSplit,
    DlaBasis,
    cartan_split,
    cartan_subalgebra,
    check_hamiltonian_in_m,
    generate_dla,
    involution_split,
    require_valid_split,
    verify_cartan_relations,
)
from .zassenhaus import (
    Ansatz,
    Factor,
    build_ansatz,
    k_dense,
    truncation_coefficients,
)
from .adjoint import CompiledAdjoint
from .optimize import (
    OptimizationResult,
    OptimizerOptions,
    TargetV,
    bfgs_minimize,
    extract_h0,
    initial_theta,
    make_cost_functions,
    make_target_v,
    normalized_cost,
    optimize_theta,
)
from .evolution import (
    ErrorCurve,
    SlopeReport,
    TrotterSweep,
    error_curve,
    expm_hermitian,
    spectral_norm,
    trotter_step,
    trotter_sweep,
    truncation_slope,
    zassenhaus_product,
)
from .models import MODEL_NAMES, ModelSpec, build_model, default_benchmark_specs
from .pipeline import (
    RunConfig,
    RunRecord,
    benchmark_configs,
    model_pair,
    run_benchmark,
    run_cost_trace,
    run_decompose,
    run_error_curve,
    run_scaling_check,
    verify,
)
from .svgplot import line_plot

__version__ = "0.1.0"
