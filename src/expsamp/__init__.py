"""Max-product and max-min Durrmeyer-type exponential sampling operators."""

from .kernels import (
    KernelDescriptor,
    KernelMetrics,
    KernelDomainError,
    KernelSpecError,
    bspline_kernel,
    fejer_kernel,
    jackson_kernel,
    parse_kernel_spec,
    compute_jackson_norm_constant,
    compute_metrics,
    kernel_line_mass,
)
from .quadrature import (
    QuadratureSpec,
    QuadratureConvergenceError,
    IntegralResult,
    integrate_log,
    mellin_integrate,
    durrmeyer_coefficient,
)
from .operators import (
    OperatorConfig,
    OperatorEvaluation,
    PreconditionError,
    PropertyReport,
    DurrmeyerEvaluator,
    index_set,
    get_evaluator,
    max_product_eval,
    max_min_eval,
    maxmin_algebra_checks,
    denominator_lower_bound_check,
)
from .orlicz import (
    PhiFunction,
    PhiSpecError,
    OrliczOverflowError,
    UnboundedNormError,
    ModularReport,
    Delta2Report,
    parse_phi_spec,
    modular,
    luxemburg_norm,
    delta2_probe,
    modular_convergence_series,
    jensen_max_checks,
)
from .harness import (
    FunctionHandle,
    FunctionDomainError,
    ErrorTable,
    SweepReport,
    TableRow,
    SchemaMismatchError,
    VerifyReport,
    DEFAULT_INTERVAL,
    make_h1,
    make_h2,
    get_test_function,
    build_error_table,
    convergence_sweep,
    brute_force_oracle,
    compare_tables,
    flagged_cells,
    flagged_steps,
    read_table_csv,
    write_table_csv,
)
from . import refdata

__version__ = "0.1.0"
