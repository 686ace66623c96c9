"""qadic: fixed-precision p-adic arithmetic for the interpolated q-analog
(q**z - 1)/(q - 1), its fixed points, and the 3-adic parameter
correspondence."""

from .cocycle import (
    INJECTIVE_ON_ALL,
    ImageDescription,
    cocycle_sum,
    image_description,
    iota_eval,
    iota_valuation,
    kernel_order,
)
from .correspondence import (
    BRANCHES,
    ExceptionalReport,
    F_map,
    G_map,
    exceptional_q,
    phi,
    psi,
    solve_q_for_z,
)
from .errors import DomainError, InvariantError, PrecisionError, QadicError, ResourceError
from .fixed_points import (
    FixedPointSet,
    classify,
    count_fixed_points,
    enumerate_fixed_points,
    find_rooted,
    is_fixed,
    pair_criterion,
    propagate_rooted,
)
from .padic_core import (
    INF,
    CosetDescriptor,
    PadicInt,
    QParameter,
    as_qparameter,
    exact_div,
    from_rational,
    int_valuation,
    mult_order,
    parse_value,
    unit_inverse,
)
from .suites import DEFAULT_SUITES, SUITES, SuiteResult, run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "BRANCHES",
    "DEFAULT_SUITES",
    "INF",
    "INJECTIVE_ON_ALL",
    "SUITES",
    "CosetDescriptor",
    "DomainError",
    "ExceptionalReport",
    "F_map",
    "FixedPointSet",
    "G_map",
    "ImageDescription",
    "InvariantError",
    "PadicInt",
    "PrecisionError",
    "QParameter",
    "QadicError",
    "ResourceError",
    "SuiteResult",
    "as_qparameter",
    "classify",
    "cocycle_sum",
    "count_fixed_points",
    "enumerate_fixed_points",
    "exact_div",
    "exceptional_q",
    "find_rooted",
    "from_rational",
    "image_description",
    "int_valuation",
    "iota_eval",
    "iota_valuation",
    "is_fixed",
    "kernel_order",
    "mult_order",
    "pair_criterion",
    "parse_value",
    "phi",
    "propagate_rooted",
    "psi",
    "run_suite",
    "run_suites",
    "solve_q_for_z",
    "unit_inverse",
    "__version__",
]
