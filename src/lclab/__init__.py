"""Exact-arithmetic lab for coefficient triangles of polynomial families
defined by arithmetic-function recursions, and for their log-concavity.

The pieces: arithmetic functions and sieves (arith), truncated power
series (series), the coefficient triangles themselves plus their
generating-series and closed-form crosschecks (triangles), integer
partitions and hook-length polynomials (partitions), Stirling numbers and
the harmonic discriminant (stirling), row/column/windowed log-concavity
scans (concavity), an on-disk triangle cache (cache), and the lclab
command line (cli).
"""

from .arith import (
    ArithFn,
    from_table,
    harmonic,
    identity,
    moebius_convolve,
    one,
    sigma,
    sigma_k,
    square,
    tilde,
)
from .concavity import (
    ConcavityReport,
    c_vertical_check,
    first_failure_table,
    first_vertical_failure,
    hong_zhang_coefficients,
    hong_zhang_scan,
    horizontal_check,
    hz_equivalence_check,
    is_logconcave,
    sibuya_strict_check,
    stirling_column_failures,
    stirling_column_first_failure,
    vertical_check,
    window_top,
)
from .partitions import (
    check_no_identity,
    conjugate,
    count_partitions,
    hook_lengths,
    iter_partitions,
    nekrasov_okounkov_poly,
    taylor_shift,
)
from .series import Series, eichler_integral, euler_product
from .stirling import delta, stirling_first, stirling_row
from .triangles import (
    CheckResult,
    Poly,
    Triangle,
    build_triangle,
    check_conversion,
    closed_form_oracle,
    closed_forms_check,
    convert,
    euler_product_crosscheck,
    genfun_crosscheck,
    harmonic_column_identity,
    iter_columns,
)

__version__ = "0.1.0"
