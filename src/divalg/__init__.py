"""Matrix algebra over the real normed division algebras.

Scalars and matrices over R, C, H (and scalar-level O) with the
decompositions and measure computations needed to check Jacobian formulas
for matrix factorisations numerically.
"""
__version__ = "0.1.0"

from .algebra import (
    COMPLEX,
    OCTONION,
    QUATERNION,
    REAL,
    AlgebraKind,
    Scalar,
    conj,
    inv,
    mul,
    norm,
    structure_tensor,
)
from .decomp import (
    cholesky_rank_q,
    eig_hermitian,
    pinv,
    qr_positive,
    svd_rank_q,
)
from .linalg import (
    Mat,
    conj_transpose,
    load_matrix,
    matmul,
    numerical_rank,
    save_matrix,
    sdet,
    sdet_log,
)
from .measures import (
    FACTORS,
    FactorInput,
    factor_log,
    mv_gamma_log,
    stiefel_volume_log,
)
from .verify import (
    THEOREMS,
    Report,
    TaskSpec,
    run_discrepancy_demo,
    run_task,
)

__all__ = [
    "AlgebraKind",
    "Scalar",
    "REAL",
    "COMPLEX",
    "QUATERNION",
    "OCTONION",
    "conj",
    "inv",
    "mul",
    "norm",
    "structure_tensor",
    "Mat",
    "matmul",
    "conj_transpose",
    "sdet",
    "sdet_log",
    "numerical_rank",
    "save_matrix",
    "load_matrix",
    "svd_rank_q",
    "eig_hermitian",
    "qr_positive",
    "cholesky_rank_q",
    "pinv",
    "FACTORS",
    "FactorInput",
    "factor_log",
    "mv_gamma_log",
    "stiefel_volume_log",
    "THEOREMS",
    "TaskSpec",
    "Report",
    "run_task",
    "run_discrepancy_demo",
    "__version__",
]
