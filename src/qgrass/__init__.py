"""qgrass: exact census of quiver Grassmannians over finite fields.

The library enumerates all subrepresentation points of a quiver
representation over F_q, computes dim Hom(N, M/N) and dim Ext^1(N, M/N) at
every point, locates regular modules inside their tubes, and cross-checks
the combinatorial transverse locus against the homological one.
"""

__version__ = "0.1.0"

from .builtin import builtin_names, emit_builtin
from .census import (
    CensusEntry,
    CountingPolynomial,
    SubrepPoint,
    all_dim_vectors,
    brute_force_subreps,
    census,
    counting_polynomials,
    enumerate_subreps,
    point_counts,
)
from .documents import (
    document_digest,
    parse_document,
    read_document,
)
from .errors import (
    AmbiguousQuasiSocleError,
    CountNotPolynomialError,
    InputError,
    InternalCheckError,
    NotOnRayError,
    NotRegularError,
    QGrassError,
    RayAmbiguityError,
    RigidRegularError,
)
from .fields import QQ, Field
from .linalg import (
    Matrix,
    SubspaceBasis,
    gaussian_binomial,
    kernel_basis,
    rref,
)
from .quiver import (
    Arrow,
    EulerData,
    Quiver,
    compute_euler_data,
    coxeter_apply,
    defect,
    euler_form,
)
from .reps import (
    HomExtResult,
    Representation,
    direct_sum,
    hom_ext,
    is_rigid,
    is_subrep,
    reduce_mod_p,
    sub_quotient,
)
from .tubes import (
    CombinatorialTransverse,
    FieldComparison,
    TransverseComparison,
    TubeData,
    compare_transverse_loci,
    quasi_socle,
    transverse_combinatorial,
    tube_coordinates,
)

__all__ = [
    "AmbiguousQuasiSocleError",
    "Arrow",
    "CensusEntry",
    "CombinatorialTransverse",
    "CountNotPolynomialError",
    "CountingPolynomial",
    "EulerData",
    "Field",
    "FieldComparison",
    "HomExtResult",
    "InputError",
    "InternalCheckError",
    "Matrix",
    "NotOnRayError",
    "NotRegularError",
    "QGrassError",
    "QQ",
    "Quiver",
    "RayAmbiguityError",
    "Representation",
    "RigidRegularError",
    "SubrepPoint",
    "SubspaceBasis",
    "TransverseComparison",
    "TubeData",
    "all_dim_vectors",
    "brute_force_subreps",
    "builtin_names",
    "census",
    "compare_transverse_loci",
    "compute_euler_data",
    "counting_polynomials",
    "coxeter_apply",
    "defect",
    "direct_sum",
    "document_digest",
    "emit_builtin",
    "enumerate_subreps",
    "euler_form",
    "gaussian_binomial",
    "hom_ext",
    "is_rigid",
    "is_subrep",
    "kernel_basis",
    "parse_document",
    "point_counts",
    "quasi_socle",
    "read_document",
    "reduce_mod_p",
    "rref",
    "sub_quotient",
    "transverse_combinatorial",
    "tube_coordinates",
]
