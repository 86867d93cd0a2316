"""Minimal decompositions of finite transitive group actions, their reproducing
kernels, the intertwiner dichotomy, invariant-subspace structure verification,
and a truncated Fourier model of the torus."""

from .decomposition import (
    Frame,
    GCollectionReport,
    MinimalSpace,
    RepOperator,
    VERDICT_G_COLLECTION,
    VERDICT_NOT_UNIQUE,
    build_report,
    check_star,
    commutant_basis,
    frame,
    h_space,
    is_minimal,
    minimal_decomposition,
    multiplicity_free,
    random_commutant_element,
    rep_operators,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    InternalInconsistency,
    InvalidPermutation,
    MinimalityFailure,
    NotHermitian,
    NotTransitive,
    PropertyViolation,
    SpecParseError,
    StructureFailure,
)
from .invariant_subspaces import (
    SignatureSet,
    StructureReport,
    StructureWitness,
    direct_sum,
    orbit_span,
    signature,
    signature_roundtrip_exhaustive,
    twisted_diagonal_witness,
    verify_structure,
)
from .kernels import KernelFamily, KernelPropertyReport, frame_kernel_properties
from .kernels import kernel_family, verify_kernel_properties
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    hermitian_eig,
    intersect,
    max_abs,
    mu_inner,
    orthonormalize,
    projector,
    subspace_equal,
)
from .perm_action import (
    DEFAULT_CAP,
    GroupAction,
    Permutation,
    Stabilizer,
    enumerate_group,
    group_from_spec,
    is_transitive,
    orbitals,
    regular_action,
    stabilizer,
)
from .schur import IntertwinerClass, SchurSummary, classify_intertwiner, dichotomy_trials, group_average
from .torus import (
    FourierFunction,
    TorusPoint,
    act,
    fejer_smooth,
    inner_product,
    monomial,
    polydisc_signature,
    project_k,
    separation_check,
)

__version__ = "0.1.0"
