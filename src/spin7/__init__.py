"""Exact-arithmetic toolkit for the Cayley 4-form on 8-space.

Everything runs over arbitrary-precision rationals: the 4-form and its
Hodge star, the triple cross product it induces, the octonion unit table
derived from that product, the seven almost complex structures, and the
spin(7)/g2 stabilizer algebras with their exact decomposition of so(8).
"""

from .forms import AltForm, FormParseError, cayley_form, parse_form, print_form
from .linalg import (
    Matrix,
    Vector,
    gram_det,
    kernel_basis,
    parse_rational,
    parse_vector,
    rank,
    span_contains,
    subspace_equal,
)
from .octonion import (
    NotSingleBasisVector,
    Octonion,
    SignedUnit,
    UnitTable,
    associator,
    default_table,
    oct_mul,
)
from .cross import (
    CrossProduct,
    InputNotInE0Perp,
    default_cross,
    verify_compatibility,
    verify_composition_lemma,
)
from .acs import (
    ACS,
    ACSCertificationError,
    CompositionWitness,
    FrameNotAdmissible,
    NotUnitImaginary,
    NoWitnessFound,
    acs_basis,
    acs_from_unit,
    acs_span_dim,
    build_acs,
    composition_disagreement,
    span_stability,
    times_product,
)
from .stabilizers import (
    LieSubalgebra,
    OmegaExtraction,
    constraint_system_g2,
    decompose_so8,
    embed_so7,
    extract_omega,
    form_action,
    g2_stabilizer,
    signed_perm_symmetries,
    spin7,
)
from .verify import SUITE_NAMES, VerdictReport, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "ACS",
    "ACSCertificationError",
    "AltForm",
    "CompositionWitness",
    "CrossProduct",
    "FormParseError",
    "FrameNotAdmissible",
    "InputNotInE0Perp",
    "LieSubalgebra",
    "Matrix",
    "NoWitnessFound",
    "NotSingleBasisVector",
    "NotUnitImaginary",
    "Octonion",
    "OmegaExtraction",
    "SignedUnit",
    "SUITE_NAMES",
    "UnitTable",
    "VerdictReport",
    "Vector",
    "acs_basis",
    "acs_from_unit",
    "acs_span_dim",
    "associator",
    "build_acs",
    "cayley_form",
    "composition_disagreement",
    "constraint_system_g2",
    "decompose_so8",
    "default_cross",
    "default_table",
    "embed_so7",
    "extract_omega",
    "form_action",
    "g2_stabilizer",
    "gram_det",
    "kernel_basis",
    "oct_mul",
    "parse_form",
    "parse_rational",
    "parse_vector",
    "print_form",
    "rank",
    "run_all",
    "run_suite",
    "signed_perm_symmetries",
    "span_contains",
    "span_stability",
    "spin7",
    "subspace_equal",
    "times_product",
    "verify_compatibility",
    "verify_composition_lemma",
]
