"""Symplectic-group classification toolkit.

Finite-field arithmetic, symplectic similitude groups, the
transvection-subgroup trichotomy, monomial (n,p)-groups, tame-inertia
weight regularity, and exact character theory on small finite groups.
"""

from .classify import (
    Huge,
    Induced,
    Reducible,
    check_verdict,
    classify,
    extract_induction,
    is_huge,
    recognize_sp_over_subfield,
)
from .errors import CapExceeded, SympalError
from .ffield import FieldElement, FieldSpec, field_make, mult_generator, subfield_embed
from .groupkit import (
    DEFAULT_CAP,
    MatrixGroup,
    closure_enumerate,
    from_fixture,
    group,
    group_order,
    harvest_transvections,
    is_irreducible,
    sp_order,
    to_fixture,
)
from .npgroup import (
    build_chi,
    build_np_group,
    find_np_primes,
    np_params,
    twist_unramified,
)
from .regularity import (
    WeightProfile,
    check_npower_distinct,
    diag_characters,
    profile,
    twist_by_cyclotomic,
)
from .symplectic import (
    SqMatrix,
    Subspace,
    SympSpace,
    detect_transvection,
    is_similitude,
    make_transvection,
    mat,
    multiplier_of,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "DEFAULT_CAP", "FieldElement", "FieldSpec", "Huge",
    "Induced", "MatrixGroup", "Reducible", "SqMatrix", "Subspace",
    "SympSpace", "SympalError", "WeightProfile", "build_chi",
    "build_np_group", "check_npower_distinct", "check_verdict", "classify",
    "closure_enumerate", "detect_transvection", "diag_characters",
    "extract_induction", "field_make", "find_np_primes", "from_fixture",
    "group", "group_order", "harvest_transvections", "is_huge",
    "is_irreducible", "is_similitude", "make_transvection", "mat",
    "mult_generator", "multiplier_of", "np_params", "profile",
    "recognize_sp_over_subfield", "sp_order", "subfield_embed",
    "to_fixture", "twist_by_cyclotomic", "twist_unramified",
]
