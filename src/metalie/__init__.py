"""Exact symbolic computation in the free metabelian Lie algebra and the
free associative algebra: wreath-product normal forms, Fox-derivative and
Jacobian calculus, tame/inner automorphism constructors with an exact
automorphism test, a symbolic rank-one update calculus, and the cyclic-word
commutator test."""

from .polyring import (
    LinearSolution,
    ParseError,
    PolyMatrix,
    Polynomial,
    RowSpace,
    parse_polynomial,
    solve_sparse,
    y_column,
)
from .lieexpr import (
    LeftNormed,
    LieExpr,
    Sum,
    format_expr,
    left_normed,
    parse_expr,
)
from .metabelian import (
    MElement,
    bracket,
    degree_components,
    evaluate,
    fox,
    generator,
    is_derived,
    lift,
)
from .endos import (
    Endo,
    apply,
    apply_induced,
    compose,
    conjugate_elementary,
    elementary,
    iaut_level,
    identity,
    induced_poly_images,
    inner,
    inverse,
    jacobian,
    linear,
    random_tame,
    random_tame_iaut,
)
from .dyadic import (
    DyadExpr,
    RowExpr,
    ScalarPoly,
    derive_reduced_relation,
    dyad_mul,
    expand_product,
    instantiate,
    lam,
    residual_check,
    row_mul,
)
from .freeassoc import (
    NCPoly,
    cyclic_signature,
    derived_degree4_basis,
    fox_assoc,
    in_commutator_subspace,
    lie_to_assoc,
    replay,
)

__version__ = "0.1.0"
