"""Acceptance gate: every criterion at its stated tolerance (exact symbolic
equality throughout; the only tolerances are the two wall-clock budgets).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import random
import time
from itertools import product

import pytest

import metalie.dyadic as dy
import metalie.endos as en
import metalie.freeassoc as fa
import metalie.metabelian as mb
import metalie.verify as verify
from metalie.lieexpr import parse_expr
from metalie.polyring import PolyMatrix, y_column

SEED = 20260811


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_01_chain_rule():
    """200 randomized endomorphism pairs per rank 2..5 (degree <= 5,
    coefficients -3..3) satisfy the Jacobian chain rule exactly, in < 60 s."""
    start = time.perf_counter()
    result = verify.suite_chainrule(SEED, cases=800, degree=5)
    elapsed = time.perf_counter() - start
    assert result.failures == []
    assert result.cases == 800  # ranks cycle 2,3,4,5: 200 pairs per rank
    assert elapsed < 60.0
    report(f"1 chain rule: PASS (800 pairs, {elapsed:.1f}s)")


def test_criterion_02_conjugated_elementary_decomposition():
    """100 randomized (alpha, f): J = E + Phi*Psi with Psi*Phi = 0 and
    Psi*Y = 0, exactly."""
    rng = random.Random(SEED)
    for case in range(100):
        rank = 3 + case % 3
        alpha = en._random_invertible_matrix(rng, rank)
        f = en.random_derived_expr(rng, rank, 3, list(range(2, rank + 1)))
        conj, phi_col, psi_row = en.conjugate_elementary(alpha, f, rank)
        ident = PolyMatrix.identity(rank, rank)
        assert en.jacobian(conj) == ident + phi_col * psi_row
        assert (psi_row * phi_col)[0, 0].is_zero()
        assert (psi_row * y_column(rank))[0, 0].is_zero()
    report("2 conjugated-elementary decomposition: PASS (100 pairs)")


def test_criterion_03_inner_jacobian():
    """100 randomized derived z: J(exp ad z) = E - Y*dz exactly, and
    (E - Y*dz)(E + Y*dz) = E."""
    rng = random.Random(SEED + 1)
    for case in range(100):
        rank = 2 + case % 4
        z = mb.evaluate(en.random_derived_expr(rng, rank, 4), rank)
        ident = PolyMatrix.identity(rank, rank)
        ydz = y_column(rank) * mb.fox(z)
        assert en.jacobian(en.inner(rank, z)) == ident - ydz
        assert (ident - ydz) * (ident + ydz) == ident
    report("3 inner Jacobian: PASS (100 elements)")


def test_criterion_04_rank_one_replay():
    """The three-factor expansion reproduces the seven terms term-for-term,
    the first row elimination and the reduced relation come out exactly, and
    the Psi1 coefficient is the nonzero indeterminate lambda_21."""
    lam, psi, phi = dy.lam, dy.psi_sym, dy.phi_sym
    expansion = dy.expand_product(3)
    assert expansion.term_list() == [
        ((), 1, phi(1), psi(1)),
        ((), 1, phi(2), psi(2)),
        ((), 1, phi(3), psi(3)),
        (((1, 2),), 1, phi(1), psi(2)),
        (((1, 3),), 1, phi(1), psi(3)),
        (((2, 3),), 1, phi(2), psi(3)),
        (((1, 2), (2, 3)), 1, phi(1), psi(3)),
    ]
    lhs = expansion - dy.DyadExpr.identity()
    assert dy.row_mul(1, lhs) == dy.RowExpr(
        {psi(2): lam(1, 2), psi(3): lam(1, 3) + lam(1, 2) * lam(2, 3)}
    )
    reduced = dy.derive_reduced_relation()
    assert reduced == dy.RowExpr({psi(1): lam(2, 1), psi(3): lam(2, 3)})
    coeff = reduced.coefficient(psi(1))
    assert coeff == lam(2, 1) and not coeff.is_zero()
    rep = dy.residual_check()
    assert rep.residual_survives
    report("4 rank-one update replay: PASS (residual term survives)")


def test_criterion_05_dyadic_soundness():
    """50 randomized concrete instantiations (conjugated-elementary data,
    ranks 3..5) match honest matrix products exactly."""
    result = verify.suite_dyadic(SEED)
    assert result.failures == []
    assert result.cases == 50
    report("5 dyadic soundness: PASS (50 instantiations)")


def test_criterion_06_free_associative_replay():
    """The degree-4 trace derivative comes out exactly and fails the
    commutator test; the cyclic criterion agrees with the brute-force span
    oracle on every homogeneous degree <= 4, rank <= 4; the witness solve
    completes deterministically."""
    s = fa.fox_assoc(fa.lie_to_assoc(fa.source_monomial(), 4), 1)
    assert s == fa.NCPoly(4, {(4, 2, 3): 1, (4, 3, 2): -1})
    assert not fa.in_commutator_subspace(s)

    rng = random.Random(SEED + 2)
    for rank in (1, 2, 3, 4):
        for degree in (1, 2, 3, 4):
            words = list(product(range(1, rank + 1), repeat=degree))
            classes = {fa.cyclic_representative(w) for w in words}
            space = verify.commutator_row_space(rank, degree)
            # every generator of the span passes the cyclic test ...
            for lu in range(1, degree):
                for u in product(range(1, rank + 1), repeat=lu):
                    pu = fa.NCPoly(rank, {u: 1})
                    for v in product(range(1, rank + 1), repeat=degree - lu):
                        pv = fa.NCPoly(rank, {v: 1})
                        assert fa.in_commutator_subspace(pu * pv - pv * pu)
            # ... and the span fills the whole cyclic-sum kernel, so the two
            # criteria agree on every element of the space
            assert space.rank == len(words) - len(classes)
            for _ in range(4):
                p = verify.random_nc_poly(rng, rank, degree, 3).homogeneous_component(
                    degree
                )
                assert space.contains(p.terms) == fa.in_commutator_subspace(p)

    first = fa.replay(4)
    second = fa.replay(4)
    assert first.witness is not None and first.witness.solvable
    assert first.witness.verified
    assert json.dumps(first.to_doc(), sort_keys=True) == json.dumps(
        second.to_doc(), sort_keys=True
    )
    report(
        "6 free-associative replay: PASS "
        f"(witness solvable={first.witness.solvable}, "
        f"null dim={first.witness.null_space_dimension})"
    )


def test_criterion_07_lift_roundtrip():
    """evaluate(lift(f)) = f for 500 randomized derived elements,
    ranks 2..5, degree <= 6."""
    result = verify.suite_lift(SEED, cases=500, degree=6)
    assert result.failures == []
    assert result.cases == 500
    report("7 lift roundtrip: PASS (500 elements)")


def test_criterion_08_inverse_construction():
    """100 randomized identity-mod-bracket tame products: the constructed
    inverse composes to the identity on both sides and det J = 1."""
    for case in range(100):
        rank = 3 + case % 3
        phi = en.random_tame_iaut(rank, SEED + case, 2, 2)
        inv = en.inverse(phi)
        assert inv is not None
        assert en.compose(phi, inv) == en.identity(rank)
        assert en.compose(inv, phi) == en.identity(rank)
        det = en.jacobian(phi).det()
        assert det.is_constant() and det.constant_term() == 1
    report("8 inverse construction: PASS (100 products)")


def test_criterion_09_filtration_level():
    """The degree-4 single-generator perturbation at rank 4 sits at
    filtration level 3."""
    psi = en.from_exprs(
        4,
        [
            parse_expr("x1 + [[x1,[x2,x3]],x4]"),
            parse_expr("x2"),
            parse_expr("x3"),
            parse_expr("x4"),
        ],
    )
    assert en.iaut_level(psi) == 3
    report("9 filtration level: PASS (level 3 at rank 4)")


def test_criterion_10_full_verification_suite():
    """The complete randomized suite runs deterministically in < 5 min."""
    start = time.perf_counter()
    names = list(verify.SUITES)
    first = verify.run_suites(names, seed=7)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in first), [
        (r.name, r.failures[:2]) for r in first if not r.passed
    ]
    assert elapsed < 300.0
    second = verify.run_suites(names, seed=7)
    assert [(r.name, r.cases, r.failures) for r in first] == [
        (r.name, r.cases, r.failures) for r in second
    ]
    report(f"10 full verification suite: PASS ({elapsed:.1f}s, deterministic)")
