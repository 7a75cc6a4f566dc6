"""Each check of the `verify` suites catches a planted fault.

A row patches the kernel behind one or more checks so that it gives a wrong
answer, runs the suite on a few cases and expects each named message among
its failures. The messages are the templates of the `failures.append` calls
in `metalie/verify.py`, read from its source, so a check without a row fails
`test_every_message_has_a_row`.
"""

import ast
import inspect
import re

import pytest

from metalie import dyadic, endos, freeassoc, verify
from metalie import metabelian as mb
from metalie.lieexpr import Sum, combination
from metalie.polyring import Polynomial, PolyMatrix


def _raised(call) -> list:
    """The message of the AssertionError that call() raises."""
    with pytest.raises(AssertionError) as info:
        call()
    return [str(info.value)]


def _fox_off_by_one(fox):
    # adds 1 to the first entry of every Fox row
    def faulty(f):
        row = fox(f).rows[0]
        return PolyMatrix(f.rank, [[row[0] + Polynomial.one(f.rank), *row[1:]]])

    return faulty


def _lift_drops_last_term(lift):
    def faulty(f):
        e = lift(f)
        return combination(e.parts[:-1]) if isinstance(e, Sum) else e

    return faulty


def _loses_a_dyad(expand_product):
    def faulty(k):
        terms = dict(expand_product(k).terms)
        terms.popitem()
        return dyadic.DyadExpr._raw(None, terms)

    return faulty


def _drops_psi1(relations):
    # the reduced relation loses its term lambda_21 * Psi_1
    def faulty(k):
        *rest, reduced = relations(k)
        psi1 = dyadic.RowExpr({dyadic.psi_sym(1): reduced.coefficient(dyadic.psi_sym(1))})
        return (*rest, reduced - psi1)

    return faulty


# (where, name, fault: original -> faulty replacement, run: -> messages,
# the message templates expected among them)
FAULTS = {
    "compose returns psi": (
        endos, "compose", lambda f: lambda phi, psi: psi,
        lambda: verify.suite_chainrule(7, cases=4).failures,
        [
            "case {case}: chain rule failed at rank {rank}",
            "case {case}: compose != direct evaluation at rank {rank}",
        ],
    ),
    "fox adds 1 to the first entry": (
        mb, "fox", _fox_off_by_one,
        lambda: verify.suite_lemmas(7, cases=3).failures,
        [
            "case {case}: J != E + Phi*Psi",
            "case {case}: Psi*Phi != 0",
            "case {case}: Psi*Y != 0",
            "case {case}: J(exp ad z) != E - Y*dz",
            "case {case}: (E-Y*dz)(E+Y*dz) != E",
        ],
    ),
    "compose returns phi": (
        endos, "compose", lambda f: lambda phi, psi: phi,
        lambda: verify.suite_lemmas(7, cases=1).failures,
        ["case {case}: antimorphism identity failed"],
    ),
    "det doubles": (
        PolyMatrix, "det", lambda det: lambda m: det(m) * 2,
        lambda: verify.suite_lemmas(7, cases=1).failures,
        ["case {case}: det J != 1 on tame product"],
    ),
    "lift drops its last term": (
        mb, "lift", _lift_drops_last_term,
        lambda: verify.suite_lift(7, cases=8).failures,
        ["case {case}: lift roundtrip failed, rank {rank}"],
    ),
    "expand_product loses a dyad": (
        dyadic, "expand_product", _loses_a_dyad,
        lambda: verify.suite_dyadic(7, cases=1).failures,
        [
            "expand_product({k}) != folded product",
            "case {case}: instantiation disagrees with matrix product",
        ],
    ),
    "the reduced relation loses lambda21*Psi1": (
        dyadic, "_relations", _drops_psi1,
        lambda: verify.suite_dyadic(7, cases=0).failures,
        ["reduced relation != lam21*Psi1 + lam23*Psi3"],
    ),
    "residual_check sees lambda21*Psi1 lost": (
        dyadic, "_relations", _drops_psi1,
        lambda: _raised(dyadic.residual_check),
        ["expected the reduced relation to keep λ21*Ψ1, got {psi1}"],
    ),
    "minus_y_dz gives -Phi2 dz": (
        dyadic, "minus_y_dz",
        lambda f: lambda: dyadic.DyadExpr.dyad(dyadic.phi_sym(2), dyadic.DZ_ROW) * -1,
        lambda: verify.suite_dyadic(7, cases=0).failures,
        ["Psi * (-Y dz) != 0"],
    ),
    "every word is its own cyclic class": (
        freeassoc, "cyclic_representative", lambda f: lambda word: word,
        lambda: verify.suite_freeassoc(7, cases=0).failures,
        ["span dimension mismatch at rank {rank}, degree {degree}"],
    ),
    "every word is its own cyclic class, against the span oracle": (
        freeassoc, "cyclic_representative", lambda f: lambda word: word,
        lambda: verify.suite_freeassoc(7, cases=8).failures,
        ["case {case}: cyclic criterion disagrees with span oracle"],
    ),
    "fox_assoc doubles": (
        freeassoc, "fox_assoc", lambda fox: lambda f, i: fox(f, i) * 2,
        lambda: verify.suite_freeassoc(7, cases=1).failures,
        ["case {case}: Fox reconstruction failed"],
    ),
    "the cyclic test is negated": (
        freeassoc, "in_commutator_subspace", lambda test: lambda p: not test(p),
        lambda: verify.suite_freeassoc(7, cases=1).failures,
        [
            "case {case}: commutator failed the cyclic test",
            "case {case}: cyclic criterion disagrees with span oracle",
        ],
    ),
}


def _pattern(template: str) -> re.Pattern:
    """A message template with each {field} matching any text."""
    return re.compile(".+".join(map(re.escape, re.split(r"\{[^}]*\}", template))))


@pytest.mark.parametrize("where, name, fault, run, templates", FAULTS.values(), ids=FAULTS)
def test_planted_fault_is_caught(monkeypatch, where, name, fault, run, templates):
    monkeypatch.setattr(where, name, fault(getattr(where, name)))
    messages = run()
    for template in templates:
        pattern = _pattern(template)
        assert any(pattern.fullmatch(m) for m in messages), (template, messages)


def _templates(module) -> set:
    """The message templates of the `failures.append(...)` and
    `AssertionError(...)` calls in a module's source, each {field} spelled
    as written."""

    def template(node) -> str:
        if isinstance(node, ast.Constant):
            return node.value
        return "".join(
            v.value if isinstance(v, ast.Constant) else "{" + ast.unparse(v.value) + "}"
            for v in node.values
        )

    return {
        template(node.args[0])
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith(("failures.append", "AssertionError"))
    }


def test_every_message_has_a_row():
    covered = {t for *_, templates in FAULTS.values() for t in templates}
    assert len(_templates(verify)) == 18
    assert _templates(verify) | _templates(dyadic) == covered
