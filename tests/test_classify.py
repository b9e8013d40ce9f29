import dataclasses

import pytest

from crystmono.classify import (
    CHARACTER_FIELD,
    ClassifyError,
    NotEquivariant,
    SymmetryCase,
    character,
    character_multiplicity,
    class_character,
    equivariance_factor,
    is_smoothable,
    kernel_character,
    kernel_characters,
    proj_rows,
    symmetry_order,
    table_rows,
    verify_proj_row,
    verify_table_row,
    versal_classes,
)
from crystmono.monodromy import diagram, diagram_names

F = CHARACTER_FIELD
W = F.zeta(24)  # primitive cube root
I = F.zeta(18)  # primitive fourth root

CUBE_TERMS = ((3, 0, 0), (0, 3, 0), (0, 0, 3))


def case(kappa, terms=CUBE_TERMS, basis=()):
    return SymmetryCase("adhoc", terms, kappa, basis)


def test_character_of_a_monomial():
    c = case((W, F.one, -F.one))
    assert character(c.kappa, (3, 0, 0)) == F.one
    assert character(c.kappa, (1, 1, 2)) == W
    assert character(c.kappa, (0, 0, 1)) == -F.one


def test_equivariance_factor_and_failure():
    assert equivariance_factor(case((W, W, W))) == F.one
    skew = case((-W, W, W))
    with pytest.raises(NotEquivariant):
        equivariance_factor(skew)
    with pytest.raises(ClassifyError):
        equivariance_factor(case((W, W, W), terms=()))


def test_symmetry_order_is_the_lcm():
    assert symmetry_order(case((W, F.one, -F.one))) == 6
    assert symmetry_order(case((I, W, -F.one))) == 12
    assert symmetry_order(case((F.one, F.one, F.one))) == 1


def test_kernel_character_and_splitting():
    c = case((W, W, W))  # factor 1, product w^3 = 1
    assert kernel_character(c) == F.one
    assert kernel_characters(c) is None
    rows = {r.notation: r for r in table_rows()}
    d4 = rows["D4^(3)"]
    assert kernel_character(d4.case) == W
    assert kernel_characters(d4.case) == (W, W.conjugate())


def test_table_has_fifteen_verified_rows():
    rows = table_rows()
    assert len(rows) == 15
    assert len({r.notation for r in rows}) == 15
    for row in rows:
        for c in verify_table_row(row):
            assert c.verdict == "pass", (row.notation, c.claim_id, c.witness)


def test_declared_smoothability_is_always_true_in_the_table():
    for row in table_rows():
        assert row.declared_smoothable is True
        assert is_smoothable(row.case) is True


def test_constructed_case_is_not_smoothable():
    # same cube-point function, symmetry acting by -w, -conj(w), conj(w)
    terms = ((3, 0, 0), (0, 3, 0), (0, 1, 2))
    c = case((-W, -W.conjugate(), W.conjugate()), terms=terms)
    assert equivariance_factor(c) == -F.one
    assert not is_smoothable(c)
    pair = kernel_characters(c)
    assert pair is not None and pair[0] == -W.conjugate()


def test_versal_classes_match_tau_of_the_linked_diagram():
    for row in table_rows():
        if row.diagram is None:
            continue
        d = diagram(row.diagram)
        assert len(versal_classes(row.case)) == d.tau
        pair = kernel_characters(row.case)
        for chi in pair:
            assert character_multiplicity(row.case, chi) == d.tau


def test_table_and_diagrams_name_the_same_model():
    """table1.json's group column and diagrams.json's expected_group state one mapping twice."""
    linked = [row for row in table_rows() if row.diagram is not None]
    assert sorted(row.diagram for row in linked) == sorted(diagram_names())
    for row in linked:
        assert row.group == diagram(row.diagram).expected_group, row.notation


def test_multiplicities_sum_to_the_local_dimension():
    for row in table_rows():
        base = kernel_character(row.case)
        chars = {class_character(row.case, cls) * base for cls in row.case.basis}
        assert sum(character_multiplicity(row.case, ch) for ch in chars) == 8


def test_basis_classes_never_mix_characters():
    for row in table_rows():
        for cls in row.case.basis:
            class_character(row.case, cls)  # raises on inconsistency


def test_class_character_rejects_a_mixing_class():
    c = case((W, F.one, F.one), basis=(((1, 0, 0), (0, 1, 0)),))
    with pytest.raises(ClassifyError):
        class_character(c, c.basis[0])


def test_versal_requires_a_basis():
    c = case((W, W, W))
    with pytest.raises(ClassifyError):
        versal_classes(c)
    with pytest.raises(ClassifyError):
        character_multiplicity(c, F.one)


def test_kernel_pair_matches_the_linked_diagram():
    for row in table_rows():
        if row.diagram is None:
            continue
        d = diagram(row.diagram)
        lifted = {d.field.embed(x, F) for x in d.kernel_chi_pair}
        assert lifted == set(row.declared_kernel)
        assert lifted == set(kernel_characters(row.case))


def test_primed_symmetries_are_inverse_squares():
    rows = {r.notation: r for r in table_rows()}
    base = rows["(P8|Z6)'"].case.kappa
    assert tuple((k * k).inverse() for k in base) == rows["(P8|Z3)'"].case.kappa


def test_proj_rows_verify_with_declared_split_pattern():
    rows = proj_rows()
    assert [r.id for r in rows] == [1, 2, 3, 4, 5, 6, 7]
    assert [r.declared_splits for r in rows] == [True, True, True, True, False, False, False]
    for row in rows:
        for c in verify_proj_row(row):
            assert c.verdict == "pass", (row.id, c.claim_id, c.witness)
        if row.modulus_term is not None:
            assert row.condition is not None


def test_flipped_symmetry_breaks_a_row():
    row = table_rows()[0]
    kx, ky, kz = row.case.kappa
    flipped = dataclasses.replace(row.case, kappa=(-kx, ky, kz))
    bad = dataclasses.replace(row, case=flipped)
    checks = verify_table_row(bad)
    assert any(c.verdict == "fail" for c in checks)
    assert checks[0].claim_id == "equivariance" and checks[0].verdict == "fail"


def test_tampered_versal_declaration_fails():
    row = table_rows()[0]
    bad = dataclasses.replace(row, declared_versal=row.declared_versal[:-1] + ((1, 0, 0),))
    checks = verify_table_row(bad)
    assert any(c.claim_id == "versal_monomials" and c.verdict == "fail" for c in checks)
