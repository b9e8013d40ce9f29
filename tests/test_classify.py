import dataclasses
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from crystmono import cli
from crystmono.classify import (
    CHARACTER_FIELD,
    ClassifyError,
    NotEquivariant,
    SymmetryCase,
    _table_data,
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
from crystmono.cyclo import CycloField, CycloNum
from crystmono.monodromy import SPLITTING_ORDERS, diagram, diagram_names

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


@pytest.mark.parametrize("extra", [(0, 2, 0), (0, 0, 2)], ids=["triple-twice", "class-twice"])
def test_versal_declaration_is_compared_as_a_multiset(extra):
    """C3^(3,3) declares (0,0,0), (0,1,0) and (0,2,0), and (0,2,0) shares
    its basis class with (0,0,2).  Declaring (0,2,0) again, or (0,0,2)
    beside it, names one class twice: 4 declared against 3 computed."""
    row = next(r for r in table_rows() if r.notation == "C3^(3,3)")
    assert extra in next(cls for cls in row.case.basis if (0, 2, 0) in cls)
    bad = dataclasses.replace(row, declared_versal=row.declared_versal + (extra,))
    versal = next(c for c in verify_table_row(bad) if c.claim_id == "versal_monomials")
    assert (versal.verdict, versal.witness) == ("fail", "computed 3 classes, declared 4")


# -- the exponent arithmetic against field arithmetic ------------------------
#
# classify computes with exponents mod 72; the oracle below is the same
# classification written with field products, powers, inverses and a
# multiply-loop order.


def _loop_order(x):
    acc = x
    for k in range(1, 73):
        if acc == F.one:
            return k
        acc = acc * x
    return None


def _o_character(kappa, term):
    kx, ky, kz = kappa
    return kx ** term[0] * ky ** term[1] * kz ** term[2]


def _o_factor(c):
    if not c.terms:
        raise ClassifyError(f"{c.label}: no terms")
    vals = [_o_character(c.kappa, t) for t in c.terms]
    for t, v in zip(c.terms[1:], vals[1:]):
        if v != vals[0]:
            raise NotEquivariant(f"{c.label}: term {t} scales by {v}, first term by {vals[0]}")
    return vals[0]


def _o_order(c):
    orders = [_loop_order(k) for k in c.kappa]
    if None in orders:
        raise ClassifyError(f"{c.label}: coordinate factor is not a root of unity")
    return lcm(*orders)


def _o_class_character(c, cls):
    vals = [_o_character(c.kappa, t) for t in cls]
    if any(v != vals[0] for v in vals):
        raise ClassifyError(f"{c.label}: basis class {cls} mixes characters")
    return vals[0]


def _o_kernel_character(c):
    kx, ky, kz = c.kappa
    return kx * ky * kz * _o_factor(c).inverse()


def _o_kernel_characters(c):
    chi = _o_kernel_character(c)
    return (chi, chi.conjugate()) if _loop_order(chi) in SPLITTING_ORDERS else None


def _o_versal(c):
    if not c.basis:
        raise ClassifyError(f"{c.label}: no local basis attached")
    f = _o_factor(c)
    return tuple(cls for cls in c.basis if _o_class_character(c, cls) == f)


def _o_multiplicity(c, chi):
    if not c.basis:
        raise ClassifyError(f"{c.label}: no local basis attached")
    base = _o_kernel_character(c)
    return sum(1 for cls in c.basis if _o_class_character(c, cls) * base == chi)


def _o_smoothable(c):
    f = _o_factor(c)
    return f == F.one or f in c.kappa


def _outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except ClassifyError as exc:
        return type(exc), str(exc)


def _agrees_with_the_oracle(c):
    pairs = [
        (character, _o_character, c.kappa, t)
        for t in c.terms
    ] + [
        (equivariance_factor, _o_factor, c),
        (symmetry_order, _o_order, c),
        (kernel_character, _o_kernel_character, c),
        (kernel_characters, _o_kernel_characters, c),
        (versal_classes, _o_versal, c),
        (is_smoothable, _o_smoothable, c),
    ]
    pairs += [(class_character, _o_class_character, c, cls) for cls in c.basis]
    chis = {F.one, F.zeta(), 2 * F.one}
    for cls in c.basis:
        try:
            chis.add(_o_class_character(c, cls) * _o_kernel_character(c))
        except ClassifyError:
            pass
    pairs += [(character_multiplicity, _o_multiplicity, c, chi) for chi in chis]
    for fn, oracle, *args in pairs:
        assert _outcome(fn, *args) == _outcome(oracle, *args), (c.label, fn.__name__, args[1:])


def test_every_row_agrees_with_field_arithmetic():
    cases = [r.case for r in table_rows()] + [r.case for r in proj_rows()]
    assert len(cases) == 22
    for c in cases:
        _agrees_with_the_oracle(c)


@st.composite
def _drawn_cases(draw):
    """kappa in mu_72^3 on some terms of a table function, with its basis."""
    raw, bases = _table_data()
    fid = draw(st.sampled_from(sorted(bases)))
    terms = tuple(tuple(t) for t in raw["functions"][fid]["terms"])
    terms = tuple(draw(st.permutations(terms))[: draw(st.integers(1, len(terms)))])
    kappa = tuple(F.zeta(draw(st.integers(0, 71))) for _ in range(3))
    return SymmetryCase("drawn", terms, kappa, bases[fid])


@given(_drawn_cases())
@settings(max_examples=60, deadline=None)
def test_drawn_symmetries_agree_with_field_arithmetic(c):
    _agrees_with_the_oracle(c)


def test_a_factor_that_is_no_root_of_unity_is_an_error(monkeypatch, capsys):
    row = table_rows()[0]
    bad = dataclasses.replace(row.case, kappa=(2 * F.one,) + row.case.kappa[1:])
    for fn in (equivariance_factor, symmetry_order, kernel_character, kernel_characters, versal_classes, is_smoothable):
        with pytest.raises(ClassifyError, match="coordinate factor is not a root of unity"):
            fn(bad)
    for fn, arg in ((class_character, bad.basis[0]), (character_multiplicity, F.one)):
        with pytest.raises(ClassifyError, match="coordinate factor is not a root of unity"):
            fn(bad, arg)
    with pytest.raises(ClassifyError, match="coordinate factor is not a root of unity"):
        character(bad.kappa, (1, 0, 0))
    with pytest.raises(ClassifyError):
        verify_table_row(dataclasses.replace(row, case=bad))
    proj = proj_rows()[0]
    with pytest.raises(ClassifyError):
        verify_proj_row(proj._replace(case=dataclasses.replace(proj.case, kappa=bad.kappa)))
    monkeypatch.setattr(cli, "table_rows", lambda: (dataclasses.replace(row, case=bad),))
    assert cli.main(["verify", "table1"]) == 2
    assert "coordinate factor is not a root of unity" in capsys.readouterr().err


def test_a_character_that_is_no_root_of_unity_has_multiplicity_zero():
    for row in table_rows():
        chi = kernel_character(row.case)
        assert character_multiplicity(row.case, 2 * chi) == 0
        assert character_multiplicity(row.case, CycloField(3).omega) == 0  # another field


def test_row_checks_multiply_nothing_in_the_character_field(monkeypatch):
    table, proj = table_rows(), proj_rows()  # parsing the data does multiply
    calls = []
    products, inverse = CycloField._sum_of_products, CycloNum.inverse

    def counted_products(self, pairs):
        if self is F:
            calls.append("product")
        return products(self, pairs)

    def counted_inverse(self):
        if self.field is F:
            calls.append("inverse")
        return inverse(self)

    monkeypatch.setattr(CycloField, "_sum_of_products", counted_products)
    monkeypatch.setattr(CycloNum, "inverse", counted_inverse)
    checks = [c for row in table for c in verify_table_row(row)] + [c for row in proj for c in verify_proj_row(row)]
    assert len(checks) == 5 * 15 + 2 * 7 and all(c.verdict == "pass" for c in checks)
    assert calls == []
    F.zeta().inverse()  # the counters do see Q(zeta_72) arithmetic
    assert calls[0] == "inverse" and set(calls[1:]) == {"product"}
