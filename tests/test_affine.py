import dataclasses
from fractions import Fraction

import pytest

from oracle_reflection import is_preserved_by
from crystmono import clear_caches
from crystmono.cli import diagram_from_payload, show_diagram_payload
from crystmono.cyclo import CycloField
from crystmono.linalg import (
    HermitianGram,
    ZLattice,
    conj_matrix,
    conj_vector,
    identity,
    mat_inverse,
    mat_mul,
    mat_vec,
    matrix,
    transpose,
    vec_add,
    vec_scale,
    vector,
)
from crystmono.monodromy import (
    PLOperator,
    diagram,
    diagram_names,
    pl_operator,
    quotient_basis,
)
from crystmono.affine import (
    AffineError,
    AffineIsometry,
    CaseReport,
    ClosureBoundError,
    DualFrame,
    dilation_check,
    linear_closure,
    maximal_root_check,
    reference_closure,
    reference_group,
    reference_names,
    reflection_order_multiset,
    saturate,
    translation_subgroup,
    verify_crystallographic,
)

F3 = CycloField(3)
ALL_NAMES = list(diagram_names())


def frame_for(name, chi="primary", alpha0=None):
    return DualFrame(quotient_basis(diagram(name, chi)), alpha0)


def duals_for(name, chi="primary", alpha0=None):
    d = diagram(name, chi)
    q = quotient_basis(d)
    fr = DualFrame(q, alpha0)
    return d, q, fr, [fr.dual_reflection(r, l) for r, l in zip(q.roots, q.eigenvalues)]


def _apply(g, v):
    return vec_add(mat_vec(g.linear, v), g.translation)


def _inverse(g):
    """(A, t)^-1 = (A^-1, -A^-1 t), through the elimination behind mat_inverse."""
    inv = mat_inverse(g.linear)
    return AffineIsometry(inv, vec_scale(-1, mat_vec(inv, g.translation)))


def test_affine_isometry_algebra():
    a = AffineIsometry(matrix(F3, [["w", 0], [0, 1]]), vector(F3, [1, 0]))
    b = AffineIsometry(matrix(F3, [[0, 1], [1, 0]]), vector(F3, [0, "w"]))
    ab = a * b
    v = vector(F3, [1, 2])
    assert _apply(ab, v) == _apply(a, _apply(b, v))
    one = AffineIsometry(identity(F3, 2), vector(F3, [0, 0]))
    assert a * _inverse(a) == _inverse(a) * a == one != a


def test_frame_decompose_round_trip():
    for nm in ALL_NAMES:
        _, q, fr, _ = duals_for(nm)
        for root in q.roots:
            u0, u = fr.decompose(root)
            back = vec_scale(u0, q.kernel)
            back = vec_add(back, (fr.field.zero,) + u)
            assert back == root


def test_frame_rejects_bad_input():
    d, q, fr, _ = duals_for("D4_3")
    with pytest.raises(AffineError):
        DualFrame(q, fr.field.zero)
    with pytest.raises(AffineError):
        fr.dual_reflection(q.kernel, fr.field.omega)  # no component off the kernel line
    shifted = q._replace(kernel=vec_scale(fr.field.omega, q.kernel))
    with pytest.raises(AffineError):
        DualFrame(shifted)


def test_dual_reflection_eigenvector_and_form():
    for nm in ALL_NAMES:
        for chi in ("primary", "conj"):
            d, q, fr, duals = duals_for(nm, chi)
            for root, lam, g in zip(q.roots, q.eigenvalues, duals):
                _, u = fr.decompose(root)
                ub = conj_vector(u)
                assert mat_vec(g.linear, ub) == vec_scale(lam.conjugate(), ub)
                assert is_preserved_by(fr.dual_gram, g.linear)
                assert fr.dual_gram.is_preserved_by(g.reflection)


def test_kept_reflections_are_linear_omitted_is_not():
    for nm in ALL_NAMES:
        d, q, fr, duals = duals_for(nm)
        assert any(not x.is_zero() for x in duals[q.omitted_index].translation)
        for j, root in enumerate(q.roots):
            if root[0].is_zero():
                assert all(x.is_zero() for x in duals[j].translation)


def _pullback(fr, h_frame):
    """Induced affine map on dual coordinates for a frame-coordinate operator."""
    tau = fr.n + 1
    h0 = tuple(h_frame[0][j] for j in range(1, tau))
    hv = tuple(tuple(h_frame[i][j] for j in range(1, tau)) for i in range(1, tau))
    q_restricted = transpose(fr.dual_gram.gram)
    qi = mat_inverse(q_restricted)
    lin = mat_mul(qi, mat_mul(transpose(hv), q_restricted))
    tr = vec_scale(fr.alpha0, mat_vec(qi, h0))
    return AffineIsometry(lin, tr)


def test_duality_is_covariant():
    # the dual affine map is the pullback along the inverse, not the operator itself
    for nm in ("D4_3", "P8divZ4"):
        d, q, fr, duals = duals_for(nm)
        field = fr.field
        tau = fr.n + 1
        p_rows = [[field.zero] * tau for _ in range(tau)]
        for i in range(tau):
            p_rows[i][0] = q.kernel[i]
        for j in range(1, tau):
            p_rows[j][j] = field.one
        p = matrix(field, p_rows)
        for root, lam, g in zip(q.roots, q.eigenvalues, duals):
            h = pl_operator(q.gram, root, lam).matrix
            h_frame = mat_mul(mat_inverse(p), mat_mul(h, p))
            g = AffineIsometry(g.linear, g.translation)
            assert g == _pullback(fr, mat_inverse(h_frame))
            if g.linear != mat_inverse(g.linear):
                assert g != _pullback(fr, h_frame)


def test_linear_closure_sizes_and_bound():
    _, _, _, duals = duals_for("P8_Z3")
    gens = [duals[1].reflection, duals[2].reflection]
    group = linear_closure(gens, 18)
    assert len(group) == 18
    with pytest.raises(ClosureBoundError):
        linear_closure(gens, max_size=10)
    with pytest.raises(AffineError):
        linear_closure([], 1)


def test_reference_groups_rebuild_to_declared_order():
    for nm in reference_names():
        ref = reference_group(nm)
        assert len(reference_closure(nm)) == ref.declared_order
        group = linear_closure(ref.generators, ref.declared_order)
        assert len(group) == ref.declared_order
        got = reflection_order_multiset(group)
        assert got == ref.declared_reflections


def test_reference_group_unknown_name():
    with pytest.raises(AffineError):
        reference_group("K999")


def test_reference_group_unknown_ring(monkeypatch):
    from crystmono import affine

    raw = dict(affine._raw_groups()["K3_3"], name="K3_3_bad", ring="Z[x]")
    monkeypatch.setattr(affine, "_raw_groups", lambda: {"K3_3_bad": raw})
    with pytest.raises(AffineError, match=r"unknown ring 'Z\[x\]'"):
        reference_group("K3_3_bad")


def test_g312_orbit_lattice_has_index_three():
    ref = reference_group("G312")
    field = ref.field
    group = reference_closure("G312")
    root = vector(field, [1, -1])
    orbit = ZLattice(field, 2, [mat_vec(m, root) for m in group])
    e = vector(field, [1, 0])
    w = field.omega
    full = ZLattice(field, 2, [e, vec_scale(w, e), root, vec_scale(w, root)])
    full = full.join(ZLattice(field, 2, [vector(field, [0, 1]), vector(field, [0, "w"])]))
    assert orbit.member(root)
    assert not orbit.member(e)
    assert full.join(orbit) == full and orbit.join(full) != orbit
    residues = set()
    for c0 in range(3):
        for c1 in range(3):
            for c2 in range(3):
                for c3 in range(3):
                    v = vec_add(
                        vec_add(vec_scale(field.from_rational(c0), e), vec_scale(field.from_rational(c1) * w, e)),
                        vec_add(
                            vec_scale(field.from_rational(c2), vector(field, [0, 1])),
                            vec_scale(field.from_rational(c3) * w, vector(field, [0, 1])),
                        ),
                    )
                    residues.add(orbit.reduce(v))
    assert len(residues) == 3


@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_orbit_lattice_basis_is_canonical(chi):
    # every dual reflection maps the D4_3 orbit lattice onto itself, so the
    # reduced HNF of the image must be the very same rows
    d, _, _, duals = duals_for("D4_3", chi)
    lattice = verify_crystallographic(d).lattice
    for g in duals:
        assert lattice.transformed(g.linear).rows == lattice.rows


def linear_part_closure(duals):
    """Closure of the linear parts of the duals whose translation is zero,
    bounded by 648, the order of K25, the largest model, as matrices."""
    return linear_closure([g.reflection for g in duals if all(x.is_zero() for x in g.translation)], 648).matrices()


def _escaped(gens, group):
    """The generators whose linear part lies outside the listed group."""
    members = set(group)
    return sum(g.linear not in members for g in gens)


def _linear(gens):
    """The indices of the generators whose translation is zero."""
    return [k for k, g in enumerate(gens) if all(x.is_zero() for x in g.translation)]


def _orbit(duals, q, group):
    """The orbit lattice of the omitted translation, saturated under the
    linear parts of the duals whose translation is zero, and its rounds."""
    t0 = duals[q.omitted_index].translation
    return saturate(ZLattice(t0[0].field, len(t0), [t0]), [duals[k].linear for k in _linear(duals)], len(group))


def _shifted(g, c):
    """g with its translation times c."""
    return AffineIsometry(g.linear, vec_scale(c, g.translation))


def test_translation_subgroup_rejects_wrong_lattice():
    d, q, fr, duals = duals_for("P8divZ6")
    group = linear_part_closure(duals)
    t0 = duals[q.omitted_index].translation
    orbit = _orbit(duals, q, group)
    assert orbit[0] == ZLattice(fr.field, fr.n, [mat_vec(m, t0) for m in group])
    assert _escaped(duals, group) == 0
    good = translation_subgroup(duals, _linear(duals), orbit, 0)
    assert good.invariance and good.verdict == "pass"
    # the relation cycle's shift halved lies outside the orbit lattice
    halved = _shifted(duals[-1], fr.field.from_rational(Fraction(1, 2)))
    bad = translation_subgroup(duals[:-1] + [halved], _linear(duals), orbit, 0)
    assert bad.verdict == "fail" and bad.witness.startswith("1 of 2 shifts")


def test_translation_subgroup_exact_controls():
    d, q, fr, duals = duals_for("C3_33")
    group = linear_part_closure(duals)
    orbit = _orbit(duals, q, group)
    assert _escaped(duals, group) == 0
    good = translation_subgroup(duals, _linear(duals), orbit, 0)
    # states counts saturation rounds: 3 for C3_33, against the 72 linear parts a transversal lists
    assert (good.verdict, good.states) == ("pass", 3)
    assert good.witness == "1 of 1 shifts in the orbit lattice, saturated in 3 rounds"
    # a second copy of the omitted reflection, its shift halved or doubled:
    # t0 / 2 lies outside the orbit lattice of t0, and 2 t0 inside
    omitted = duals[q.omitted_index]
    halved = duals + [_shifted(omitted, fr.field.from_rational(Fraction(1, 2)))]
    half = translation_subgroup(halved, _linear(duals), orbit, 0)
    assert (half.verdict, half.witness) == ("fail", "1 of 2 shifts in the orbit lattice, saturated in 3 rounds")
    doubled = translation_subgroup(duals + [_shifted(omitted, fr.field.from_rational(2))], _linear(duals), orbit, 0)
    assert doubled.verdict == "pass"

    # v -> -w v = v - (1 + w) v with the translations by 2 and 2w: the orbit lattice
    # of 2 under the sixth roots of unity is 2Z[w], which holds 2w and 4w but not w
    sixth = PLOperator.from_factors(vector(F3, [1]), vector(F3, ["1 + w"]), -F3.omega)
    turn = AffineIsometry(sixth.matrix, vector(F3, [0]))
    assert turn.linear == matrix(F3, [["-w"]])
    sixths = linear_closure([sixth], 6).matrices()

    def shift(c):
        return AffineIsometry(matrix(F3, [[1]]), vector(F3, [c]))

    orbit = saturate(ZLattice(F3, 1, [vector(F3, [2])]), [turn.linear], len(sixths))
    assert orbit == (ZLattice(F3, 1, [vector(F3, [2]), vector(F3, ["2*w"])]), 2)
    rep = translation_subgroup([turn, shift(2), shift("2*w")], [0], orbit, 0)
    assert (rep.verdict, rep.states) == ("pass", 2)
    assert translation_subgroup([turn, shift(2), shift("4*w")], [0], orbit, 0).verdict == "pass"
    odd = translation_subgroup([turn, shift(2), shift("w")], [0], orbit, 0)
    assert (odd.verdict, odd.witness) == ("fail", "1 of 2 shifts in the orbit lattice, saturated in 2 rounds")

    # saturated under v -> -v alone, the orbit lattice is 2Z; the linear part
    # of v -> w v lies outside {1, -1}, so (1, 0), (-1, 0) are no transversal
    # and the claims fail with no shift tested
    sign = PLOperator.from_factors(vector(F3, [1]), vector(F3, [2]), -F3.one)  # v -> v - 2 v
    flip = AffineIsometry(sign.matrix, vector(F3, [0]))
    assert flip.linear == matrix(F3, [[-1]])
    rotate = AffineIsometry(matrix(F3, [["w"]]), vector(F3, [0]))
    signs = linear_closure([sign], 2).matrices()
    orbit = saturate(ZLattice(F3, 1, [vector(F3, [2])]), [flip.linear], len(signs))
    gens = [flip, rotate, shift(2), shift("2*w")]
    assert _escaped(gens, signs) == 1
    escaped = translation_subgroup(gens, [0], orbit, 1)
    assert (escaped.verdict, escaped.states) == ("fail", 1)
    assert escaped.witness == "linear part outside the group for 1 of 4 generators"


def _word_translation_span(duals, depth):
    """Oracle: span of the translations of identity-linear words up to `depth` letters.

    A plain BFS over the generators and their inverses, independent of the
    Schreier transversal.
    """
    field, n = duals[0].linear[0][0].field, len(duals[0].linear)
    letters = [AffineIsometry(g.linear, g.translation) for g in duals]
    letters += [_inverse(g) for g in letters]
    start = AffineIsometry(identity(field, n), vector(field, [0] * n))
    seen, frontier, found = {start}, [start], []
    for _ in range(depth):
        nxt = []
        for el in frontier:
            for g in letters:
                p = g * el
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if p.linear == start.linear:
                        found.append(p.translation)
        frontier = nxt
    return ZLattice(field, n, found)


def test_lattice_invariant_images_only_the_generators_outside_the_saturation(monkeypatch):
    """A kept generator maps the orbit lattice onto itself by saturation
    and finite order, so lattice_invariant builds the image of each other
    generator alone, and one of those that moves the lattice, as twice the
    omitted linear part does, still fails it; so does a hand-made rotation
    v -> w v against the lattice 2Z of v -> -v."""
    d, q, fr, duals = duals_for("D4_3")
    kept = _linear(duals)
    orbit = _orbit(duals, q, linear_part_closure(duals))
    images, real = [], ZLattice.transformed
    monkeypatch.setattr(ZLattice, "transformed", lambda lat, m: images.append(m) or real(lat, m))
    assert translation_subgroup(duals, kept, orbit, 0).invariance
    assert images == [g.linear for k, g in enumerate(duals) if k not in kept] != []
    j = q.omitted_index
    doubled = AffineIsometry(tuple(vec_scale(2, row) for row in duals[j].linear), duals[j].translation)
    assert not translation_subgroup(duals[:j] + [doubled] + duals[j + 1 :], kept, orbit, 1).invariance
    assert real(orbit[0], duals[j].linear) == orbit[0] != real(orbit[0], doubled.linear)

    flip = AffineIsometry(matrix(F3, [[-1]]), vector(F3, [0]))
    rotate = AffineIsometry(matrix(F3, [["w"]]), vector(F3, [0]))
    orbit = saturate(ZLattice(F3, 1, [vector(F3, [2])]), [flip.linear], 2)
    assert translation_subgroup([flip, rotate], [0], orbit, 1).invariance is False


@pytest.mark.parametrize("name, depth", [("P8divZ6", 2), ("P8_Z3", 6)])
def test_schreier_span_matches_word_oracle(name, depth):
    d, q, fr, duals = duals_for(name)
    lattice = verify_crystallographic(d).lattice
    group = linear_part_closure(duals)
    assert _escaped(duals, group) == 0
    orbit = _orbit(duals, q, group)
    assert orbit[0] == lattice
    assert translation_subgroup(duals, _linear(duals), orbit, 0).verdict == "pass"  # translations == lattice
    assert _word_translation_span(duals, depth) == lattice
    assert _word_translation_span(duals, depth - 1) != lattice


def test_maximal_root_words_both_characters():
    for nm in ("C3_33", "D4_3", "P8_Z3", "C3_24"):
        for chi in ("primary", "conj"):
            rep = maximal_root_check(diagram(nm, chi))
            assert rep.holds, (nm, chi, rep.word)
    with pytest.raises(AffineError):
        maximal_root_check(diagram("P8divZ6"))


def test_maximal_root_letters_are_the_conjugated_dual_reflections():
    """maximal_root_check reads its letters off the dual reflections; the
    construction it replaced, a reflection for the restricted form built
    by pl_operator, is the oracle."""
    cases = 0
    for nm in ALL_NAMES:
        for chi in ("primary", "conj"):
            frame = frame_for(nm, chi)
            restricted = HermitianGram(transpose(frame.dual_gram.gram))
            for root, lam in zip(frame.quotient.roots, frame.quotient.eigenvalues):
                _, u = frame.decompose(root)
                oracle = pl_operator(restricted, u, lam).matrix
                assert conj_matrix(frame.dual_reflection(root, lam).linear) == oracle, (nm, chi)
                cases += 1
    assert cases == 46


def test_verify_small_cases_pass():
    for nm in ("P8divZ6", "P8_Z3", "P8Z6_dblprime"):
        rep = verify_crystallographic(diagram(nm))
        assert rep.verdict == "pass", [c for c in rep.checks if c.verdict != "pass"]
        assert rep.group == diagram(nm).expected_group
        ids = [c.claim_id for c in rep.checks]
        assert "linear_order" in ids and "translations_generate" in ids


def test_verify_report_shape():
    rep = verify_crystallographic(diagram("P8divZ4"))
    assert isinstance(rep, CaseReport)
    assert rep.alpha0 == "1"
    assert rep.lattice is not None and rep.lattice.rank == 2
    for c in rep.checks:
        assert c.verdict in ("pass", "fail", "inconclusive")
        assert c.claim and c.claim_id and isinstance(c.witness, str)


def test_verify_requires_a_declared_group():
    payload = show_diagram_payload(diagram("C3_33"))
    payload["expected_group"] = None
    with pytest.raises(AffineError, match="declares no crystallographic model"):
        verify_crystallographic(diagram_from_payload(payload))


def test_verify_flags_wrong_eigenvalue():
    d = diagram("C3_24")
    cycles = list(d.cycles)
    cycles[1] = cycles[1]._replace(eigenvalue=-d.field.one)
    tampered = dataclasses.replace(d, cycles=tuple(cycles))
    rep = verify_crystallographic(tampered)
    assert rep.verdict == "fail"
    failing = {c.claim_id for c in rep.checks if c.verdict == "fail"}
    assert "linear_order" in failing


def test_dilation_scales_the_lattice():
    for nm in ("P8divZ6", "P8divZ4"):
        rep = dilation_check(diagram(nm))
        assert rep.verdicts_match and rep.lattice_scaled
        assert rep.base.verdict == "pass" and rep.dilated.verdict == "pass"
        assert rep.dilated.alpha0 != rep.base.alpha0
