"""The closure-free diagram side against closure-built oracles.

`verify_crystallographic` does not list a diagram's linear group: it finds
an invertible X conjugating the kept linear parts onto the model's stored
generators, and only then builds the orbit lattice by one saturation,
within the model's order of rounds, tests each shift for membership in it,
and looks each omitted linear part up in the model once.  Here the
breadth-first closure
of oracle_closure.py lists the group anyway, for every diagram in both
characters and for every run of the dilation check (the Z[i] diagrams
lifted to Q(zeta12)), and the lattices and the certificate are checked
against it.  Tampered diagrams with no X must fail with no saturation run
and every membership and lattice claim left inconclusive.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import lcm

import pytest

import oracle_closure as O
from crystmono import affine, clear_caches, linalg
from crystmono.affine import (
    AffineError,
    AffineIsometry,
    ClosureBoundError,
    Conjugacy,
    DualFrame,
    _kept_indices,
    _reference_generators,
    dilation_check,
    find_conjugacy,
    lifted_quotient,
    reference_group,
    saturate,
    translation_subgroup,
    verify_crystallographic,
)
from crystmono.cli import main
from crystmono.cyclo import CycloField
from crystmono.linalg import (
    ZLattice,
    conj_matrix,
    det,
    identity,
    is_zero_vector,
    mat_inverse,
    mat_mul,
    mat_prod,
    mat_vec,
    matrix,
    nullspace,
    unflatten,
    vec_scale,
)
from crystmono.monodromy import diagram, diagram_names, quotient_basis

F3, F12 = CycloField(3), CycloField(12)


def _runs():
    """(name, chi, alpha0 tag): the default run and the dilated run, and for
    the Z[i] diagrams the base run of the dilation check, lifted to Q(zeta12);
    for the others that base run is the default run."""
    runs = []
    for name in diagram_names():
        tags = (None, "dilated") if diagram(name).field.n % 3 == 0 else (None, "base", "dilated")
        runs += [(name, chi, tag) for chi in ("primary", "conj") for tag in tags]
    return runs


def _alpha0(d, tag):
    work = d.field if d.field.n % 3 == 0 else F12
    return {None: None, "base": work.one, "dilated": work.one - work.omega}[tag]


def _ids(run):
    name, chi, tag = run
    return f"{name}-{chi}" + (f"-{tag}" if tag else "")


@cache
def _setting(name, chi, tag):
    """The run's duals and kept indices, rebuilt as verify_crystallographic builds them."""
    d = diagram(name, chi)
    alpha0 = _alpha0(d, tag)
    q = quotient_basis(d)
    if alpha0 is not None and alpha0.field is not q.field:
        q = lifted_quotient(q, alpha0.field)
    frame = DualFrame(q, alpha0)
    duals = [frame.dual_reflection(r, lam) for r, lam in zip(q.roots, q.eigenvalues)]
    return d, alpha0, q, frame, duals, _kept_indices(d, q)


@cache
def _oracle_group(name, chi, field_n):
    """BFS closure of the kept linear parts; they do not depend on alpha0."""
    tag = None if field_n == diagram(name, chi).field.n else "base"
    _, _, _, _, duals, kept = _setting(name, chi, tag)
    return tuple(O.linear_closure([duals[j].linear for j in kept]))


def _intertwiners(gens, targets):
    """Basis of {X : X g_i = t_i X for every i}: the nullspace of one linear
    system in the n^2 entries of X, X[a][b] standing at a * n + b."""
    field = gens[0][0][0].field
    n = len(gens[0])
    rows = []
    for g, t in zip(gens, targets):
        for r in range(n):
            for c in range(n):
                # (X g - t X)[r][c] = sum_k X[r][k] g[k][c] - t[r][k] X[k][c]
                row = [field.zero] * (n * n)
                for k in range(n):
                    row[r * n + k] += g[k][c]
                    row[k * n + c] -= t[r][k]
                rows.append(tuple(row))
    return [tuple(v[a * n : (a + 1) * n] for a in range(n)) for v in nullspace(tuple(rows))]


def _unfiltered_conjugacy(gens, targets):
    """find_conjugacy by brute force: for every bijection, with no filter,
    the n^2-unknown system in the entries of X is solved, and its solution,
    unique up to a scalar for the models' irreducible targets, is tested for
    invertibility; the nullspace vector's last nonzero entry is 1."""
    for pi in permutations(range(len(targets))):
        space = _intertwiners(gens, [targets[p] for p in pi])
        assert len(space) <= 1
        if space and not det(space[0]).is_zero():
            c = lcm(*(x.den for row in space[0] for x in row))
            return pi, tuple(vec_scale(c, row) for row in space[0])
    return None, None


def _spy_saturations(monkeypatch):
    """Record (max_rounds, rounds taken) for every saturation."""
    calls = []
    real = affine.saturate

    def spy(lattice, mats, max_rounds):
        out = real(lattice, mats, max_rounds)
        calls.append((max_rounds, out[1]))
        return out

    monkeypatch.setattr(affine, "saturate", spy)
    return calls


@pytest.mark.parametrize("run", _runs(), ids=_ids)
def test_certificate_and_saturated_lattices_match_the_closure_oracle(run, monkeypatch):
    d, alpha0, q, frame, duals, kept = _setting(*run)
    field = q.field
    saturations = _spy_saturations(monkeypatch)
    rep = verify_crystallographic(d, alpha0)
    assert rep.verdict == "pass"
    group = _oracle_group(run[0], run[1], field.n)
    ref = reference_group(d.expected_group)
    assert len(group) == ref.declared_order
    # the orbit lattice alone is saturated, bounded by the model's order
    assert len(saturations) == 1
    [(bound, rounds)] = saturations
    assert rounds <= bound == len(group)

    # the certificate, re-checked from the stored generators
    cert = rep.conjugacy
    x = cert.x
    assert not det(x).is_zero()
    x_inv = mat_inverse(x)
    rhos = []
    for g in ref.generators:
        rho = tuple(tuple(ref.field.embed(c, field) for c in row) for row in g.matrix)
        rhos.append(conj_matrix(rho) if d.chi_label == "primary" else rho)
    for j, p in zip(kept, cert.pi):
        assert mat_prod([x, duals[j].linear, x_inv]) == rhos[p]
    # the Cartan filter skips only bijections that have no invertible X, and
    # the rescaled X is the n^2-unknown solve's, normalised alike
    assert _unfiltered_conjugacy([duals[j].linear for j in kept], rhos) == (cert.pi, x)

    # the orbit lattice and the Schreier span, from every listed element
    t0 = duals[q.omitted_index].translation
    assert rep.lattice == ZLattice(field, frame.n, [mat_vec(m, t0) for m in group])
    shifts = [g.translation for g in duals if not is_zero_vector(g.translation)]
    schreier = ZLattice(field, frame.n, {mat_vec(m, t) for m in group for t in shifts})
    kept_linear = [duals[j].linear for j in kept]
    span, _ = saturate(ZLattice(field, frame.n, shifts), kept_linear, len(group))
    assert span == schreier == rep.lattice
    members = set(group)
    assert all(duals[j].linear in members for j in range(len(duals)) if j not in kept)
    # states and the witness carry the rounds of the one saturation
    trep = translation_subgroup(duals, saturate(ZLattice(field, frame.n, [t0]), kept_linear, len(group)), 0)
    assert (trep.verdict, trep.states) == ("pass", rounds)
    witness = f"{len(shifts)} of {len(shifts)} shifts in the orbit lattice, saturated in {rounds} rounds"
    checks = {c.claim_id: c for c in rep.checks}
    assert checks["translations_contained"].witness == checks["translations_generate"].witness == witness


def test_saturation_rounds_are_bounded():
    ident = matrix(F3, [[1, 0], [0, 1]])
    start = ZLattice(F3, 2, [(F3.one, F3.zero)])
    swap = matrix(F3, [[0, 1], [1, 0]])
    assert saturate(start, [swap], 2) == (ZLattice(F3, 2, [(F3.one, F3.zero), (F3.zero, F3.one)]), 2)
    assert saturate(start, [ident], 1) == (start, 1)
    with pytest.raises(ClosureBoundError, match="lattice saturation exceeds 1 rounds"):
        saturate(start, [swap], 1)
    # halving spans no lattice: stopped at the bound
    with pytest.raises(ClosureBoundError, match="lattice saturation exceeds 30 rounds"):
        saturate(start, [matrix(F3, [[Fraction(1, 2), 0], [0, 1]])], 30)


def _conjugates(cert, gens, targets):
    """X g_i X^-1 = targets[pi(i)] for every i, with X invertible."""
    x_inv = mat_inverse(cert.x)
    return all(mat_prod([cert.x, g, x_inv]) == targets[p] for g, p in zip(gens, cert.pi))


def test_find_conjugacy_on_hand_made_generators():
    a, b = _reference_generators("K5")
    y = matrix(F3, [[1, "w"], [0, 2]])
    y_inv = mat_inverse(y)
    gens = [mat_prod([y_inv, b, y]), mat_prod([y_inv, a, y])]
    cert = find_conjugacy(gens, [a, b])
    # a and b are swapped by a conjugation as well, so the first bijection serves
    assert (cert.pi, cert.tries) == ((0, 1), 1)
    assert [mat_prod([cert.x, g, mat_inverse(cert.x)]) for g in gens] == [a, b]
    # one generator short: no X and no try; one target short: no basis
    assert find_conjugacy(gens[:1], [a, b]) == Conjugacy(None, None, 0)
    with pytest.raises(AffineError, match="roots form a basis"):
        find_conjugacy(gens, [a])
    # diagonal targets: a Cartan graph with no edge, each part rescaled from
    # 1, so the X found is diagonal
    d1, d2 = matrix(F3, [["w", 0], [0, 1]]), matrix(F3, [[1, 0], [0, "w"]])
    assert find_conjugacy([d1, d2], [d1, d2]) == Conjugacy((0, 1), identity(F3, 2), 1)
    # conjugated and swapped, with eigenvalues w and -1: (0, 1) fails the
    # diagonal, A_00 = 2 against 1 - w, and is not tried
    d3 = matrix(F3, [[1, 0], [0, -1]])
    gens = [mat_prod([y_inv, t, y]) for t in (d3, d1)]
    cert = find_conjugacy(gens, [d1, d3])
    assert (cert.pi, cert.tries) == ((1, 0), 1) and _conjugates(cert, gens, [d1, d3])
    # targets along one root line: no basis, so no verdict
    with pytest.raises(AffineError, match="roots form a basis"):
        find_conjugacy([d1, d2], [d1, matrix(F3, [["w^2", 0], [0, 1]])])


def test_find_conjugacy_refuses_a_generator_that_is_no_reflection():
    # g has the trace 1 + w of each of K5's generators, but I - g has rank 2
    a, b = _reference_generators("K5")
    g = matrix(F3, [["1 + w", 1], [-1, 0]])
    for gens in ([a, g], [g, b], [a, mat_mul(a, b)], [a, identity(F3, 2)]):
        assert find_conjugacy(gens, [a, b]) == Conjugacy(None, None, 0)


def _from_cartan(rows):
    """The reflections r_i = I - e_i a_i^T, with roots e_i and coroots a_i:
    their Cartan matrix is `rows`, up to rescaling."""
    ident = identity(F3, len(rows))
    return [
        tuple(tuple(x - y for x, y in zip(e, row)) if i == k else e for k, e in enumerate(ident))
        for i, row in enumerate(matrix(F3, rows))
    ]


def test_find_conjugacy_tries_cartan_matched_reflections_without_an_invertible_x():
    # the diagonals and the products a_ij a_ji agree under all six
    # bijections, so each is tried, but the cyclic product a_12 a_23 a_31,
    # which rescaling keeps, is -1 against 1: no mu, and the n^2-unknown
    # system has no invertible solution either
    targets = _from_cartan([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    gens = _from_cartan([[2, 1, 1], [1, 2, -1], [1, -1, 2]])
    assert find_conjugacy(gens, targets) == Conjugacy(None, None, 6)
    assert _unfiltered_conjugacy(gens, targets) == (None, None)
    # a rescaling of the targets' Cartan matrix by mu = (1, 2, -1) is found
    rescaled = _from_cartan([[2, 2, -1], [Fraction(1, 2), 2, Fraction(-1, 2)], [-1, -2, 2]])
    cert = find_conjugacy(rescaled, targets)
    assert (cert.pi, cert.tries) == ((0, 1, 2), 1) and _conjugates(cert, rescaled, targets)
    assert _unfiltered_conjugacy(rescaled, targets) == (cert.pi, cert.x)


def test_find_conjugacy_needs_as_many_generators_as_targets():
    # three reflections against K5's two, and two against three targets
    # whose first two share their Cartan matrix: no bijection, no try
    three = _from_cartan([[2, 1, 0], [1, 2, 0], [0, 0, 2]])
    assert find_conjugacy(three, list(_reference_generators("K5"))) == Conjugacy(None, None, 0)
    assert find_conjugacy(_from_cartan([[2, 1], [1, 2]]), three) == Conjugacy(None, None, 0)


def test_find_conjugacy_runs_one_elimination_per_call(monkeypatch):
    """Once the targets' factors are built, a call eliminates once, to
    invert the generators' roots, however many bijections it tries; a
    repeated call reads the generators' factors from the cache too."""
    echelons = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda rows: echelons.append(None) or real(rows))
    cases = [(_from_cartan([[2, 1, 1], [1, 2, -1], [1, -1, 2]]), _from_cartan([[2, 1, 1], [1, 2, 1], [1, 1, 2]]))]
    for name in diagram_names():
        _, _, _, _, duals, kept = _setting(name, "primary", None)
        targets = [conj_matrix(g) for g in _reference_generators(diagram(name).expected_group)]
        cases.append(([duals[j].linear for j in kept], targets))
    tries, counts = [], []
    for gens, targets in cases:
        clear_caches()
        affine._cartan(tuple(targets))
        echelons.clear()
        tries.append(find_conjugacy(gens, targets).tries)
        find_conjugacy(gens, targets)
        counts.append(len(echelons))
    # none where the kept linear parts are the targets themselves, cached
    # with them; one for the hand-made case, which tries six bijections
    assert tries == [6] + [1] * len(diagram_names())
    assert counts[0] == 1 and set(counts) <= {0, 1}
    clear_caches()


_dual_reflection = DualFrame.dual_reflection  # unpatched


def _tamper_first_kept(monkeypatch, name, change):
    """Serve change(frame, root, eigenvalue, other) in place of the dual
    reflection along the first kept root of `name` (primary character),
    in lifted runs too; `other` is the last kept root."""
    d = diagram(name)
    q = quotient_basis(d)
    kept = _kept_indices(d, q)

    def patched(self, root, eigenvalue):
        first, other = (tuple(q.field.embed(x, self.field) for x in q.roots[j]) for j in (kept[0], kept[-1]))
        if root != first:
            return _dual_reflection(self, root, eigenvalue)
        return change(self, root, eigenvalue, other)

    monkeypatch.setattr(DualFrame, "dual_reflection", patched)


def _spy_closures(monkeypatch):
    """Record the generators and bound of every linear closure, from empty caches."""
    calls = []
    real = affine.linear_closure

    def spy(gens, max_size):
        calls.append((tuple(gens), max_size))
        return real(gens, max_size)

    monkeypatch.setattr(affine, "linear_closure", spy)
    clear_caches()
    return calls


def _model_call(name):
    """The one closure a model gets: its stored generators, bounded by its declared order."""
    return _reference_generators(name), reference_group(name).declared_order


def _squared(frame, root, eigenvalue, _other):
    g = _dual_reflection(frame, root, eigenvalue)
    return AffineIsometry(mat_mul(g.linear, g.linear), g.translation)


def _wrong_eigenvalue(frame, root, eigenvalue, _other):
    return _dual_reflection(frame, root, eigenvalue.conjugate())


def _minus_one(frame, root, _eigenvalue, _other):
    # in D4_3 and C3_33 this makes an infinite group whose orbit spans no
    # lattice: with no X, nothing is saturated and the case fails at once
    return _dual_reflection(frame, root, -frame.field.one)


def _duplicated(frame, _root, eigenvalue, other):
    # two kept roots on one line are no basis, so no bijection is tried
    return _dual_reflection(frame, other, eigenvalue)


LATTICE_CLAIMS = (
    "omitted_in_closure",
    "lattice_rank",
    "lattice_invariant",
    "translations_contained",
    "translations_generate",
    "ring_lattice",
)

TAMPERED = [
    (name, change)
    for change, names in (
        (_squared, ("D4_3", "C3_33", "C3_24", "P8divZ4")),
        (_wrong_eigenvalue, ("D4_3", "C3_33", "C3_24", "P8divZ4")),
        (_duplicated, ("D4_3", "C3_33", "C3_24")),
        (_minus_one, ("D4_3", "C3_33")),
    )
    for name in names
]


@pytest.mark.parametrize("name, change", TAMPERED, ids=[f"{n}-{c.__name__[1:]}" for n, c in TAMPERED])
def test_no_conjugacy_fails_without_a_diagram_closure(name, change, monkeypatch, capsys):
    _tamper_first_kept(monkeypatch, name, change)
    calls = _spy_closures(monkeypatch)
    saturations = _spy_saturations(monkeypatch)
    d = diagram(name)
    rep = verify_crystallographic(d)
    verdicts = {c.claim_id: c.verdict for c in rep.checks}
    assert verdicts["linear_order"] == verdicts["reflection_multiset"] == "fail"
    assert rep.conjugacy.x is None
    assert rep.conjugacy.tries == 0  # no reflection, dependent roots, or rejected by the Cartan filter
    # the model is the only group closed, no group order bounds a
    # saturation, and the membership and lattice claims stay undecided
    assert calls == [_model_call(d.expected_group)]
    open_claims = [c for c in LATTICE_CLAIMS if c in verdicts]
    assert len(open_claims) == (6 if reference_group(d.expected_group).lattice_rule["kind"] == "ring" else 5)
    assert {verdicts[c] for c in open_claims} == {"inconclusive"}
    assert rep.lattice is None
    dil = dilation_check(d)
    assert dil.base.lattice is dil.dilated.lattice is None
    assert (dil.verdicts_match, dil.lattice_scaled) == (True, False)
    assert main(["verify", "diagram", name]) == 1
    assert "no invertible X for the" in capsys.readouterr().out
    assert saturations == []
    clear_caches()


@pytest.mark.parametrize("name", ["D4_3", "C3_33"])
def test_omitted_reflection_outside_the_model_group_fails(name, monkeypatch):
    # the omitted reflection of order 2, which K25 and K5 lack: X m X^-1 is
    # not in the model's closure, so it escapes the transversal as well
    d = diagram(name)
    q = quotient_basis(d)
    omitted = q.roots[q.omitted_index]
    group = set(_oracle_group(name, "primary", d.field.n))  # cached from the unpatched duals

    def patched(self, root, eigenvalue):
        return _dual_reflection(self, root, -self.field.one if root == omitted else eigenvalue)

    monkeypatch.setattr(DualFrame, "dual_reflection", patched)
    saturations = _spy_saturations(monkeypatch)
    rep = verify_crystallographic(d)
    checks = {c.claim_id: c for c in rep.checks}
    assert len(saturations) == 1  # the orbit lattice, still built for the rank and invariance claims
    assert checks["linear_order"].verdict == "pass"
    assert (checks["omitted_in_closure"].verdict, checks["omitted_in_closure"].witness) == (
        "fail",
        f"outside: {q.labels[q.omitted_index]}",
    )
    assert checks["translations_contained"].verdict == checks["translations_generate"].verdict == "fail"
    assert checks["translations_generate"].witness.startswith("linear part outside the group for 1 of")
    assert patched(DualFrame(q), omitted, q.eigenvalues[q.omitted_index]).linear not in group


def _scale_relation_shift(monkeypatch, d, c):
    """Serve the dual reflection of the relation cycle with its translation times c."""
    relation = quotient_basis(d).roots[-1]

    def patched(self, root, eigenvalue):
        g = _dual_reflection(self, root, eigenvalue)
        return AffineIsometry(g.linear, vec_scale(c, g.translation)) if root == relation else g

    monkeypatch.setattr(DualFrame, "dual_reflection", patched)


def _scales(field):
    """1, 1/2, 2, -1, 1/3 and a unit of the ring, as field elements."""
    rational = {k: field.from_rational(Fraction(k)) for k in ("1", "1/2", "2", "-1", "1/3")}
    return {**rational, "unit": field.root_of_unity(field.n)}


def test_translation_claims_match_the_schreier_saturation():
    """In the cases with two shifts, the omitted and the relation cycle's,
    the relation shift scaled in turn: both translation claims read as the
    Schreier span, the saturation of every shift, compared with the orbit
    lattice, would, with one saturation and two membership tests."""
    outcomes = []
    for name in ("P8divZ6", "P8divZ4"):
        for chi in ("primary", "conj"):
            d = diagram(name, chi)
            q = quotient_basis(d)
            kept = _kept_indices(d, q)
            order = reference_group(d.expected_group).declared_order
            for label, c in _scales(d.field).items():
                with pytest.MonkeyPatch.context() as mp:
                    _scale_relation_shift(mp, d, c)
                    saturations = _spy_saturations(mp)
                    rep = verify_crystallographic(d)
                    frame = DualFrame(q)
                    duals = [frame.dual_reflection(r, lam) for r, lam in zip(q.roots, q.eigenvalues)]
                assert len(saturations) == 1
                shifts = [g.translation for g in duals if not is_zero_vector(g.translation)]
                assert len(shifts) == 2
                span, _ = saturate(ZLattice(q.field, frame.n, shifts), [duals[j].linear for j in kept], order)
                contained = all(rep.lattice.member(v) for v in span.basis_vectors())
                verdicts = {c.claim_id: c.verdict for c in rep.checks}
                expected = ("pass" if contained else "fail", "pass" if span == rep.lattice else "fail")
                got = (verdicts["translations_contained"], verdicts["translations_generate"])
                assert got == expected, (name, chi, label)
                outcomes.append(got[0])
    assert (outcomes.count("pass"), outcomes.count("fail")) == (16, 8)


def test_a_halved_second_shift_fails_both_translation_claims(monkeypatch):
    d = diagram("P8divZ6")
    _scale_relation_shift(monkeypatch, d, d.field.from_rational(Fraction(1, 2)))
    checks = {c.claim_id: c for c in verify_crystallographic(d).checks}
    for claim in ("translations_contained", "translations_generate"):
        assert checks[claim].verdict == "fail"
        assert checks[claim].witness.startswith("1 of 2 shifts in the orbit lattice")
    # the orbit lattice and the linear parts are those of the untampered case
    assert (checks["lattice_rank"].verdict, checks["lattice_invariant"].verdict) == ("pass", "pass")


def _halving(frame, root, _eigenvalue, _other):
    return _dual_reflection(frame, root, frame.field.from_rational(Fraction(1, 2)))


def test_generator_of_infinite_order_fails_without_a_search(monkeypatch, capsys):
    # a kept reflection with eigenvalue 1/2: the orbit of the omitted
    # translation would gain ever larger denominators and span no lattice,
    # but no X exists, so nothing is saturated and the case fails
    _tamper_first_kept(monkeypatch, "P8divZ6", _halving)
    calls = _spy_closures(monkeypatch)
    saturations = _spy_saturations(monkeypatch)
    rep = verify_crystallographic(diagram("P8divZ6"))
    assert rep.verdict == "fail" and rep.lattice is None
    assert calls == [_model_call("K3_3")]
    assert main(["verify", "diagram", "P8divZ6"]) == 1
    out = capsys.readouterr().out
    assert "group_bound" not in out and "verdict: fail" in out
    assert saturations == []
    clear_caches()


def test_catalogue_tests_each_omitted_generator_once(monkeypatch, capsys):
    lookups = []
    real = affine._model_contains
    monkeypatch.setattr(affine, "_model_contains", lambda name, m: lookups.append(real(name, m)) or lookups[-1])
    omitted = 0
    for chi in ("primary", "conj"):
        assert main(["verify", "all", "--chi", chi]) == 0
        for d in (diagram(n, chi) for n in diagram_names()):
            q = quotient_basis(d)
            omitted += len(q.roots) - len(_kept_indices(d, q))
    capsys.readouterr()
    assert len(lookups) == omitted == 20
    assert all(lookups)


@cache
def _oracle_model(name, field):
    """The model's BFS closure as a set of matrices over `field`."""
    ref = reference_group(name)
    return frozenset(
        tuple(tuple(ref.field.embed(c, field) for c in row) for row in m)
        for m in O.linear_closure(_reference_generators(name))
    )


@pytest.mark.parametrize("run", _runs(), ids=_ids)
def test_membership_from_basis_images_matches_the_matrix_set(run):
    """X m X^-1 (conjugated for the primary character) for every omitted
    reflection, and for its sibling of eigenvalue -1, is found from its
    basis images exactly when the oracle's matrix set holds it."""
    d, alpha0, q, frame, duals, kept = _setting(*run)
    x = verify_crystallographic(d, alpha0).conjugacy.x
    x_inv = mat_inverse(x)
    members = _oracle_model(d.expected_group, q.field)
    found = []
    for j in range(len(duals)):
        if j in kept:
            continue
        for m in (duals[j].linear, frame.dual_reflection(q.roots[j], -q.field.one).linear):
            y = mat_prod([x, m, x_inv])
            y = conj_matrix(y) if d.chi_label == "primary" else y
            found.append(affine._model_contains(d.expected_group, y))
            assert found[-1] == (y in members)
    assert found[0::2] == [True] * (len(duals) - len(kept))


@pytest.mark.parametrize(
    "name, field",
    [("K25", None), ("K5", None), ("K8", None), ("G312", None), ("K8", F12), ("K3_4", F12)],
    ids=["K25", "K5", "K8", "G312", "K8-Q12", "K3_4-Q12"],
)
def test_orbit_columns_outside_the_model_are_not_members(name, field):
    """Matrices whose columns are all basis-orbit points but which are no
    element: e_1 in every column, for n > 1, and the first invertible one,
    where there is one; the 18 monomial matrices of G(3,1,2) are all its
    elements, and a rank-one model's 1 x 1 orbit matrices are all its
    elements.  Over Q(zeta12), where the dilation lifts K8 and K3_4, the
    model's points are embedded first, and the members must still be
    found."""
    closure = affine.model_closure(name)[0]
    field = field or closure.field
    points = [tuple(closure.field.embed(x, field) for x in unflatten(closure.field, p[:-1], p[-1])) for p in closure.points]
    members = _oracle_model(name, field)
    n = len(points[0])
    outside = [tuple(zip(*[points[0]] * n))] if n > 1 else []
    for cols in product(range(len(points)), repeat=n):
        m = tuple(zip(*(points[c] for c in cols)))
        if not det(m).is_zero() and m not in members:
            outside.append(m)
            break
    assert len(outside) == {"G312": 1, "K3_4": 0}.get(name, 2)
    assert not any(affine._model_contains(name, m) for m in outside)
    assert all(affine._model_contains(name, g) for g in members)


def test_catalogue_closes_only_the_models(monkeypatch, capsys):
    """`verify all` in both characters and `verify group` of every model
    close each of the seven models once, bounded by its declared order."""
    calls = _spy_closures(monkeypatch)
    for chi in ("primary", "conj"):
        assert main(["verify", "all", "--chi", chi]) == 0
    models = {d.expected_group for d in map(diagram, diagram_names())}
    for name in sorted(models):
        assert main(["verify", "group", name]) == 0
    capsys.readouterr()
    assert len(calls) == len(models) == 7
    assert set(calls) == {_model_call(name) for name in models}
    clear_caches()
