import copy
import functools
import re
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracle_reflection import is_preserved_by, pair
from crystmono import clear_caches, linalg, monodromy
from crystmono.cli import diagram_from_payload, main, show_diagram_payload
from crystmono.cyclo import CycloField, parse_value
from crystmono.linalg import (
    conj_matrix,
    conj_vector,
    det,
    identity,
    is_zero_vector,
    mat_prod,
    mat_rank,
    mat_vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from crystmono.monodromy import (
    CHARACTERS,
    Diagram,
    DiagramError,
    OrderBoundError,
    ReconcileError,
    check_braid,
    classical_monodromy,
    diagram,
    diagram_names,
    diagram_operators,
    finite_order_bound,
    operator_order,
    order_failure,
    pl_operator,
    quotient_basis,
    verify_diagram,
    word_matrix,
)

ALL_NAMES = list(diagram_names())


def mat_sub(a, b):
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def test_catalogue_names():
    assert len(ALL_NAMES) == 8
    assert "D4_3" in ALL_NAMES and "P8divZ4" in ALL_NAMES


def test_loader_caches_and_validates():
    d1 = diagram("D4_3")
    d2 = diagram("D4_3")
    assert d1 is d2 is diagram("D4_3", "primary") is diagram("D4_3", chi="primary")
    assert diagram("D4_3", "conj") is not d1
    with pytest.raises(DiagramError):
        diagram("no_such_diagram")
    with pytest.raises(DiagramError):
        diagram("D4_3", "weird")


def test_kernel_character_pair_is_conjugate_of_stated_order():
    for nm in ALL_NAMES:
        d = diagram(nm)
        chi, chib = d.kernel_chi_pair
        assert chi.conjugate() == chib
        assert chi.multiplicative_order() in (3, 4, 6)
        assert d.chi == chi
        assert diagram(nm, "conj").chi == chib


def test_ambiguous_edge_resolution_P8_Z3():
    d = diagram("P8_Z3")
    # one edge value is only pinned up to conjugation; the kernel decides
    assert d.resolved_choices == {"A2->3A1_low": "3*w"}
    assert len(d.rejected_choices) == 1
    labels, why = d.rejected_choices[0]
    assert labels["A2->3A1_low"] == "3*conj(w)"
    assert why == "kernel_vector"
    # the label names the candidate as written; its parsed value follows the character
    dc = diagram("P8_Z3", "conj")
    assert dc.resolved_choices == {"A2->3A1_low": "3*w"}
    i = dc.cycle_index("A2")
    j = dc.cycle_index("3A1_low")
    assert dc.gram.gram[i][j] == d.gram.gram[i][j].conjugate()


def test_unambiguous_diagrams_record_no_choices():
    for nm in ALL_NAMES:
        if nm == "P8_Z3":
            continue
        assert diagram(nm).resolved_choices == {}
        assert diagram(nm).rejected_choices == ()


def test_conjugate_dataset_is_entrywise_conjugate():
    for nm in ALL_NAMES:
        d = diagram(nm)
        dc = diagram(nm, "conj")
        assert dc.gram.gram == conj_matrix(d.gram.gram)
        assert dc.kernel_vector == conj_vector(d.kernel_vector)
        for a, b in zip(d.cycles, dc.cycles):
            assert b.eigenvalue == a.eigenvalue.conjugate()
            assert b.order == a.order


def test_full_gram_is_hermitian_negative_semidefinite():
    for nm in ALL_NAMES:
        d = diagram(nm)
        g = d.gram
        assert g.gram == conj_matrix(tuple(zip(*g.gram)))
        assert g.is_negative_semidefinite()
        for k, c in enumerate(monodromy._raw_diagrams()[nm]["cycles"]):
            assert g.gram[k][k] == d.field.from_rational(c["self"])


def test_quotient_has_corank_one_with_stated_kernel():
    for nm in ALL_NAMES:
        d = diagram(nm)
        q = quotient_basis(d)
        assert q.gram.corank == 1
        assert is_zero_vector(mat_vec(q.gram.gram, conj_vector(q.kernel)))
        assert q.kernel[0] == d.field.one


def test_relation_diagrams_rewrite_the_last_cycle():
    for nm in ("P8divZ6", "P8divZ4"):
        d = diagram(nm)
        q = quotient_basis(d)
        assert len(q.roots) == d.tau + 1
        extra = q.roots[-1]
        # the rewritten root must reproduce the appended Gram row
        for j in range(d.tau):
            assert pair(q.gram, extra, q.roots[j]) == d.gram.gram[len(d.cycles) - 1][j]
    d = diagram("P8divZ4")
    assert quotient_basis(d).roots[-1] == (d.field.root_of_unity(4), d.field.root_of_unity(4))


def test_operators_preserve_form_fix_kernel_and_have_declared_order():
    for nm in ALL_NAMES:
        for chi in ("primary", "conj"):
            d = diagram(nm, chi)
            q = quotient_basis(d)
            for op, cyc in zip(diagram_operators(d), d.cycles):
                assert is_preserved_by(q.gram, op.matrix)
                assert q.gram.is_preserved_by(op)
                assert operator_order(op.matrix, bound=cyc.order) == cyc.order
                assert mat_vec(op.matrix, q.kernel) == q.kernel


def test_verify_diagram_builds_each_reflection_once(monkeypatch):
    # the form, order, braid, classical-monodromy and extra-relation checks
    # share one build of the cycle reflections
    builds = []
    real = monodromy.pl_operator

    def spy(gram, root, eigenvalue):
        builds.append(root)
        return real(gram, root, eigenvalue)

    monkeypatch.setattr(monodromy, "pl_operator", spy)
    clear_caches()
    for nm in ALL_NAMES:
        for chi in CHARACTERS:
            d = diagram(nm, chi)
            before = len(builds)
            assert {c.verdict for c in verify_diagram(d)} == {"pass"}
            assert len(builds) - before == len(d.cycles)
    clear_caches()


def test_operator_rank_one_and_determinant():
    for nm in ALL_NAMES:
        d = diagram(nm)
        ident = identity(d.field, d.tau)
        for op in diagram_operators(d):
            assert mat_rank(mat_sub(op.matrix, ident)) == 1
            assert det(op.matrix) == op.eigenvalue


def test_pl_operator_rejects_bad_input():
    d = diagram("D4_3")
    q = quotient_basis(d)
    with pytest.raises(DiagramError):
        pl_operator(q.gram, q.kernel, d.field.omega)  # radical root is isotropic
    with pytest.raises(DiagramError):
        pl_operator(q.gram, q.roots[0], d.field.one)


def test_operator_order_bound():
    d = diagram("P8Z6_dblprime")
    m = diagram_operators(d)[1].matrix  # order 6
    with pytest.raises(OrderBoundError):
        operator_order(m, bound=5)
    assert operator_order(m, bound=6) == 6
    with pytest.raises(TypeError):
        operator_order(m)  # no default bound
    # an order above 24 is found when the bound allows it
    f72 = CycloField(72)
    assert operator_order(((f72.root_of_unity(72),),), bound=72) == 72


@pytest.mark.parametrize(
    "declared, witness", [(2, "m^2 is not the identity"), (6, "m^3 is already the identity")]
)
def test_classical_order_is_exact(declared, witness):
    """A fail names the failing power: a declared order that m^d = I does
    not hold at, or a multiple of the true order 3, where m^(d/p) = I."""
    payload = show_diagram_payload(diagram("C3_33"))
    payload["classical_order"] = declared
    checks = {c.claim_id: c for c in verify_diagram(diagram_from_payload(payload))}
    assert (checks["classical_monodromy"].verdict, checks["classical_monodromy"].witness) == ("fail", witness)


def test_order_failure_agrees_with_the_power_walk():
    """order_failure passes exactly when the bounded walk, the oracle,
    finds the declared order as the least identity power."""
    f72 = CycloField(72)
    ms = [
        diagram_operators(diagram("P8Z6_dblprime"))[1].matrix,  # order 6
        classical_monodromy(diagram("P8divZ4")),  # order 4
        ((f72.root_of_unity(72),),),
        identity(f72, 2),
    ]
    for m in ms:
        for declared in range(1, 80):
            try:
                exact = operator_order(m, bound=declared) == declared
            except OrderBoundError:
                exact = False
            assert (order_failure(m, declared) is None) == exact, (m, declared)


def _minus_four_control(declared):
    """C3_33 with self-pairing -4, whose classical monodromy has no finite order."""
    payload = show_diagram_payload(diagram("C3_33"))
    payload["gram"][0][0] = "-4"
    payload["classical_order"] = declared
    return diagram_from_payload(payload)


def test_classical_order_takes_logarithmically_many_products(monkeypatch):
    """A declared order of 2520, the largest a 3 x 3 matrix over Q(w) can
    have, on the -4 control costs a few dozen products, not 2520."""
    d = _minus_four_control(2520)
    m = classical_monodromy(d)
    calls = []
    real = monodromy.mat_mul
    monkeypatch.setattr(monodromy, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
    assert order_failure(m, 2520) == "m^2520 is not the identity"
    assert 0 < len(calls) <= 2 * (2520).bit_length()
    checks = {c.claim_id: c for c in verify_diagram(d)}
    assert checks["classical_monodromy"].witness == "m^2520 is not the identity"


@pytest.mark.parametrize("declared", [2000, 65536, 10**6])
def test_classical_order_beyond_the_finite_order_bound_fails_unpowered(declared, monkeypatch):
    """A declared order that does not divide 2520 fails before any power is
    taken, so the entries of a matrix of infinite order never grow."""
    d = _minus_four_control(declared)
    m = classical_monodromy(d)
    calls = []
    real = monodromy.mat_mul
    monkeypatch.setattr(monodromy, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
    witness = f"{declared} does not divide 2520, the lcm of the finite orders of 3x3 matrices over Q(zeta_3)"
    assert order_failure(m, declared) == witness
    assert calls == []
    monkeypatch.undo()
    checks = {c.claim_id: c for c in verify_diagram(d)}
    assert (checks["classical_monodromy"].verdict, checks["classical_monodromy"].witness) == ("fail", witness)


def _totient(k):
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


@pytest.mark.parametrize("n, degree", [(1, 1), (1, 2), (2, 2), (3, 2), (4, 2), (2, 4)])
def test_finite_order_bound_is_the_lcm_of_the_small_totients(n, degree):
    """Against a gcd count of phi(k) up to k = 4 (n degree)^2 + 4, twice
    the range the sieve needs."""
    top = n * degree
    assert finite_order_bound(n, degree) == lcm(*(k for k in range(1, 4 * top * top + 5) if _totient(k) <= top))


def test_finite_order_bound_sieves_once_until_the_caches_clear():
    """order_failure asks for the bound on every call; the sieve runs once
    per (n, degree), and clear_caches empties that memo with the others."""
    clear_caches()
    assert finite_order_bound.cache_info().currsize == 0
    m = classical_monodromy(diagram("C3_33"))
    for _ in range(3):
        assert order_failure(m, diagram("C3_33").classical_order) is None
    info = finite_order_bound.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    clear_caches()
    assert finite_order_bound.cache_info().currsize == 0


def test_every_classical_order_divides_its_bound():
    assert finite_order_bound(3, 2) == 2520 and finite_order_bound(4, 2) == 5040
    for nm in ALL_NAMES:
        d = diagram(nm)
        m = classical_monodromy(d)
        assert finite_order_bound(len(m), d.field.degree) % d.classical_order == 0


def test_declared_braids_hold():
    for nm in ALL_NAMES:
        for chi in ("primary", "conj"):
            d = diagram(nm, chi)
            ops = diagram_operators(d)
            for e in d.edges:
                if e.braid is None:
                    continue
                a = ops[d.cycle_index(e.src)].matrix
                b = ops[d.cycle_index(e.dst)].matrix
                assert check_braid(a, b, e.braid), (nm, chi, e.src, e.dst)


def test_unpaired_cycles_commute():
    for nm in ALL_NAMES:
        d = diagram(nm)
        ops = diagram_operators(d)
        g = d.gram.gram
        for i in range(len(d.cycles)):
            for j in range(i + 1, len(d.cycles)):
                if g[i][j].is_zero():
                    assert check_braid(ops[i].matrix, ops[j].matrix, 2)


def test_declared_braid_must_be_the_least_that_holds():
    """A relation of length k implies those of its multiples, so a length
    3 relabelled 6 and a commuting pair labelled 4 or 6 fail, in
    check_braid and in the diagram's braids claim."""
    d = diagram("C3_33")
    ops = diagram_operators(d)
    a, b, c = (ops[d.cycle_index(i)].matrix for i in ("e1", "e0", "e2"))
    assert check_braid(a, b, 3) and not check_braid(a, b, 6)
    assert check_braid(a, c, 4) and not check_braid(a, c, 3)
    assert [check_braid(b, c, k) for k in (2, 4, 6)] == [True, False, False]  # unpaired
    payload = show_diagram_payload(d)
    payload["edges"][0]["braid"] = 6
    checks = {c.claim_id: c for c in verify_diagram(diagram_from_payload(payload))}
    assert (checks["braids"].verdict, checks["braids"].witness) == ("fail", "e1~e0 at 6")


def test_words_of_reflections_grow_by_one_row(monkeypatch):
    """check_braid grows its words on the left, so each product has a
    single reflection as its left factor, and mat_mul copies that
    reflection's three unit rows: a product of D4_3's 4 x 4 operators takes
    the 4 dot products of one row, where a dense product takes 16.  So
    does each of the 3 products of the classical monodromy, which mat_prod
    takes from the right end."""
    d = diagram("D4_3")
    ops = [op.matrix for op in diagram_operators(d)]
    products, dots = [], []
    real_mul, real_dot = monodromy.mat_mul, linalg.dot
    monkeypatch.setattr(monodromy, "mat_mul", lambda a, b: products.append(None) or real_mul(a, b))
    monkeypatch.setattr(linalg, "dot", lambda u, v: dots.append(None) or real_dot(u, v))
    edges = [e for e in d.edges if e.braid is not None]
    assert edges and all(check_braid(ops[d.cycle_index(e.src)], ops[d.cycle_index(e.dst)], e.braid) for e in edges)
    assert len(products) >= 2 * len(edges) and len(dots) == 4 * len(products)
    dots.clear()
    classical_monodromy(d)
    assert d.tau == 4 and len(dots) == 4 * 3


def test_braid_length_must_be_supported():
    d = diagram("D4_3")
    ops = diagram_operators(d)
    with pytest.raises(DiagramError):
        check_braid(ops[0].matrix, ops[1].matrix, 5)


def test_classical_monodromy_orders():
    for nm in ALL_NAMES:
        expected = 4 if nm == "P8divZ4" else 3
        for chi in ("primary", "conj"):
            m = classical_monodromy(diagram(nm, chi))
            assert operator_order(m, bound=expected) == expected, (nm, chi)


def test_classical_monodromy_P8divZ4_determinant_blocks_order_three():
    d = diagram("P8divZ4")
    m = classical_monodromy(d)
    # det is a primitive fourth root of unity, so the order is a multiple of 4
    assert det(m).multiplicative_order() == 4


@pytest.mark.parametrize("chi", CHARACTERS)
def test_relation_words_are_the_length_eight_relation_of_P8_Z3(chi):
    """P8_Z3 carries one relation, a pair of words over cycle ids, whose
    products are the squared four-letter words of its reflections h0, h1,
    h2 (the cycles 3A1_low, A2, 3A1_up), a word's last letter acting first:
    (h1 h0 h2 h0)^2 = (h0 h2 h0 h1)^2.  The extra_relation claim holds for
    it; no other diagram carries a relation, so none gets the claim."""
    d = diagram("P8_Z3", chi)
    h0, h1, h2 = (op.matrix for op in diagram_operators(d))
    letters = {"3A1_low": h0, "A2": h1, "3A1_up": h2}
    ((left, right),) = d.relations
    assert word_matrix(left, letters) == mat_prod([h1, h0, h2, h0] * 2)
    assert word_matrix(right, letters) == mat_prod([h0, h2, h0, h1] * 2)
    assert word_matrix(left[:1], letters) == h1
    claims = {c.claim_id: c for c in verify_diagram(d)}
    assert (claims["extra_relation"].verdict, claims["extra_relation"].witness) == (
        "pass", "squared four-letter words compared",
    )
    for name in ALL_NAMES:
        if name != "P8_Z3":
            assert diagram(name, chi).relations == ()
            assert "extra_relation" not in {c.claim_id for c in verify_diagram(diagram(name, chi))}


@pytest.mark.parametrize("chi, kernel_entry", [("primary", "2+w"), ("conj", "1-w")])
def test_c3_33_is_d4_3_with_e2_and_e3_merged(chi, kernel_entry):
    """C3_33 is D4_3 with e2 and e3 merged into e2+e3: the pairings of
    V = [e0, e1, e2+e3] in D4_3 are C3_33's gram, C3_33's kernel vector
    mapped through V is D4_3's, and the merged cycles carry one
    eigenvalue and order, in both characters."""
    d4, c3 = diagram("D4_3", chi), diagram("C3_33", chi)
    e = {c.id: u for c, u in zip(d4.cycles, identity(d4.field, len(d4.cycles)))}
    merge = [e["e0"], e["e1"], vec_add(e["e2"], e["e3"])]
    assert tuple(tuple(pair(d4.gram, u, v) for v in merge) for u in merge) == c3.gram.gram
    mapped = functools.reduce(vec_add, map(vec_scale, c3.kernel_vector, merge))
    one = d4.field.one
    assert mapped == d4.kernel_vector == (one, parse_value(kernel_entry, d4.field), one, one)
    cycles = {c.id: (c.eigenvalue, c.order) for c in d4.cycles}
    assert cycles["e2"] == cycles["e3"]
    assert [(c.eigenvalue, c.order) for c in c3.cycles] == [cycles[k] for k in ("e0", "e1", "e2")]
    assert d4.omitted_root == c3.omitted_root == "e0"


@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_merging_along_e2_minus_e3_is_not_c3_33(chi):
    """The sign of the merge matters: e1 pairs alike with e2 and e3 in
    D4_3, so it pairs to zero with e2-e3, where C3_33's gram pairs e1 and
    e2 to a nonzero value."""
    d4, c3 = diagram("D4_3", chi), diagram("C3_33", chi)
    e = {c.id: u for c, u in zip(d4.cycles, identity(d4.field, len(d4.cycles)))}
    merge = [e["e0"], e["e1"], vec_sub(e["e2"], e["e3"])]
    assert pair(d4.gram, e["e1"], merge[2]).is_zero()
    assert not c3.gram.gram[1][2].is_zero()
    assert tuple(tuple(pair(d4.gram, u, v) for v in merge) for u in merge) != c3.gram.gram


@pytest.mark.parametrize("name", ["P8divZ6", "P8divZ4"])
def test_quotient_rejects_relation_outside_the_radical(name):
    # gram[0][0] = 4 also breaks semidefiniteness, which must not hide the relation
    payload = show_diagram_payload(diagram(name))
    payload["gram"][0][0] = "4"
    with pytest.raises(DiagramError, match="relation not in the radical"):
        quotient_basis(diagram_from_payload(payload))


_CASES = st.sampled_from([(nm, chi) for nm in ALL_NAMES for chi in ("primary", "conj")])


@settings(max_examples=40, deadline=None)
@given(_CASES, st.data())
def test_property_every_reflection_is_unitary_rank_one(case, data):
    nm, chi = case
    d = diagram(nm, chi)
    ops = diagram_operators(d)
    k = data.draw(st.integers(min_value=0, max_value=len(ops) - 1))
    q = quotient_basis(d)
    m = ops[k].matrix
    ident = identity(d.field, d.tau)
    assert is_preserved_by(q.gram, m)
    assert mat_rank(mat_sub(m, ident)) == 1
    assert det(m) == q.eigenvalues[k]


@settings(max_examples=30, deadline=None)
@given(_CASES, st.data())
def test_property_reflection_scales_its_root(case, data):
    nm, chi = case
    d = diagram(nm, chi)
    q = quotient_basis(d)
    k = data.draw(st.integers(min_value=0, max_value=len(q.roots) - 1))
    op = pl_operator(q.gram, q.roots[k], q.eigenvalues[k])
    got = mat_vec(op.matrix, q.roots[k])
    want = tuple(q.eigenvalues[k] * c for c in q.roots[k])
    assert got == want


@pytest.fixture
def patched_diagram(monkeypatch):
    """Serve diagrams.json with one entry edited in place, from cold caches."""

    def patch(name, edit):
        raw = dict(monodromy._raw_diagrams())
        raw[name] = copy.deepcopy(raw[name])
        edit(raw[name])
        monkeypatch.setattr(monodromy, "_raw_diagrams", lambda: raw)
        clear_caches()

    yield patch
    clear_caches()


def _set(*path, value):
    """An edit that sets raw[path[0]]...[path[-1]] = value."""

    def edit(raw):
        *head, last = path
        for key in head:
            raw = raw[key]
        raw[last] = value

    return edit


def _each(*edits):
    """An edit that makes each of `edits` in turn."""

    def edit(raw):
        for e in edits:
            e(raw)

    return edit


POSITIVE_FORM = _set("cycles", 0, "self", value=3)

DATASET_FAULTS = {
    "duplicate_id": ("D4_3", _set("cycles", 1, "id", value="e0"), "duplicate cycle ids"),
    "tau": ("D4_3", _set("tau", value=3), "tau does not match cycle/relation count"),
    "no_value": ("P8_Z3", _set("edges", 0, "value", value=[]), "edge A2->3A1_low states no value"),
    "braid": ("D4_3", _set("edges", 0, "braid", value=5), "unsupported braid length 5"),
    "endpoint": ("D4_3", _set("edges", 0, "to", value="e9"), "edge endpoint missing"),
    "loop": ("D4_3", _set("edges", 0, "to", value="e1"), "edge e1->e1 joins a cycle to itself"),
    "second_edge": (
        "D4_3",
        lambda raw: raw["edges"].append(dict(raw["edges"][0], **{"from": "e0", "to": "e1"})),
        "conflicting edge e0->e1",
    ),
    "omitted_root": ("D4_3", _set("omitted_root", value="e9"), "omitted root must be one of the first tau"),
    "relation_pair": (
        "P8_Z3", lambda raw: raw["relations"][0].append(["A2"]), "each relation must be a pair of words",
    ),
    "relation_letter": (
        "P8_Z3", _set("relations", 0, 1, 3, value="e9"), "relations[0][1] must name cycles of the diagram",
    ),
    "relation_empty_word": ("P8_Z3", _set("relations", 0, 0, value=[]), "relations[0][0] must name cycles"),
    "maximal_root_letter": (
        "D4_3", _set("maximal_root", "word", 0, value="e9"), "maximal_root.word must name cycles of the diagram",
    ),
    "maximal_root_leaf": ("D4_3", _set("maximal_root", "leaf", value="e9"), "maximal_root.leaf must name cycles"),
    "maximal_root_unit": (
        "C3_24", _set("maximal_root", "unit", value="w"), "maximal_root.unit must be a value of Q(zeta_4), not 'w'",
    ),
    "maximal_root_unit_grammar": (
        "P8_Z3", _set("maximal_root", "unit", value="conj(w"), "maximal_root.unit must be a value of Q(zeta_3)",
    ),
    # a dataset value outside its field, or outside the grammar, named by its key
    "kernel_vector_field": (
        "C3_33", _set("kernel_vector", 1, value="i"), "kernel_vector[1] must be a value of Q(zeta_3), not 'i'",
    ),
    "kernel_vector_grammar": (
        "C3_33", _set("kernel_vector", 0, value="1 +"), "kernel_vector[0] must be a value of Q(zeta_3)",
    ),
    "lambda_field": (
        "D4_3", _set("cycles", 2, "lambda", value="i"), "cycles[2].lambda must be a value of Q(zeta_3), not 'i'",
    ),
    "edge_value_field": (
        "C3_24", _set("edges", 0, "value", value="w"), "edges[0].value must be a value of Q(zeta_4), not 'w'",
    ),
    "edge_candidate_field": (
        "P8_Z3", _set("edges", 0, "value", 1, value="i"), "edges[0].value must be a value of Q(zeta_3), not 'i'",
    ),
    "relation_field": ("P8divZ4", _set("relation", 2, value="w"), "relation[2] must be a value of Q(zeta_4), not 'w'"),
    "kernel_chi_field": (
        "P8divZ6", _set("kernel_chi", 1, value="i"), "kernel_chi[1] must be a value of Q(zeta_3), not 'i'",
    ),
    # an inadmissible form as well: the structure is checked before any form is judged
    "duplicate_id_and_positive_form": (
        "D4_3",
        _each(_set("cycles", 1, "id", value="e0"), POSITIVE_FORM),
        "duplicate cycle ids",
    ),
}


@pytest.mark.parametrize("chi", CHARACTERS)
@pytest.mark.parametrize("fault", DATASET_FAULTS, ids=str)
def test_dataset_entry_with_broken_structure_is_rejected(patched_diagram, fault, chi):
    name, edit, message = DATASET_FAULTS[fault]
    patched_diagram(name, edit)
    with pytest.raises(DiagramError, match="^" + re.escape(f"{name}: {message}")):
        diagram(name, chi)
    assert main(["verify", "diagram", name, "--chi", chi]) == 2


@pytest.mark.parametrize("chi", CHARACTERS)
def test_positive_self_pairing_alone_is_a_reconciliation_fault(patched_diagram, chi):
    """The form fault of the duplicate_id_and_positive_form case, on its own,
    leaves D4_3 with no admissible assignment."""
    patched_diagram("D4_3", POSITIVE_FORM)
    with pytest.raises(ReconcileError, match=r"^D4_3: no admissible assignment \(.*: negative_semidefinite\)$"):
        diagram("D4_3", chi)


@pytest.mark.parametrize("chi", CHARACTERS)
def test_edge_values_are_the_stated_values(chi):
    """The gram at (src, dst) of each edge holds the dataset's value, or
    its resolved choice, conjugated in the conjugate character, and
    ``show`` renders that entry as the edge's value and each cycle's
    stated self-pairing as its diagonal entry."""
    for name in ALL_NAMES:
        d = diagram(name, chi)
        raw = monodromy._raw_diagrams()[name]
        shown = show_diagram_payload(d)
        for e, stated, dumped in zip(d.edges, raw["edges"], shown["edges"]):
            v = parse_value(d.resolved_choices.get(f"{e.src}->{e.dst}", stated["value"]), d.field, chi=d.chi)
            want = v.conjugate() if chi == "conj" else v
            assert d.gram.gram[d.cycle_index(e.src)][d.cycle_index(e.dst)] == want, (name, e)
            assert parse_value(dumped["value"], d.field) == want, (name, e)
        assert [c["self_pairing"] for c in shown["cycles"]] == [c["self"] for c in raw["cycles"]]


def test_first_admissible_assignment_wins(patched_diagram):
    """Candidates are judged in declared order: a later spelling of the
    winning value is not chosen, and rejected ones keep their reason."""
    patched_diagram("P8Z6_prime", _set("edges", 0, "value", value=["3", "-3", "conj(3)"]))
    d = diagram("P8Z6_prime")
    assert d.resolved_choices == {"e0->e1": "3"}
    assert d.rejected_choices == (({"e0->e1": "-3"}, "kernel_vector"),)
