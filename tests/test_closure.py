"""The closure and the reflection tests against their oracles.

`linear_closure` is compared with the breadth-first closure kept in
oracle_closure.py, and its list, order included, with the same search run
on the matrices themselves; `is_reflection` and the trace-and-determinant
reflection test with a full elimination rank of m - I, element by element,
and the reflection multiset with an unfiltered count, on the seven
reference models, which are all the verifier closes, and on the groups of
the kept dual linear parts of every diagram in both characters and of the
Q(zeta12) lifts that the dilation check builds.
"""

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import gcd
from operator import mul

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracle_closure as O
from crystmono import affine, clear_caches, linalg
from crystmono.affine import (
    AffineError,
    Closure,
    ClosureBoundError,
    DualFrame,
    _kept_indices,
    _reference_generators,
    _reflection_orders,
    lifted_quotient,
    linear_closure,
    reference_group,
    reference_names,
    reflection_order_multiset,
    verify_crystallographic,
)
from crystmono.cli import main
from crystmono.cyclo import CycloField, CycloNum, roots_of_unity
from crystmono.linalg import (
    det,
    flat_action,
    flatten,
    identity,
    is_reflection,
    mat_mul,
    mat_prod,
    mat_rank,
    matrix,
    reflection_order,
    trace,
    vec_sub,
)
from crystmono.monodromy import diagram, diagram_names, operator_order, quotient_basis

F3, F4, F12, F72 = (CycloField(n) for n in (3, 4, 12, 72))
BOUND = 648  # the order of K25, the largest group closed here


def mat_sub(a, b):
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def _dual_cases():
    out = []
    for name in diagram_names():
        for chi in ("primary", "conj"):
            out.append((name, chi, None))
            if diagram(name, chi).field.n % 3:
                out.append((name, chi, 12))
    return out


def _generators(case):
    kind, name, *rest = case
    if kind == "model":
        return _reference_generators(name)
    chi, lift = rest
    d = diagram(name, chi)
    q = quotient_basis(d)
    if lift is not None:
        q = lifted_quotient(q, CycloField(lift))
    frame = DualFrame(q)
    duals = [frame.dual_reflection(r, lam) for r, lam in zip(q.roots, q.eigenvalues)]
    return tuple(duals[j].linear for j in _kept_indices(d, q))


@cache
def _closures(case):
    """The generators, their closure, its matrices in order, and the BFS oracle's list."""
    gens = _generators(case)
    closure = linear_closure(gens, BOUND)
    return gens, closure, closure.matrices(), O.linear_closure(gens)


def _ids(case):
    kind, name, *rest = case
    if kind == "model":
        return f"model-{name}"
    chi, lift = rest
    return f"{name}-{chi}" + (f"-q{lift}" if lift else "")


CASES = [("model", nm) for nm in reference_names()] + [
    ("dual", name, chi, lift) for name, chi, lift in _dual_cases()
]


def _rank_one(m):
    return mat_rank(mat_sub(m, identity(m[0][0].field, len(m)))) == 1


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_closure_matches_the_bfs_oracle(case):
    gens, closure, group, oracle = _closures(case)
    n = len(gens[0])
    assert closure.elements[0] == tuple(range(n)) and closure.dets[0] == 0
    assert all(len(x) == n for x in closure.elements) and len(closure.dets) == len(closure)
    assert group[0] == identity(gens[0][0][0].field, len(gens[0]))
    assert len(set(group)) == len(group) == len(closure)
    assert set(group) == set(oracle)
    assert linear_closure(gens, BOUND).matrices() == group  # deterministic order


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_closure_keeps_the_order_of_left_bfs_on_matrices(case):
    gens, _, group, _ = _closures(case)
    assert group == O.left_bfs_closure(gens)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_bound_is_exact(case):
    gens, _, group, _ = _closures(case)
    assert linear_closure(gens, max_size=len(group)).matrices() == group
    with pytest.raises(ClosureBoundError, match=f"closure exceeds {len(group) - 1} elements"):
        linear_closure(gens, max_size=len(group) - 1)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_is_reflection_is_the_rank_one_test(case):
    _, _, group, _ = _closures(case)
    flags = [is_reflection(m) for m in group]
    assert flags == [_rank_one(m) for m in group]
    assert any(flags)
    # an element's order divides the group's
    assert all(operator_order(m, bound=len(group)) == reflection_order(m) for m, flag in zip(group, flags) if flag)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_reflection_orders_are_the_rank_one_test(case):
    """Element by element, on the BFS oracle's matrices, the trace and
    determinant give a rank-one element its reflection order and any other
    element 0."""
    _, closure, group, oracle = _closures(case)
    orders = dict(zip(group, _reflection_orders(closure)))
    assert [orders[m] for m in oracle] == [reflection_order(m) if _rank_one(m) else 0 for m in oracle]


def _passes(m, det_m=None):
    """Whether lambda = tr m - (n - 1) has order k > 1 and, unless det_m is
    None, det m = lambda: the test _reflection_orders makes, on a matrix."""
    lam = trace(m) - (len(m) - 1)
    return lam.multiplicative_order() not in (None, 1) and (det_m is None or det_m == lam)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_trace_and_determinant_are_the_rank_one_test(case):
    """Element by element, the determinant the closure records when it
    finds the element, its parent's plus its generator's, is det m of its
    own matrix, and the trace and determinant pass exactly on the rank-one
    elements."""
    _, closure, group, _ = _closures(case)
    exponents = {x: j for x, (j, _) in roots_of_unity(group[0][0][0].field).items()}
    dets = [det(m) for m in group]
    assert closure.dets == [exponents[d] for d in dets]
    assert [_passes(m, d) for m, d in zip(group, dets)] == [_rank_one(m) for m in group]


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_trace_prefilter_keeps_every_reflection(case, monkeypatch):
    """Every reflection passes the trace test, no power of a field element
    is taken for n <= 3, and the multiset is the unfiltered count over
    every element."""
    _, closure, group, _ = _closures(case)
    assert len(group[0]) <= 3
    reflections = [m for m in group if is_reflection(m)]
    assert reflections and all(map(_passes, reflections))
    powered = []
    real_pow = CycloNum.__pow__
    monkeypatch.setattr(CycloNum, "__pow__", lambda x, k: powered.append(x) or real_pow(x, k))
    multiset = reflection_order_multiset(closure)
    monkeypatch.undo()
    assert multiset == dict(Counter(reflection_order(m) for m in reflections))
    assert powered == []


def test_trace_filter_alone_overcounts():
    """Over the seven models 183 elements pass the trace test alone, and
    exactly the 75 reflections pass the trace and determinant, so the
    determinant decides the counts."""
    candidates = passing = reflections = 0
    for name in reference_names():
        _, _, group, _ = _closures(("model", name))
        flags = [_passes(m, det(m)) for m in group]
        assert flags == [_rank_one(m) for m in group]
        candidates += sum(map(_passes, group))
        passing += sum(flags)
        reflections += sum(map(_rank_one, group))
    assert (candidates, passing, reflections) == (183, 75, 75)


def test_trace_candidate_that_is_no_reflection():
    """diag(1, i, -i) has tr m - 2 = -1, of order 2, but det m = 1, not -1;
    so has its inverse, and m^2 = diag(1, -1, -1) fails the trace test."""
    i = F4.root_of_unity(4)
    m = matrix(F4, [[1, 0, 0], [0, i, 0], [0, 0, -i]])
    closure = linear_closure([m], 4)
    assert len(closure) == 4 and not _rank_one(m)
    assert _passes(m) and det(m) == 1 and not _passes(mat_mul(m, m))
    assert _reflection_orders(closure) == [0, 0, 0, 0]
    assert reflection_order_multiset(closure) == {}


def test_rank_four_candidates_are_confirmed_by_is_reflection(monkeypatch):
    """S5 in its reflection representation on the root lattice of A4, over
    Q(w): for n >= 4 the trace and determinant do not fix the eigenvalues,
    so each element that passes them is confirmed with is_reflection on its
    matrix.  The group has order 120 and its 10 transpositions are the
    reflections, each of order 2."""
    cartan = [[2 if r == c else -1 if abs(r - c) == 1 else 0 for c in range(4)] for r in range(4)]
    gens = [matrix(F3, [[(r == c) - (cartan[i][c] if r == i else 0) for c in range(4)] for r in range(4)]) for i in range(4)]
    closure = linear_closure(gens, 120)
    group = closure.matrices()
    assert len(group) == 120 and set(group) == set(O.linear_closure(gens))
    assert group == O.left_bfs_closure(gens)
    confirmed = []
    real = affine.is_reflection
    monkeypatch.setattr(affine, "is_reflection", lambda m: confirmed.append(m) or real(m))
    orders = _reflection_orders(closure)
    assert orders == [2 if _rank_one(m) else 0 for m in group]
    assert orders.count(2) == 10 and len(confirmed) == 10
    assert reflection_order_multiset(closure) == {2: 10}


@pytest.mark.parametrize("name", ["K3_3", "K3_4", "K3_6"])
def test_rank_one_elements_stay_one_tuples(name):
    """itemgetter of a single index returns the item, not a 1-tuple; the
    rank-1 models still list each element as the 1-tuple of its image."""
    _, closure, group, _ = _closures(("model", name))
    assert all(type(x) is tuple and len(x) == 1 and type(x[0]) is int for x in closure.elements)
    assert len(set(closure.elements)) == len(closure) == len(set(group)) == reference_group(name).declared_order


@pytest.mark.parametrize("name", ["K5", "K8"])
def test_packed_traces_are_exact_on_large_coordinates(name):
    """Conjugated by a matrix with entries near 10^6 and denominators, the
    basis orbit has numerators near 10^12 over a common denominator, and
    the packed trace test still gives each element its order as a
    rank-one reflection, and 0 otherwise."""
    field = reference_group(name).field
    p = matrix(field, [[field.element([1000003, 999991]), Fraction(999999, 7)], [999983, 1000033]])
    inv = linalg.mat_inverse(p)
    gens = [mat_mul(mat_mul(p, g), inv) for g in _reference_generators(name)]
    closure = linear_closure(gens, reference_group(name).declared_order)
    group = closure.matrices()
    assert len(group) == reference_group(name).declared_order
    assert max(abs(c) for p in closure.points for c in p[:-1]) > 10**11
    orders = _reflection_orders(closure)
    assert orders == [reflection_order(m) if _rank_one(m) else 0 for m in group]
    assert reflection_order_multiset(closure) == reference_group(name).declared_reflections


@st.composite
def _subgroup_generators(draw):
    """A model and 1 to 3 random positive words in its generators, at least
    one of them no reflection."""
    name = draw(st.sampled_from(reference_names()))
    model = _reference_generators(name)
    letter = st.integers(0, len(model) - 1)
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=5), min_size=1, max_size=3))
    gens = [linalg.mat_prod([model[k] for k in w]) for w in words]
    assume(not all(map(is_reflection, gens)))
    return name, gens


@given(_subgroup_generators())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_subgroup_closures_match_the_oracles(case):
    """Groups generated by products of a model's generators: the element
    set and order of the BFS oracle, the dets of det, and the reflection
    orders of the rank-one test."""
    name, gens = case
    closure = linear_closure(gens, reference_group(name).declared_order)  # a subgroup's order divides the model's
    group = closure.matrices()
    assert len(set(group)) == len(group) == len(closure)
    assert set(group) == set(O.linear_closure(gens))
    exponents = {x: j for x, (j, _) in roots_of_unity(group[0][0][0].field).items()}
    assert closure.dets == [exponents[det(m)] for m in group]
    assert _reflection_orders(closure) == [reflection_order(m) if _rank_one(m) else 0 for m in group]


@pytest.mark.parametrize(
    "gens",
    [
        [[[2]]],
        [[[1, 1], [0, 1]]],
        [[[0, 1], [1, 0]], [[1, 1], [0, 1]]],  # finite subgroup first, then an infinite coset chain
    ],
    ids=["scalar-2", "unipotent", "swap-then-unipotent"],
)
def test_infinite_order_generator_hits_the_bound(gens):
    mats = [matrix(F3, g) for g in gens]
    with pytest.raises(ClosureBoundError, match="closure exceeds 40 elements"):
        linear_closure(mats, max_size=40)
    with pytest.raises(ClosureBoundError, match="closure exceeds 40 elements"):
        O.linear_closure(mats, max_size=40)


def test_orbit_bound_is_tight():
    """<w I_2> over Q(w) has 3 elements and a basis orbit of 6 = n * 3 points."""
    g = matrix(F3, [[F3.omega, 0], [0, F3.omega]])
    group = linear_closure([g], max_size=3)
    assert len(group) == 3 and group.matrices() == O.left_bfs_closure([g])
    with pytest.raises(ClosureBoundError, match="closure exceeds 2 elements"):
        linear_closure([g], max_size=2)


def test_redundant_generators_are_skipped():
    a, b = _generators(("model", "K5"))[:2]
    ident = identity(F3, len(a))
    base = set(linear_closure([a, b], BOUND).matrices())
    for redundant in ([a, a, b], [a, b, a], [a, b, mat_mul(a, b)], [ident, a, b], [a, ident, b, b]):
        got = linear_closure(redundant, BOUND).matrices()
        assert got[0] == ident and len(set(got)) == len(got)
        assert set(got) == base == set(O.linear_closure(redundant))
    assert linear_closure([ident], 1).matrices() == [ident]
    with pytest.raises(AffineError):
        linear_closure([], 1)


def test_singular_generator_is_rejected():
    """diag(0, 1) maps the basis into the finite set {0, e_2}, so the orbit
    ends, but it generates no group."""
    with pytest.raises(AffineError, match="^a generator is singular$"):
        linear_closure([matrix(F3, [[0, 0], [0, 1]])], 10)


def test_is_reflection_hand_made_branches():
    w, i = F3.omega, F4.root_of_unity(4)
    # m - I is zero: no nonzero row
    assert not is_reflection(identity(F3, 3))
    # 1x1
    assert is_reflection(matrix(F3, [[w]]))
    assert not is_reflection(matrix(F3, [[1]]))
    # m - I has a zero first row
    assert is_reflection(matrix(F3, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]))
    assert not is_reflection(matrix(F3, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    # m - I = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]: first two rows proportional, the third not
    assert not is_reflection(matrix(F3, [[2, 2, 0], [2, 5, 0], [0, 0, 2]]))
    # a pivot column other than the first: the rows of m - I are (0, i, 2), i * (0, i, 2) and 0
    assert is_reflection(matrix(F4, [[1, i, 2], [0, 0, 2 * i], [0, 0, 1]]))
    assert not is_reflection(matrix(F4, [[1, i, 2], [0, 1 + i, 2 * i], [0, 0, 1]]))
    # Q(zeta72): I + u v^T is a reflection, diag(z, z, 1) is not
    z = F72.zeta()
    u, v = (z, 1 + z * z, 0), (z ** 5, 2, -z)
    m = tuple(tuple((F72.one if r == c else F72.zero) + u[r] * v[c] for c in range(3)) for r in range(3))
    assert is_reflection(m) and _rank_one(m)
    d = matrix(F72, [[z, 0, 0], [0, z, 0], [0, 0, 1]])
    assert not is_reflection(d) and not _rank_one(d)


def _entries(field):
    if field is F3:  # rational integers
        return st.integers(-2, 2).map(field.from_rational)
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2])
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(field.element)


def _matrices(field):
    def build(n):
        entry = _entries(field)
        square = st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n).map(tuple)
        vec = st.lists(entry, min_size=n, max_size=n)

        def near_reflection(args):
            u, v, extra, k = args
            ident = identity(field, n)
            rows = [tuple(ident[r][c] + u[r] * v[c] for c in range(n)) for r in range(n)]
            rows[k % n] = tuple(x + y for x, y in zip(rows[k % n], extra))  # sometimes raises the rank
            return tuple(rows)

        zero = st.just(tuple(field.zero for _ in range(n)))
        outer = st.tuples(vec, vec, st.one_of(zero, zero, vec.map(tuple)), st.integers(0, 2)).map(near_reflection)
        return st.one_of(square, outer)

    return st.integers(1, 3).flatmap(build)


@given(st.sampled_from([F3, F4, F12]).flatmap(_matrices))
@settings(max_examples=150, deadline=None)
def test_is_reflection_matches_rank_on_random_matrices(m):
    assert is_reflection(m) == _rank_one(m)


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_verdicts_do_not_depend_on_closure_order(monkeypatch, fresh_caches):
    names = ("D4_3", "C3_24")
    plain = {nm: verify_crystallographic(diagram(nm)) for nm in names}
    real = affine.linear_closure

    def reversed_closure(gens, max_size):
        group = real(gens, max_size)
        return Closure(group.field, group.points, group.elements[::-1], group.dets[::-1])

    monkeypatch.setattr(affine, "linear_closure", reversed_closure)
    clear_caches()
    for nm in names:
        rep = verify_crystallographic(diagram(nm))
        assert rep.checks == plain[nm].checks
        assert rep.lattice == plain[nm].lattice


def test_catalogue_closures_multiply_no_matrices(monkeypatch, capsys, fresh_caches):
    """Over `verify all` in both characters and `verify group` of every
    model, each model is closed once, bounded by its declared order, and
    stays index tuples on its basis orbit: no mat_mul call happens inside
    linear_closure, no element is read off as a matrix, and the field
    embeddings number fewer than the 847 elements closed."""
    depth, closures, products, per_element = [], [], [], []
    dimino, real_mul = affine.linear_closure, linalg.mat_mul

    def closure(gens, max_size):
        depth.append(None)
        try:
            group = dimino(gens, max_size)
        finally:
            depth.pop()
        assert isinstance(group, Closure)
        assert all(type(i) is int for p in group.elements for i in p)
        closures.append((tuple(gens), max_size, len(group)))
        return group

    def mul(a, b):
        if depth:
            products.append(None)
        return real_mul(a, b)

    def spy(name):
        real = getattr(affine, name)
        monkeypatch.setattr(affine, name, lambda *args: per_element.append(name) or real(*args))

    monkeypatch.setattr(affine, "linear_closure", closure)
    monkeypatch.setattr(affine, "mat_mul", mul)
    monkeypatch.setattr(linalg, "mat_mul", mul)
    for name in ("_in_field", "reference_closure"):
        spy(name)
    matrices = Closure.matrices
    monkeypatch.setattr(Closure, "matrices", lambda self: per_element.append("matrices") or matrices(self))
    for chi in ("primary", "conj"):
        assert main(["verify", "all", "--chi", chi]) == 0
    for name in reference_names():
        assert main(["verify", "group", name]) == 0
    capsys.readouterr()
    models = {name: reference_group(name).declared_order for name in reference_names()}
    assert Counter(c[:2] for c in closures) == Counter((_reference_generators(nm), k) for nm, k in models.items())
    assert all(size == bound for _, bound, size in closures)
    assert products == []
    assert "matrices" not in per_element and "reference_closure" not in per_element
    assert 0 < len(per_element) < sum(models.values()) == 847


@pytest.mark.parametrize("name", reference_names())
def test_model_closure_does_no_field_arithmetic_per_element(name, monkeypatch, fresh_caches):
    """The model's closure and its reflection orders run the field's
    product and sum loops, and build field elements, only inside det of
    the generators: the basis orbit moves flattened integer points by each
    generator's flat_action and the closure keeps them so, the group
    search moves index tuples, and the traces are packed straight off the
    points.  The orbit is the one search left to _bfs, so the spy on it
    marks where the orbit ends."""
    gens = _reference_generators(name)  # the model is built before the count
    calls, where, searches = Counter(), ["orbit"], []
    real_bfs, real_det = affine._bfs, affine.det

    def bfs(*args):
        searches.append((len(args[0]), args[2]))
        out = real_bfs(*args)
        where[0] = "after the orbit"
        return out

    def spy_det(m):
        outer, where[0] = where[0], "det"
        try:
            return real_det(m)
        finally:
            where[0] = outer

    def spy(owner, attr):
        real = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *args: calls.update([where[0]]) or real(*args))

    spy(CycloField, "_sum_of_products")
    spy(CycloNum, "_combine")
    spy(CycloField, "_make")
    where[0] = "det"
    for g in gens:  # what det of the generators costs on its own
        real_det(g)
    per_det = calls.pop("det")
    where[0] = "orbit"
    monkeypatch.setattr(affine, "_bfs", bfs)
    monkeypatch.setattr(affine, "det", spy_det)
    group, multiset = affine.model_closure(name)
    monkeypatch.undo()
    assert len(group) == reference_group(name).declared_order and multiset
    assert searches == [(len(gens[0]), len(group))]  # the orbit of the n basis vectors, bounded by n |G|
    assert all(type(c) is int for p in group.points for c in p)
    assert calls["det"] == per_det > 0
    assert calls["orbit"] == calls["after the orbit"] == 0


def _dense_move(action, den, p):
    """The orbit move with every row of the action taking its dot product."""
    q = [sum(map(mul, row, p)) for row in action]
    q.append(den * p[-1])
    g = gcd(*q)
    return tuple(c // g for c in q)


def _halved(p):
    """The flattened point p / 2, in lowest terms."""
    q = (*p[:-1], 2 * p[-1])
    g = gcd(*q)
    return tuple(c // g for c in q)


def test_orbit_moves_skip_unit_rows_exactly():
    """For all 7 models, moving each orbit point only along the rows of
    flat_action(g) other than D e_i gives the dense move's points and
    permutations.  K5 and K8 have generators with D != 1, and a conjugate
    by diag(1/2, 1, ...) of each generator, still the identity outside
    its moved row, gives every model such an action.  diag(2, 1, ...) g,
    of infinite order, doubles a unit row over D = 1, so on halved points
    its gcd may exceed 1.  On the orbit points and their halves the moves
    of both must agree with the dense move too."""
    dens = set()
    for name in reference_names():
        gens = _reference_generators(name)
        field, n = gens[0][0][0].field, len(gens[0])
        start = [(*flat, den) for flat, den in map(flatten, identity(field, n))]
        bound = reference_group(name).declared_order
        points, perms = affine._bfs(start, [affine._orbit_move(g) for g in gens], bound)
        assert (points, perms) == affine._bfs(start, [partial(_dense_move, *flat_action(g)) for g in gens], bound)
        assert points == affine.model_closure(name)[0].points

        def diag(first):
            return tuple(tuple(field.from_rational(first if i == j == 0 else int(i == j)) for j in range(n)) for i in range(n))

        probes = points + [_halved(p) for p in points]
        for g in gens:
            for h in (mat_prod([diag(Fraction(1, 2)), g, diag(2)]), mat_prod([diag(2), g])):
                dens.add(flat_action(h)[1])
                move, dense = affine._orbit_move(h), partial(_dense_move, *flat_action(h))
                assert all(move(p) == dense(p) for p in probes)
    assert {1, 2} <= dens


def test_orbit_moves_compute_only_the_moved_rows(monkeypatch, fresh_caches):
    """K25's generators are reflections over Q(w), each the identity
    outside one row, so each orbit move takes the 2 dot products of that
    row's flattened rows, where a dense move over its 3 x 2 flattened
    coordinates takes 6."""
    gens = _reference_generators("K25")
    products = []
    monkeypatch.setattr(affine, "mul", lambda x, y: products.append(None) or x * y)
    group = linear_closure(gens, 648)
    monkeypatch.undo()
    assert len(group) == 648
    moves = len(group.points) * len(gens)
    flat_dim = len(group.points[0]) - 1
    assert flat_dim == 6 and len(products) == 2 * flat_dim * moves
