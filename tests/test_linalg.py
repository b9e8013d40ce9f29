import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from crystmono.cyclo import CycloField, parse_value
from crystmono.linalg import (
    HermitianGram,
    ZLattice,
    conj_vector,
    det,
    identity,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_vec,
    matrix,
    nullspace,
    solve,
    trace,
    transpose,
    vec_add,
    vec_scale,
    vector,
)

F3 = CycloField(3)
F4 = CycloField(4)
W = F3.omega


def g3(rows):
    return matrix(F3, [[parse_value(e, F3) if isinstance(e, str) else e for e in r] for r in rows])


def test_matrix_basics():
    a = g3([[1, "w"], [0, 2]])
    b = g3([["conj(w)", 1], [1, 0]])
    ab = mat_mul(a, b)
    assert ab == g3([["conj(w) + w", 1], [2, 0]])
    assert transpose(a) == g3([[1, 0], ["w", 2]])


def test_mat_vec_agrees_with_definition():
    a = g3([[1, "w"], [0, 2]])
    v = vector(F3, [1, W])
    expect = (1 + W * W, 2 * W)
    assert mat_vec(a, v) == expect


def test_rank_nullspace_inverse_det():
    a = g3([[1, "w", 0], ["conj(w)", 1, 0], [0, 0, 0]])
    # first two rows are proportional: conj(w)*(row 1) = row 2
    assert mat_rank(a) == 1
    ns = nullspace(a)
    assert len(ns) == 2
    for v in ns:
        assert all(x.is_zero() for x in mat_vec(a, v))

    b = g3([[1, 1], [0, "w"]])
    assert det(b) == W
    binv = mat_inverse(b)
    assert mat_mul(b, binv) == identity(F3, 2)

    assert det(g3([[1, 1], ["w", "w"]])).is_zero()
    with pytest.raises(ValueError):
        mat_inverse(g3([[1, 1], ["w", "w"]]))


def test_solve():
    a = g3([[1, "w"], [0, 2]])
    b = vector(F3, [3, 2])
    x = solve(a, b)
    assert x is not None and mat_vec(a, x) == b
    sing = g3([[1, 1], [1, 1]])
    assert solve(sing, vector(F3, [0, 1])) is None


def test_hermitian_validation():
    with pytest.raises(ValueError, match=re.escape("matrix is not Hermitian at (0, 1)")):
        HermitianGram(g3([[0, "w"], ["w", 0]]))
    # a fault below the diagonal is named at its mirror image above it
    with pytest.raises(ValueError, match=re.escape("matrix is not Hermitian at (0, 2)")):
        HermitianGram(g3([[-3, 0, 0], [0, -3, 0], ["w", 0, -3]]))
    with pytest.raises(ValueError, match=re.escape("matrix is not Hermitian at (1, 1)")):
        HermitianGram(g3([[-3, 0], [0, "w"]]))
    g = HermitianGram(g3([[-3, "1-w"], ["1-conj(w)", -3]]))
    assert g.rank == 2


def test_hermitian_eval_sesquilinearity():
    g = HermitianGram(g3([[-3, "1-w"], ["1-conj(w)", -3]]))
    u = vector(F3, [1, "w"])
    v = vector(F3, [2, "1-w"])
    assert g.eval(vec_scale(W, u), v) == W * g.eval(u, v)
    assert g.eval(u, vec_scale(W, v)) == W.conjugate() * g.eval(u, v)
    # Hermitian symmetry of values
    assert g.eval(u, v) == g.eval(v, u).conjugate()


def test_kernel_is_the_radical():
    # rank 1 form: its radical is the line of (1+w, 1), which pairs to zero against everything
    g = HermitianGram(g3([[-3, "-3*w"], ["-3*conj(w)", -3]]))
    k = vector(F3, ["1+w", 1])
    probes = (vector(F3, [1, 0]), vector(F3, [0, 1]), vector(F3, ["w", "1-w"]))
    assert g.in_radical(k) and g.in_radical(vec_scale(F3.omega, k))
    assert not any(g.in_radical(probe) for probe in probes)
    for probe in probes:
        assert g.eval(probe, k).is_zero()
        assert g.eval(k, probe).is_zero()


def test_negative_semidefinite():
    neg = HermitianGram(g3([[-3, "1-w"], ["1-conj(w)", -3]]))
    assert neg.is_negative_semidefinite()

    sing = HermitianGram(g3([[-3, "-3*w"], ["-3*conj(w)", -3]]))
    assert sing.is_negative_semidefinite()

    indef = HermitianGram(g3([[-3, "5"], ["5", -3]]))
    assert not indef.is_negative_semidefinite()

    # the leading minors of G alone would pass this one; those of its pivot block do not
    tricky = HermitianGram(g3([[0, 0, 0], [0, -1, 0], [0, 0, 1]]))
    assert not tricky.is_negative_semidefinite()

    # nonsingular, leading minors 0, 0, -1: only the strict inequalities reject it
    zero_minors = HermitianGram(g3([[0, 0, -1], [0, 1, -1], [-1, -1, -1]]))
    assert not zero_minors.is_negative_semidefinite()

    # over Q(zeta12) a real pivot need not be rational: -(zeta + conj(zeta)) = -sqrt(3)
    z = F12.root_of_unity(12)
    with pytest.raises(ArithmeticError, match="Hermitian pivot is not rational"):
        HermitianGram(((-(z + z.conjugate()),),)).is_negative_semidefinite()


def test_form_preservation_check():
    g = HermitianGram(g3([[-3, "1-w"], ["1-conj(w)", -3]]))
    assert g.is_preserved_by(identity(F3, 2))
    swap = g3([[0, 1], [1, 0]])
    assert not g.is_preserved_by(swap)  # off-diagonal is not real


# -- lattices ---------------------------------------------------------------


def zl(gens, dim=1, field=F3):
    vecs = [vector(field, [g] if dim == 1 else g) for g in gens]
    return ZLattice(field, dim, vecs)


def test_lattice_membership_eisenstein():
    # Z[omega] inside Q(omega)
    lat = zl(["1", "w"])
    assert lat.rank == 2
    assert lat.member(vector(F3, ["5 - 3*w"]))
    assert lat.member(vector(F3, ["0"]))
    assert not lat.member((F3.from_rational(Fraction(1, 2)),))
    third = (F3.element([Fraction(1, 3), Fraction(-1, 3)]),)  # (1 - w)/3
    assert not lat.member(third)


def test_lattice_equality_and_scaling():
    zw = zl(["1", "w"])
    assert zw == zl(["1", "1+w"])
    assert zw == zl(["w", "w^2"])
    assert zw != zl(["2", "2*w"])
    scaled = zw.scaled(1 - W)
    # (1-w) Z[w] has index 3: 1 is not in it, 1 - w is
    assert scaled.member(vector(F3, ["1-w"]))
    assert not scaled.member(vector(F3, ["1"]))
    assert zw.join(scaled) == zw
    assert scaled.join(zw) != scaled


def test_lattice_reduce_canonical():
    zw = zl(["1", "w"])
    v = (F3.element([Fraction(7, 2), Fraction(1, 3)]),)
    red = zw.reduce(v)
    diff = (v[0] - red[0],)
    assert zw.member(diff)
    # reducing twice changes nothing
    assert zw.reduce(red) == red
    # members reduce to zero
    assert zw.reduce(vector(F3, ["4 - 9*w"])) == (F3.zero,)


def test_lattice_join_and_transform():
    a = zl(["2"])
    b = zl(["3"])
    assert a.join(b) == zl(["1"])  # gcd
    rot = matrix(F3, [["w"]])
    assert zl(["1", "w"]).transformed(rot) == zl(["1", "w"])


def test_lattice_dim2():
    lat = ZLattice(F3, 2, [vector(F3, [1, 0]), vector(F3, ["w", "1-w"])])
    assert lat.member(vector(F3, ["1+w", "1-w"]))
    assert not lat.member(vector(F3, [0, 1]))


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_lattice_reduce_mod_property(coeffs):
    zw = zl(["1", "w"])
    v = (F3.element([Fraction(coeffs[0], 4), Fraction(coeffs[1], 6)]),)
    red = zw.reduce(v)
    assert zw.member((v[0] - red[0],))


@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
)
@settings(max_examples=30, deadline=None)
def test_hermitian_eval_matches_matrix_form(uc, vc):
    g = HermitianGram(g3([[-3, "1-w"], ["1-conj(w)", -3]]))
    u = vector(F3, uc)
    v = vector(F3, vc)
    # u^T G conj(v), computed by hand
    gv = mat_vec(g.gram, conj_vector(v))
    manual = u[0] * gv[0] + u[1] * gv[1]
    assert g.eval(u, v) == manual


# -- oracles for the elimination routine and the canonical HNF ---------------

F12 = CycloField(12)
_small = st.integers(-3, 3)


def _cofactor_det(a):
    """Laplace expansion along the first row; independent of elimination."""
    if len(a) == 1:
        return a[0][0]
    minors = ([r[:j] + r[j + 1 :] for r in a[1:]] for j in range(len(a)))
    return sum(
        ((-1) ** j * a[0][j] * _cofactor_det(m) for j, m in enumerate(minors)),
        a[0][0].field.zero,
    )


@st.composite
def _square_matrices(draw):
    field = draw(st.sampled_from([F3, F12]))
    n = draw(st.integers(1, 4))
    # zeros are frequent, so pivots need row swaps
    entry = st.one_of(
        st.just(field.zero),
        st.lists(_small, min_size=field.degree, max_size=field.degree).map(field.element),
    )
    rows = [tuple(draw(entry) for _ in range(n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        rows[dst] = rows[src]
    return tuple(rows)


@given(_square_matrices())
@settings(max_examples=80, deadline=None)
def test_det_matches_cofactor_expansion(a):
    d = det(a)
    assert d == _cofactor_det(a)
    assert d.is_zero() == (mat_rank(a) < len(a))


_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


def _vectors(dim):
    entry = st.lists(_fractions, min_size=2, max_size=2).map(F3.element)
    return st.tuples(*[entry] * dim)


def _generators(dim=2):
    return st.lists(_vectors(dim), max_size=4)


def _recombined(draw, gens):
    """The same lattice from other generators: shuffled, sign flips, g_i += k g_j."""
    out = list(draw(st.permutations(gens)))
    for _ in range(draw(st.integers(0, 5)) if len(out) > 1 else 0):
        i, j = draw(st.permutations(range(len(out))))[:2]
        k = draw(st.integers(-3, 3))
        out[i] = vec_add(out[i], vec_scale(k, out[j]))
        if draw(st.booleans()):
            out[j] = vec_scale(-1, out[j])
    return out


@st.composite
def _lattice_pairs(draw):
    gens = draw(_generators())
    other = _recombined(draw, gens)
    change = draw(st.sampled_from(["same", "extra", "double"]))
    if change == "extra":
        other.append(draw(_vectors(2)))
    elif change == "double" and other:
        other[0] = vec_scale(2, other[0])
    return gens, other, change


def _contains(a, b):
    """Oracle: every basis vector of b is a member of a."""
    return all(a.member(v) for v in b.basis_vectors())


@given(_lattice_pairs())
@settings(max_examples=150, deadline=None)
def test_lattice_equality_matches_two_way_containment(pair):
    gens, other, change = pair
    a, b = ZLattice(F3, 2, gens), ZLattice(F3, 2, other)
    assert (a == b) == (_contains(a, b) and _contains(b, a))
    if change == "same":
        assert a == b


@given(_generators(dim=3))
@settings(max_examples=80, deadline=None)
def test_hnf_is_reduced(gens):
    lat = ZLattice(F3, 3, gens)
    pivots = [next(j for j, x in enumerate(row) if x) for row in lat.rows]
    assert pivots == sorted(set(pivots))
    for k, (row, c) in enumerate(zip(lat.rows, pivots)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in lat.rows[:k])
    assert all(lat.member(g) for g in gens)


F72 = CycloField(72)


@st.composite
def _fractional_squares(draw):
    """Square matrices over Q(w), Q(i), Q(zeta12) or Q(zeta72), sparse
    coefficients over mixed denominators."""
    field = draw(st.sampled_from([F3, F4, F12, F72]))
    n = draw(st.integers(1, 4))
    coeff = st.one_of(st.just(0), st.builds(Fraction, _small, st.sampled_from([1, 2, 3, 5, 7])))
    entry = st.lists(coeff, min_size=field.degree, max_size=field.degree).map(field.element)
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


@given(_fractional_squares())
@example(((F72.element([Fraction(2, 7)] + [0] * 22 + [Fraction(-1, 3)]),),))
@settings(max_examples=80, deadline=None)
def test_trace_is_the_diagonal_sum(m):
    assert trace(m) == sum((row[k] for k, row in enumerate(m)), m[0][0].field.zero)


def _all_minors_nsd(g):
    """(-1)^k times every principal k x k minor is >= 0, by cofactor expansion."""
    n = len(g)
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            minor = _cofactor_det(tuple(tuple(g[i][j] for j in idx) for i in idx))
            if (-1) ** k * minor.rational_value() < 0:
                return False
    return True


@st.composite
def _hermitian(draw):
    """Random Hermitian matrices over Q(w) or Q(i); half of them -M^H M,
    negative semidefinite and often singular."""
    field = draw(st.sampled_from([F3, F4]))
    n = draw(st.integers(1, 4))
    entry = st.lists(_small, min_size=2, max_size=2).map(field.element)
    if draw(st.booleans()):
        m = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
        rows = [[-sum((r[i].conjugate() * r[j] for r in m), field.zero) for j in range(n)] for i in range(n)]
        if draw(st.booleans()):  # a small shift that may break semidefiniteness
            k = draw(st.integers(0, n - 1))
            rows[k][k] += draw(st.integers(-1, 1))
    else:
        rows = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = field.from_rational(draw(st.integers(-4, 1)))
            for j in range(i + 1, n):
                rows[i][j] = draw(entry)
                rows[j][i] = rows[i][j].conjugate()
    return tuple(tuple(r) for r in rows)


@given(_hermitian())
@settings(max_examples=150, deadline=None)
def test_semidefiniteness_matches_every_principal_minor(g):
    assert HermitianGram(g).is_negative_semidefinite() == _all_minors_nsd(g)
