"""The factor-read reflection checks against the matrix oracles.

Every reflection is built as I - root coroot^T and kept with its factors:
form preservation is the rank-one identity of
HermitianGram.is_preserved_by, "is a reflection" is two nonzero
factors, the determinant is 1 - coroot^T root and the order is its
order, and the Cartan matrix behind find_conjugacy is coroot_i^T root_j.
Here each is held to the matrix-only reading of oracle_reflection.py, the
determinant to det's elimination, on random rank-one data over
Q(w) and Q(i), eigenvalues of modulus other than 1 and coroots off the
line of G conj(root) included, and on every reflection the package
builds: cycle operators, dual linear parts and model generators, in both
characters and in the lifts the dilation check makes.
"""

from hypothesis import given, settings, strategies as st

import oracle_reflection as R
from crystmono import affine
from crystmono.affine import DualFrame, _kept_indices, _rescaling, lifted_quotient, reference_group, reference_names
from crystmono.cyclo import CycloField, roots_of_unity
from crystmono.linalg import HermitianGram, conj_vector, det, is_zero_vector, mat_vec, matrix, vec_scale
from crystmono.monodromy import CHARACTERS, PLOperator, diagram, diagram_names, diagram_operators, quotient_basis

F3, F4, F12 = CycloField(3), CycloField(4), CycloField(12)


def _element(field):
    return st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree).map(field.element)


@st.composite
def _form(draw, field, n):
    """A Hermitian n x n form with small entries, of any signature, singular ones included."""
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = field.from_rational(draw(st.integers(-3, 1)))
        for j in range(i + 1, n):
            rows[i][j] = draw(_element(field))
            rows[j][i] = rows[i][j].conjugate()
    return HermitianGram(tuple(map(tuple, rows)))


@st.composite
def _rank_one(draw, form):
    """(root, coroot): the coroot is c G conj(root) for c = (1 - lambda) / q with lambda
    a root of unity, which preserves the form, or for any small c, or any vector."""
    field, n = form.field, form.n
    root = tuple(draw(_element(field)) for _ in range(n))
    along = mat_vec(form.gram, conj_vector(root))
    q = R.pair(form, root, root)
    kind = draw(st.sampled_from(["unitary", "along", "free"]))
    if kind == "unitary" and q:
        lam = draw(st.sampled_from(sorted(roots_of_unity(field), key=lambda z: z.num)))
        return root, vec_scale((1 - lam) / q, along)
    if kind == "free":
        return root, tuple(draw(_element(field)) for _ in range(n))
    return root, vec_scale(draw(_element(field)), along)


def _record(root, coroot):
    return PLOperator.from_factors(root, coroot, 1 - sum((a * b for a, b in zip(root, coroot)), root[0].field.zero))


def _agrees(op, form):
    """The factor-read checks of op give the matrix oracles' answers."""
    m = op.matrix
    assert m == R.minus_outer(op.root, op.coroot)
    assert form.is_preserved_by(op) == R.is_preserved_by(form, m)
    assert (not is_zero_vector(op.root) and not is_zero_vector(op.coroot)) == R.is_reflection(m)
    assert op.det() == det(m)
    assert op.order() == R.reflection_order(m)
    return R.is_preserved_by(form, m)


def _cartan_agrees(ops):
    """_cartan on the records and the oracle's on their matrices are both
    None, or give the same F and the same U and A up to rescaling each root
    (the oracle's root is the first nonzero column of I - m)."""
    ours, oracle = affine._cartan(tuple(ops)), R.cartan([g.matrix for g in ops])
    assert (ours is None) == (oracle is None)
    if ours is None:
        return False
    (u, _, a, f), (u_old, _, a_old, f_old) = ours, oracle
    assert f == f_old
    scale = []
    for col, old in zip(zip(*u), zip(*u_old)):
        r = next(k for k, x in enumerate(col) if x)
        scale.append(old[r] / col[r])
        assert vec_scale(scale[-1], col) == old
    n = len(a)
    assert all(a_old[i][j] * scale[i] == scale[j] * a[i][j] for i in range(n) for j in range(n))
    assert _rescaling(a, a_old) is not None
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rank_one_checks_match_the_matrix_oracles(data):
    field = data.draw(st.sampled_from([F3, F4]))
    n = data.draw(st.integers(1, 3))
    form = data.draw(_form(field, n))
    root, coroot = data.draw(_rank_one(form))
    _agrees(_record(root, coroot), form)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cartan_from_factors_matches_the_matrix_oracle(data):
    field = data.draw(st.sampled_from([F3, F4]))
    n = data.draw(st.integers(1, 3))
    form = data.draw(_form(field, n))
    ops = [_record(*data.draw(_rank_one(form))) for _ in range(data.draw(st.integers(max(1, n - 1), n)))]
    _cartan_agrees(ops)


def test_hand_picked_rank_one_cases_cover_every_branch():
    """Each branch of the rank-one identity, with both answers: a root in
    the radical, a coroot off the line of G conj(root), a zero coroot, and
    eigenvalues on and off the unit circle."""
    w = F3.omega
    form = HermitianGram(((-2 * F3.one, 1 - w), (1 - w.conjugate(), -2 * F3.one)))
    root = (F3.one, F3.zero)
    along = mat_vec(form.gram, conj_vector(root))
    q = R.pair(form, root, root)
    outcomes = [
        _agrees(_record(root, vec_scale(c, along)), form) for c in ((1 - w) / q, 2 / q, 1 / q, 3 / q, F3.zero)
    ]
    outcomes.append(_agrees(_record(root, (F3.one, F3.one)), form))
    singular = HermitianGram(((-F3.one, F3.one), (F3.one, -F3.one)))
    outcomes.append(_agrees(_record((F3.one, F3.one), (5 * F3.one, w)), singular))  # G conj(root) = 0
    assert outcomes == [True, True, False, False, True, False, True]


def _duals(q):
    frame = DualFrame(q)
    return frame, [frame.dual_reflection(r, lam).reflection for r, lam in zip(q.roots, q.eigenvalues)]


def _shipped():
    """(what, form, reflections) for every reflection the package builds:
    the cycle operators with the quotient form, the dual linear parts with
    the dual form (for the Z[i] diagrams, lifted to Q(zeta12) as well),
    and the model generators with their stored form."""
    out = []
    for name in diagram_names():
        for chi in CHARACTERS:
            d = diagram(name, chi)
            q = quotient_basis(d)
            out.append((f"{name}-{chi}", q.gram, diagram_operators(d)))
            lifts = [q] if q.field.n % 3 == 0 else [q, lifted_quotient(q, F12)]
            for lift in lifts:
                frame, duals = _duals(lift)
                out.append((f"{name}-{chi}-dual-q{lift.field.n}", frame.dual_gram, duals))
    for name in reference_names():
        ref = reference_group(name)
        out.append((name, HermitianGram(matrix(ref.field, affine._raw_groups()[name]["form"])), ref.generators))
    return out


def test_every_shipped_reflection_agrees_with_the_matrix_oracles():
    count = 0
    for what, form, ops in _shipped():
        for op in ops:
            assert _agrees(op, form), what
            assert R.factors(op.matrix) is not None
            count += 1
    assert count == 46 + 46 + 3 * 4 + sum(len(reference_group(n).generators) for n in reference_names())


def test_shipped_cartan_matrices_agree_with_the_matrix_oracle():
    """The kept dual linear parts of every diagram, in both characters, and
    each model's generators, whose roots must form a basis."""
    for name in diagram_names():
        for chi in CHARACTERS:
            d = diagram(name, chi)
            q = quotient_basis(d)
            duals = _duals(q)[1]
            assert _cartan_agrees([duals[j] for j in _kept_indices(d, q)])
    for name in reference_names():
        assert _cartan_agrees(reference_group(name).generators)
