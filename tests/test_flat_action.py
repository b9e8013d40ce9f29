"""The integer action on flattened coordinates against field arithmetic.

`flat_action(m)` is the integer matrix, over one denominator, that m is on
the flattened coordinates of Q(zeta)^n.  Here it is held to `mat_vec` on
random matrices and vectors with denominators, and every lattice that
`saturate`, `ZLattice.transformed` and `ZLattice.scaled` build in the
verification and dilation runs is held to the one that the field images
of its HNF basis span, the path the integer action replaced, kept below as
the oracle.
"""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from crystmono import affine
from crystmono.affine import dilation_check, verify_crystallographic
from crystmono.cyclo import CycloField
from crystmono.linalg import ZLattice, flat_action, flatten, mat_vec, vec_scale
from crystmono.monodromy import diagram, diagram_names

_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 6, 7]))


@st.composite
def _matrix_and_vector(draw):
    field = CycloField(draw(st.sampled_from([3, 4, 6, 12])))
    n = draw(st.integers(1, 4))
    entry = st.lists(_fractions, min_size=field.degree, max_size=field.degree).map(field.element)
    m = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    return m, tuple(draw(entry) for _ in range(n))


@given(_matrix_and_vector())
@settings(max_examples=80, deadline=None)
def test_flat_action_is_mat_vec_on_flattened_coordinates(mv):
    m, v = mv
    action, den = flat_action(m)
    p, e = flatten(v)
    image = [Fraction(sum(map(mul, row, p)), den * e) for row in action]
    q, f = flatten(mat_vec(m, v))
    assert image == [Fraction(c, f) for c in q]


def test_lattice_images_refuse_a_matrix_of_another_field_or_size():
    """Q(w) and Q(i) both have degree 2, so only this check keeps a Q(i)
    matrix from acting on the flattened rows of a Q(w) lattice."""
    f3, f4 = CycloField(3), CycloField(4)
    lattice = ZLattice(f3, 1, [(f3.one,)])
    for m in (((f4.one,),), ((f3.one, f3.zero), (f3.zero, f3.one))):
        with pytest.raises(ValueError, match="^wrong field or dimension for lattice matrix$"):
            lattice.transformed(m)


# -- the field-image oracle --------------------------------------------------


def field_image(lattice, m):
    """The lattice spanned by the field images of the HNF basis under m."""
    return ZLattice(lattice.field, lattice.dim, [mat_vec(m, v) for v in lattice.basis_vectors()])


def field_saturate(lattice, mats, max_rounds):
    """saturate, each round spanning the HNF basis and its field images."""
    for rounds in range(1, max_rounds + 1):
        basis = lattice.basis_vectors()
        grown = ZLattice(lattice.field, lattice.dim, basis + [mat_vec(m, v) for m in mats for v in basis])
        if grown == lattice:
            return lattice, rounds
        lattice = grown
    raise AssertionError("the oracle saturation did not end")


def _cleared(lattice):
    return lattice.scale, lattice.rows


@pytest.mark.parametrize("name", diagram_names())
@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_integer_lattices_match_the_field_images(name, chi, monkeypatch):
    """Each case runs verify_crystallographic and dilation_check, that is
    the default run, the dilated run and, for the Z[i] diagrams, the base
    run lifted to Q(zeta12); every lattice built on the way by a
    saturation, a transform or a scaling has the oracle's scale and rows."""
    seen = {"saturate": 0, "transformed": 0, "scaled": 0}
    real_saturate, real_transformed, real_scaled = affine.saturate, ZLattice.transformed, ZLattice.scaled

    def saturate(lattice, mats, max_rounds):
        out = real_saturate(lattice, mats, max_rounds)
        oracle = field_saturate(lattice, mats, max_rounds)
        assert (_cleared(out[0]), out[1]) == (_cleared(oracle[0]), oracle[1])
        seen["saturate"] += 1
        return out

    def transformed(lattice, m):
        out = real_transformed(lattice, m)
        assert _cleared(out) == _cleared(field_image(lattice, m))
        seen["transformed"] += 1
        return out

    def scaled(lattice, c):
        out = real_scaled(lattice, c)
        oracle = ZLattice(lattice.field, lattice.dim, [vec_scale(c, v) for v in lattice.basis_vectors()])
        assert _cleared(out) == _cleared(oracle)
        seen["scaled"] += 1
        return out

    monkeypatch.setattr(affine, "saturate", saturate)
    monkeypatch.setattr(ZLattice, "transformed", transformed)
    monkeypatch.setattr(ZLattice, "scaled", scaled)
    d = diagram(name, chi)
    assert verify_crystallographic(d).verdict == "pass"
    rep = dilation_check(d)
    assert rep.verdicts_match and rep.lattice_scaled
    assert seen["saturate"] == 3 and seen["scaled"] == 1
    assert seen["transformed"] >= 3 * len(d.cycles) + 1  # lattice_invariant per run, and the scaling
