import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crystmono.cyclo import (
    _RENDER_BASES,
    CycloField,
    GrammarError,
    _render_basis,
    clear_caches,
    cyclotomic_polynomial,
    in_subring,
    parse_value,
    render_value,
    roots_of_unity,
)
from crystmono.linalg import _hnf, dot, mat_mul

F3 = CycloField(3)
F4 = CycloField(4)
F6 = CycloField(6)
F8 = CycloField(8)
F9 = CycloField(9)
F12 = CycloField(12)
F72 = CycloField(72)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    # Phi_72 = x^24 - x^12 + 1
    p72 = [0] * 25
    p72[0], p72[12], p72[24] = 1, -1, 1
    assert cyclotomic_polynomial(72) == tuple(p72)


def test_fields_outlive_clear_caches():
    field = CycloField(3)
    before = parse_value("1+2*w", field)
    text = render_value(before)
    clear_caches()
    assert cyclotomic_polynomial.cache_info().currsize == 0
    assert CycloField(3) is field
    after = parse_value("1+2*w", CycloField(3))
    assert before == after and hash(before) == hash(after)
    assert render_value(before) == text


def test_basic_root_identities():
    w = F3.omega
    assert w + w.conjugate() == -1
    assert (1 - w.conjugate()) * (1 - w) == 3
    assert (1 - w) ** 2 == -3 * w
    assert w**3 == 1 and w != 1

    i = F4.root_of_unity(4)
    assert i * i == -1
    assert i.conjugate() == -i

    assert F9.root_of_unity(9) ** 3 == F9.omega
    assert F8.root_of_unity(8) ** 4 == -1

    # zeta_6 = 1 + zeta_3 = -conj(zeta_3)
    z6 = F6.zeta()
    assert z6 == 1 + F6.omega
    assert z6 == -F6.omega.conjugate()

    z12 = F12.zeta()
    assert z12**3 == F12.root_of_unity(4)
    assert z12**4 == F12.omega
    assert z12 == -(F12.root_of_unity(4) * F12.omega)


def test_symbols_inside_conductor_72():
    z = F72.zeta()
    assert F72.omega == z**24
    assert F72.root_of_unity(4) == z**18
    assert F72.root_of_unity(8) == z**9
    assert F72.root_of_unity(9) == z**8


def test_root_of_unity_requires_divisor():
    with pytest.raises(ValueError):
        F3.root_of_unity(4)
    with pytest.raises(ValueError):
        F4.root_of_unity(4)  # fine
        F4.omega


def test_multiplicative_order():
    assert F3.omega.multiplicative_order() == 3
    assert (-F3.omega).multiplicative_order() == 6
    assert F4.root_of_unity(4).multiplicative_order() == 4
    assert F3.one.multiplicative_order() == 1
    assert (F3.omega + 1).multiplicative_order() == 6  # = zeta_6
    assert (2 * F3.omega).multiplicative_order() is None
    # the search stops at lcm(2, n), the largest order a root of unity in Q(zeta_n) can have
    assert F72.zeta().multiplicative_order() == 72
    assert (-CycloField(9).zeta()).multiplicative_order() == 18
    assert (2 * F72.zeta()).multiplicative_order() is None


def test_inverse_and_division():
    w = F3.omega
    x = 2 - 5 * w
    assert x * x.inverse() == 1
    assert (x / x) == 1
    assert (1 / w) == w**2
    with pytest.raises(ZeroDivisionError):
        F3.zero.inverse()


def test_subring_membership():
    w = F3.omega
    assert in_subring(3 * w, "Z[w]")
    assert in_subring(1 - w, "Z[w]")
    assert not in_subring(w / 3, "Z[w]")
    i = F4.root_of_unity(4)
    assert in_subring(2 * (1 - i), "Z[i]")
    assert not in_subring(i / 2, "Z[i]")


def test_conjugation_is_an_involution_automorphism():
    w = F3.omega
    x = 2 + 3 * w
    y = -1 + w
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_embed_between_conductors():
    w3 = F3.omega
    lifted = F3.embed(w3, F6)
    assert lifted == F6.omega
    assert F3.embed((1 - w3) ** 2, F72) == (1 - F72.omega) ** 2
    with pytest.raises(ValueError):
        F4.embed(F4.root_of_unity(4), F6)


# -- grammar --------------------------------------------------------------


def test_parse_simple_values():
    assert parse_value("1-w", F3) == 1 - F3.omega
    assert parse_value("conj(w)", F3) == F3.omega.conjugate()
    assert parse_value("-3*w^2", F3) == -3 * F3.omega**2
    assert parse_value("2*(1-i)", F4) == 2 - 2 * F4.root_of_unity(4)
    assert parse_value("w - conj(w)", F3) == F3.omega - F3.omega.conjugate()
    assert parse_value("e8^2", F8) == F8.root_of_unity(4)
    assert parse_value("(1-w)*(1-conj(w))", F3) == F3.from_rational(3)


def test_parse_chi_binding():
    chi = -F6.omega
    assert parse_value("chi", F6, chi=chi) == chi
    assert parse_value("conj(chi)*chi", F6, chi=chi) == 1
    with pytest.raises(GrammarError):
        parse_value("chi", F6)


def test_parse_rejects_garbage():
    for bad in ["1 +", "q", "w(", "conj w", "1//2", "3.5", ""]:
        with pytest.raises(GrammarError):
            parse_value(bad, F3)


def test_render_round_trip_simple():
    samples = {
        F3: ["0", "1", "-1", "w", "1 - w", "3*w", "2 - 5*w"],
        F4: ["i", "2 - 2*i", "-4"],
        F6: ["1 - w", "-6*w"],
        F12: ["i*w", "1 + i - w"],
    }
    for field, texts in samples.items():
        for text in texts:
            x = parse_value(text, field)
            assert parse_value(render_value(x), field) == x


def test_render_uses_symbol_basis():
    assert render_value(F3.omega) == "w"
    assert render_value(1 - F3.omega) == "1 - w"
    assert render_value(F6.zeta()) == "1 + w"
    assert render_value(F4.zero) == "0"
    assert render_value(-F12.root_of_unity(4) * F12.omega) == "-i*w"


# -- property tests -------------------------------------------------------

_fields = st.sampled_from([F3, F4, F9, F12])
_small = st.integers(min_value=-6, max_value=6)


@st.composite
def _elements(draw, field=None):
    f = field if field is not None else draw(_fields)
    coeffs = [draw(_small) for _ in range(f.degree)]
    return f.element(coeffs)


@given(_fields.flatmap(lambda f: st.tuples(_elements(field=f), _elements(field=f), _elements(field=f))))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(_fields.flatmap(lambda f: st.tuples(_elements(field=f), _elements(field=f))))
@settings(max_examples=60, deadline=None)
def test_conjugation_automorphism_property(xy):
    x, y = xy
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


@given(_elements(field=F12))
@settings(max_examples=40, deadline=None)
def test_inverse_property(x):
    if not x.is_zero():
        assert x * x.inverse() == F12.one


@given(_elements(field=F3), _elements(field=F3))
@settings(max_examples=40, deadline=None)
def test_embedding_is_a_homomorphism(x, y):
    fx, fy = F3.embed(x, F72), F3.embed(y, F72)
    assert F3.embed(x * y, F72) == fx * fy
    assert F3.embed(x + y, F72) == fx + fy


def _to_complex(x):
    """Float value of x at zeta_n = exp(2 pi i / n); an oracle independent of the power table."""
    z = cmath.exp(2j * cmath.pi / x.field.n)
    return sum(c / x.den * z**j for j, c in enumerate(x.num))


@given(_elements(field=F4), _elements(field=F4))
@settings(max_examples=30, deadline=None)
def test_complex_approximation_tracks_arithmetic(x, y):
    lhs = _to_complex(x * y)
    rhs = _to_complex(x) * _to_complex(y)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 72])
def test_roots_of_unity_table_against_powers(n):
    field = CycloField(n)
    table = roots_of_unity(field)
    m = math.lcm(2, n)
    assert len(table) == m
    z = next(x for x, (j, _) in table.items() if j == 1)
    # z = exp(2 pi i / m): zeta_n itself, or the square root of it nearest 1
    assert z ** (m // n) == field.zeta()
    assert abs(_to_complex(z) - cmath.exp(2j * cmath.pi / m)) < 1e-9
    for x, (j, order) in table.items():
        assert x == z**j
        acc, loop = x, 1
        while acc != 1:
            acc, loop = acc * x, loop + 1
        assert order == loop == m // math.gcd(j, m)
    assert 2 * z not in table and field.zero not in table


SYMBOL_BASES = [3, 4, 6, 8, 9, 12, 24, 36, 72]


@pytest.mark.parametrize("n", SYMBOL_BASES)
def test_render_bases_reduce_to_their_inverses_under_the_hnf(n):
    assert sorted(k for k in _RENDER_BASES if CycloField(k).degree > 1) == SYMBOL_BASES
    field = CycloField(n)
    d = field.degree
    words = _RENDER_BASES[n]
    vals = [math.prod((parse_value(sym, field) for sym in word), start=field.one) for word in words]
    basis = [[v.num[r] for v in vals] for r in range(d)]
    ident = [[int(r == k) for k in range(d)] for r in range(d)]
    rows = _hnf([basis[r] + ident[r] for r in range(d)])
    assert [row[:d] for row in rows] == ident
    inverse = [row[d:] for row in rows]
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*basis)] for row in inverse] == ident
    assert _render_basis(field) == (words, tuple(map(tuple, inverse)))


def test_every_root_of_unity_of_q72_round_trips():
    for j in range(72):
        x = F72.zeta(j)
        text = render_value(x)
        assert "z" not in text and parse_value(text, F72) == x


@given(st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 3), (9, 2), (12, 5), (12, 1)]))
def test_root_orders(kp):
    k, p = kp
    x = F72.root_of_unity(k) ** p
    assert x.multiplicative_order() == k // math.gcd(k, p)


@given(st.sampled_from([F3, F4, F12, F72]).flatmap(lambda f: _elements(field=f)))
@settings(max_examples=80, deadline=None)
def test_render_parse_round_trip_property(x):
    # the symbol bases of these fields are unimodular, so integer power-basis
    # coefficients always render in the grammar; at 72 the coordinates
    # come from the integer inverse of a 24 x 24 basis matrix
    text = render_value(x)
    assert "z" not in text
    assert parse_value(text, x.field) == x


# -- canonical form and the hash/eq contract ----------------------------


def test_rationals_hash_like_the_numbers_they_equal():
    for f in (F3, F72):
        assert 1 in {f.one} and f.one in {1}
        assert f.from_rational(-3) in {-3} and hash(f.from_rational(-3)) == hash(-3)
        half = f.one / 2
        assert half == Fraction(1, 2) and half in {Fraction(1, 2)} and Fraction(1, 2) in {half}
        assert hash(f.from_rational(Fraction(-5, 6))) == hash(Fraction(-5, 6))
        assert f.zero in {0} and hash(f.zero) == hash(0)
    # a non-rational value of Q(zeta_72), built two ways
    x = F72.zeta(5) + Fraction(1, 3)
    y = F72.zeta(77) + F72.one / 3
    assert x == y and hash(x) == hash(y) and x in {y}
    assert x != Fraction(1, 3) and x not in {Fraction(1, 3), 1, 0}


def _canonical(z) -> bool:
    return z.den > 0 and math.gcd(z.den, *z.num) == 1 and len(z.num) == z.field.degree


_canonical_fields = st.sampled_from([F3, F4, F6, F12, F72])
_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def _rational_elements(draw, field):
    coeffs = [draw(st.one_of(st.just(0), _rationals)) for _ in range(field.degree)]
    return field.element(coeffs)


@given(_canonical_fields.flatmap(lambda f: st.tuples(_rational_elements(f), _rational_elements(f))))
@settings(max_examples=60, deadline=None)
def test_every_result_is_in_lowest_terms(xy):
    x, y = xy
    f = x.field
    results = [x + y, x - y, x * y, -x, x.conjugate(), f.embed(x, F72)]
    if y:
        results += [x / y, y.inverse()]
    results += [f.galois(x, k) for k in (1, 5, 7) if math.gcd(k, f.n) == 1]
    assert all(_canonical(z) for z in results)
    zero = x - x
    assert zero == f.zero == 0 and hash(zero) == hash(f.zero) == hash(0)
    assert zero.num == (0,) * f.degree and zero.den == 1
    third = (x / 3) * 3
    assert third == x and hash(third) == hash(x)
    if x:
        unit = x * x.inverse()
        assert unit == f.one == 1 and hash(unit) == hash(1)


@pytest.mark.parametrize(
    "f, g", [(F3, F4), (F4, F3), (F12, F72), (F72, F12)], ids=["w-i", "i-w", "z12-z72", "z72-z12"]
)
def test_products_across_conductors_are_refused(f, g):
    """The quadratic kernel (Q(w), Q(i)) and the general loop (Q(zeta_12),
    Q(zeta_72)) both refuse an operand of another field, in any pair."""
    x, y = f.zeta(), g.zeta()
    with pytest.raises(ValueError, match="conductor mismatch"):
        x * y
    with pytest.raises(ValueError, match="conductor mismatch"):
        dot((x,), (y,))
    with pytest.raises(ValueError, match="conductor mismatch"):
        dot((f.one, x), (x, y))  # a later pair
    with pytest.raises(ValueError, match="conductor mismatch"):
        dot((f.one, y), (x, x))
    with pytest.raises(ValueError, match="conductor mismatch"):
        mat_mul(((x, f.one), (f.zero, x)), ((x, f.one), (y, x)))
