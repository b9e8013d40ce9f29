"""The integer cyclotomic core against the Fraction-based oracle in oracle_cyclo.py.

Every value is built twice from the same rational coefficients, once in
crystmono.cyclo and once in the oracle, and each operation must give the
same rational coefficients in both.
"""

import json
from fractions import Fraction
from importlib import resources
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracle_cyclo as O
from crystmono.cyclo import CycloField, GrammarError, in_subring, parse_value, render_value
from crystmono.linalg import ZLattice, _hnf, det, dot, mat_mul, mat_prod

CONDUCTORS = [3, 4, 6, 12, 72]

_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4, 6]))
# most coefficients zero, so that degree-24 values stay cheap in the oracle
_coefficients = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), _rationals)


def _values(n, integral=False):
    field = CycloField(n)
    coeff = st.integers(-6, 6) if integral else _coefficients
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(field.element)


def _pair_in(n):
    return st.tuples(_values(n), _values(n))


_pairs = st.sampled_from(CONDUCTORS).flatmap(_pair_in)


def twin(x):
    """The oracle element with x's rational coefficients."""
    return O.CycloField(x.field.n).element([Fraction(c, x.den) for c in x.num])


def same(x, ox) -> bool:
    return x.field.n == ox.field.n and tuple(Fraction(c, x.den) for c in x.num) == ox.coeffs


@given(_pairs)
@settings(max_examples=50, deadline=None)
def test_ring_operations_match_the_oracle(xy):
    x, y = xy
    ox, oy = twin(x), twin(y)
    assert same(x + y, ox + oy)
    assert same(x - y, ox - oy)
    assert same(x * y, ox * oy)
    assert same(-x, -ox)
    assert same(x * Fraction(-2, 3), ox * Fraction(-2, 3))
    if y:
        assert same(y.inverse(), oy.inverse())
        assert same(x / y, ox / oy)


@given(st.sampled_from(CONDUCTORS).flatmap(lambda n: st.tuples(_values(n), st.integers(1, 71))))
@settings(max_examples=60, deadline=None)
def test_galois_and_embed_match_the_oracle(xk):
    x, k = xk
    f, of = x.field, O.CycloField(x.field.n)
    ox = twin(x)
    if gcd(k, f.n) == 1:
        assert same(f.galois(x, k), of.galois(ox, k))
    assert same(x.conjugate(), ox.conjugate())
    assert same(f.embed(x, CycloField(72)), of.embed(ox, O.CycloField(72)))


# numerators up to about 2^70 over denominators 1..12, zero half the time
_wide_numerators = st.one_of(st.just(0), st.integers(-(2**70), 2**70))


@st.composite
def _wide_quadratic_values(draw, n):
    den = draw(st.integers(1, 12))
    return CycloField(n).element([Fraction(draw(_wide_numerators), den) for _ in range(2)])


@given(st.sampled_from([3, 4, 6]).flatmap(lambda n: st.tuples(_wide_quadratic_values(n), _wide_quadratic_values(n))))
@settings(max_examples=200, deadline=None)
def test_quadratic_closed_forms_give_the_canonical_form(xy):
    """Q(w) and Q(i) conjugate, invert and multiply in closed form.  The
    oracle comparison goes through Fractions, so it cannot see a result left
    out of lowest terms, which would break == and hash: check that too."""
    x, y = xy
    f, ox, oy = x.field, twin(x), twin(y)
    of = ox.field
    cases = [(x.conjugate(), ox.conjugate()), (x * y, ox * oy), (x + y, ox + oy), (x - y, ox - oy)]
    cases += [(f.galois(x, k), of.galois(ox, k)) for k in (1, -1, f.n + 1, 2 * f.n - 1)]
    if x:
        cases.append((x.inverse(), ox.inverse()))
    if y:
        cases.append((x / y, ox / oy))
    for z, oz in cases:
        assert z.den > 0 and gcd(z.den, *z.num) == 1
        assert same(z, oz)


@given(st.sampled_from(CONDUCTORS).flatmap(lambda n: st.tuples(_values(n), st.integers(-3, 3))))
@settings(max_examples=60, deadline=None)
def test_powers_match_the_oracle(xk):
    x, k = xk
    if x or k >= 0:
        assert same(x**k, twin(x) ** k)


@given(st.sampled_from(CONDUCTORS).flatmap(lambda n: st.one_of(_values(n), _values(n, integral=True))))
@settings(max_examples=50, deadline=None)
def test_rendering_matches_the_oracle(x):
    text = render_value(x)
    assert text == O.render_value(twin(x))
    assert x.as_poly_str() == twin(x).as_poly_str()
    if x.den == 1:  # integral values render in the grammar, which has no division
        back = parse_value(text, x.field)
        assert back == x
        assert same(back, O.parse_value(text, O.CycloField(x.field.n)))


@given(
    st.sampled_from(CONDUCTORS).flatmap(
        lambda n: st.integers(1, 4).flatmap(
            lambda k: st.tuples(st.lists(_values(n), min_size=k, max_size=k), st.lists(_values(n), min_size=k, max_size=k))
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_dot_with_mixed_denominators_matches_the_oracle(uv):
    u, v = uv
    expected = twin(u[0]) * twin(v[0])
    for x, y in zip(u[1:], v[1:]):
        expected = expected + twin(x) * twin(y)
    assert same(dot(tuple(u), tuple(v)), expected)


# -- matrices with unit rows ------------------------------------------------
#
# mat_mul copies a unit row's row of the right factor, mat_prod multiplies
# from the right end and _echelon skips the division at a pivot equal to 1;
# here each is held to the textbook sum of products and the Leibniz
# determinant, computed in the oracle.


@st.composite
def _square_words(draw):
    """1 to 4 square matrices over Q(w), Q(i) or Q(zeta_12), each row at
    random a unit row e_i, e_i with 1 + zeta in place of its 1, a row with
    1 on the diagonal, or any row, with entries over denominators other
    than 1 too."""
    field = CycloField(draw(st.sampled_from([3, 4, 12])))
    dim = draw(st.integers(1, 4))

    def row(i):
        kind = draw(st.sampled_from(["unit", "near unit", "pivot", "any"]))
        if kind in ("unit", "near unit"):
            one = field.one if kind == "unit" else field.one + field.zeta()
            return tuple(one if j == i else field.zero for j in range(dim))
        out = list(draw(_vectors(field.n, dim)))
        if kind == "pivot":
            out[i] = field.one
        return tuple(out)

    return [tuple(row(i) for i in range(dim)) for _ in range(draw(st.integers(1, 4)))]


def _oracle_mul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), row[0].field.zero) for j in range(len(b[0]))] for row in a]


def _oracle_det(a):
    total = a[0][0].field.zero
    for p in permutations(range(len(a))):
        inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
        term = a[0][0].field.one
        for i, j in enumerate(p):
            term = term * a[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def _same_matrix(m, om) -> bool:
    return all(same(x, ox) for row, orow in zip(m, om) for x, ox in zip(row, orow))


@given(_square_words())
@settings(max_examples=80, deadline=None)
def test_products_and_determinants_with_unit_rows_match_the_oracle(ms):
    oms = [[[twin(x) for x in row] for row in m] for m in ms]
    a, oa = ms[0], oms[0]
    for b, ob in zip(ms[1:], oms[1:]):
        assert _same_matrix(mat_mul(a, b), _oracle_mul(oa, ob))
    expected = oms[0]
    for om in oms[1:]:
        expected = _oracle_mul(expected, om)
    assert _same_matrix(mat_prod(ms), expected)
    assert all(same(det(m), _oracle_det(om)) for m, om in zip(ms, oms))


# -- the value grammar ------------------------------------------------------
#
# The oracle's parse_value is the hand-written recursive-descent parser that
# the ast walk replaced. The walk may reject what the oracle read, in the
# three kinds pinned below, but never read a string differently.


def _read(parse, text, field, chi):
    """parse(text, field, chi), or None when the text is rejected."""
    try:
        return parse(text, field, chi)
    except (ValueError, ZeroDivisionError):  # GrammarError is a ValueError in both
        return None


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from _strings(v)
    elif isinstance(node, list):
        for v in node:
            yield from _strings(v)


def _data_strings():
    texts = set()
    for name in ("diagrams.json", "reference_groups.json", "table1.json", "pproj.json"):
        texts |= set(_strings(json.loads(resources.files("crystmono").joinpath(f"data/{name}").read_text())))
    return sorted(texts)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_every_data_string_parses_as_in_the_oracle(n):
    """Every string of the four data files, value or not, in each conductor."""
    field, chi = CycloField(n), CycloField(n).zeta(5)
    for text in _data_strings():
        x = _read(parse_value, text, field, chi)
        ox = _read(O.parse_value, text, O.CycloField(n), twin(chi))
        assert (x is None) == (ox is None), text
        assert x is None or same(x, ox), text


_LEAVES = st.one_of(st.integers(0, 30).map(str), st.sampled_from(["w", "i", "e8", "e9", "chi"]))
_GRAMMAR_TEXT = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        inner.map("-{}".format),
        inner.map("({})".format),
        inner.map("conj({})".format),
        st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " - ", " * "]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["^", "^-", "^ "]), st.integers(0, 4).map(str)).map("".join),
    ),
    max_leaves=8,
)
_PIECES = [*"0123456789", "w", "i", "e8", "e9", "conj", "chi", *"+-*^()/._x", " ", "\n"]


@st.composite
def _mutated_text(draw):
    """A grammar string with up to three pieces inserted, deleted or replaced."""
    text = draw(_GRAMMAR_TEXT)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        cut = draw(st.sampled_from([0, 1]))
        text = text[:k] + draw(st.sampled_from(_PIECES + [""])) + text[k + cut :]
    return text


@given(_mutated_text(), st.sampled_from(CONDUCTORS))
@settings(max_examples=400, deadline=None)
def test_parse_reads_nothing_the_oracle_does_not(text, n):
    field = CycloField(n)
    chi = field.zeta(5)
    x = _read(parse_value, text, field, chi)
    if x is not None:
        assert same(x, O.parse_value(text, O.CycloField(n), twin(chi)))


@pytest.mark.parametrize(
    "text",
    ["w^(2)", "w**2", "w^- 2", "1^- 2", "0x1f", "1_0", "True", "__import__('os')", "conj(w, i)", "(1)(2)", "w.real",
     "(conj)(w)", "conj(w,)", "conj(*w)", "2w", "1e3"],
)
def test_parse_rejects_python_beyond_the_grammar(text):
    with pytest.raises(GrammarError):
        parse_value(text, CycloField(12))


@pytest.mark.parametrize(
    "text, oracle_value",
    [
        ("05", "5"),  # an integer with a leading zero
        ("1 +\n2", "3"),  # a line break outside parentheses
        ("2*-w^2^3", "2*(-w^2)^3"),  # a second ^ after an inner unary minus
    ],
)
def test_the_three_kinds_the_oracle_read_are_rejected(text, oracle_value):
    field = CycloField(3)
    assert same(parse_value(oracle_value, field), O.parse_value(text, O.CycloField(3)))
    with pytest.raises(GrammarError):
        parse_value(text, field)


def test_line_breaks_inside_parentheses_still_parse():
    assert parse_value("(1 +\n2)", CycloField(3)) == 3


@st.composite
def _subring_cases(draw):
    """(a + b*g) / d for a generator g of the field and d in {1, 2, 3}, or any value."""
    n = draw(st.sampled_from(CONDUCTORS))
    gens = [sym for sym, k in (("w", 3), ("i", 4)) if n % k == 0]
    if not draw(st.booleans()):
        return draw(_values(n))
    g = parse_value(draw(st.sampled_from(gens)), CycloField(n))
    a, b = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    return (a + b * g) / draw(st.sampled_from([1, 1, 2, 3]))


@given(_subring_cases())
@settings(max_examples=80, deadline=None)
def test_subring_membership_matches_the_oracle(x):
    """in_subring agrees with the oracle on each ring whose generator lies
    in x's field, the only rings its caller asks about."""
    for ring, k in (("Z[w]", 3), ("Z[i]", 4)):
        if x.field.n % k == 0:
            assert in_subring(x, ring) == O.in_subring(twin(x), ring)


# -- lattices --------------------------------------------------------------
#
# The oracle lattice is the Fraction-coordinate ZLattice that the integer
# core replaced: flatten to Fractions, clear the denominators, take the HNF,
# and reduce a vector by the floor multiple of each row in turn.


def _oracle_flat(v):
    return [q for x in v for q in twin(x).coeffs]


def _oracle_lattice(gens):
    flats = [_oracle_flat(v) for v in gens]
    scale = 1
    for flat in flats:
        for q in flat:
            scale = scale * q.denominator // gcd(scale, q.denominator)
    return scale, _hnf([[int(q * scale) for q in flat] for flat in flats])


def _oracle_residue(scale, rows, v):
    t = [q * scale for q in _oracle_flat(v)]
    for row in rows:
        c = next(j for j, x in enumerate(row) if x)
        q = t[c].numerator // (t[c].denominator * row[c])
        t = [x - q * y for x, y in zip(t, row)]
    return [x / scale for x in t]


def _vectors(n, dim):
    return st.tuples(*[_values(n)] * dim)


@st.composite
def _lattice_cases(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    dim = draw(st.integers(1, 2))
    gens = draw(st.lists(_vectors(n, dim), min_size=0, max_size=3 if n == 72 else 4))
    probe = draw(_vectors(n, dim))
    return CycloField(n), dim, gens, probe


@given(_lattice_cases())
@settings(max_examples=60, deadline=None)
def test_lattices_match_the_oracle(case):
    field, dim, gens, probe = case
    lat = ZLattice(field, dim, gens)
    scale, rows = _oracle_lattice(gens)
    assert (lat.scale, lat.rows) == (scale, rows)
    assert all(lat.member(v) for v in gens)
    residue = _oracle_residue(scale, rows, probe)
    assert lat.member(probe) == (not any(residue))
    assert [q for x in lat.reduce(probe) for q in twin(x).coeffs] == residue
    # the same lattice from other generators: reversed, plus a sum of two
    others = gens[::-1]
    if len(gens) >= 2:
        others.append(tuple(a + b for a, b in zip(gens[0], gens[1])))
    assert ZLattice(field, dim, others) == lat
    assert _oracle_lattice(others) == (scale, rows)
    bigger = ZLattice(field, dim, gens + [probe])
    assert (bigger == lat) == lat.member(probe) == (_oracle_lattice(gens + [probe]) == (scale, rows))
