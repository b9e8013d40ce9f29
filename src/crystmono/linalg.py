"""Exact linear algebra over cyclotomic fields.

Vectors and matrices are plain tuples of CycloNum, so everything stays
immutable and hashable (group closures use matrices as dict keys).
On top of that sit the two structures the monodromy checks revolve
around: Hermitian forms with their kernels and definiteness tests,
and finitely generated Z-lattices inside Q(zeta)^n handled through an
integer Hermite normal form.

Q(zeta)^n of degree r over Q is also Q^(n r): `flatten` writes a vector as
integer power-basis coordinates over one denominator, and `flat_action`
writes a matrix as the integer matrix, over one denominator, of the same
Q-linear map on those coordinates (restriction of scalars).  Lattice
images and basis orbits are taken there, with integer products only.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .cyclo import CycloField, CycloNum, cached, parse_value

Vector = tuple[CycloNum, ...]
Matrix = tuple[Vector, ...]


# -- basic operations -----------------------------------------------------


def vector(field: CycloField, entries: Iterable) -> Vector:
    """Build a vector from CycloNum, rational, or grammar-string entries."""
    out = []
    for e in entries:
        if isinstance(e, CycloNum):
            if e.field is not field:
                raise ValueError("mixed conductors in one vector")
            out.append(e)
        elif isinstance(e, str):
            out.append(parse_value(e, field))
        else:
            out.append(field.from_rational(e))
    return tuple(out)


def matrix(field: CycloField, rows: Iterable[Iterable]) -> Matrix:
    return tuple(vector(field, r) for r in rows)


def identity(field: CycloField, n: int) -> Matrix:
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(dot(r, v) for r in a)


def _is_one(x: CycloNum) -> bool:
    """x == 1, read off the numerators with no 1 built."""
    return x.den == 1 and x.num[0] == 1 and not any(x.num[1:])


def _is_unit_row(row: Vector, i: int) -> bool:
    """Whether row is e_i: 1 at i and 0 elsewhere."""
    return i < len(row) and _is_one(row[i]) and not any(row[:i]) and not any(row[i + 1 :])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, with row i of b copied wherever row i of a is the unit row e_i.

    That is exact, since e_i^T b = b_i, and it spares most of the work on
    the reflections built here: each is the identity outside one row, so
    with a reflection on the left only that row takes products.
    """
    bt = transpose(b)
    return tuple(
        tuple(b[i]) if _is_unit_row(ra, i) else tuple(dot(ra, cb) for cb in bt) for i, ra in enumerate(a)
    )


def mat_prod(ms: Sequence[Matrix]) -> Matrix:
    """ms[0] ms[1] ... ms[-1]: on column vectors the last factor acts first.

    Multiplied from the right end, so each single factor is the left one
    of its product, where mat_mul copies its unit rows; by associativity
    the product is the same.
    """
    p = ms[-1]
    for m in reversed(ms[:-1]):
        p = mat_mul(m, p)
    return p


def dot(u: Vector, v: Vector) -> CycloNum:
    """sum u[k] v[k], with no conjugation, as one integer sum of products."""
    return u[0].field._sum_of_products(zip(u, v))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def conj_vector(v: Vector) -> Vector:
    return tuple(x.conjugate() for x in v)


def conj_matrix(a: Matrix) -> Matrix:
    return tuple(conj_vector(r) for r in a)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    return tuple(c * x for x in v)


def is_zero_vector(v: Vector) -> bool:
    return all(x.is_zero() for x in v)


def identity_minus_outer(c: CycloNum, u: Vector, w: Vector) -> Matrix:
    """I - c u w^T, the shape of every complex reflection built here; row i
    is e_i exactly where u_i = 0, and is kept so."""
    ident = identity(c.field, len(u))
    return tuple(vec_sub(e, vec_scale(c * x, w)) if x else e for e, x in zip(ident, u))


def trace(m: Matrix) -> CycloNum:
    """The diagonal sum, as one integer sum of the products 1 * m[k][k].

    1 is the left factor, whose zero coefficients the product loop skips,
    so each diagonal entry costs one pass over its coefficients.
    """
    one = m[0][0].field.one
    return one.field._sum_of_products([(one, row[k]) for k, row in enumerate(m)])


def is_reflection(m: Matrix) -> bool:
    """True when m - I has rank one: a nonzero row r with r[c] != 0 and x[j]*r[c] = x[c]*r[j] for all rows x."""
    one = m[0][0].field.one
    a = [tuple(x - one if i == j else x for j, x in enumerate(row)) for i, row in enumerate(m)]
    r = next((row for row in a if not is_zero_vector(row)), None)
    if r is None:
        return False
    c = next(j for j, x in enumerate(r) if not x.is_zero())
    return all(dot((x[j], -x[c]), (r[c], r[j])).is_zero() for x in a for j in range(len(r)))


def reflection_order(m: Matrix) -> int:
    """Order of a reflection of finite order: that of its eigenvalue other than 1,
    tr m - (n - 1) (Lehrer-Taylor, Unitary Reflection Groups, 2009, ch. 1)."""
    return (trace(m) - (len(m) - 1)).multiplicative_order()


# -- elimination ----------------------------------------------------------
#
# Each runs on _echelon, the package's one Gauss-Jordan routine.


def _echelon(rows: list[list[CycloNum]]) -> tuple[list[list[CycloNum]], list[int], list[CycloNum], int]:
    """Gauss-Jordan reduction in place; the only field elimination in the package.

    Returns (rows, cols, pivots, sign): the reduced row echelon form, the
    pivot column of each leading row, the value each of those rows was
    divided by, and (-1)^(row swaps).  Row operations of the third kind
    keep the determinant, so a square matrix with a pivot in every column
    has determinant sign * prod(pivots).  A pivot equal to 1 is neither
    inverted nor divided out: its row already has 1 there, as a unit row
    of a reflection does.
    """
    cols: list[int] = []
    pivots: list[CycloNum] = []
    sign = 1
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        piv = rows[r][c]
        if not _is_one(piv):
            inv = 1 / piv
            rows[r] = [inv * x for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        cols.append(c)
        pivots.append(piv)
        r += 1
        if r == len(rows):
            break
    return rows, cols, pivots, sign


def mat_rank(a: Matrix) -> int:
    return len(_echelon([list(r) for r in a])[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of {v : a v = 0}."""
    if not a:
        return []
    field = a[0][0].field
    n = len(a[0])
    rows, pivots, _, _ = _echelon([list(r) for r in a])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None: the nullspace basis vector of [a | -b]
    for its last column, which exists when that column has no pivot."""
    n = len(a[0])
    v = next((v for v in nullspace(tuple(tuple(r) + (-bv,) for r, bv in zip(a, b))) if v[n] == 1), None)
    return None if v is None else v[:n]


def mat_inverse(a: Matrix) -> Matrix:
    field = a[0][0].field
    n = len(a)
    rows = [list(r) + list(e) for r, e in zip(a, identity(field, n))]
    rows, pivots, _, _ = _echelon(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(r[n:]) for r in rows)


def det(a: Matrix) -> CycloNum:
    """sign * product of the pivots that _echelon divided out; zero if one is missing."""
    _, cols, pivots, sign = _echelon([list(r) for r in a])
    if len(cols) < len(a):
        return a[0][0].field.zero
    return prod(pivots, start=sign)


# -- Hermitian forms ------------------------------------------------------


class HermitianGram:
    """A Hermitian pairing given by its Gram matrix.

    The pairing is linear in the first slot and conjugate linear in the
    second: <u, v> = u^T G conj(v). Construction checks Hermitian symmetry.
    Two forms are equal, and hash alike, when their Gram rows are equal, so
    records holding a form compare by value and a cache can key on it.
    """

    def __init__(self, gram: Matrix):
        self.gram = gram
        self.field = gram[0][0].field
        self.n = len(gram)
        for i in range(self.n):
            for j in range(i, self.n):  # conjugation is an involution: (j, i) is the same test
                if gram[i][j] != gram[j][i].conjugate():
                    raise ValueError(f"matrix is not Hermitian at ({i}, {j})")

    def __eq__(self, other):
        if not isinstance(other, HermitianGram):
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def eval(self, u: Vector, v: Vector) -> CycloNum:
        return dot(u, mat_vec(self.gram, conj_vector(v)))

    def in_radical(self, v: Vector) -> bool:
        """Whether v pairs to zero with everything: G conj(v) = 0."""
        return is_zero_vector(mat_vec(self.gram, conj_vector(v)))

    @property
    def rank(self) -> int:
        return mat_rank(self.gram)

    @property
    def corank(self) -> int:
        return self.n - self.rank

    def is_preserved_by(self, m: Matrix) -> bool:
        """Whether <m u, m v> = <u, v>: m^T G conj(m) = G."""
        return mat_mul(transpose(m), mat_mul(self.gram, conj_matrix(m))) == self.gram

    def is_negative_semidefinite(self) -> bool:
        """One symmetric elimination of G, without row swaps.

        Eliminating a pivot p = G[k][k] leaves G congruent to p (+) S, with
        S = G' - G'[:, k] p^-1 G'[k, :] the Schur complement, Hermitian
        again.  So with p negative, G is negative semidefinite exactly when
        S is, and a positive diagonal entry means it is not.  A zero
        diagonal entry of a negative semidefinite matrix forces a zero row,
        since the 2 x 2 principal minor it sits in is -|x|^2 for the other
        entry x of its row; so a zero pivot whose row is not zero means G is
        not negative semidefinite, and one whose row is zero is skipped,
        its row and column adding nothing.  Exact, singular forms included.
        """
        rows = [list(r) for r in self.gram]
        for k, row in enumerate(rows):
            piv = row[k]
            if not piv.is_rational():
                raise ArithmeticError("Hermitian pivot is not rational")
            if not piv:
                if any(row[k + 1 :]):
                    return False
                continue
            if piv.num[0] > 0:  # the sign of the rational pivot, its denominator being positive
                return False
            inv = 1 / piv
            for below in rows[k + 1 :]:
                f = below[k] * inv
                if f:
                    below[k:] = [x - f * y for x, y in zip(below[k:], row[k:])]
        return True


# -- restriction of scalars -------------------------------------------------


def flatten(v: Vector) -> tuple[list[int], int]:
    """(flat, den): the integer power-basis coordinates of den * v, entry k
    at k * r .. k * r + r - 1 for the degree r, and den, their least common
    denominator."""
    den = lcm(*(x.den for x in v))
    return [c * (den // x.den) for x in v for c in x.num], den


def unflatten(field: CycloField, flat: Sequence[int], den: int) -> Vector:
    """The vector flat / den, each entry in lowest terms."""
    r = field.degree
    return tuple(field._make(flat[k : k + r], den) for k in range(0, len(flat), r))


@cached
def flat_action(m: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, D) with flatten(m v) = M flatten(v) / D, up to lowest terms.

    v -> m v is Q-linear on the flattened coordinates, so it is one
    (n r) x (n r) rational matrix, here an integer M over the least common
    denominator D of m's entries.  Block (i, j) is multiplication by m_ij:
    its column b holds the coordinates of m_ij zeta^b, that is of
    sum_a c_a zeta^(a + b) over m_ij's numerators c_a, each power read off
    the field's power table, so building M takes no field product.
    """
    field = m[0][0].field
    r, n, table = field.degree, field.n, field._pow
    den = lcm(*(x.den for row in m for x in row))
    rows = [[0] * (len(m[0]) * r) for _ in range(len(m) * r)]
    for i, mrow in enumerate(m):
        for j, x in enumerate(mrow):
            s = den // x.den
            for a, c in enumerate(x.num):
                if c:
                    for b in range(r):
                        for t, e in table[(a + b) % n]:
                            rows[i * r + t][j * r + b] += s * c * e
    return tuple(map(tuple, rows)), den


# -- integer lattices ------------------------------------------------------


def _hnf(rows: list[list[int]]) -> list[list[int]]:
    """The reduced row Hermite normal form of the integer row span.

    Zero rows dropped, pivots positive and strictly increasing, and every
    entry above a pivot p in [0, p).  That form is unique (Cohen, A Course
    in Computational Algebraic Number Theory, 1993, 2.4.2), so two integer
    matrices span the same lattice exactly when their forms are equal.
    """
    rows = [r[:] for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        # gather nonzero entries in column c at or below r by gcd reduction
        while True:
            live = [k for k in range(r, len(rows)) if rows[k][c]]
            if not live:
                break
            k = min(live, key=lambda k: abs(rows[k][c]))
            rows[r], rows[k] = rows[k], rows[r]
            done = True
            for k in range(r + 1, len(rows)):
                if rows[k][c]:
                    q = rows[k][c] // rows[r][c]
                    rows[k] = [x - q * y for x, y in zip(rows[k], rows[r])]
                    if rows[k][c]:
                        done = False
            if done:
                break
        if r < len(rows) and rows[r][c]:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            r += 1
        if r == len(rows):
            break
    rows = [row for row in rows[:r] if any(row)]
    # reduce the entries above each pivot into [0, pivot), first pivot first:
    # row k is zero left of its pivot, so reducing by it keeps the entries
    # above the earlier pivots, which are already reduced
    piv = [next(j for j, x in enumerate(row) if x) for row in rows]
    for k, c in enumerate(piv):
        p = rows[k][c]
        for up in range(k):
            q = rows[up][c] // p
            if q:
                rows[up] = [x - q * y for x, y in zip(rows[up], rows[k])]
    return rows


class ZLattice:
    """Finitely generated Z-submodule of Q(zeta_N)^n.

    Vectors are flattened to rational coordinates (power basis times
    ambient dimension) and multiplied by `scale`, the least d with
    d L in Z^k; `rows` is the reduced HNF of that integer lattice.  Both
    depend on the lattice alone, not on its generators, so equality
    compares them.  Membership and canonical reduction are exact.

    Images under a matrix m are taken on the flattened rows, as
    flat_action(m) times each row over D * scale: the same Q-linear map as
    m, so the image lattice is exactly the one the field images span, and
    it is built from integer products alone.
    """

    def __init__(
        self,
        field: CycloField,
        dim: int,
        generators: Iterable[Vector] = (),
        flat: Iterable[tuple[Sequence[int], int]] = (),
    ):
        """The lattice spanned by the vectors `generators` and the vectors
        p / den for the flattened pairs (p, den) in `flat`."""
        self.field = field
        self.dim = dim
        self.flat_dim = dim * field.degree
        gens = [self._flatten(v) for v in generators] + list(flat)
        scale = lcm(*(den for _, den in gens))
        rows = _hnf([[c * (scale // den) for c in p] for p, den in gens])
        # the least d is scale over the part of it that divides every entry
        g = gcd(scale, *chain.from_iterable(rows))
        if g != 1:
            scale //= g
            rows = [[x // g for x in row] for row in rows]
        self.scale, self.rows = scale, rows
        self._pivots = [next(j for j, x in enumerate(r) if x) for r in self.rows]

    def _flatten(self, v: Vector) -> tuple[list[int], int]:
        if len(v) != self.dim:
            raise ValueError("wrong ambient dimension")
        if any(x.field is not self.field for x in v):
            raise ValueError("wrong field for lattice vector")
        return flatten(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _residue(self, v: Vector) -> tuple[list[int], int]:
        """(t, den): scale * v, flattened as t / den, less the floor multiple
        of each HNF row in turn.

        Row k is zero left of its pivot, so each step leaves the entries at
        earlier pivots in [0, pivot); t is zero exactly when v is in the
        lattice.
        """
        flat, den = self._flatten(v)
        t = [x * self.scale for x in flat]
        for row, c in zip(self.rows, self._pivots):
            # HNF pivots are positive, so floor division is exact here
            q = t[c] // (den * row[c]) * den
            if q:
                t = [x - q * y for x, y in zip(t, row)]
        return t, den

    def member(self, v: Vector) -> bool:
        return not any(self._residue(v)[0])

    def reduce(self, v: Vector) -> Vector:
        """Canonical representative of v modulo the lattice."""
        t, den = self._residue(v)
        return unflatten(self.field, t, den * self.scale)

    def _pairs(self) -> list[tuple[list[int], int]]:
        return [(row, self.scale) for row in self.rows]

    def _images(self, mats) -> list[tuple[list[int], int]]:
        """The HNF rows' images under each matrix in mats, flattened."""
        out = []
        for m in mats:
            if len(m) != self.dim or m[0][0].field is not self.field:
                raise ValueError("wrong field or dimension for lattice matrix")
            action, den = flat_action(m)
            out += [([sum(map(mul, a, row)) for a in action], den * self.scale) for row in self.rows]
        return out

    def join(self, other: "ZLattice") -> "ZLattice":
        return ZLattice(self.field, self.dim, flat=self._pairs() + other._pairs())

    def with_images(self, mats) -> "ZLattice":
        """The lattice spanned by this one and its images under every matrix in mats."""
        return ZLattice(self.field, self.dim, flat=self._pairs() + self._images(mats))

    def transformed(self, m: Matrix) -> "ZLattice":
        return ZLattice(self.field, self.dim, flat=self._images([m]))

    def scaled(self, c: CycloNum) -> "ZLattice":
        """The image under c I."""
        zero = self.field.zero
        return self.transformed(tuple(tuple(c if i == j else zero for j in range(self.dim)) for i in range(self.dim)))

    def basis_vectors(self) -> list[Vector]:
        return [unflatten(self.field, row, self.scale) for row in self.rows]

    def __eq__(self, other):
        if not isinstance(other, ZLattice):
            return NotImplemented
        if self.field is not other.field or self.dim != other.dim:
            return False
        return (self.scale, self.rows) == (other.scale, other.rows)

    def __hash__(self):
        raise TypeError("lattices are not hashed")

    def __repr__(self):
        return f"ZLattice(n={self.field.n}, dim={self.dim}, rank={self.rank})"
