"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A number is a tuple of integer numerators in the power basis of
Q[x]/Phi_N(x) over one positive integer denominator, kept in lowest
terms, so each value has exactly one form and all arithmetic is exact
integer arithmetic (Phi_N is monic, so reduction never divides). Each
conductor N gets one shared CycloField instance; elements of different
conductors never mix silently, they must be moved with embed() first.

Every diagram and model lives in a quadratic field, Q(w) or Q(i) (N in
{3, 4, 6}, Phi_N = x^2 + c1*x + 1), and there conjugation, inverse and a
single product x * y each take a closed form on the two integer
numerators; a sum of products goes through CycloField._sum_of_products,
whose quadratic path keeps three integer accumulators.  The general-degree
paths, the Galois substitution loop and the product loop, run only in
larger fields: Q(zeta_12) for the dilation lifts of the Z[i] diagrams,
and Q(zeta_72), where the symmetry table's data are parsed.
"""

from __future__ import annotations

import ast
import operator
import re
import sys
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Sequence

_CACHED: list = []


def cached(fn):
    """functools.cache, registered so that clear_caches() empties it."""
    memo = cache(fn)
    _CACHED.append(memo)
    return memo


def clear_caches() -> None:
    """Empty every memoised function of the package.

    CycloField instances are kept: elements compare their field by
    identity, so elements made before the call stay comparable.
    """
    for memo in _CACHED:
        memo.cache_clear()


def _rational_hash(p: int, q: int) -> int:
    """hash(Fraction(p, q)) for coprime p and q > 1, by the numeric hash
    rule of the Python reference manual, without building the Fraction."""
    P = sys.hash_info.modulus
    if q % P == 0:
        h = sys.hash_info.inf
    else:
        h = abs(p) % P * pow(q, P - 2, P) % P
    if p < 0:
        h = -h
    return -2 if h == -1 else h


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Divide integer polynomials known to divide exactly (den monic)."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            q[k - dd] = c
            for j, dj in enumerate(den):
                num[k - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return q


@cached
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_poly_divmod_exact(num, den))


class CycloField:
    """The cyclotomic field Q(zeta_n), with zeta_n = exp(2*pi*i/n)."""

    _instances: dict[int, "CycloField"] = {}

    def __new__(cls, n: int) -> "CycloField":
        inst = cls._instances.get(n)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(n)
            cls._instances[n] = inst
        return inst

    def _init(self, n: int) -> None:
        self.n = n
        poly = cyclotomic_polynomial(n)
        self.degree = d = len(poly) - 1
        self._phi_low = poly[:-1]  # (1, c1) in the quadratic closed forms
        # zeta^k for every k mod n as its nonzero (index, integer) terms in
        # the power basis: multiply by x and rewrite the overflow x^d as
        # -(Phi_n - x^d), which is integral because Phi_n is monic
        top = [-c for c in poly[:-1]]
        table = []
        cur = [1] + [0] * (d - 1)
        for _ in range(n):
            table.append(tuple((j, c) for j, c in enumerate(cur) if c))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                cur = [a + lead * t for a, t in zip(cur, top)]
        self._pow = tuple(table)

    def _make(self, num: Sequence[int], den: int) -> "CycloNum":
        """The element num / den (den > 0), brought to lowest terms."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return CycloNum(self, tuple(num), den)

    def _reduce(self, coeffs: list[int]) -> list[int]:
        """Fold the terms of degree >= degree back into the power basis."""
        d, n, table = self.degree, self.n, self._pow
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                for j, b in table[k % n]:
                    coeffs[j] += c * b
        del coeffs[d:]
        return coeffs

    def _sum_of_products(self, pairs: Iterable[tuple["CycloNum", "CycloNum"]]) -> "CycloNum":
        """sum x * y over the pairs: the package's one entry for sums of
        products, and for single products outside the quadratic fields.

        In a quadratic field (n in {3, 4, 6}, where every diagram and model
        lives) each pair adds x0*y0, x0*y1 + x1*y0 and x1*y1 to three
        integer accumulators over one common denominator, and the x^2 term
        folds back once, at the end, by x^2 = -c1*x - c0 with Phi_n = x^2 +
        c1*x + c0.  Every other field runs the general loop, which ends in
        _reduce.  Either way the sum is put in lowest terms by _make.
        """
        den = 1
        if self.degree == 2:
            a0 = a1 = a2 = 0
            for x, y in pairs:
                if x.field is not self or y.field is not self:
                    raise ValueError(f"conductor mismatch: {x.field.n} vs {y.field.n} in Q(zeta_{self.n})")
                x0, x1 = x.num
                y0, y1 = y.num
                pd = x.den * y.den
                if pd != 1:  # integral pairs, the common case, skip the denominator bookkeeping
                    if den % pd:  # widen the common denominator to lcm(den, pd)
                        f = pd // gcd(den, pd)
                        a0, a1, a2, den = a0 * f, a1 * f, a2 * f, den * f
                    s = den // pd
                    x0, x1 = x0 * s, x1 * s
                elif den != 1:
                    x0, x1 = x0 * den, x1 * den
                a0 += x0 * y0
                a1 += x0 * y1 + x1 * y0
                a2 += x1 * y1
            c0, c1 = self._phi_low
            return self._make((a0 - c0 * a2, a1 - c1 * a2), den)

        # the general loop: the unreduced integer products accumulate over
        # one common denominator, and the sum is reduced mod Phi_n once
        acc = [0] * (2 * self.degree - 1)
        for x, y in pairs:
            if x.field is not self or y.field is not self:
                raise ValueError(f"conductor mismatch: {x.field.n} vs {y.field.n} in Q(zeta_{self.n})")
            pd = x.den * y.den
            if den % pd:  # widen the common denominator to lcm(den, pd)
                f = pd // gcd(den, pd)
                acc = [c * f for c in acc]
                den *= f
            s = den // pd
            ynum = y.num
            for i, a in enumerate(x.num):
                if a:
                    a *= s
                    for j, b in enumerate(ynum, i):
                        if b:
                            acc[j] += a * b
        return self._make(self._reduce(acc), den)

    # -- constructors ---------------------------------------------------

    def element(self, coeffs: Iterable) -> "CycloNum":
        """The element with these rational power-basis coefficients."""
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != self.degree:
            raise ValueError(f"need {self.degree} coefficients, got {len(vec)}")
        den = lcm(*(c.denominator for c in vec))
        return self._make([c.numerator * (den // c.denominator) for c in vec], den)

    def from_rational(self, q) -> "CycloNum":
        if isinstance(q, int):
            num, den = q, 1
        else:
            q = Fraction(q)
            num, den = q.numerator, q.denominator
        return CycloNum(self, (num,) + (0,) * (self.degree - 1), den)

    @property
    def zero(self) -> "CycloNum":
        return self.from_rational(0)

    @property
    def one(self) -> "CycloNum":
        return self.from_rational(1)

    def zeta(self, power: int = 1) -> "CycloNum":
        """zeta_n raised to an arbitrary integer power."""
        num = [0] * self.degree
        for j, c in self._pow[power % self.n]:
            num[j] = c
        return CycloNum(self, tuple(num), 1)

    def root_of_unity(self, k: int) -> "CycloNum":
        """zeta_k; requires k | n."""
        if k <= 0 or self.n % k != 0:
            raise ValueError(f"zeta_{k} does not live in Q(zeta_{self.n})")
        return self.zeta(self.n // k)

    # The named root w = zeta_3, available when the conductor admits it.

    @property
    def omega(self) -> "CycloNum":
        return self.root_of_unity(3)

    def galois(self, x: "CycloNum", k: int) -> "CycloNum":
        """The automorphism zeta -> zeta^k, for gcd(k, n) = 1."""
        if gcd(k, self.n) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism mod {self.n}")
        if self.degree == 2:  # the units mod 3, 4 and 6 are 1 and -1
            return x if k % self.n == 1 else x.conjugate()
        return self._substitute(x, k)

    def embed(self, x: "CycloNum", into: "CycloField") -> "CycloNum":
        """Carry x into a larger field; conductors must divide."""
        if x.field is not self:
            raise ValueError("element does not belong to this field")
        if into.n % self.n != 0:
            raise ValueError(f"{self.n} does not divide {into.n}")
        return into._substitute(x, into.n // self.n)

    def _substitute(self, x: "CycloNum", step: int) -> "CycloNum":
        """sum c_j zeta^(j * step) over the coefficients c_j of x, in this field.

        The one substitution loop under galois (same field, step k) and
        embed (x from a subfield, step the ratio of conductors).
        """
        acc = [0] * self.degree
        for j, c in enumerate(x.num):
            if c:
                for t, b in self._pow[(j * step) % self.n]:
                    acc[t] += c * b
        return self._make(acc, x.den)

    def __repr__(self) -> str:
        return f"CycloField({self.n})"


class CycloNum:
    """An element num / den of a fixed CycloField. Immutable and hashable.

    `num` holds the integer power-basis numerators and `den` the positive
    common denominator, with gcd(den, *num) == 1; zero is (0, ..., 0) / 1.
    A rational value hashes like the int or Fraction it equals.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "CycloNum | None":
        if isinstance(other, CycloNum):
            if other.field is not self.field:
                raise ValueError(
                    f"conductor mismatch: {self.field.n} vs {other.field.n}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _combine(self, o: "CycloNum", sign: int) -> "CycloNum":
        """self + sign * o over the common denominator."""
        if self.den == o.den:
            num = [a + sign * b for a, b in zip(self.num, o.num)]
            return self.field._make(num, self.den)
        sa, sb = o.den, sign * self.den
        num = [a * sa + b * sb for a, b in zip(self.num, o.num)]
        return self.field._make(num, self.den * o.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.degree != 2:
            return f._sum_of_products(((self, o),))
        # (a0 + a1 z)(b0 + b1 z) with z^2 = -c1 z - 1
        a0, a1 = self.num
        b0, b1 = o.num
        top = a1 * b1
        return f._make((a0 * b0 - top, a0 * b1 + a1 * b0 - f._phi_low[1] * top), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, a nonzero rational.

        In a quadratic field the one other conjugate is conj, and
        1 / ((a + b z) / d) = d * conj(a + b z) / (a^2 - c1 a b + b^2).
        """
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        f = self.field
        if f.degree == 2:
            a, b = self.num
            c1, d = f._phi_low[1], self.den
            return f._make(((a - c1 * b) * d, -b * d), a * a - c1 * a * b + b * b)
        co = None
        for k in range(2, f.n):
            if gcd(k, f.n) == 1:
                conj = f._substitute(self, k)
                co = conj if co is None else f._sum_of_products(((co, conj),))
        if co is None:  # Q itself: no other conjugate
            co = f.one
        norm = f._sum_of_products(((self, co),))
        # 1 / self = co * norm.den / norm.num[0]
        p, q = norm.num[0], norm.den
        if p < 0:
            p, q = -p, -q
        return f._make([c * q for c in co.num], co.den * p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if other == 1:  # 1 / x, as linalg._echelon asks for each pivot: no product with one
            return self.inverse()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ------------------------------------------------------

    def conjugate(self) -> "CycloNum":
        f = self.field
        if f.degree != 2:
            return f.galois(self, f.n - 1)
        # z + conj(z) = -c1, so conj(a + b z) = (a - c1 b) - b z: a unimodular
        # map of the numerators, which leaves them in lowest terms
        a, b = self.num
        return CycloNum(f, (a - f._phi_low[1] * b, -b), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def multiplicative_order(self) -> int | None:
        """Order as a root of unity, or None: a lookup in roots_of_unity."""
        entry = roots_of_unity(self.field).get(self)
        return None if entry is None else entry[1]

    # -- housekeeping ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.field is other.field and self.den == other.den and self.num == other.num

    def __hash__(self):
        num = self.num
        if any(num[1:]):
            return hash((num, self.den))
        return hash(num[0]) if self.den == 1 else _rational_hash(num[0], self.den)

    def __repr__(self):
        return f"Cyclo[{self.field.n}]({self.as_poly_str()})"

    def as_poly_str(self) -> str:
        """Plain power-basis rendering, z standing for zeta_n."""
        return _join_terms(
            (Fraction(c, self.den), "" if j == 0 else "z" if j == 1 else f"z^{j}")
            for j, c in enumerate(self.num)
        )


@cached
def roots_of_unity(field: CycloField) -> dict[CycloNum, tuple[int, int]]:
    """Every root of unity of the field, mapped to (j, order): it is zeta_m^j
    for zeta_m = exp(2 pi i / m), and its order is m / gcd(j, m).

    Q(zeta_n) holds exactly the m-th roots of unity, m = lcm(2, n).  For
    odd n, zeta_2n = -zeta_n^((n + 1) / 2), so zeta_2n^j is
    (-1)^j zeta_n^(j (n + 1) / 2).  Read off the power table, with no products.
    """
    n = field.n
    m = lcm(2, n)
    step = 1 if m == n else (n + 1) // 2
    table = {}
    for j in range(m):
        x = field.zeta(j * step)
        table[-x if m != n and j % 2 else x] = (j, m // gcd(j, m))
    return table


# -- rings of integers -------------------------------------------------

# the rings of definition of diagrams and models, by the grammar symbol of their generator
RING_GENERATORS = {"Z[w]": "w", "Z[i]": "i"}


def ring_field(ring: str) -> CycloField | None:
    """Q(g) for the ring Z[g] of RING_GENERATORS, or None for an unknown ring."""
    sym = RING_GENERATORS.get(ring)
    return None if sym is None else CycloField(_SYMBOL_DIV[sym])


def in_subring(x: CycloNum, ring: str) -> bool:
    """Membership in a ring Z[g] of RING_GENERATORS, tested inside x's own
    field, which must hold g.

    g is not real, so x = a + b*g over Q forces b = (x - conj x) / (g - conj g).
    """
    g = parse_value(RING_GENERATORS[ring], x.field)
    b = (x - x.conjugate()) / (g - g.conjugate())
    return b.is_integer() and (x - b * g).is_integer()


# -- the value grammar --------------------------------------------------
#
# Data files and the inspection commands speak a tiny expression language.
# Once ^ is read as **, a value is a Python expression built only from
#   decimal integers; the symbols w = zeta_3, i = zeta_4, e8 = zeta_8,
#   e9 = zeta_9, and chi, bound by the caller; conj(x); parentheses;
#   binary + - *; unary -; and x^k with k a literal integer, a minus
#   written right before its digits if any (w^-2, not w^- 2 or w^(2)),
# with Python's precedence: -w^2 is -(w^2). Everything a diagram needs is
# an algebraic integer, so the grammar has no division. The text is ASCII;
# spaces, tabs and form feeds separate tokens, and a line break may stand
# only inside parentheses, nested at most 200 deep (Python's limit).
# tests/test_oracle.py holds this reader to the recursive-descent parser in
# tests/oracle_cyclo.py: on such text both read every string to the same
# value, except three kinds that only the oracle reads: an integer with a
# leading zero ("05"), a line break outside parentheses ("1 +\n2"), and a
# second ^ after an inner unary minus ("2*-w^2^3", which the oracle reads
# as 2*(-w^2)^3).


class GrammarError(ValueError):
    pass


_SYMBOL_DIV = {"w": 3, "i": 4, "e8": 8, "e9": 9}

# what Python reads but the grammar does not: any other character, Python's
# own **, digits running into a letter (0x1f, 1e3, 2w), a ^ not followed by
# a literal integer, and a conj not followed by its parenthesis ("(conj)(w)")
_NOT_GRAMMAR = re.compile(r"[^0-9A-Za-z+\-*^() \t\n\r\f]|\*\*|[0-9][A-Za-z]|\^(?!\s*-?[0-9])|conj(?!\s*\()")
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


@cached
def parse_value(text: str, field: CycloField, chi: CycloNum | None = None) -> CycloNum:
    """The value of a grammar string in field, with chi standing for the given element."""
    text = text.strip()
    try:
        if _NOT_GRAMMAR.search(text):
            raise SyntaxError
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError:
        raise GrammarError(f"not in the value grammar: {text!r}") from None
    return _evaluate(tree.body, field, chi, text)


def _evaluate(node: ast.expr, field: CycloField, chi: CycloNum | None, text: str) -> CycloNum:
    """The value of one node of the parse tree; any node outside the grammar is a GrammarError."""

    def value(sub: ast.expr) -> CycloNum:
        return _evaluate(sub, field, chi, text)

    if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
        return _ARITHMETIC[type(node.op)](value(node.left), value(node.right))
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exp, sign = node.right, 1
        if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
            exp, sign = exp.operand, -1
        if isinstance(exp, ast.Constant) and type(exp.value) is int:
            return value(node.left) ** (sign * exp.value)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -value(node.operand)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        return field.from_rational(node.value)
    elif isinstance(node, ast.Name) and node.id in _SYMBOL_DIV:
        return field.root_of_unity(_SYMBOL_DIV[node.id])
    elif isinstance(node, ast.Name) and node.id == "chi":
        if chi is None:
            raise GrammarError("no chi bound for this context")
        return chi
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "conj":
        if len(node.args) == 1 and not node.keywords:
            return value(node.args[0]).conjugate()
    raise GrammarError(f"{type(node).__name__} is not in the value grammar: {text!r}")


# -- rendering back into the grammar -------------------------------------

_RENDER_BASES: dict[int, tuple[tuple[str, ...], ...]] = {
    1: ((),),
    2: ((),),
    3: ((), ("w",)),
    4: ((), ("i",)),
    6: ((), ("w",)),
    8: tuple(("e8",) * k for k in range(4)),
    9: tuple(("e9",) * k for k in range(6)),
    12: ((), ("w",), ("i",), ("i", "w")),
    24: tuple(("w",) * a + ("e8",) * b for b in range(4) for a in range(2)),
    36: tuple(("i",) * a + ("e9",) * b for b in range(6) for a in range(2)),
    72: tuple(("e8",) * a + ("e9",) * b for b in range(6) for a in range(4)),
}


@cached
def _render_basis(field: CycloField):
    """(words, rows): the field's symbol-product basis, and the integer rows
    that take power-basis coordinates to coordinates in it.

    Every word is a product of roots of unity, so the matrix B with word k's
    power-basis coordinates in column k is integral.  Every declared basis
    is unimodular, so the Hermite normal form of [B | I] is [I | B^-1].
    """
    from .linalg import _hnf  # linalg is built on this module

    words = _RENDER_BASES.get(field.n)
    if words is None:
        return (), ()
    vals = []
    for word in words:
        v = field.one
        for sym in word:
            v = v * parse_value(sym, field)
        vals.append(v)
    d = field.degree
    ident = [[int(r == k) for k in range(d)] for r in range(d)]
    rows = _hnf([[v.num[r] for v in vals] + ident[r] for r in range(d)])
    if [row[:d] for row in rows] != ident:
        raise ArithmeticError(f"the render basis of Q(zeta_{field.n}) is not unimodular")
    return words, tuple(tuple(row[d:]) for row in rows)


@cached
def render_value(x: CycloNum) -> str:
    """Express x in the value grammar, once per value.

    Takes rational coordinates in a fixed symbol-product basis of the
    field, so parse_value(render_value(x)) == x exactly. Falls back to the
    raw power-basis string for conductors without a declared basis, or
    when a coordinate is not an integer; the fields used by the package
    all have one.
    """
    words, rows = _render_basis(x.field)
    coords = [sum(a * c for a, c in zip(row, x.num)) for row in rows]
    if not words or any(c % x.den for c in coords):
        return x.as_poly_str()
    return _join_terms((c // x.den, "*".join(_word_to_str(word))) for c, word in zip(coords, words))


def _join_terms(terms) -> str:
    """Signed sum of (coefficient, monomial) pairs, monomial "" for the constant.

    Zero coefficients are dropped and unit coefficients left implicit.
    """
    out = ""
    for c, mono in terms:
        if not c:
            continue
        if not mono:
            t = str(c)
        elif c == 1:
            t = mono
        elif c == -1:
            t = f"-{mono}"
        else:
            t = f"{c}*{mono}"
        if not out:
            out = t
        else:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out or "0"


def _word_to_str(word: tuple[str, ...]) -> list[str]:
    # collapse repeated symbols to powers: ("e8","e8") -> e8^2
    out: list[str] = []
    k = 0
    while k < len(word):
        j = k
        while j < len(word) and word[j] == word[k]:
            j += 1
        out.append(word[k] if j - k == 1 else f"{word[k]}^{j - k}")
        k = j
    return out
