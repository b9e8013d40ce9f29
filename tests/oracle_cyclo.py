"""Reference implementation of crystmono.cyclo, kept as an independent oracle.

This is the Fraction-based core that crystmono.cyclo replaced with
integer numerators over one denominator; tests/test_oracle.py checks the
package against it.  It shares no code with the package.

Exact arithmetic in cyclotomic fields Q(zeta_N).

Numbers are vectors of Fractions in the power basis of Q[x]/Phi_N(x),
so all arithmetic is exact. Each conductor N gets one shared CycloField
instance; elements of different conductors never mix silently, they must
be moved with embed() first.

The fields that actually occur here are small: most diagram data lives in
a quadratic field (N in {3, 4, 6}), character bookkeeping needs N = 72.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)

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


def _poly_mul(a: Sequence, b: Sequence) -> list:
    """Polynomial product; coefficients may be ints or Fractions."""
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
        self.degree = len(poly) - 1
        # x^degree rewritten in the power basis (Phi_n is monic)
        self._top = tuple(Fraction(-c) for c in poly[:-1])
        # zeta^k for every k mod n, as basis vectors
        table = []
        cur = [_ONE] + [_ZERO] * (self.degree - 1)
        for _ in range(n):
            table.append(tuple(cur))
            cur = self._shift(cur)
        self._pow = tuple(table)

    def _shift(self, v: Sequence[Fraction]) -> list[Fraction]:
        # multiply by x, reduce the single overflow term
        lead = v[-1]
        out = [_ZERO] + list(v[:-1])
        if lead:
            out = [a + lead * t for a, t in zip(out, self._top)]
        return out

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        d = self.degree
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c:
                coeffs[k] = _ZERO
                base = self._pow[k % self.n]
                for j in range(d):
                    coeffs[j] += c * base[j]
        return tuple(coeffs[:d])

    # -- constructors ---------------------------------------------------

    def element(self, coeffs: Iterable) -> "CycloNum":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != self.degree:
            raise ValueError(f"need {self.degree} coefficients, got {len(vec)}")
        return CycloNum(self, tuple(vec))

    def from_rational(self, q) -> "CycloNum":
        vec = [Fraction(q)] + [_ZERO] * (self.degree - 1)
        return CycloNum(self, tuple(vec))

    @property
    def zero(self) -> "CycloNum":
        return self.from_rational(0)

    @property
    def one(self) -> "CycloNum":
        return self.from_rational(1)

    def zeta(self, power: int = 1) -> "CycloNum":
        """zeta_n raised to an arbitrary integer power."""
        return CycloNum(self, self._pow[power % self.n])

    def root_of_unity(self, k: int, power: int = 1) -> "CycloNum":
        """zeta_k**power; requires k | n."""
        if k <= 0 or self.n % k != 0:
            raise ValueError(f"zeta_{k} does not live in Q(zeta_{self.n})")
        return self.zeta((self.n // k) * power)

    # Familiar named roots, available when the conductor admits them.

    @property
    def omega(self) -> "CycloNum":
        return self.root_of_unity(3)

    @property
    def i(self) -> "CycloNum":
        return self.root_of_unity(4)

    def galois(self, x: "CycloNum", k: int) -> "CycloNum":
        """The automorphism zeta -> zeta^k, for gcd(k, n) = 1."""
        if gcd(k, self.n) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism mod {self.n}")
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
        acc = [_ZERO] * self.degree
        for j, c in enumerate(x.coeffs):
            if c:
                base = self._pow[(j * step) % self.n]
                for t in range(self.degree):
                    acc[t] += c * base[t]
        return CycloNum(self, tuple(acc))

    def __repr__(self) -> str:
        return f"CycloField({self.n})"


class CycloNum:
    """An element of a fixed CycloField. Immutable and hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        prod = [_ZERO] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CycloNum(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.field.n)]
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                inv += [_ZERO] * (self.field.degree - len(inv))
                return CycloNum(self.field, self.field._reduce(inv))
            q, rem = _qpoly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _qpoly_sub(s0, _poly_mul(q, s1))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if other == 1:  # 1 / x, as _echelon asks for it: no product with one
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
        return self.field.galois(self, self.field.n - 1)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def multiplicative_order(self) -> int | None:
        """Order as a root of unity, or None. Roots of unity in
        Q(zeta_n) have order dividing lcm(2, n)."""
        limit = self.field.n if self.field.n % 2 == 0 else 2 * self.field.n
        acc = self
        for k in range(1, limit + 1):
            if acc == self.field.one:
                return k
            acc = acc * self
        return None

    # -- housekeeping ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __repr__(self):
        return f"Cyclo[{self.field.n}]({self.as_poly_str()})"

    def as_poly_str(self) -> str:
        """Plain power-basis rendering, z standing for zeta_n."""
        return _join_terms(
            (c, "" if j == 0 else "z" if j == 1 else f"z^{j}") for j, c in enumerate(self.coeffs)
        )


def _qpoly_divmod(a: list[Fraction], b: list[Fraction]):
    b = list(b)
    while b and not b[-1]:
        b.pop()
    q = [_ZERO] * max(1, len(a) - len(b) + 1)
    r = list(a)
    db = len(b) - 1
    for k in range(len(r) - 1, db - 1, -1):
        if r[k]:
            f = r[k] / b[-1]
            q[k - db] = f
            for j in range(len(b)):
                r[k - db + j] -= f * b[j]
    return q, r[:db] if db else [_ZERO]


def _qpoly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_ZERO] * (n - len(a))
    b = b + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# -- subring membership -------------------------------------------------


def in_subring(x: CycloNum, ring: str) -> bool:
    """Membership in Z[omega] or Z[i], tested inside x's own field, which
    must hold the generator."""
    f = x.field
    g = f.root_of_unity({"Z[w]": 3, "Z[i]": 4}[ring])
    # solve x = a + b*g over Q, then demand integrality
    sol = _solve_span([f.one, g], x)
    if sol is None:
        return False
    a, b = sol
    return a.denominator == 1 and b.denominator == 1


# -- the value grammar --------------------------------------------------
#
# Data files and the inspection commands speak a tiny expression language:
# integers, + - * ^, parentheses, conj(...), and the symbols
#   w  = zeta_3,  i = zeta_4,  e8 = zeta_8,  e9 = zeta_9,
# plus "chi", bound by the caller. Everything a diagram needs is an
# algebraic integer, so the grammar has no division.


class GrammarError(ValueError):
    pass


def parse_value(text: str, field: CycloField, chi: CycloNum | None = None) -> CycloNum:
    return _Parser(text, field, chi).parse()


class _Parser:
    _SYMBOL_DIV = {"w": 3, "i": 4, "e8": 8, "e9": 9}

    def __init__(self, text: str, field: CycloField, chi: CycloNum | None):
        self.text = text
        self.pos = 0
        self.field = field
        self.chi = chi

    def parse(self) -> CycloNum:
        val = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise GrammarError(f"trailing input at {self.pos}: {self.text!r}")
        return val

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> CycloNum:
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            val = -self._term()
        else:
            val = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                val = val + self._term()
            elif ch == "-":
                self.pos += 1
                val = val - self._term()
            else:
                return val

    def _term(self) -> CycloNum:
        val = self._factor()
        while self._peek() == "*":
            self.pos += 1
            val = val * self._factor()
        return val

    def _factor(self) -> CycloNum:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exp = self._integer()
            return base**exp
        return base

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise GrammarError(f"expected integer at {start} in {self.text!r}")
        return int(self.text[start:self.pos])

    def _atom(self) -> CycloNum:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            val = self._expr()
            if self._peek() != ")":
                raise GrammarError(f"missing ')' in {self.text!r}")
            self.pos += 1
            return val
        if ch.isdigit():
            return self.field.from_rational(self._integer())
        if ch == "-":
            # unary minus inside a factor: -w^2 parses as -(w^2)
            self.pos += 1
            return -self._factor()
        name = self._name()
        if name == "conj":
            if self._peek() != "(":
                raise GrammarError("conj needs parentheses")
            self.pos += 1
            val = self._expr()
            if self._peek() != ")":
                raise GrammarError(f"missing ')' in {self.text!r}")
            self.pos += 1
            return val.conjugate()
        if name == "chi":
            if self.chi is None:
                raise GrammarError("no chi bound for this context")
            return self.chi
        if name in self._SYMBOL_DIV:
            return self.field.root_of_unity(self._SYMBOL_DIV[name])
        raise GrammarError(f"unknown symbol {name!r} in {self.text!r}")

    def _name(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise GrammarError(f"unexpected character at {start} in {self.text!r}")
        return self.text[start:self.pos]


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
    words = _RENDER_BASES.get(field.n)
    if words is None:
        return (), ()
    vals = []
    for word in words:
        v = field.one
        for sym in word:
            v = v * parse_value(sym, field)
        vals.append(v)
    return words, tuple(vals)


def render_value(x: CycloNum) -> str:
    """Express x in the value grammar.

    Solves for rational coordinates in a fixed symbol-product basis of the
    field, so parse_value(render_value(x)) == x exactly. Falls back to the
    raw power-basis string for conductors without a declared basis; the
    fields used by the package all have one.
    """
    words, vals = _render_basis(x.field)
    if not words:
        return x.as_poly_str()
    coords = _solve_span(vals, x)
    if coords is None or any(c.denominator != 1 for c in coords):
        return x.as_poly_str()
    return _join_terms((c, "*".join(_word_to_str(word))) for c, word in zip(coords, words))


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


# -- exact elimination ---------------------------------------------------


def _echelon(rows: list[list]) -> tuple[list[list], list[int], list, int]:
    """Gauss-Jordan reduction in place; the only field elimination in the package.

    Entries are all Fractions or all CycloNums: the routine needs only
    truth value, +, -, * and 1 / x.  Returns (rows, cols, pivots, sign):
    the reduced row echelon form, the pivot column of each leading row,
    the value each of those rows was divided by, and (-1)^(row swaps).
    Row operations of the third kind keep the determinant, so a square
    matrix with a pivot in every column has determinant sign * prod(pivots).
    """
    cols: list[int] = []
    pivots: list = []
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


def _solve(rows: list[list], zero) -> list | None:
    """One solution of the augmented system rows = [A | b], or None."""
    n = len(rows[0]) - 1
    rows, cols, _, _ = _echelon(rows)
    if n in cols:  # pivot in the augmented column: inconsistent
        return None
    x = [zero] * n
    for row, c in zip(rows, cols):
        x[c] = row[n]
    return x


def _solve_span(vals: Sequence[CycloNum], x: CycloNum) -> list[Fraction] | None:
    """Rational coordinates of x in span(vals), or None."""
    rows = [
        [v.coeffs[r] for v in vals] + [x.coeffs[r]] for r in range(x.field.degree)
    ]
    return _solve(rows, _ZERO)
