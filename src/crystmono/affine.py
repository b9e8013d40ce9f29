"""Affine action on the dual of the kernel hyperplane.

Every diagram operator fixes the quotient kernel vector, so it acts on
the hyperplane of dual vectors taking a fixed value alpha0 on the kernel
generator.  Writing the quotient basis as (kernel, e_1..e_n), each
reflection induces an affine isometry of that hyperplane; the group they
generate is tied to one of seven crystallographic models.  One invertible
X conjugates the kept linear parts, generator by generator, onto the
model's stored generators, so the linear group is the model group, which
alone is closed; the translation lattice is built by one saturation under
the kept linear parts and certified by exact integer lattice arithmetic.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import partial
from importlib import resources
from itertools import chain, permutations
from math import gcd, lcm
from operator import getitem, itemgetter, mul
from typing import NamedTuple

from .cyclo import (
    RING_GENERATORS,
    CycloField,
    CycloNum,
    cached,
    parse_value,
    render_value,
    ring_field,
    roots_of_unity,
)
from .linalg import (
    HermitianGram,
    Matrix,
    Vector,
    ZLattice,
    conj_matrix,
    conj_vector,
    dot,
    flat_action,
    flatten,
    identity,
    is_zero_vector,
    mat_inverse,
    mat_mul,
    mat_prod,
    mat_rank,
    mat_vec,
    matrix,
    transpose,
    unflatten,
    vec_add,
    vec_scale,
    vec_sub,
    vector,
)
from .monodromy import (
    CheckResult,
    Diagram,
    PLOperator,
    Quotient,
    check_braid,
    pl_operator,
    quotient_basis,
    word_matrix,
    worst_verdict,
)


class AffineError(ValueError):
    """Invalid affine construction or verification input."""


class ClosureBoundError(AffineError):
    """A group closure or a lattice saturation exceeded its bound."""


@dataclass(frozen=True)
class AffineIsometry:
    """Pair (A, t) acting as v -> A v + t; composition applies the right factor first."""

    linear: Matrix
    translation: Vector

    def __mul__(self, other: "AffineIsometry") -> "AffineIsometry":
        lin = mat_mul(self.linear, other.linear)
        tr = vec_add(mat_vec(self.linear, other.translation), self.translation)
        return AffineIsometry(lin, tr)


class DualReflection(NamedTuple):
    """A reflection's action v -> linear v + translation on the dual hyperplane."""

    reflection: PLOperator  # the linear part, with its root and coroot
    translation: Vector
    linear = property(lambda self: self.reflection.matrix)


class DualFrame:
    """Coordinates on the dual hyperplane cut out by value alpha0 on the kernel.

    The quotient basis is split as (e_0, e_1..e_n) with the kernel vector
    normalised to e_0 + a.  A dual point is stored by its n coordinates
    against e_1..e_n; its value on the kernel generator is pinned to alpha0.
    """

    def __init__(self, quotient: Quotient, alpha0: CycloNum | None = None):
        field = quotient.field
        kern = quotient.kernel
        if kern[0] != field.one:
            raise AffineError("kernel vector must be normalised with leading entry 1")
        self.field = field
        self.quotient = quotient
        self.alpha0 = field.one if alpha0 is None else alpha0
        if self.alpha0.is_zero():
            raise AffineError("alpha0 must be nonzero")
        self.n = len(kern) - 1
        if self.n < 1:
            raise AffineError("dual frame needs at least one non-kernel direction")
        self.a = tuple(kern[1:])
        # Q^T, for Q the quotient form restricted to the span of e_1..e_n
        self.dual_gram = HermitianGram(transpose([row[1:] for row in quotient.gram.gram[1:]]))

    def decompose(self, root: Vector) -> tuple[CycloNum, Vector]:
        """Split a quotient vector as u0 * kernel + (0, u)."""
        u0 = root[0]
        u = tuple(root[j + 1] - u0 * self.a[j] for j in range(self.n))
        return u0, u

    def dual_reflection(self, root: Vector, eigenvalue: CycloNum) -> DualReflection:
        """Affine action of the reflection along `root` on the dual hyperplane.

        The linear part is the reflection with root ub = conj(u), for u the
        V-component of the root, eigenvalue conj(lambda) and coroot
        (1 - conj(lambda)) Q^T u / nu, nu = u^T Q conj(u); roots
        proportional to the kernel vector have no V-component and are rejected.
        """
        u0, u = self.decompose(root)
        if is_zero_vector(u):
            raise AffineError("root lies in the kernel line")
        ub = conj_vector(u)
        w = mat_vec(self.dual_gram.gram, u)
        nu = dot(ub, w)
        if nu.is_zero():
            raise AffineError("root is isotropic on the hyperplane")
        lam = eigenvalue.conjugate()
        coef = (1 - lam) * nu.inverse()
        coroot = vec_scale(coef, w)
        tr = vec_scale(-coef * self.alpha0 * u0, ub)
        return DualReflection(PLOperator.from_factors(ub, coroot, lam), tr)


class Closure:
    """A finite matrix group over `field` as tuples of indices into O, the
    orbit of the standard basis e_1..e_n under its generators, each point
    the integer tuple (*coordinates, den) in lowest terms that
    linear_closure moved; len() is the group order.

    An element m is the tuple x with m e_i = O[x[i]], its images of the
    basis, so m is the matrix with columns O[x[0]], ..., O[x[n-1]], and
    the elements correspond one to one with those tuples.  dets holds each
    element's determinant as its exponent j in roots_of_unity, and orders
    its order as a reflection, or 0 if it is none.
    """

    __slots__ = ("field", "points", "elements", "dets", "orders")

    def __init__(self, field: CycloField, points: list, elements: list[tuple[int, ...]], dets: list[int], orders: list[int]):
        self.field = field
        self.points = points
        self.elements = elements
        self.dets = dets
        self.orders = orders

    def __len__(self) -> int:
        return len(self.elements)

    def matrix(self, images: tuple[int, ...]) -> Matrix:
        """The element with these images of the basis, as a matrix."""
        return tuple(zip(*(unflatten(self.field, self.points[j][:-1], self.points[j][-1]) for j in images)))

    def matrices(self) -> list[Matrix]:
        """Every element as a matrix, read off its images of the basis."""
        return [self.matrix(x) for x in self.elements]


def _bfs(start, moves, max_size: int) -> tuple[list, list[list[int]]]:
    """The states reached from `start` under the maps `moves`, breadth
    first, in the order found, and each move as the index of its image of
    each state.  ClosureBoundError is raised once more than
    len(start) * max_size states would be listed."""
    order = list(start)
    index = {s: i for i, s in enumerate(order)}
    images: list[list[int]] = [[] for _ in moves]
    for s in order:  # grows as new states are found
        for move, img in zip(moves, images):
            t = move(s)
            j = index.get(t)
            if j is None:
                if len(order) >= len(start) * max_size:
                    raise ClosureBoundError(f"closure exceeds {max_size} elements")
                j = index[t] = len(order)
                order.append(t)
            img.append(j)
    return order, images


def _flat_move(rows: tuple[tuple[int, tuple[int, ...]], ...], den: int, p: tuple[int, ...]) -> tuple[int, ...]:
    """The flattened point p = (*coordinates, denominator), in lowest terms,
    mapped by the matrix whose flat_action is (M, den), given as `rows`:
    the pairs (i, M_i) for the rows of M other than den * e_i.

    Each other coordinate is (den e_i) . p = den p_i, exactly, so only
    `rows` take dot products; each is one entry shorter than p, so map
    meets the coordinates alone.  The gcd divides the new denominator
    den * p[-1], so when that is 1 the point is in lowest terms as it is.
    """
    q = [den * c for c in p] if den != 1 else list(p)
    for i, row in rows:
        q[i] = sum(map(mul, row, p))
    if q[-1] == 1:
        return tuple(q)
    g = gcd(*q)
    return tuple(q) if g == 1 else tuple(c // g for c in q)


def _orbit_move(g: Matrix):
    """g's move on flattened points: _flat_move with the rows of
    flat_action(g) that differ from D e_i, where D is its denominator."""
    action, den = flat_action(g)
    rows = tuple((i, row) for i, row in enumerate(action) if row[i] != den or any(row[:i]) or any(row[i + 1 :]))
    return partial(_flat_move, rows, den)


def linear_closure(generators, max_size: int) -> Closure:
    """The finite matrix group the generators generate, identity first, by
    two breadth-first searches that build no matrix, from records with a
    matrix and a det(), as PLOperator reads it off its root and coroot.

    The first lists O, the orbit of the standard basis e_1..e_n, and each
    generator g as the permutation p of O with g O[i] = O[p[i]].  It runs
    on flattened points, each the integer coordinates of a vector and their
    denominator in lowest terms, moved by g's flat_action (M, D): integer
    dot products and one gcd, no field product.  That is exact:
    flat_action(g) is the same Q-linear map as g, and a vector has one
    flattened form in lowest terms, so two points are equal exactly when
    their vectors are; rows of M equal to D e_i, all but a reflection's
    moved field row, take no dot product (see _flat_move).
    The closure keeps the points in that form, as its O.  The second lists
    the group from the identity, each element m as its images of the
    basis x, with m e_i = O[x[i]]: g m has the images p[x[i]], read
    by one itemgetter(*x), built once per listed element, applied to each
    generator's p.  The elements reached by left multiplication with the
    generators from the identity are all of a finite group, since each
    inverse is a positive power.

    The orbit of each e_j holds at most |G| points, so |O| <= n |G|, and
    ClosureBoundError is raised once O would pass n * max_size points.
    That proves |G| > max_size, and it stops a generator of infinite
    order: a group acting faithfully on a finite set is finite, so its O
    is infinite.  The second search raises exactly when the group has more
    than `max_size` elements.

    Past the orbit the group is finite, so the determinant of an
    invertible generator is a root of unity, read once from its det(); a
    singular generator raises AffineError.  When an element is found its
    determinant, a character, is recorded as its exponent in
    roots_of_unity, its parent's plus the generator's mod their number,
    and its order as a reflection from that and its trace (_trace_keys).
    """
    gens = list(generators)
    if not gens:
        raise AffineError("no generators")
    n = len(gens[0].matrix)
    field = gens[0].matrix[0][0].field
    start = [(*flat, den) for flat, den in map(flatten, identity(field, n))]
    points, perms = _bfs(start, [_orbit_move(g.matrix) for g in gens], max_size)
    roots = roots_of_unity(field)
    dets = [roots.get(g.det()) for g in gens]  # (exponent, order) of each determinant
    if None in dets:
        raise AffineError("a generator is singular")
    m = len(roots)
    if n == 1:  # itemgetter of one index returns the item, so make each item the 1-tuple of images
        perms = [[(j,) for j in p] for p in perms]
    moves = [(p, e) for p, (e, _) in zip(perms, dets)]
    cols, keys, orders_by_exponent = _trace_keys(field, points, n)
    group = Closure(field, points, [tuple(range(n))], [0], [0])
    elements, exponents, orders = group.elements, group.dets, group.orders

    seen = set(elements)
    for x, d in zip(elements, exponents):  # both grow as new elements are found
        images = itemgetter(*x)
        for p, e in moves:
            y = images(p)
            if y not in seen:
                if len(elements) >= max_size:
                    raise ClosureBoundError(f"closure exceeds {max_size} elements")
                seen.add(y)
                elements.append(y)
                c = (d + e) % m
                exponents.append(c)
                reflection = c and sum(map(getitem, cols, y)) == keys[c]
                if reflection and n > 3:  # confirmed by the rank of m - I
                    reflection = mat_rank(tuple(map(vec_sub, group.matrix(y), identity(field, n)))) == 1
                orders.append(orders_by_exponent[c] if reflection else 0)
    return group


def _trace_keys(field: CycloField, points: list[tuple[int, ...]], n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """linear_closure's test for an element's order as a reflection, or 0, by trace and determinant:
    per coordinate i the points' packed entries i, and per exponent d the packed
    (n - 1) + zeta^d and the order of zeta^d.

    m has finite order, so it is diagonalisable with eigenvalues eps_1..eps_n that are roots of
    unity, and m is a reflection of order k exactly when those are n - 1 ones and one lambda of
    order k > 1.  Then lambda is tr m - (n - 1) and det m.  Conversely, let det m = zeta^d with
    d != 0 and tr m - (n - 1) = zeta^d, so lambda = tr m - (n - 1) has order k > 1 and
    det m = lambda.  Since 1/eps = conj(eps), the elementary symmetric functions of the
    eigenvalues satisfy e_{n-j} = e_n conj(e_j), so for n <= 3 the coefficients e_1 = tr m and
    e_n = det m fix the characteristic polynomial (e_2 = e_3 conj(e_1) when n = 3), which is then
    that of diag(1, ..., 1, lambda): m is a reflection of order k.  For n >= 4 those two do not
    fix e_2, and the elements that pass are confirmed by the rank of m - I, one.

    So an element whose determinant exponent d is 0 is skipped, and any other is a candidate exactly
    when its trace is (n - 1) + zeta^d.  Each point of O is read straight off its flattened form:
    coordinate i is the block p[i r:(i + 1) r] of numerators c_0..c_{r-1} over p's denominator, for
    the degree r.  Scaled to the common denominator den of O, it is packed into the one integer sum
    c_k B^k, the numerator polynomial evaluated at B (Kronecker substitution), by Horner's rule on
    whole columns of points.  The trace of x is then sum(map(getitem, cols, x)), the packed
    diagonal entries O[x[i]][i] added, and is compared with (n - 1) + zeta^d scaled and packed the
    same way.  No field element is built.

    The packing is exact.  Let A bound |c| over every scaled numerator of O and every numerator of a
    root of unity (each is integral) times den; the identity's points give A >= den.  A trace
    numerator is a sum of n of them, so it is at most n A in absolute value, and a target numerator
    is at most A + (n - 1) den <= n A.  With B = 2 n A + 1 every packed digit lies strictly between
    -B/2 and B/2, where the base-B expansion with such digits is unique, so two packed integers are
    equal exactly when their numerators are.
    """
    r = field.degree
    roots = sorted(roots_of_unity(field).items(), key=lambda item: item[1])  # by exponent
    den = lcm(*(p[-1] for p in points))
    coords = list(zip(*(p[:-1] if p[-1] == den else [c * (den // p[-1]) for c in p[:-1]] for p in points)))  # scaled
    bound = max(max(map(abs, chain.from_iterable(coords))), den * max(max(map(abs, z.num)) for z, _ in roots))
    powers = [(2 * n * bound + 1) ** k for k in range(r)]
    cols = []
    for i in range(n):
        packed = coords[(i + 1) * r - 1]
        for c in reversed(coords[i * r : (i + 1) * r - 1]):  # Horner's rule for sum c_k B^k
            packed = [a * powers[1] + b for a, b in zip(packed, c)]
        cols.append(packed)
    keys = [(sum(map(mul, z.num, powers)) + n - 1) * den for z, _ in roots]  # (n - 1) + zeta^d, by exponent d
    return cols, keys, [k for _, (_, k) in roots]


def reflection_order_multiset(group: Closure) -> dict[int, int]:
    """Orders of all reflections in the group, with multiplicities, in the
    order the closure lists them, as linear_closure found them."""
    return dict(Counter(k for k in group.orders if k))


class ReferenceGroup(NamedTuple):
    name: str
    ring: str
    field: CycloField
    rank: int
    generators: tuple[PLOperator, ...]
    declared_order: int
    declared_reflections: dict[int, int]
    lattice_rule: dict
    provenance: str


@cached
def _raw_groups() -> dict:
    text = resources.files(__package__).joinpath("data/reference_groups.json").read_text()
    return {g["name"]: g for g in json.loads(text)["groups"]}


def reference_names() -> tuple[str, ...]:
    return tuple(_raw_groups())


# the lattice_rule kinds verify_crystallographic knows; root_orbit adds no claim of its own
_LATTICE_RULES = ("ring", "order2_root_orbit", "root_orbit")


@cached
def reference_group(name: str) -> ReferenceGroup:
    """Load a crystallographic linear-part model and build its reflections."""
    raw = _raw_groups().get(name)
    if raw is None:
        raise AffineError(f"unknown reference group: {name}")
    field = ring_field(raw["ring"])
    if field is None:
        raise AffineError(f"{name}: unknown ring {raw['ring']!r}")
    rule = raw["lattice_rule"]
    if rule["kind"] not in _LATTICE_RULES:
        raise AffineError(f"{name}: unknown lattice rule {rule['kind']!r}")
    if rule["kind"] == "ring" and rule["ring"] not in RING_GENERATORS:
        raise AffineError(f"{name}: unknown lattice ring {rule['ring']!r}")
    form = HermitianGram(matrix(field, raw["form"]))
    gens = tuple(
        pl_operator(form, vector(field, g["root"]), parse_value(g["eigenvalue"], field))
        for g in raw["generators"]
    )
    for g in gens:
        if not form.is_preserved_by(g):
            raise AffineError(f"{name}: generator does not preserve the form")
    for a, b, length in raw["braids"]:
        if not check_braid(gens[a].matrix, gens[b].matrix, length):
            raise AffineError(
                f"{name}: declared braid {length} is not the least that holds between generators {a},{b}"
            )
    return ReferenceGroup(
        name=name,
        ring=raw["ring"],
        field=field,
        rank=raw["rank"],
        generators=gens,
        declared_order=raw["order"],
        declared_reflections={int(k): v for k, v in raw["reflection_orders"].items()},
        lattice_rule=rule,
        provenance=raw["provenance"],
    )


@cached
def model_closure(name: str) -> tuple[Closure, dict[int, int]]:
    """The closure of a model's stored generators and its reflection-order
    multiset, held to the model's data.

    Only the models are closed, each once, bounded by its declared order.
    AffineError is raised unless the closure has exactly that order and
    the declared reflection counts.
    """
    ref = reference_group(name)
    try:
        group = linear_closure(ref.generators, ref.declared_order)
    except ClosureBoundError:
        raise ClosureBoundError(f"{name}: closure exceeds declared order {ref.declared_order}") from None
    if len(group) != ref.declared_order:
        raise AffineError(f"{name}: closure order {len(group)} contradicts declared {ref.declared_order}")
    multiset = reflection_order_multiset(group)
    if multiset != ref.declared_reflections:
        raise AffineError(f"{name}: reflection orders {multiset} contradict declared {ref.declared_reflections}")
    return group, multiset


def reference_closure(name: str) -> list[Matrix]:
    """The model's elements as matrices, in the closure's order."""
    return model_closure(name)[0].matrices()


def saturate(lattice: ZLattice, mats, max_rounds: int) -> tuple[ZLattice, int]:
    """The smallest lattice containing `lattice` and carried into itself by
    every matrix in `mats`, and the rounds it took.

    Each round adds the images of the current HNF basis, taken on its
    integer rows by ZLattice.with_images, and the first round that adds
    nothing ends it.  When `mats` generate a finite group G,
    every element is a word of at most |G| - 1 letters, so the result is
    the Z-span of the G-orbit of `lattice`, reached within |G| rounds.
    Callers pass the order of a group the conjugacy certificate has
    identified; past `max_rounds` rounds ClosureBoundError is raised as a
    guard.
    """
    for rounds in range(1, max_rounds + 1):
        grown = lattice.with_images(mats)
        if grown == lattice:
            return lattice, rounds
        lattice = grown
    raise ClosureBoundError(f"lattice saturation exceeds {max_rounds} rounds")


class TranslationReport(NamedTuple):
    invariance: bool
    verdict: str
    states: int
    witness: str


def translation_subgroup(gens, kept, orbit: tuple[ZLattice, int], escaped: int) -> TranslationReport:
    """Decide whether the orbit lattice Lambda holds every translation of
    the affine group G = <gens>, and whether it is their group T.

    Precondition: `orbit` is Lambda with its rounds, as `saturate` built it
    from one shift t0 of a generator under the linear parts of gens[k] for
    k in `kept`, whose translation is zero.  Those generate a finite group L,
    so every (m, 0) with m in L lies in G, and `escaped` generators have a
    linear part outside L.  T is the kernel of the linear-part map of G, so
    the (m, 0) are a transversal of T exactly when nothing escaped.  Then
    Schreier's lemma (Seress, Permutation Group Algorithms, 2003, 4.2;
    Holt-Eick-O'Brien, Handbook of Computational Group Theory, 2005, 2.4)
    makes T the span of the translations (m, 0) * s * (m A, 0)^-1 = (1, m t)
    for m in L and generators s = (A, t): the span of the L-orbits of the
    shifts t.  Every m t0 is one of them, so T contains Lambda, and L
    carries Lambda into itself, so T lies in Lambda exactly when every
    shift does.  Each element of G is (m, s) with s in T, so G's
    translations lie in Lambda exactly when T = Lambda, exactly when every
    shift lies in Lambda: one membership test per shift decides both.

    invariance: each generator's linear part maps Lambda onto itself.  Only
    the others are imaged: a kept m, of finite order k, has Lambda = m^k Lambda in m Lambda in Lambda.
    verdict: nothing escaped and every shift lies in Lambda.
    states: Lambda's saturation rounds.
    """
    gens = list(gens)
    if not gens:
        raise AffineError("no generators")
    lattice, rounds = orbit
    invariance = all(lattice.transformed(g.linear) == lattice for k, g in enumerate(gens) if k not in kept)
    if escaped:
        witness = f"linear part outside the group for {escaped} of {len(gens)} generators"
        return TranslationReport(invariance, "fail", rounds, witness)
    shifts = [g.translation for g in gens if not is_zero_vector(g.translation)]
    inside = sum(lattice.member(t) for t in shifts)
    witness = f"{inside} of {len(shifts)} shifts in the orbit lattice, saturated in {rounds} rounds"
    return TranslationReport(invariance, "pass" if inside == len(shifts) else "fail", rounds, witness)


class Conjugacy(NamedTuple):
    """X g_i X^-1 = targets[pi[i]], or pi and x None; `tries` counts Cartan-matched bijections."""

    pi: tuple[int, ...] | None
    x: Matrix | None
    tries: int


@cached
def _cartan(reflections: tuple[PLOperator, ...]) -> tuple[Matrix, Matrix, Matrix, Matrix] | None:
    """(U, U^-1, A, F) for reflections g_i = I - u_i w_i^T, roots u_i and nonzero
    coroots w_i (else I - g_i has no rank one), when the roots form a basis, else
    None: U has columns u_i, A_ij = w_i^T u_j, and F holds A_ii and A_ij A_ji."""
    if len(reflections) != len(reflections[0].root) or any(is_zero_vector(g.coroot) for g in reflections):
        return None
    u = transpose([g.root for g in reflections])
    try:
        u_inv = mat_inverse(u)
    except ValueError:  # the roots are dependent
        return None
    a = mat_mul([g.coroot for g in reflections], u)
    return u, u_inv, a, tuple(tuple(x * a[j][i] if i != j else x for j, x in enumerate(row)) for i, row in enumerate(a))


def _rescaling(a: Matrix, b: Matrix) -> list[CycloNum] | None:
    """Nonzero mu with a_ij = (mu_j / mu_i) b_ij for all i, j, or None: mu is 1
    where no a_ij b_ij != 0 from a reached i fixes it, then all are checked;
    exact when b is zero where its transpose is, as for every model."""
    mu: list[CycloNum | None] = [None] * len(a)
    for start in range(len(a)):
        if mu[start] is None:
            mu[start] = a[0][0].field.one
            part = [start]
            for i in part:  # grows as the part is reached
                for j, aij in enumerate(a[i]):
                    if aij and b[i][j] and mu[j] is None:
                        mu[j] = mu[i] * aij / b[i][j]
                        part.append(j)
    consistent = all(aij * mu[i] == mu[j] * b[i][j] for i, row in enumerate(a) for j, aij in enumerate(row))
    return mu if consistent else None


@cached
def find_conjugacy(gens: tuple[PLOperator, ...], targets: tuple[PLOperator, ...]) -> Conjugacy:
    """X with X g_i X^-1 = targets[pi(i)] for all i, at the first bijection pi,
    in lexicographic order, matching A_ii and A_ij A_ji (the traces and pairwise
    traces) that has one, if as many g_i as targets; memoised on the records' values.  For g_i = I - u_i w_i^T and
    t_j = I - u'_j w'_j^T with the u'_j a basis (else AffineError), X u_i = mu_i u'_pi(i)
    and w'_pi(i)^T X = mu_i w_i^T, so X exists exactly when the u_i form a basis
    and A_ij = (mu_j / mu_i) A'_pi(i)pi(j) (Cohen, Ann. Sci. ENS 9, 1976):
    X = U'_pi diag(mu) U^-1, scaled to a last nonzero entry 1, then by the lcm of its denominators,
    which removes the scalar that rescaled roots (and coroots inversely) give X where A's graph is connected."""
    model, frame = _cartan(targets), _cartan(gens)
    if model is None:
        raise AffineError("the targets are not reflections whose roots form a basis")
    if frame is None or len(gens) != len(targets):  # _cartan ties each count to its dimension
        return Conjugacy(None, None, 0)
    (roots, _, target, target_filter), (_, u_inv, a, filter_) = model, frame
    tries = 0
    for pi in permutations(range(len(a))):
        if any(filter_[i][j] != target_filter[p][q] for i, p in enumerate(pi) for j, q in enumerate(pi) if i <= j):
            continue
        tries += 1
        mu = _rescaling(a, [[target[p][q] for q in pi] for p in pi])
        if mu is not None:
            x = mat_mul([[m * row[p] for m, p in zip(mu, pi)] for row in roots], u_inv)  # U'_pi diag(mu) U^-1
            last = next(v for v in reversed([v for row in x for v in row]) if v)
            x = [vec_scale(last.inverse(), row) for row in x]
            c = lcm(*(v.den for row in x for v in row))
            return Conjugacy(pi, tuple(vec_scale(c, row) for row in x), tries)
    return Conjugacy(None, None, tries)


def _in_field(m: Matrix, field: CycloField) -> Matrix:
    """m with its entries embedded into `field`."""
    src = m[0][0].field
    return m if src is field else tuple(tuple(src.embed(x, field) for x in row) for row in m)


@cached
def _model_targets(name: str, field: CycloField, conj: bool) -> tuple[PLOperator, ...]:
    """The model's stored generators, entrywise conjugated when `conj`, embedded into `field`."""
    rows = ((*g.matrix, g.root, g.coroot, (g.eigenvalue,)) for g in reference_group(name).generators)
    rows = (_in_field(conj_matrix(r) if conj else r, field) for r in rows)
    return tuple(PLOperator(tuple(m), lam, root, coroot) for *m, root, coroot, (lam,) in rows)


@cached
def _model_members(name: str, field: CycloField) -> tuple[dict[tuple[int, ...], int], frozenset[tuple[int, ...]]]:
    """The index of the model's basis orbit, flattened over `field` (over a
    larger one each point is unflattened, embedded and flattened again),
    and the set of its elements' images of the basis."""
    group = model_closure(name)[0]
    points = group.points
    if field is not group.field:
        vectors = _in_field([unflatten(group.field, p[:-1], p[-1]) for p in points], field)
        points = [(*flat, den) for flat, den in map(flatten, vectors)]
    return {p: k for k, p in enumerate(points)}, frozenset(group.elements)


def _model_contains(name: str, m: Matrix) -> bool:
    """m lies in the model's group exactly when every column of m is a
    point of the basis orbit and their indices are an element's images of
    the basis: an element is fixed by those images.  flatten gives a column
    its least positive denominator, as _flat_move gives each point."""
    index, images = _model_members(name, m[0][0].field)
    return tuple(index.get((*flat, den)) for flat, den in map(flatten, zip(*m))) in images


def _render_matrix(m: Matrix) -> str:
    return "[" + ", ".join("[" + ", ".join(render_value(x) for x in row) + "]" for row in m) + "]"


class MaximalRootReport(NamedTuple):
    holds: bool
    word: str


def maximal_root_check(d: Diagram, frame: DualFrame | None = None, duals=None) -> MaximalRootReport:
    """Check the diagram's maximal-root identity, which writes a as a unit
    times a word applied to a basis root; the witness names cycles by position.

    The letters are reflections on the non-kernel directions with the
    restricted form, one per cycle, with that cycle's eigenvalue: the
    entrywise conjugates of the linear parts of the frame's dual
    reflections, `duals` when the caller has built them.
    Conjugating the whole dataset conjugates both sides, so the same word
    and the conjugated unit witness the identity for the other character.
    """
    if d.maximal_root is None:
        raise AffineError(f"no maximal-root identity declared for {d.name}")
    word, leaf, unit_text = d.maximal_root
    frame = frame or DualFrame(quotient_basis(d))
    unit = parse_value(unit_text, frame.field)
    if d.chi_label == "conj":
        unit = unit.conjugate()

    q, pos = frame.quotient, d.cycle_index
    duals = duals or [frame.dual_reflection(r, lam) for r, lam in zip(q.roots, q.eigenvalues)]
    letters = {c: conj_matrix(g.linear) for c, g in zip(q.labels, duals) if c in word}
    _, v = frame.decompose(q.roots[pos(leaf)])
    v = vec_scale(unit, mat_vec(word_matrix(word, letters), v))
    word_text = "".join(f"A{pos(c)}" for c in word) + f"*e{pos(leaf)}" + (f" times {unit_text}" if unit_text != "1" else "")
    return MaximalRootReport(v == frame.a, word_text)


class CaseReport(NamedTuple):
    diagram: str
    chi: str
    group: str
    alpha0: str
    checks: tuple[CheckResult, ...]
    lattice: ZLattice | None
    conjugacy: Conjugacy

    @property
    def verdict(self) -> str:
        return worst_verdict(c.verdict for c in self.checks)


def lifted_quotient(q: Quotient, target: CycloField) -> Quotient:
    """The quotient with its gram, roots, eigenvalues and kernel embedded
    into a larger cyclotomic field by _in_field."""
    gram, roots = _in_field(q.gram.gram, target), _in_field(q.roots, target)
    eigenvalues, kernel = _in_field((q.eigenvalues, q.kernel), target)
    return q._replace(field=target, gram=HermitianGram(gram), roots=roots, eigenvalues=eigenvalues, kernel=kernel)


def _kept_indices(d: Diagram, q: Quotient) -> list[int]:
    """The first tau cycles but the omitted one: a relation's trailing cycle is the tau-th."""
    return [j for j in range(d.tau) if j != q.omitted_index]


def verify_crystallographic(d: Diagram, alpha0: CycloNum | None = None) -> CaseReport:
    """Run every check tying the diagram's dual action to its crystallographic model.

    Only the model's group R is closed, by model_closure, which bounds it
    by R's declared order and raises AffineError unless the order and the
    reflection counts are the declared ones.  The diagram's linear group is
    tied to R by find_conjugacy, which proves its order |R|, and each
    omitted linear part is looked up in R once.  Then one saturation, of
    the omitted translation t0 under the kept linear parts within |R|
    rounds, builds the orbit lattice, and translation_subgroup decides both
    translation claims by testing each shift for membership in it.
    Without a conjugacy the group claims fail, and the membership and
    lattice claims are inconclusive with nothing saturated.  An alpha0 from
    a larger field than the diagram's lifts the run into it.
    """
    if d.expected_group is None:
        raise AffineError(f"{d.name} declares no crystallographic model")
    if d.tau < 2:
        raise AffineError("dual verification needs at least two kernel cycles")
    q = quotient_basis(d)
    lifted = alpha0 is not None and alpha0.field is not q.field
    if lifted:
        q = lifted_quotient(q, alpha0.field)
    field = q.field
    frame = DualFrame(q, alpha0)
    duals = [frame.dual_reflection(r, lam) for r, lam in zip(q.roots, q.eigenvalues)]
    kept = _kept_indices(d, q)
    for j in kept:
        if not is_zero_vector(duals[j].translation):
            raise AffineError(f"{d.name}: kept reflection {q.labels[j]} is not linear")

    ref = reference_group(d.expected_group)
    checks: list[CheckResult] = []

    bad = [q.labels[j] for j, g in enumerate(duals) if not frame.dual_gram.is_preserved_by(g.reflection)]
    checks.append(
        CheckResult(
            "dual_form",
            "every dual reflection preserves the conjugate form on the hyperplane",
            "fail" if bad else "pass",
            f"violated by {', '.join(bad)}" if bad else f"{len(duals)} reflections checked",
        )
    )

    ref_multiset = model_closure(d.expected_group)[1]

    # the dual reflections carry conj(lambda), so for the primary character
    # the kept linear parts match the model's generators entrywise conjugated
    conj = d.chi_label == "primary"
    model = f"{'the conjugates of ' if conj else ''}the stored generators of {d.expected_group}"
    if field.n % ref.field.n:  # the model's generators do not embed, so no X can exist
        cert = Conjugacy(None, None, 0)
        witness = f"the model's ring {ref.ring} does not embed in Q(zeta_{field.n}), where the diagram's ring {d.ring} is verified"
    else:
        targets = _model_targets(d.expected_group, field, conj)
        cert = find_conjugacy(tuple(duals[j].reflection for j in kept), targets)
        if cert.x is not None:
            pairs = ", ".join(f"{q.labels[j]}->{p}" for j, p in zip(kept, cert.pi))
            witness = f"pi: {pairs}; X = {_render_matrix(cert.x)}; bijections solved: {cert.tries}"
        else:
            witness = f"no invertible X for the {cert.tries} trace-matched bijections"
    checks.append(
        CheckResult(
            "linear_order",
            f"one invertible X conjugates the kept linear parts, one by one, onto {model}, "
            f"so they generate a group of order {ref.declared_order}",
            "pass" if cert.x is not None else "fail",
            witness,
        )
    )

    checks.append(
        CheckResult(
            "reflection_multiset",
            f"that X carries the linear group onto {d.expected_group}, "
            f"so its reflection orders with multiplicity are {ref_multiset}",
            "pass" if cert.x is not None else "fail",
            f"model side {ref_multiset}" if cert.x is not None else "no conjugacy to carry them",
        )
    )

    rule = ref.lattice_rule
    claims = {
        "omitted_in_closure": "linear parts of the omitted reflections already lie in the linear group",
        "lattice_rank": f"the orbit lattice of the omitted translation has full rank {2 * frame.n}",
        "lattice_invariant": "the lattice is carried onto itself by every generator's linear part",
        "translations_contained": "every translation arising in the affine group lies in the lattice",
        "translations_generate": "the translation subgroup, generated by its Schreier translations, is the whole lattice",
    }
    if rule["kind"] == "ring":
        claims["ring_lattice"] = f"the lattice equals the {rule['ring']}-multiples of the omitted translation"
    # without X no group order bounds a search, so none is run
    results = {c: ("inconclusive", "no conjugacy to test membership or bound the lattices") for c in claims}
    lattice = None
    t0 = duals[q.omitted_index].translation
    if cert.x is not None:
        x, x_inv = cert.x, mat_inverse(cert.x)

        def in_model(m: Matrix) -> bool:
            y = mat_prod([x, m, x_inv])
            return _model_contains(d.expected_group, conj_matrix(y) if conj else y)

        # kept generators are members by construction; each omitted one is tested once
        outside = [q.labels[j] for j in range(len(duals)) if j not in kept and not in_model(duals[j].linear)]
        results["omitted_in_closure"] = (
            ("fail", f"outside: {', '.join(outside)}") if outside else ("pass", "all omitted linear parts found")
        )
        # <kept> = X^-1 R X has the model's order, so the saturation ends within it
        lattice, rounds = saturate(ZLattice(field, frame.n, [t0]), [duals[j].linear for j in kept], ref.declared_order)
        full = lattice.rank == 2 * frame.n
        results["lattice_rank"] = ("pass" if full else "fail", f"rank {lattice.rank}")
        trep = translation_subgroup(duals, kept, (lattice, rounds), len(outside))
        results["lattice_invariant"] = ("pass" if trep.invariance else "fail", "all generators checked")
        results["translations_contained"] = results["translations_generate"] = (trep.verdict, trep.witness)
        if rule["kind"] == "ring":
            unit = parse_value(RING_GENERATORS[rule["ring"]], field)
            ring_lat = ZLattice(field, frame.n, [t0, vec_scale(unit, t0)])
            verdict = "pass" if lattice == ring_lat else "fail"
            results["ring_lattice"] = (verdict, "rank-1 ring lattice compared exactly")
    checks += [CheckResult(c, claim, *results[c]) for c, claim in claims.items()]

    if rule["kind"] == "order2_root_orbit":
        omitted_order = duals[q.omitted_index].reflection.order()
        ok = omitted_order == 2 and d.cycles[q.omitted_index].order == 2
        checks.append(
            CheckResult(
                "order2_omitted",
                "the omitted reflection generating the lattice orbit has order 2",
                "pass" if ok else "fail",
                f"linear order {omitted_order}, declared order {d.cycles[q.omitted_index].order}",
            )
        )

    if d.maximal_root is not None and not lifted:
        mr = maximal_root_check(d, frame, duals)
        checks.append(
            CheckResult(
                "maximal_root",
                "the declared word identity reproduces the kernel correction vector",
                "pass" if mr.holds else "fail",
                mr.word,
            )
        )

    return CaseReport(
        diagram=d.name,
        chi=d.chi_label,
        group=d.expected_group,
        alpha0=render_value(frame.alpha0),
        checks=tuple(checks),
        lattice=lattice,
        conjugacy=cert,
    )


class DilationReport(NamedTuple):
    diagram: str
    chi: str
    verdicts_match: bool
    lattice_scaled: bool
    base: CaseReport
    dilated: CaseReport


def dilation_check(d: Diagram) -> DilationReport:
    """Re-run the verification with the kernel value dilated by 1 - w.

    The dilation factor lives outside the Gaussian integers, so diagrams
    over Z[i] are embedded into the conductor-12 field first; the base run
    is repeated there to compare like with like.
    """
    work = d.field if d.field.n % 3 == 0 else CycloField(12)
    base = verify_crystallographic(d, work.one)
    factor = work.one - work.omega
    dilated = verify_crystallographic(d, factor)
    match = tuple((c.claim_id, c.verdict) for c in base.checks) == tuple(
        (c.claim_id, c.verdict) for c in dilated.checks
    )
    scaled = None not in (base.lattice, dilated.lattice) and dilated.lattice == base.lattice.scaled(factor)
    return DilationReport(d.name, d.chi_label, match, scaled, base, dilated)
