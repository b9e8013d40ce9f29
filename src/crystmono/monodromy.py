"""Vanishing-cycle diagrams and their Picard-Lefschetz operators.

Each diagram bundles the hermitian pairing data of a distinguished set of
cycles together with the reflection eigenvalue attached to every cycle;
the gram is the only record of the pairings.  Every Diagram is made by
assemble_diagram, which checks the structure all diagrams share; the
datasets and ``show`` payloads (cli.diagram_from_payload) build through
it.  Loading a dataset diagram also checks its eigenvalues and edge
values and reconciles edges stating several candidate values against
hard constraints (hermitian, negative semi-definite, corank-1 quotient
with the stated kernel vector); the result is cached, so the same name
always yields the identical object.

Operators act on column vectors in the basis of the first tau cycles;
when a linear relation is declared, the trailing cycle is rewritten in
terms of that basis.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from math import lcm
from typing import NamedTuple

from .cyclo import CycloField, CycloNum, cached, in_subring, parse_value, ring_field
from .linalg import (
    HermitianGram,
    Matrix,
    Vector,
    conj_vector,
    identity,
    identity_minus_outer,
    is_reflection,
    is_zero_vector,
    mat_mul,
    mat_prod,
    mat_vec,
    reflection_order,
    vec_scale,
    vector,
)


class DiagramError(ValueError):
    """Structural problem with diagram data or an invalid operation."""


class ReconcileError(DiagramError):
    """No admissible value assignment; message names the violated constraint."""


class OrderBoundError(DiagramError):
    """Matrix power walk exceeded the allowed order bound."""


# labels of the two members of a kernel character pair: the stated one and its conjugate
CHARACTERS = ("primary", "conj")

# orders of the kernel characters that split the kernel into a conjugate eigenspace pair
SPLITTING_ORDERS = (3, 4, 6)

# braid word lengths: 2 commute, 3 aba=bab, 4 abab=baba, 6 (ab)^3=(ba)^3
_BRAID_LENGTHS = (2, 3, 4, 6)


class Cycle(NamedTuple):
    id: str
    order: int
    eigenvalue: CycloNum


class Edge(NamedTuple):
    src: str
    dst: str
    braid: int | None


class PLOperator(NamedTuple):
    """A complex reflection together with the eigenvalue that built it."""

    matrix: Matrix
    eigenvalue: CycloNum


class CheckResult(NamedTuple):
    """One verified claim: a stable id, the claim in plain words, and the outcome."""

    claim_id: str
    claim: str
    verdict: str  # pass | fail | inconclusive
    witness: str


def worst_verdict(verdicts) -> str:
    """Fold verdicts: any fail beats any inconclusive, which beats pass."""
    out = "pass"
    for v in verdicts:
        if v == "fail":
            return "fail"
        if v == "inconclusive":
            out = "inconclusive"
    return out


@dataclass(frozen=True, eq=False)
class Diagram:
    """A reconciled cycle diagram bound to one of its two kernel characters.

    Equality and hashing are by identity: `diagram` returns one object per
    name and character.
    """

    name: str
    ring: str
    field: CycloField
    chi_label: str
    chi: CycloNum
    kernel_chi_pair: tuple[CycloNum, CycloNum]
    cycles: tuple[Cycle, ...]
    edges: tuple[Edge, ...]
    gram: HermitianGram
    relation: Vector | None
    kernel_vector: Vector
    omitted_root: str
    expected_group: str | None
    tau: int
    classical_order: int
    resolved_choices: dict[str, str]
    rejected_choices: tuple[tuple[dict[str, str], str], ...]

    def cycle_index(self, cycle_id: str) -> int:
        for k, c in enumerate(self.cycles):
            if c.id == cycle_id:
                return k
        raise DiagramError(f"{self.name}: no cycle named {cycle_id!r}")

    def __repr__(self) -> str:
        return f"Diagram({self.name!r}, chi={self.chi_label})"


@cached
def _raw_diagrams() -> dict:
    text = resources.files(__package__).joinpath("data/diagrams.json").read_text()
    return {d["name"]: d for d in json.loads(text)["diagrams"]}


def diagram_names() -> tuple[str, ...]:
    return tuple(_raw_diagrams())


def character_index(label: str) -> int:
    """The position of a kernel character label in CHARACTERS; DiagramError for any other label."""
    if label not in CHARACTERS:
        raise DiagramError(f"kernel character must be 'primary' or 'conj', got {label!r}")
    return CHARACTERS.index(label)


def diagram_field(name: str, ring: str) -> CycloField:
    """The field of a diagram over `ring`; DiagramError for an unknown ring."""
    field = ring_field(ring)
    if field is None:
        raise DiagramError(f"{name}: unknown ring {ring!r}")
    return field


def diagram(name: str, chi: str = "primary") -> Diagram:
    """Load, reconcile and cache one diagram for the chosen kernel character."""
    return _diagram(name, chi)


@cached
def _diagram(name: str, chi: str) -> Diagram:
    raw = _raw_diagrams().get(name)
    if raw is None:
        raise DiagramError(f"unknown diagram: {name}")
    return _build(raw, chi)


def _build(raw: dict, chi_label: str) -> Diagram:
    """Parse one dataset entry, run the checks only datasets need, and
    reconcile the edges that state several candidate values.

    Each cycle's ``self`` is its gram diagonal entry; an edge's ``value``
    is one value or the ordered list of its candidates.  The structure is
    checked first, on the first candidate's gram, as the candidates differ
    only in mirrored entry values.  Then each assignment, in declared
    order (edge by edge, lists left to right), is judged by _check_gram on
    its form alone.  The first that breaks no constraint is the one
    Diagram assembled, with its choices; rejected assignments are kept
    with the name of the first constraint they broke, so ambiguous choices
    stay auditable.
    """
    name, ring = raw["name"], raw["ring"]
    conj = character_index(chi_label)
    field = diagram_field(name, ring)
    chi_pair = tuple(parse_value(s, field) for s in raw["kernel_chi"])
    chi = chi_pair[conj]

    cycles = tuple(Cycle(c["id"], c["order"], parse_value(c["lambda"], field, chi=chi)) for c in raw["cycles"])
    for c in cycles:
        if c.eigenvalue.multiplicative_order() != c.order:
            raise ReconcileError(f"{name}: eigenvalue_order violated for cycle {c.id}")
        if c.eigenvalue == field.one:
            raise ReconcileError(f"{name}: cycle {c.id} has eigenvalue 1")
    diagonal = [field.from_rational(c["self"]) for c in raw["cycles"]]

    # conjugate dataset: conjugate every stated value, keep the structure
    def val(text: str) -> CycloNum:
        v = parse_value(text, field, chi=chi)
        return v.conjugate() if conj else v

    edges, candidates = [], []
    for e in raw["edges"]:
        texts = (e["value"],) if isinstance(e["value"], str) else tuple(e["value"])
        vals = tuple(val(s) for s in texts)
        if not vals:
            raise DiagramError(f"{name}: edge {e['from']}->{e['to']} states no value")
        if len({v * v.conjugate() for v in vals}) != 1:
            raise ReconcileError(f"{name}: magnitude violated on edge {e['from']}->{e['to']}")
        if not all(in_subring(v, ring) for v in vals):
            raise ReconcileError(f"{name}: ring violated on edge {e['from']}->{e['to']}")
        edges.append(Edge(e["from"], e["to"], e["braid"]))
        candidates.append(tuple(zip(texts, vals)))

    relation_raw = raw.get("relation")
    fields = dict(
        name=name, ring=ring, chi_label=chi_label, kernel_chi_pair=chi_pair, cycles=cycles, edges=tuple(edges),
        relation=vector(field, [val(s) for s in relation_raw]) if relation_raw else None,
        kernel_vector=vector(field, [val(s) for s in raw["kernel_vector"]]), omitted_root=raw["omitted_root"],
        tau=raw["tau"], classical_order=raw["classical_order"],
    )
    index = {c.id: k for k, c in enumerate(cycles)}

    def gram(picks) -> Matrix:
        entries = [[x if r == s else field.zero for s in range(len(cycles))] for r, x in enumerate(diagonal)]
        for e, (_, v) in zip(edges, picks):
            if e.src in index and e.dst in index:  # _checked_form names a missing endpoint
                entries[index[e.src]][index[e.dst]] = v
                entries[index[e.dst]][index[e.src]] = v.conjugate()
        return tuple(map(tuple, entries))

    assignments = list(itertools.product(*candidates))
    # the structure first, so that its faults are named before any form is judged
    forms = [_checked_form(**fields, gram=gram(assignments[0]))]
    forms += [HermitianGram(gram(picks)) for picks in assignments[1:]]
    rejected: list[tuple[dict[str, str], str]] = []
    winner = None
    for picks, form in zip(assignments, forms):
        failed = _check_gram(form, fields["tau"], fields["kernel_vector"], fields["relation"])
        if failed is not None:
            label = {f"{e.src}->{e.dst}": text for e, (text, _) in zip(edges, picks)}
            rejected.append((label, failed))
        elif winner is None:
            winner, chosen = form, picks
    if winner is None:
        detail = "; ".join(f"{lab}: {why}" for lab, why in rejected)
        raise ReconcileError(f"{name}: no admissible assignment ({detail})")

    choices = {
        f"{e.src}->{e.dst}": text for e, (text, _), cands in zip(edges, chosen, candidates) if len(cands) > 1
    }
    return assemble_diagram(
        **fields, gram=winner.gram, expected_group=raw.get("expected_group"),
        resolved_choices=choices, rejected_choices=tuple(rejected),
    )


def _checked_form(
    *, name, ring, chi_label, kernel_chi_pair, cycles, edges, gram: Matrix, relation, kernel_vector,
    omitted_root, tau, classical_order,
) -> HermitianGram:
    """The form of `gram`, once the structure every diagram has is checked.

    The gram's entries, beyond integral self-pairings, and the cycle
    eigenvalues are not judged here.  Raises DiagramError naming the first
    structural check that fails.
    """
    diagram_field(name, ring)
    character_index(chi_label)
    pair = kernel_chi_pair
    if len(pair) != 2 or pair[1] != pair[0].conjugate():
        raise DiagramError(f"{name}: kernel characters are not conjugate")
    if pair[0].multiplicative_order() not in SPLITTING_ORDERS:
        raise DiagramError(f"{name}: kernel character is not an admissible root of unity")

    n = len(cycles)
    index = {c.id: k for k, c in enumerate(cycles)}
    if len(index) != n:
        raise DiagramError(f"{name}: duplicate cycle ids")
    if tau != n - (relation is not None):
        raise DiagramError(f"{name}: tau does not match cycle/relation count")
    if len(kernel_vector) != tau:
        raise DiagramError(f"{name}: kernel vector must have tau entries")
    if classical_order < 1:
        raise DiagramError(f"{name}: classical order must be positive")
    if relation is not None and len(relation) != n:
        raise DiagramError(f"{name}: relation must have one entry per cycle")
    if len(gram) != n or any(len(row) != n for row in gram):
        raise DiagramError(f"{name}: gram must have one row and one column per cycle")

    paired = set()
    for e in edges:
        if e.src not in index or e.dst not in index:
            raise DiagramError(f"{name}: edge endpoint missing")
        if e.src == e.dst:
            raise DiagramError(f"{name}: edge {e.src}->{e.dst} joins a cycle to itself")
        if frozenset((e.src, e.dst)) in paired:
            raise DiagramError(f"{name}: conflicting edge {e.src}->{e.dst}")
        paired.add(frozenset((e.src, e.dst)))
        if e.braid is not None and e.braid not in _BRAID_LENGTHS:
            raise DiagramError(f"{name}: unsupported braid length {e.braid}")
    if index.get(omitted_root, tau) >= tau:
        raise DiagramError(f"{name}: omitted root must be one of the first tau cycles")

    try:
        form = HermitianGram(gram)
    except ValueError as exc:
        raise DiagramError(f"{name}: gram {exc}") from None
    if not all(gram[k][k].is_integer() for k in range(n)):
        raise DiagramError(f"{name}: self-pairings must be integers")
    return form


def assemble_diagram(*, expected_group, resolved_choices, rejected_choices, **fields) -> Diagram:
    """The one constructor of Diagram: check the structure every diagram
    has, whatever built it, by _checked_form, which names the other fields.

    Arguments are Diagram's fields, except field and chi, which are
    derived.  The gram's entries, beyond integral self-pairings, and the
    cycle eigenvalues are not judged here; verify_diagram judges them, so
    tampered values still reach its checks.
    """
    form = _checked_form(**fields)
    return Diagram(
        **dict(fields, gram=form), field=ring_field(fields["ring"]),
        chi=fields["kernel_chi_pair"][CHARACTERS.index(fields["chi_label"])], expected_group=expected_group,
        resolved_choices=dict(resolved_choices), rejected_choices=rejected_choices,
    )


class Quotient(NamedTuple):
    """The span of the first tau cycles with every cycle written in that basis."""

    field: CycloField
    gram: HermitianGram
    roots: tuple[Vector, ...]
    eigenvalues: tuple[CycloNum, ...]
    labels: tuple[str, ...]
    kernel: Vector
    omitted_index: int


@cached
def quotient_basis(d: Diagram) -> Quotient:
    """Rewrite all cycles in the basis of the first tau cycles, on which the
    form is the tau x tau corner of the gram; cached per diagram identity.

    A declared relation must lie in the radical of the full form and have
    an invertible coefficient on the trailing cycle, which it eliminates.
    """
    field = d.field
    tau = d.tau
    roots = list(identity(field, tau))
    if d.relation is not None:
        last = d.relation[len(d.cycles) - 1]
        if last.is_zero():
            raise DiagramError(f"{d.name}: relation does not eliminate the last cycle")
        if not d.gram.in_radical(d.relation):
            raise DiagramError(f"{d.name}: relation not in the radical of the form")
        roots.append(vec_scale(-last.inverse(), d.relation[:tau]))
    return Quotient(
        field=field,
        gram=_corner(d.gram, tau),
        roots=tuple(roots),
        eigenvalues=tuple(c.eigenvalue for c in d.cycles),
        labels=tuple(c.id for c in d.cycles),
        kernel=d.kernel_vector,
        omitted_index=d.cycle_index(d.omitted_root),
    )


def _corner(form: HermitianGram, tau: int) -> HermitianGram:
    """The form on the span of the first tau cycles."""
    return HermitianGram(tuple(row[:tau] for row in form.gram[:tau]))


@cached
def _form_facts(form: HermitianGram, tau: int, kernel: Vector) -> tuple[bool, int, bool | None]:
    """Whether the form is negative semidefinite, the corank of its tau x tau
    corner, and whether that corner annihilates the kernel vector (None for
    the zero vector, which spans no radical).

    Cached by value, as forms compare by their Gram rows: a dataset
    diagram's form is judged once, in reconciliation, and its gram_form
    claim reads that judgement; any other form is judged on its own rows.
    """
    corner = _corner(form, tau)
    return form.is_negative_semidefinite(), corner.corank, None if is_zero_vector(kernel) else corner.in_radical(kernel)


def _check_gram(form: HermitianGram, tau: int, kernel: Vector, relation: Vector | None) -> str | None:
    """The name of the first violated constraint, or None.  A relation
    outside the radical is named before quotient_basis would raise for it;
    the rest is read from _form_facts, as the gram_form claim is."""
    semidef, corank, kernel_ok = _form_facts(form, tau, kernel)
    if not semidef:
        return "negative_semidefinite"
    if relation is not None and not form.in_radical(relation):
        return "relation_in_radical"
    if corank != 1:
        return "quotient_corank"
    if not kernel_ok:
        return "kernel_vector"
    return None


def pl_operator(gram: HermitianGram, root: Vector, eigenvalue: CycloNum) -> PLOperator:
    """The complex reflection c -> c - (1-lambda) <c,e> e / <e,e>."""
    field = gram.field
    q = gram.eval(root, root)
    if q.is_zero():
        raise DiagramError("isotropic root has no reflection")
    if eigenvalue == field.one:
        raise DiagramError("eigenvalue 1 does not define a reflection")
    gbar = mat_vec(gram.gram, conj_vector(root))
    coef = (field.one - eigenvalue) * q.inverse()
    return PLOperator(identity_minus_outer(coef, root, gbar), eigenvalue)


@cached
def diagram_operators(d: Diagram) -> tuple[PLOperator, ...]:
    """One reflection per cycle, acting on the quotient basis; built once per
    diagram, which hashes by identity."""
    q = quotient_basis(d)
    return tuple(
        pl_operator(q.gram, root, lam) for root, lam in zip(q.roots, q.eigenvalues)
    )


def operator_order(m: Matrix, bound: int) -> int:
    """The least k <= bound with m^k = I; OrderBoundError if there is none.

    A walk over the powers, kept as the oracle of order_failure."""
    n = len(m)
    field = m[0][0].field
    ident = identity(field, n)
    p = m
    for k in range(1, bound + 1):
        if p == ident:
            return k
        p = mat_mul(p, m)
    raise OrderBoundError(f"no order found up to {bound}")


def order_failure(m: Matrix, order: int) -> str | None:
    """None when m has exactly the given order (>= 1), else the power that fails.

    m^d = I, and m^(d/p) != I for each prime p dividing d, is order
    exactly d.  Each power is taken by repeated squaring from the powers
    already taken, so the check costs O(log d) products.  Before any
    product, d must divide finite_order_bound, which every finite order of
    m divides, so a matrix of infinite order is never raised past it.
    """
    n, field = len(m), m[0][0].field
    cap = finite_order_bound(n, field.degree)
    if cap % order:
        return f"{order} does not divide {cap}, the lcm of the finite orders of {n}x{n} matrices over Q(zeta_{field.n})"
    ident = identity(field, n)
    powers = {1: m}

    def power(k: int) -> Matrix:
        if k not in powers:
            powers[k] = mat_mul(power(k - 1), m) if k % 2 else mat_mul(power(k // 2), power(k // 2))
        return powers[k]

    if power(order) != ident:
        return f"m^{order} is not the identity"
    for p in _prime_factors(order):
        if power(order // p) == ident:
            return f"m^{order // p} is already the identity"
    return None


@cached
def finite_order_bound(n: int, degree: int) -> int:
    """L = lcm{k : phi(k) <= n * degree}, which the order of every n x n
    matrix of finite order over a field of that degree over Q divides.

    Such a matrix is diagonalisable, and its order is the lcm of the orders
    k of its eigenvalues.  An eigenvalue of order k has degree phi(k) over
    Q and degree at most n over the field, so phi(k) <= n * degree.  Since
    phi(k) >= sqrt(k / 2), every such k is at most 2 (n * degree)^2, and a
    totient sieve up to there lists them, once per (n, degree).  For n = 3
    over Q(w), L = 2520.
    """
    top = n * degree
    phi = list(range(2 * top * top + 1))
    for p in range(2, len(phi)):
        if phi[p] == p:  # untouched, so prime
            for k in range(p, len(phi), p):
                phi[k] -= phi[k] // p
    return lcm(*(k for k in range(1, len(phi)) if phi[k] <= top))


def _prime_factors(k: int) -> list[int]:
    """The distinct primes dividing k >= 1, by trial division."""
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


def check_braid(a: Matrix, b: Matrix, length: int) -> bool:
    """Whether `length` is the least supported k at which the alternating
    words a b a ... and b a b ... of k letters agree (2: a and b commute),
    as edge labels are read (Broue-Malle-Rouquier, J. reine angew. Math.
    500, 1998); a relation of length k implies its multiples.  The words
    grow a letter at a time on the left, a (b a b ...) and b (a b a ...),
    at most 2 (length - 1) products in all: the same words, each product
    with a single reflection as its left factor, whose unit rows mat_mul
    copies."""
    if length not in _BRAID_LENGTHS:
        raise DiagramError(f"unsupported braid length {length}")
    p, q = a, b  # the words a b a ... and b a b ... of k letters
    for k in range(2, length + 1):
        p, q = mat_mul(a, q), mat_mul(b, p)
        if k in _BRAID_LENGTHS and p == q:
            return k == length
    return False


def classical_monodromy(d: Diagram) -> Matrix:
    """Product of the tau vertex reflections, first vertex applied first."""
    return mat_prod([op.matrix for op in reversed(diagram_operators(d)[: d.tau])])


def verify_diagram(d: Diagram) -> tuple[CheckResult, ...]:
    """Intrinsic checks of one reconciled diagram: form, reflections, braids, monodromy.

    The gram_form claim reads _form_facts for the diagram's form, tau and
    kernel vector: for a dataset diagram that is reconciliation's
    judgement of the winning form, read back from its cache.
    """
    checks = []
    q = quotient_basis(d)

    semidef, corank, kernel_ok = _form_facts(d.gram, d.tau, d.kernel_vector)
    ok = semidef and corank == 1 and bool(kernel_ok)
    checks.append(
        CheckResult(
            "gram_form",
            "the pairing matrix is negative semidefinite with a one-dimensional radical "
            "spanned by the stated kernel vector",
            "pass" if ok else "fail",
            f"semidefinite {semidef}, corank {corank}, "
            + ("kernel vector is zero" if kernel_ok is None else f"kernel annihilated {kernel_ok}"),
        )
    )

    ops = diagram_operators(d)
    bad = []
    for op, cyc in zip(ops, d.cycles):
        if not q.gram.is_preserved_by(op.matrix):
            bad.append(f"{cyc.id}: form")
        elif not (is_reflection(op.matrix) and reflection_order(op.matrix) == cyc.order):
            bad.append(f"{cyc.id}: order")
        elif mat_vec(op.matrix, q.kernel) != q.kernel:
            bad.append(f"{cyc.id}: kernel moved")
    checks.append(
        CheckResult(
            "reflections",
            "every cycle reflection preserves the form, fixes the kernel vector, "
            "and has its declared order",
            "fail" if bad else "pass",
            "; ".join(bad) if bad else f"{len(ops)} reflections checked",
        )
    )

    bad = []
    for e in d.edges:
        if e.braid is None:
            continue
        a = ops[d.cycle_index(e.src)].matrix
        b = ops[d.cycle_index(e.dst)].matrix
        if not check_braid(a, b, e.braid):
            bad.append(f"{e.src}~{e.dst} at {e.braid}")
    for i in range(len(d.cycles)):
        for j in range(i + 1, len(d.cycles)):
            if d.gram.gram[i][j].is_zero() and not check_braid(ops[i].matrix, ops[j].matrix, 2):
                bad.append(f"{d.cycles[i].id}~{d.cycles[j].id} at 2")
    checks.append(
        CheckResult(
            "braids",
            "each declared braid length is the least that holds, and unpaired reflections commute",
            "fail" if bad else "pass",
            "; ".join(bad) if bad else "all alternating words compared",
        )
    )

    failing = order_failure(classical_monodromy(d), d.classical_order)
    checks.append(
        CheckResult(
            "classical_monodromy",
            f"the product of the vertex reflections has order {d.classical_order}",
            "fail" if failing else "pass",
            failing or f"computed order {d.classical_order}",
        )
    )

    if d.name == "P8_Z3":
        held = extra_relation_P8Z3(d)
        checks.append(
            CheckResult(
                "extra_relation",
                "the additional length-eight relation between the three reflections holds",
                "pass" if held else "fail",
                "squared four-letter words compared",
            )
        )
    return tuple(checks)


def extra_relation_P8Z3(d: Diagram) -> bool:
    """The length-8 relation specific to the order-3 invariant cubic case."""
    if len(d.cycles) != 3 or d.relation is not None:
        raise DiagramError(f"{d.name}: extra relation needs three independent cycles")
    h0, h1, h2 = (op.matrix for op in diagram_operators(d))
    return mat_prod([h1, h0, h2, h0] * 2) == mat_prod([h0, h2, h0, h1] * 2)

