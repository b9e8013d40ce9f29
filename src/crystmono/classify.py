"""Diagonal symmetries of the unimodal cubic-point functions.

A symmetry case is a function germ given by exponent triples together
with a diagonal coordinate action (three roots of unity).  Everything
here is character arithmetic: the common unit a symmetry multiplies the
function by, the induced character on the monodromy kernel line, the
sub-basis of the local algebra fixed up to that unit, and the count of
basis classes sitting in a prescribed character eigenspace.

All characters live in one cyclotomic field large enough to hold cube,
fourth, eighth and ninth roots of unity at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import lcm

from .cyclo import CycloField, CycloNum, cached, parse_value
from .monodromy import SPLITTING_ORDERS, CheckResult

CHARACTER_FIELD = CycloField(72)

Triple = tuple[int, int, int]


class ClassifyError(ValueError):
    """Invalid classification input."""


class NotEquivariant(ClassifyError):
    """The symmetry does not multiply the function by one common unit."""


@dataclass(frozen=True)
class SymmetryCase:
    """A function germ plus a diagonal symmetry, with its local-algebra basis.

    The basis is stored as classes of monomials that represent the same
    residue up to a unit, so membership statements are class statements.
    """

    label: str
    terms: tuple[Triple, ...]
    kappa: tuple[CycloNum, CycloNum, CycloNum]
    basis: tuple[tuple[Triple, ...], ...] = ()


def character(kappa, term: Triple) -> CycloNum:
    """The unit by which the diagonal action scales one monomial."""
    kx, ky, kz = kappa
    return kx ** term[0] * ky ** term[1] * kz ** term[2]


def equivariance_factor(case: SymmetryCase) -> CycloNum:
    """The single unit multiplying every term of the function, or a failure."""
    if not case.terms:
        raise ClassifyError(f"{case.label}: no terms")
    vals = [character(case.kappa, t) for t in case.terms]
    for t, v in zip(case.terms[1:], vals[1:]):
        if v != vals[0]:
            raise NotEquivariant(
                f"{case.label}: term {t} scales by {v}, first term by {vals[0]}"
            )
    return vals[0]


def symmetry_order(case: SymmetryCase) -> int:
    orders = []
    for k in case.kappa:
        o = k.multiplicative_order()
        if o is None:
            raise ClassifyError(f"{case.label}: coordinate factor is not a root of unity")
        orders.append(o)
    return lcm(*orders)


def class_character(case: SymmetryCase, cls) -> CycloNum:
    """Common character of a basis class; members must agree under this symmetry."""
    vals = [character(case.kappa, t) for t in cls]
    for v in vals[1:]:
        if v != vals[0]:
            raise ClassifyError(f"{case.label}: basis class {cls} mixes characters")
    return vals[0]


def kernel_character(case: SymmetryCase) -> CycloNum:
    """Character of the symmetry on the distinguished monodromy kernel line."""
    kx, ky, kz = case.kappa
    return kx * ky * kz * equivariance_factor(case).inverse()


def kernel_characters(case: SymmetryCase):
    """The conjugate character pair cutting the kernel eigenspaces, if any.

    Only characters of the SPLITTING_ORDERS produce a pair of conjugate
    eigenspaces; any other returns None.
    """
    chi = kernel_character(case)
    if chi.multiplicative_order() not in SPLITTING_ORDERS:
        return None
    return chi, chi.conjugate()


def versal_classes(case: SymmetryCase) -> tuple:
    """Basis classes whose character equals the equivariance factor."""
    if not case.basis:
        raise ClassifyError(f"{case.label}: no local basis attached")
    c = equivariance_factor(case)
    return tuple(cls for cls in case.basis if class_character(case, cls) == c)


def character_multiplicity(case: SymmetryCase, chi: CycloNum) -> int:
    """Number of basis classes in the given character eigenspace.

    Classes are weighted by the kernel character, so the versal classes
    are exactly the multiplicity of the kernel character itself.
    """
    if not case.basis:
        raise ClassifyError(f"{case.label}: no local basis attached")
    base = kernel_character(case)
    return sum(1 for cls in case.basis if class_character(case, cls) * base == chi)


def is_smoothable(case: SymmetryCase) -> bool:
    """Whether the equivariant deformation admits a smoothing direction."""
    c = equivariance_factor(case)
    return c == CHARACTER_FIELD.one or c in case.kappa


@dataclass(frozen=True)
class TableRow:
    notation: str
    case: SymmetryCase
    declared_order: int
    declared_versal: tuple[Triple, ...]
    declared_kernel: tuple[CycloNum, CycloNum]
    declared_smoothable: bool
    group: str | None
    diagram: str | None


@dataclass(frozen=True)
class ProjRow:
    id: int
    case: SymmetryCase
    modulus_term: Triple | None
    condition: str | None
    declared_splits: bool


def _parse_kappa(values) -> tuple[CycloNum, CycloNum, CycloNum]:
    return tuple(parse_value(s, CHARACTER_FIELD) for s in values)


def _load_json(name: str) -> dict:
    return json.loads(resources.files(__package__).joinpath(f"data/{name}").read_text())


@cached
def _table_data() -> tuple[dict, dict]:
    """The raw table1.json and its local bases, parsed into tuples of classes."""
    raw = _load_json("table1.json")
    bases = {
        fid: tuple(tuple(tuple(t) for t in cls) for cls in classes)
        for fid, classes in raw["local_bases"].items()
    }
    return raw, bases


@cached
def table_rows() -> tuple[TableRow, ...]:
    """All classified symmetry cases, in table order."""
    raw, bases = _table_data()
    functions = {
        fid: tuple(tuple(t) for t in entry["terms"]) for fid, entry in raw["functions"].items()
    }
    rows = []
    for r in raw["rows"]:
        case = SymmetryCase(
            label=r["notation"],
            terms=functions[r["f"]],
            kappa=_parse_kappa(r["kappa"]),
            basis=bases[r["f"]],
        )
        rows.append(
            TableRow(
                notation=r["notation"],
                case=case,
                declared_order=r["order"],
                declared_versal=tuple(tuple(t) for t in r["versal"]),
                declared_kernel=tuple(parse_value(s, CHARACTER_FIELD) for s in r["kernel"]),
                declared_smoothable=r["smoothable"],
                group=r["group"],
                diagram=r["diagram"],
            )
        )
    return tuple(rows)


@cached
def proj_rows() -> tuple[ProjRow, ...]:
    """The seven projective symmetry families."""
    _, bases = _table_data()
    rows = []
    for r in _load_json("pproj.json")["rows"]:
        terms = [tuple(t) for t in r["f_terms"]]
        modulus = tuple(r["modulus_term"]) if r["modulus_term"] else None
        if modulus is not None:
            terms.append(modulus)
        case = SymmetryCase(
            label=f"projective row {r['id']}",
            terms=tuple(terms),
            kappa=_parse_kappa(r["kappa"]),
            basis=bases[r["basis"]] if r["basis"] else (),
        )
        rows.append(
            ProjRow(
                id=r["id"],
                case=case,
                modulus_term=modulus,
                condition=r["condition"],
                declared_splits=r["splits_kernel"],
            )
        )
    return tuple(rows)


def _class_of(case: SymmetryCase, triple: Triple):
    for cls in case.basis:
        if triple in cls:
            return cls
    raise ClassifyError(f"{case.label}: {triple} is not in the local basis")


def _equivariance(case: SymmetryCase, claim: str, witness: str) -> CheckResult:
    """The equivariance claim, failing with the offending term when there is no common unit."""
    try:
        equivariance_factor(case)
    except NotEquivariant as e:
        return CheckResult("equivariance", claim, "fail", str(e))
    return CheckResult("equivariance", claim, "pass", witness)


def verify_table_row(row: TableRow) -> tuple[CheckResult, ...]:
    """Check one table row's order, versal set, kernel pair and smoothability."""
    case = row.case
    first = _equivariance(
        case,
        "the symmetry multiplies every term of the function by one unit",
        f"factor of {row.notation} computed",
    )
    if first.verdict == "fail":
        return (first,)
    checks = [first]

    order = symmetry_order(case)
    checks.append(
        CheckResult(
            "symmetry_order",
            f"the symmetry has order {row.declared_order}",
            "pass" if order == row.declared_order else "fail",
            f"computed {order}",
        )
    )

    got = versal_classes(case)
    want = []
    mismatch = None
    for t in row.declared_versal:
        try:
            want.append(_class_of(case, t))
        except ClassifyError as e:
            mismatch = str(e)
    ok = mismatch is None and set(got) == set(want) and len(want) == len(row.declared_versal)
    checks.append(
        CheckResult(
            "versal_monomials",
            "the stable deformation directions are exactly those declared",
            "pass" if ok else "fail",
            mismatch or f"computed {len(got)} classes, declared {len(row.declared_versal)}",
        )
    )

    pair = kernel_characters(case)
    ok = pair is not None and set(pair) == set(row.declared_kernel)
    checks.append(
        CheckResult(
            "kernel_characters",
            "the kernel eigenspace characters form the declared conjugate pair",
            "pass" if ok else "fail",
            "computed pair compared as a set",
        )
    )

    smoothable = is_smoothable(case)
    checks.append(
        CheckResult(
            "smoothability",
            f"the case is {'smoothable' if row.declared_smoothable else 'not smoothable'}",
            "pass" if smoothable == row.declared_smoothable else "fail",
            f"factor {'is' if smoothable else 'is not'} realised by a coordinate",
        )
    )
    return tuple(checks)


def verify_proj_row(row: ProjRow) -> tuple[CheckResult, ...]:
    """Check one projective family: equivariance and whether the kernel splits."""
    case = row.case
    first = _equivariance(
        case,
        "every term, modulus included, transforms by one common unit",
        f"{len(case.terms)} terms checked",
    )
    if first.verdict == "fail":
        return (first,)
    split = kernel_characters(case) is not None
    second = CheckResult(
        "kernel_split",
        f"the kernel {'splits into a conjugate eigenspace pair' if row.declared_splits else 'does not split'}",
        "pass" if split == row.declared_splits else "fail",
        f"kernel character order {kernel_character(case).multiplicative_order()}",
    )
    return (first, second)
