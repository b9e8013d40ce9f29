"""Diagonal symmetries of the unimodal cubic-point functions.

A symmetry case is a function germ given by exponent triples together
with a diagonal coordinate action (three roots of unity).  Everything
here is character arithmetic: the common unit a symmetry multiplies the
function by, the induced character on the monodromy kernel line, the
sub-basis of the local algebra fixed up to that unit, and the count of
basis classes sitting in a prescribed character eigenspace.

All characters live in one cyclotomic field large enough to hold cube,
fourth, eighth and ninth roots of unity at once, Q(zeta_72).  Each is a
72nd root of unity zeta_72^e, so the arithmetic is on the exponents e
mod 72: a monomial's character is a dot product, the kernel character a
difference, an order 72 / gcd(e, 72).  Exponents become field elements
only in the values the public functions return.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import gcd, lcm
from typing import NamedTuple

from .cyclo import CycloField, CycloNum, cached, parse_value, roots_of_unity
from .monodromy import SPLITTING_ORDERS, CheckResult

CHARACTER_FIELD = CycloField(72)
N = CHARACTER_FIELD.n  # zeta_N^e is stored as e mod N

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


# -- exponent arithmetic mod N ---------------------------------------------


def _exponent(x) -> int | None:
    """e with x = zeta_N^e, or None when x is no root of unity of the character field."""
    entry = roots_of_unity(CHARACTER_FIELD).get(x)
    return None if entry is None else entry[0]


def _kappa_exponents(kappa, where: str) -> Triple:
    e = tuple(_exponent(k) for k in kappa)
    if None in e:
        raise ClassifyError(f"{where}coordinate factor is not a root of unity")
    return e


def _exponents(case: SymmetryCase) -> Triple:
    return _kappa_exponents(case.kappa, f"{case.label}: ")


def _root(e: int) -> CycloNum:
    return CHARACTER_FIELD.zeta(e)


def _order(e: int) -> int:
    return N // gcd(e, N)


def _weight(e: Triple, term: Triple) -> int:
    """The exponent of the unit by which the action scales one monomial."""
    return (e[0] * term[0] + e[1] * term[1] + e[2] * term[2]) % N


def _factor(case: SymmetryCase, e: Triple) -> int:
    if not case.terms:
        raise ClassifyError(f"{case.label}: no terms")
    first = _weight(e, case.terms[0])
    for t in case.terms[1:]:
        w = _weight(e, t)
        if w != first:
            raise NotEquivariant(f"{case.label}: term {t} scales by {_root(w)}, first term by {_root(first)}")
    return first


def _class_weight(case: SymmetryCase, e: Triple, cls) -> int:
    weights = {_weight(e, t) for t in cls}
    if len(weights) > 1:
        raise ClassifyError(f"{case.label}: basis class {cls} mixes characters")
    return weights.pop()


def _kernel(case: SymmetryCase, e: Triple) -> int:
    """kx ky kz over the equivariance factor."""
    return (sum(e) - _factor(case, e)) % N


def _versal(case: SymmetryCase, e: Triple) -> tuple:
    if not case.basis:
        raise ClassifyError(f"{case.label}: no local basis attached")
    f = _factor(case, e)
    return tuple(cls for cls in case.basis if _class_weight(case, e, cls) == f)


def _smoothable(case: SymmetryCase, e: Triple) -> bool:
    f = _factor(case, e)
    return f == 0 or f in e


# -- the public functions, on field elements --------------------------------


def character(kappa, term: Triple) -> CycloNum:
    """The unit by which the diagonal action scales one monomial."""
    return _root(_weight(_kappa_exponents(kappa, ""), term))


def equivariance_factor(case: SymmetryCase) -> CycloNum:
    """The single unit multiplying every term of the function, or a failure."""
    return _root(_factor(case, _exponents(case)))


def symmetry_order(case: SymmetryCase) -> int:
    return lcm(*map(_order, _exponents(case)))


def class_character(case: SymmetryCase, cls) -> CycloNum:
    """Common character of a basis class; members must agree under this symmetry."""
    return _root(_class_weight(case, _exponents(case), cls))


def kernel_character(case: SymmetryCase) -> CycloNum:
    """Character of the symmetry on the distinguished monodromy kernel line."""
    return _root(_kernel(case, _exponents(case)))


def kernel_characters(case: SymmetryCase):
    """The conjugate character pair cutting the kernel eigenspaces, if any.

    Only characters of the SPLITTING_ORDERS produce a pair of conjugate
    eigenspaces; any other returns None.
    """
    k = _kernel(case, _exponents(case))
    if _order(k) not in SPLITTING_ORDERS:
        return None
    return _root(k), _root(-k)


def versal_classes(case: SymmetryCase) -> tuple:
    """Basis classes whose character equals the equivariance factor."""
    return _versal(case, _exponents(case))


def character_multiplicity(case: SymmetryCase, chi: CycloNum) -> int:
    """Number of basis classes in the given character eigenspace.

    Classes are weighted by the kernel character, so the versal classes
    are exactly the multiplicity of the kernel character itself.  A chi
    that is no root of unity of the character field has none.
    """
    if not case.basis:
        raise ClassifyError(f"{case.label}: no local basis attached")
    e = _exponents(case)
    base = _kernel(case, e)
    target = _exponent(chi)
    return sum(1 for cls in case.basis if (_class_weight(case, e, cls) + base) % N == target)


def is_smoothable(case: SymmetryCase) -> bool:
    """Whether the equivariant deformation admits a smoothing direction."""
    return _smoothable(case, _exponents(case))


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


class ProjRow(NamedTuple):
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


def _equivariance(case: SymmetryCase, e: Triple, claim: str, witness: str) -> CheckResult:
    """The equivariance claim, failing with the offending term when there is no common unit."""
    try:
        _factor(case, e)
    except NotEquivariant as exc:
        return CheckResult("equivariance", claim, "fail", str(exc))
    return CheckResult("equivariance", claim, "pass", witness)


def verify_table_row(row: TableRow) -> tuple[CheckResult, ...]:
    """Check one table row's order, versal set, kernel pair and smoothability."""
    case = row.case
    e = _exponents(case)
    first = _equivariance(
        case,
        e,
        "the symmetry multiplies every term of the function by one unit",
        f"factor of {row.notation} computed",
    )
    if first.verdict == "fail":
        return (first,)
    checks = [first]

    order = lcm(*map(_order, e))
    checks.append(
        CheckResult(
            "symmetry_order",
            f"the symmetry has order {row.declared_order}",
            "pass" if order == row.declared_order else "fail",
            f"computed {order}",
        )
    )

    got = _versal(case, e)
    want = []
    mismatch = None
    for t in row.declared_versal:
        try:
            want.append(_class_of(case, t))
        except ClassifyError as exc:
            mismatch = str(exc)
    ok = mismatch is None and sorted(got) == sorted(want)  # as multisets: a class declared twice fails
    checks.append(
        CheckResult(
            "versal_monomials",
            "the stable deformation directions are exactly those declared",
            "pass" if ok else "fail",
            mismatch or f"computed {len(got)} classes, declared {len(row.declared_versal)}",
        )
    )

    k = _kernel(case, e)
    ok = _order(k) in SPLITTING_ORDERS and {k, -k % N} == {_exponent(x) for x in row.declared_kernel}
    checks.append(
        CheckResult(
            "kernel_characters",
            "the kernel eigenspace characters form the declared conjugate pair",
            "pass" if ok else "fail",
            "computed pair compared as a set",
        )
    )

    smoothable = _smoothable(case, e)
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
    e = _exponents(case)
    first = _equivariance(
        case,
        e,
        "every term, modulus included, transforms by one common unit",
        f"{len(case.terms)} terms checked",
    )
    if first.verdict == "fail":
        return (first,)
    order = _order(_kernel(case, e))
    split = order in SPLITTING_ORDERS
    second = CheckResult(
        "kernel_split",
        f"the kernel {'splits into a conjugate eigenspace pair' if row.declared_splits else 'does not split'}",
        "pass" if split == row.declared_splits else "fail",
        f"kernel character order {order}",
    )
    return (first, second)
