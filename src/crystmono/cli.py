"""Command line front end for the verification suite.

Two commands:

    crystmono verify {all | table1 | pproj | diagram NAME | group NAME}
    crystmono show {diagram | group} NAME

``verify`` runs the machine checks and prints one block per case with a
line per claim; ``show`` prints the underlying dataset as JSON, in a form
that can be parsed and re-verified.  Each model closure is bounded by
the model's declared order, so no option bounds a search.  Exit codes:
0 all claims hold, 1 at least one fails, 2 usage error, unknown name,
model data contradicting its closure or unwritable --json path, 3 the
worst verdict is inconclusive, 141 (128 + SIGPIPE) stdout closed by its
reader.
"""

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from math import isfinite
from pathlib import Path

from .affine import (
    AffineError,
    DualFrame,
    _raw_groups,
    model_closure,
    reference_group,
    verify_crystallographic,
)
from .classify import (
    ClassifyError,
    kernel_characters,
    proj_rows,
    table_rows,
    verify_proj_row,
    verify_table_row,
)
from .cyclo import RING_GENERATORS, GrammarError, parse_value, render_value
from .monodromy import (
    CHARACTERS,
    CheckResult,
    Cycle,
    Diagram,
    DiagramError,
    Edge,
    MaximalRoot,
    assemble_diagram,
    diagram,
    diagram_field,
    diagram_names,
    quotient_basis,
    verify_diagram,
    worst_verdict,
)

_EXIT = {"pass": 0, "fail": 1, "inconclusive": 3}


def _report(case, checks, *, chi=None, character=None, group=None, resolved=None, timing=None) -> dict:
    return {
        "case": case,
        "chi": chi,
        "character": character,
        "group": group,
        "checks": [c._asdict() for c in checks],
        "resolved_choices": dict(resolved) if resolved else {},
        "verdict": worst_verdict(c.verdict for c in checks),
        "timing": timing,
    }


def _clock(args):
    start = time.perf_counter()

    def stop():
        return round(time.perf_counter() - start, 3) if args.timings else None

    return stop


def diagram_report(d: Diagram, args) -> dict:
    stop = _clock(args)
    checks = list(verify_diagram(d)) + list(verify_crystallographic(d).checks)
    return _report(
        d.name,
        checks,
        chi=d.chi_label,
        character=render_value(d.chi),
        group=d.expected_group,
        resolved=d.resolved_choices,
        timing=stop(),
    )


def table_report(row, args) -> dict:
    stop = _clock(args)
    checks = verify_table_row(row)
    pair = kernel_characters(row.case)
    chi = args.chi if pair is not None else None
    return _report(
        row.notation,
        checks,
        chi=chi,
        character=render_value(pair[CHARACTERS.index(chi)]) if chi else None,
        group=row.group,
        timing=stop(),
    )


def proj_report(row, args) -> dict:
    stop = _clock(args)
    checks = verify_proj_row(row)
    return _report(f"Pproj-{row.id}", checks, timing=stop())


def group_report(name: str, args) -> dict:
    """Re-derive one crystallographic linear-part model from its generators.

    model_closure raises AffineError unless the closure has the declared
    order and reflection counts, so a report is only made when both hold.
    """
    stop = _clock(args)
    ref = reference_group(name)
    closure, multiset = model_closure(name)
    checks = (
        CheckResult(
            "linear_order",
            f"the stated generators close to a group of order {ref.declared_order}",
            "pass",
            f"linear order {len(closure)}",
        ),
        CheckResult(
            "reflection_multiset",
            "reflection orders with multiplicity match the declared counts",
            "pass",
            f"derived {multiset}, declared {ref.declared_reflections}",
        ),
    )
    return _report(name, checks, group=name, timing=stop())


def _print_report(r: dict) -> None:
    head = f"[{r['verdict']}] {r['case']}"
    if r["chi"]:
        head += f"  chi={r['chi']}"
    if r["character"]:
        head += f"  character={r['character']}"
    if r["group"]:
        head += f"  group={r['group']}"
    print(head)
    for c in r["checks"]:
        print(f"  {c['verdict']:<12} {c['claim_id']:<22} {c['witness']}")
    if r["resolved_choices"]:
        print(f"  resolved choices: {r['resolved_choices']}")
    if r["timing"] is not None:
        print(f"  time: {r['timing']}s")


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


@contextmanager
def _json_writer(path):
    """The one writer of a command's JSON document, to `path` if one is given.

    The path is opened here, before the first case runs, so an unwritable
    path stops the command before it prints anything; the document itself
    is written once, after the last case and before any text, so a reader
    that closes stdout early cannot lose it.  The writer takes a function
    that renders the document, called only when there is a path.  If the
    command ends without writing it, a file this run created is removed and
    an older one left as it was.
    """
    if not path:
        yield lambda render: None
        return
    target = Path(path)
    created = not target.exists()
    target.open("a").close()
    written = []  # empty until the document is written
    try:
        yield lambda render: written.append(target.write_text(render()))
    finally:
        if created and not written:
            target.unlink(missing_ok=True)


def _emit(doc: dict, write_json) -> int:
    write_json(lambda: _dumps(doc))  # first, so that a reader closing stdout cannot lose it
    for r in doc["reports"]:
        _print_report(r)
    print(f"verdict: {doc['verdict']}")
    return _EXIT[doc["verdict"]]


def run_verify(args, write_json) -> int:
    # the catalogue targets, in the order `all` concatenates them
    catalogue = {
        "table1": lambda: sorted((table_report(r, args) for r in table_rows()), key=lambda r: r["case"]),
        "pproj": lambda: sorted((proj_report(r, args) for r in proj_rows()), key=lambda r: r["case"]),
        "diagrams": lambda: [diagram_report(diagram(n, args.chi), args) for n in sorted(diagram_names())],
    }
    target = args.target
    if target == "all":
        reports = [r for build in catalogue.values() for r in build()]
    elif target in ("table1", "pproj"):
        reports = catalogue[target]()
    elif target == "diagram":
        reports = [diagram_report(diagram(args.name, args.chi), args)]
        target = f"diagram {args.name}"
    elif target == "group":
        reports = [group_report(args.name, args)]
        linked = [n for n in sorted(diagram_names()) if diagram(n, args.chi).expected_group == args.name]
        reports += [diagram_report(diagram(n, args.chi), args) for n in linked]
        target = f"group {args.name}"
    else:
        print(f"error: unknown verify target {target!r}", file=sys.stderr)
        return 2

    doc = {
        "schema": "1",
        "target": target,
        "chi": args.chi,
        "reports": reports,
        "verdict": worst_verdict(r["verdict"] for r in reports),
    }
    return _emit(doc, write_json)


def show_diagram_payload(d: Diagram) -> dict:
    """The ``show`` dump of a diagram; self-pairings and edge values are read off the gram."""
    g, pos = d.gram.gram, d.cycle_index
    frame = DualFrame(quotient_basis(d)) if d.expected_group is not None and d.tau >= 2 else None
    return {
        "schema": "1",
        "kind": "diagram",
        "name": d.name,
        "ring": d.ring,
        "chi": d.chi_label,
        "character": render_value(d.chi),
        "kernel_characters": [render_value(x) for x in d.kernel_chi_pair],
        "tau": d.tau,
        "classical_order": d.classical_order,
        "expected_group": d.expected_group,
        "omitted_root": d.omitted_root,
        "cycles": [
            {
                "id": c.id,
                "self_pairing": int(g[k][k].rational_value()),
                "order": c.order,
                "eigenvalue": render_value(c.eigenvalue),
            }
            for k, c in enumerate(d.cycles)
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "value": render_value(g[pos(e.src)][pos(e.dst)]), "braid": e.braid}
            for e in d.edges
        ],
        "gram": [[render_value(x) for x in row] for row in g],
        "kernel_vector": [render_value(x) for x in d.kernel_vector],
        "relation": [render_value(x) for x in d.relation] if d.relation is not None else None,
        "relations": [[list(word) for word in pair] for pair in d.relations],
        "maximal_root": None if d.maximal_root is None else dict(d.maximal_root._asdict(), word=list(d.maximal_root.word)),
        "resolved_choices": dict(d.resolved_choices),
        "rejected_choices": [
            {"assignment": dict(choice), "violates": why} for choice, why in d.rejected_choices
        ],
        "frame": None if frame is None else {
            "alpha0": render_value(frame.alpha0),
            "a": [render_value(x) for x in frame.a],
            "dual_form": [[render_value(x) for x in row] for row in frame.dual_gram.gram],
        },
    }


def diagram_from_payload(payload: dict) -> Diagram:
    """Rebuild a diagram from its ``show`` dump through assemble_diagram.

    It passes the same structural checks as a dataset diagram, or raises
    DiagramError, which also names a missing key, a list or object of the
    wrong shape, a value outside the grammar or the field, an integer field
    holding anything but an int, or a name, ring, cycle id, unit, choice or
    violated check that is not a string (``expected_group`` and
    ``maximal_root`` may be null).  The derived sections (``character``,
    ``frame``, ``self_pairing`` and edge ``value``) are not read: the
    pairings come from ``gram`` alone; recorded choices are not reconciled.
    """
    name = payload.get("name", "payload")
    if not isinstance(name, str):
        raise DiagramError(f"payload: name must be a string, not {name!r}")

    def fault(key, what, x):
        return DiagramError(f"{name}: {key} must be {what}, not {x!r}")

    def value(x, key):
        """A grammar string or a finite JSON number, as a value of the field."""
        if isinstance(x, str):
            try:
                return parse_value(x, field)
            except GrammarError:
                raise fault(key, "in the value grammar", x) from None
            except ValueError:  # a root of unity outside the field
                raise fault(key, f"a value of Q(zeta_{field.n})", x) from None
        if type(x) not in (int, float) or not isfinite(x):  # a bool is no number here
            raise fault(key, "a value", x)
        return field.from_rational(x)

    def shaped(x, key, kind=list):
        if not isinstance(x, kind):
            raise fault(key, "a list" if kind is list else "an object", x)
        return x

    def entries(xs, key):
        return [(k, shaped(x, f"{key}[{k}]", dict)) for k, x in enumerate(shaped(xs, key))]

    def values(xs, key, read=value):
        return tuple(read(x, f"{key}[{k}]") for k, x in enumerate(shaped(xs, key)))

    def integer(x, key, optional=False):
        if type(x) is not int and not (optional and x is None):  # bool is an int too
            raise fault(key, "an integer", x)
        return x

    def string(x, key, what="a string", optional=False):
        if not isinstance(x, str) and not (optional and x is None):
            raise fault(key, what, x)
        return x

    def cycle_id(x, key):
        return string(x, key, "a cycle id")

    try:
        field = diagram_field(payload["name"], string(payload["ring"], "ring"))
        return assemble_diagram(
            name=payload["name"], ring=payload["ring"], chi_label=payload["chi"],
            kernel_chi_pair=values(payload["kernel_characters"], "kernel_characters"),
            cycles=tuple(
                Cycle(
                    cycle_id(c["id"], f"cycles[{k}].id"), integer(c["order"], f"cycles[{k}].order"),
                    value(c["eigenvalue"], f"cycles[{k}].eigenvalue"),
                )
                for k, c in entries(payload["cycles"], "cycles")
            ),
            edges=tuple(
                Edge(
                    cycle_id(e["src"], f"edges[{k}].src"), cycle_id(e["dst"], f"edges[{k}].dst"),
                    integer(e["braid"], f"edges[{k}].braid", optional=True),
                )
                for k, e in entries(payload["edges"], "edges")
            ),
            gram=tuple(values(row, f"gram[{r}]") for r, row in enumerate(shaped(payload["gram"], "gram"))),
            relation=None if (relation := payload["relation"]) is None else values(relation, "relation"),
            relations=tuple(
                tuple(values(w, f"relations[{k}][{s}]", cycle_id) for s, w in enumerate(shaped(pair, f"relations[{k}]")))
                for k, pair in enumerate(shaped(payload["relations"], "relations"))
            ),
            maximal_root=None if (root := payload["maximal_root"]) is None else MaximalRoot(
                values(shaped(root, "maximal_root", dict)["word"], "maximal_root.word", cycle_id),
                cycle_id(root["leaf"], "maximal_root.leaf"), string(root["unit"], "maximal_root.unit"),
            ),
            kernel_vector=values(payload["kernel_vector"], "kernel_vector"),
            omitted_root=cycle_id(payload["omitted_root"], "omitted_root"),
            expected_group=string(payload["expected_group"], "expected_group", "a string or null", optional=True),
            tau=integer(payload["tau"], "tau"),
            classical_order=integer(payload["classical_order"], "classical_order"),
            resolved_choices={
                edge: string(choice, f"resolved_choices[{edge!r}]")
                for edge, choice in shaped(payload["resolved_choices"], "resolved_choices", dict).items()
            },
            rejected_choices=tuple(
                (
                    dict(shaped(r["assignment"], f"rejected_choices[{k}].assignment", dict)),
                    string(r["violates"], f"rejected_choices[{k}].violates"),
                )
                for k, r in entries(payload["rejected_choices"], "rejected_choices")
            ),
        )
    except KeyError as exc:
        raise DiagramError(f"{name}: missing key {exc.args[0]!r}") from None


def show_group_payload(name: str) -> dict:
    """The stored linear-part model, echoing the dataset's own value spellings."""
    ref = reference_group(name)  # validates the model before showing it
    raw = _raw_groups()[name]
    rule = ref.lattice_rule
    basis = ["1", RING_GENERATORS[rule["ring"]]] if rule["kind"] == "ring" else None
    return {
        "schema": "1",
        "kind": "group",
        "name": ref.name,
        "ring": ref.ring,
        "rank": ref.rank,
        "order": ref.declared_order,
        "reflection_orders": dict(raw["reflection_orders"]),
        "form": [list(row) for row in raw["form"]],
        "generators": [
            {"root": list(g["root"]), "eigenvalue": g["eigenvalue"]} for g in raw["generators"]
        ],
        "braids": [list(b) for b in raw["braids"]],
        "lattice_rule": dict(rule),
        "lattice_basis": basis,
        "provenance": ref.provenance,
    }


def run_show(args, write_json) -> int:
    if args.kind == "diagram":
        payload = show_diagram_payload(diagram(args.name, args.chi))
    elif args.kind == "group":
        payload = show_group_payload(args.name)
    else:
        print(f"error: unknown show kind {args.kind!r}", file=sys.stderr)
        return 2
    text = _dumps(payload)
    write_json(lambda: text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crystmono",
        description="Exact verification of the symmetric cubic-point monodromy catalogue.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the machine checks for a target")
    v.add_argument("target", metavar="TARGET", help="all | table1 | pproj | diagram | group")
    v.add_argument("name", nargs="?", help="diagram or group name when TARGET needs one")

    s = sub.add_parser("show", help="print a dataset as JSON")
    s.add_argument("kind", metavar="KIND", help="diagram | group")
    s.add_argument("name", help="which dataset to print")

    for cmd in (v, s):
        cmd.add_argument("--chi", choices=CHARACTERS, default="primary",
                         help="which of the two kernel characters to work with")
        cmd.add_argument("--json", metavar="PATH", help="also write the JSON document to PATH")
    v.add_argument("--timings", action="store_true",
                   help="record wall-clock time per case (reports stop being byte-stable)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        if args.target in ("diagram", "group") and args.name is None:
            print(f"error: verify {args.target} needs a name", file=sys.stderr)
            return 2
        if args.target in ("all", "table1", "pproj") and args.name is not None:
            print(f"error: verify {args.target} takes no name", file=sys.stderr)
            return 2
    try:
        with _json_writer(args.json) as write_json:
            code = (run_verify if args.command == "verify" else run_show)(args, write_json)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point it at devnull, so that
        # the flush at exit does not raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DiagramError, AffineError, ClassifyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
