"""The data-mutation corpus: one-entry changes of the eight ``show`` payloads
in each kernel character, each rebuilt and verified, against the
checked-in lists of the mutants that pass every claim.

The mutation kinds are fixed in advance and never chosen to hide a gap:

- ``gram``: an off-diagonal entry times each root of unity other than 1,
  or times 2, with its mirror conjugated; a zero entry becomes each unit;
- ``eigenvalue``: a cycle's eigenvalue replaced by each other root of
  unity of the field, with its order set to match;
- ``self_pairing``: a diagonal entry lowered by 1;
- ``kernel``: a nonzero kernel-vector entry times each unit other than 1;
- ``braid``: an edge label set to each other value of null, 2, 3, 4, 6;
- ``omitted_root``: the omitted root moved to each other of the first tau
  cycles;
- ``relation_word``: a letter of a relation word dropped, or changed to
  each other cycle;
- ``root_word``: the same for the letters of the maximal-root word;
- ``root_leaf``: the maximal-root leaf moved to each other cycle;
- ``root_unit``: the maximal-root unit changed to each other root of unity
  of the field.

Each mutant goes through diagram_from_payload, verify_diagram and
verify_crystallographic.  A claim that does not pass catches it, and a
DiagramError or AffineError raised on the way counts as ``raised``.
``tests/data/mutation_gaps.txt`` (primary character) and
``mutation_gaps_conj.txt`` (conjugate character) list the mutants that
nothing catches, as change detectors: a change that closes a gap removes
its line, and one that opens a gap fails here.  The failure message prints
the catch matrix of each character.
"""

import copy
import json
from pathlib import Path

from crystmono.affine import AffineError, verify_crystallographic
from crystmono.cli import diagram_from_payload, show_diagram_payload
from crystmono.cyclo import parse_value, render_value, roots_of_unity
from crystmono.monodromy import DiagramError, diagram, diagram_field, diagram_names, verify_diagram

GAPS = {
    "primary": Path(__file__).parent / "data" / "mutation_gaps.txt",
    "conj": Path(__file__).parent / "data" / "mutation_gaps_conj.txt",
}
KINDS = (
    "gram", "eigenvalue", "self_pairing", "kernel", "braid", "omitted_root",
    "relation_word", "root_word", "root_leaf", "root_unit",
)
BRAIDS = (None, 2, 3, 4, 6)


def _units(field):
    """The roots of unity of the field, in the order of their exponents."""
    table = roots_of_unity(field)
    return sorted(table, key=lambda u: table[u][0])


def mutants(payload):
    """(kind, change, mutated payload) for every one-entry change of a payload."""
    field = diagram_field(payload["name"], payload["ring"])
    units = _units(field)
    gram = payload["gram"]

    def changed(*edits):
        """A copy of the payload with each (key, ..., key, value) edit made."""
        out = copy.deepcopy(payload)
        for *path, key, value in edits:
            target = out
            for step in path:
                target = target[step]
            target[key] = value
        return out

    n = len(gram)
    for i in range(n):
        for j in range(i + 1, n):
            x = parse_value(gram[i][j], field)
            if x.is_zero():
                changes = [(f"= {render_value(u)}", u) for u in units]
            else:
                scales = [u for u in units if u != field.one] + [field.from_rational(2)]
                changes = [(f"times {render_value(u)}", x * u) for u in scales]
            for text, y in changes:
                pair = ("gram", i, j, render_value(y)), ("gram", j, i, render_value(y.conjugate()))
                yield "gram", f"[{i}][{j}] {text}", changed(*pair)
    for k, c in enumerate(payload["cycles"]):
        for u in units:
            if render_value(u) != c["eigenvalue"]:
                edits = ("cycles", k, "eigenvalue", render_value(u)), ("cycles", k, "order", u.multiplicative_order())
                yield "eigenvalue", f"{c['id']} = {render_value(u)}", changed(*edits)
    for k in range(n):
        lowered = render_value(parse_value(gram[k][k], field) - 1)
        yield "self_pairing", f"[{k}][{k}] = {lowered}", changed(("gram", k, k, lowered))
    for k, text in enumerate(payload["kernel_vector"]):
        x = parse_value(text, field)
        for u in units if not x.is_zero() else ():
            if u != field.one:
                yield "kernel", f"[{k}] times {render_value(u)}", changed(("kernel_vector", k, render_value(x * u)))
    for k, e in enumerate(payload["edges"]):
        for b in BRAIDS:
            if b != e["braid"]:
                yield "braid", f"{e['src']}-{e['dst']} = {json.dumps(b)}", changed(("edges", k, "braid", b))
    for c in payload["cycles"][: payload["tau"]]:
        if c["id"] != payload["omitted_root"]:
            yield "omitted_root", f"= {c['id']}", changed(("omitted_root", c["id"]))

    ids = [c["id"] for c in payload["cycles"]]

    def letters_changed(word):
        """(change, word) for each letter dropped, or changed to each other cycle."""
        for k, letter in enumerate(word):
            yield f"letter {k} dropped", word[:k] + word[k + 1 :]
            for other in ids:
                if other != letter:
                    yield f"letter {k} = {other}", [*word[:k], other, *word[k + 1 :]]

    for r, pair in enumerate(payload["relations"]):
        for s, word in enumerate(pair):
            for text, new in letters_changed(word):
                yield "relation_word", f"[{r}][{s}] {text}", changed(("relations", r, s, new))
    root = payload["maximal_root"]
    if root is not None:
        for text, new in letters_changed(root["word"]):
            yield "root_word", text, changed(("maximal_root", "word", new))
        for c in ids:
            if c != root["leaf"]:
                yield "root_leaf", f"= {c}", changed(("maximal_root", "leaf", c))
        for u in units:
            if u != parse_value(root["unit"], field):
                yield "root_unit", f"= {render_value(u)}", changed(("maximal_root", "unit", render_value(u)))


def caught_by(payload) -> set[str]:
    """The claims that do not pass on a payload, with "raised" for an error on the way."""
    try:
        d = diagram_from_payload(payload)
    except DiagramError:
        return {"raised"}
    caught = set()
    for verify in (verify_diagram, lambda d: verify_crystallographic(d).checks):
        try:
            caught |= {c.claim_id for c in verify(d) if c.verdict != "pass"}
        except (DiagramError, AffineError):
            caught.add("raised")
    return caught


def corpus(chi="primary"):
    """Each mutant's line, kind and catching claims, over one character's payloads."""
    for name in diagram_names():
        for kind, change, payload in mutants(show_diagram_payload(diagram(name, chi))):
            yield f"{name} {kind} {change}", kind, caught_by(payload)


def catch_matrix(rows, chi="primary") -> str:
    """Mutants per kind, and how many of them each claim catches; a claim
    of the shipped diagrams that catches nothing keeps its column of zeros."""
    shipped = [diagram(name, chi) for name in diagram_names()]
    checked = {c.claim_id for d in shipped for c in (*verify_diagram(d), *verify_crystallographic(d).checks)}
    claims = sorted(checked.union(*(caught for _, _, caught in rows)))
    count = {(k, c): 0 for k in KINDS for c in [*claims, "mutants", "survived"]}
    for _, kind, caught in rows:
        count[kind, "mutants"] += 1
        count[kind, "survived"] += not caught
        for c in caught:
            count[kind, c] += 1
    cols = ["mutants", *claims, "survived"]
    lines = ["kind".ljust(13) + " ".join(c.rjust(max(len(c), 4)) for c in cols)]
    for k in KINDS:
        lines.append(k.ljust(13) + " ".join(str(count[k, c]).rjust(max(len(c), 4)) for c in cols))
    return "\n".join(lines)


def gap_lines(chi="primary") -> list[str]:
    lines = GAPS[chi].read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def test_mutants_that_pass_every_claim_are_the_recorded_gaps():
    survivors, matrices = {}, []
    for chi in GAPS:
        rows = list(corpus(chi))
        survivors[chi] = [line for line, _, caught in rows if not caught]
        matrices.append(f"{chi} character:\n{catch_matrix(rows, chi)}")
    recorded = {chi: gap_lines(chi) for chi in GAPS}
    assert survivors == recorded, "catch matrix (mutants caught per kind and claim):\n" + "\n".join(matrices)


def test_every_kind_makes_mutants_that_differ_from_their_payload():
    """Each kind changes something on some diagram, and no mutant is the
    payload it came from, so a gap is never a copy of the shipped data."""
    for chi in GAPS:
        made = set()
        for name in diagram_names():
            payload = show_diagram_payload(diagram(name, chi))
            for kind, _, mutant in mutants(payload):
                made.add(kind)
                assert mutant != payload
        assert made == set(KINDS)
