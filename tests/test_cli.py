import argparse
import ast
import collections
import dataclasses
import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crystmono
from crystmono import cli
from crystmono.affine import AffineError, dilation_check, reference_names, verify_crystallographic
from crystmono.cli import (
    _EXIT,
    diagram_from_payload,
    diagram_report,
    build_parser,
    main,
    show_diagram_payload,
)
from crystmono.classify import table_rows, verify_table_row
from crystmono.cyclo import CycloField, CycloNum
from crystmono.linalg import HermitianGram
from crystmono.monodromy import CheckResult, DiagramError, diagram, diagram_names, verify_diagram, worst_verdict


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_small_diagram_passes(capsys):
    code, out, _ = run(["verify", "diagram", "P8divZ6"], capsys)
    assert code == 0
    assert "verdict: pass" in out
    assert "ring_lattice" in out


def test_verify_conjugate_character(capsys):
    code, out, _ = run(["verify", "diagram", "P8_Z3", "--chi", "conj"], capsys)
    assert code == 0
    assert "chi=conj" in out and "extra_relation" in out


def test_verify_group_reports_the_linear_order(capsys):
    code, out, _ = run(["verify", "group", "K25"], capsys)
    assert code == 0
    assert "linear order 648" in out
    assert "[pass] D4_3" in out  # the diagram mapped to this model rides along


def test_verify_group_with_two_linked_diagrams(capsys):
    code, out, _ = run(["verify", "group", "K3_6"], capsys)
    assert code == 0
    assert out.index("[pass] K3_6") < out.index("[pass] P8Z6_dblprime") < out.index("[pass] P8Z6_prime")


def test_table_and_proj_targets(capsys):
    code, out, _ = run(["verify", "table1"], capsys)
    assert code == 0 and out.count("[pass]") == 15
    code, out, _ = run(["verify", "pproj"], capsys)
    assert code == 0 and out.count("[pass]") == 7
    assert "[pass] Pproj-1" in out


def test_unknown_names_are_usage_errors(capsys):
    assert run(["verify", "bogus"], capsys)[0] == 2
    assert run(["verify", "diagram", "bogus"], capsys)[0] == 2
    assert run(["verify", "group", "bogus"], capsys)[0] == 2
    assert run(["show", "diagram", "bogus"], capsys)[0] == 2
    assert run(["show", "group", "bogus"], capsys)[0] == 2
    assert run(["show", "bogus", "K25"], capsys)[0] == 2
    assert run(["verify", "diagram"], capsys)[0] == 2
    assert run(["verify", "table1", "extra"], capsys)[0] == 2


def test_json_document_shape(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(["verify", "diagram", "P8divZ4", "--json", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "1"
    assert doc["target"] == "diagram P8divZ4"
    assert doc["verdict"] == "pass"
    (report,) = doc["reports"]
    assert report["case"] == "P8divZ4" and report["group"] == "K3_4"
    assert report["timing"] is None
    for check in report["checks"]:
        assert set(check) == {"claim_id", "claim", "verdict", "witness"}


def test_reports_are_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "diagram", "P8divZ6", "--json", str(a)], capsys)
    run(["verify", "diagram", "P8divZ6", "--json", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


COLD_WARM = [("P8divZ6", "primary"), ("C3_33", "conj")]


def fresh_env():
    """Environment for a fresh interpreter that imports this crystmono."""
    paths = [str(Path(crystmono.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_package_runs_as_a_module():
    """`python -m crystmono` runs the command line without an installed script."""
    done = subprocess.run(
        [sys.executable, "-m", "crystmono", "verify", "table1"], env=fresh_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert "verdict: pass" in done.stdout


def test_stdout_closed_after_the_first_line_exits_141_silently():
    """`crystmono verify all | head -1`: the reader closes stdout after one
    line, and the command exits 141 (128 + SIGPIPE), with nothing on
    stderr.  The pipe is shrunk to one page, so the report, about 14 kB,
    cannot all be in it by then: the rest is written to the closed pipe."""
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    argv = [sys.executable, "-m", "crystmono", "verify", "all"]
    with subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=fresh_env()) as proc:
        os.close(write_end)
        with os.fdopen(read_end, "rb") as out:
            first = out.readline()
        stderr = proc.stderr.read()
    assert first.startswith(b"[pass] ")
    assert (proc.returncode, stderr) == (141, b"")


@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_verify_all_json_is_byte_stable_across_processes_and_caches(chi, tmp_path, capsys):
    """The witnesses carry pi and X; two fresh interpreters and two in-process
    runs after clear_caches() write the same bytes."""
    argv = ["verify", "all", "--chi", chi, "--json"]
    paths = [tmp_path / f"{k}.json" for k in range(4)]
    for path in paths[:2]:
        subprocess.run([sys.executable, "-m", "crystmono", *argv, str(path)], env=fresh_env(), capture_output=True, check=True)
    crystmono.clear_caches()
    for path in paths[2:]:
        assert run([*argv, str(path)], capsys)[0] == 0
    assert len({p.read_bytes() for p in paths}) == 1
    doc = json.loads(paths[0].read_text())
    witnesses = [c["witness"] for r in doc["reports"] for c in r["checks"] if c["claim_id"] == "linear_order"]
    assert len(witnesses) == 8 and all(w.startswith("pi: ") and "; X = [[" in w for w in witnesses)


SNAPSHOTS = Path(__file__).parent / "data"


@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_verify_all_prints_the_checked_in_report(chi, capsys):
    """tests/data/verify_all_<chi>.txt is a change detector, not an answer
    key: it is regenerated only on purpose, with every changed line listed
    in CHANGES.md (see tests/data/README.md)."""
    code, out, _ = run(["verify", "all", "--chi", chi], capsys)
    assert code == 0
    assert out == (SNAPSHOTS / f"verify_all_{chi}.txt").read_text()


def test_verify_group_prints_the_checked_in_reports(capsys):
    """tests/data/verify_groups.txt holds `verify group NAME` for the seven
    models, in their stored order, for the primary and then the conjugate
    character; a change detector like the `verify all` snapshots."""
    out = []
    for chi in ("primary", "conj"):
        for name in reference_names():
            code, text, _ = run(["verify", "group", name, "--chi", chi], capsys)
            assert code == 0
            out.append(text)
    assert "".join(out) == (SNAPSHOTS / "verify_groups.txt").read_text()


def cold_report(name, chi, path):
    """Run one diagram target in a fresh interpreter, so every cache starts empty."""
    argv = ["verify", "diagram", name, "--chi", chi, "--json", str(path)]
    done = subprocess.run([sys.executable, "-m", "crystmono.cli", *argv], env=fresh_env(), capture_output=True, check=True)
    return done.stdout


@pytest.mark.parametrize("name, chi", COLD_WARM)
def test_cold_and_warm_reports_are_identical(name, chi, tmp_path, capsys):
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    cold_out = cold_report(name, chi, cold)
    other, other_chi = next(c for c in COLD_WARM if c != (name, chi))
    run(["verify", "diagram", other, "--chi", other_chi], capsys)
    dilation_check(diagram(name, chi))
    code, warm_out, _ = run(["verify", "diagram", name, "--chi", chi, "--json", str(warm)], capsys)
    assert code == 0
    assert warm.read_bytes() == cold.read_bytes()
    assert warm_out.encode() == cold_out


def cache_probes(capsys):
    """Calls whose outcomes must not depend on what earlier calls left cached."""
    return [
        lambda: run(["verify", "diagram", "C3_33", "--chi", "conj"], capsys),
        lambda: dilation_check(diagram("P8divZ6")),
    ]


def test_outcomes_do_not_depend_on_cache_state(capsys):
    probes = cache_probes(capsys)
    cold = []
    for probe in probes:
        crystmono.clear_caches()
        cold.append(probe())

    crystmono.clear_caches()
    forward = [probe() for probe in probes]
    backward = [probe() for probe in reversed(probes)][::-1]
    assert forward == backward == cold


@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_verify_all_sends_no_quadratic_product_through_the_general_loop(chi, monkeypatch, capsys):
    """Every diagram and model lives in Q(w) or Q(i), so a cold `verify all`
    multiplies, conjugates and inverts there only in closed form.  The
    general-degree product loop ends in one _reduce per entry, so _reduce
    counts its entries; conjugation outside closed form is a _substitute;
    and the general inverse multiplies its conjugates, so an inverse that
    reaches _sum_of_products ran the general loop."""
    products, reduce = CycloField._sum_of_products, CycloField._reduce
    substitute, inverse, conjugate = CycloField._substitute, CycloNum.inverse, CycloNum.conjugate
    entries, loops, substitutions = collections.Counter(), collections.Counter(), collections.Counter()
    inverses, general_inverses, conjugates = collections.Counter(), collections.Counter(), collections.Counter()

    def counted_products(self, pairs):
        entries[self.degree] += 1
        return products(self, pairs)

    def counted_reduce(self, coeffs):
        loops[self.degree] += 1
        return reduce(self, coeffs)

    def counted_substitute(self, x, step):
        substitutions[self.degree] += 1
        return substitute(self, x, step)

    def counted_inverse(self):
        inverses[self.field.degree] += 1
        before = entries.total()
        out = inverse(self)
        general_inverses[self.field.degree] += entries.total() > before
        return out

    def counted_conjugate(self):
        conjugates[self.field.degree] += 1
        return conjugate(self)

    monkeypatch.setattr(CycloField, "_sum_of_products", counted_products)
    monkeypatch.setattr(CycloField, "_reduce", counted_reduce)
    monkeypatch.setattr(CycloField, "_substitute", counted_substitute)
    monkeypatch.setattr(CycloNum, "inverse", counted_inverse)
    monkeypatch.setattr(CycloNum, "conjugate", counted_conjugate)
    crystmono.clear_caches()
    assert main(["verify", "all", "--chi", chi]) == 0
    capsys.readouterr()
    assert entries[2] > 1000 and loops[2] == 0
    assert loops == entries - collections.Counter({2: entries[2]})  # every other product runs the loop
    assert conjugates[2] > 500 and substitutions[2] == 0
    assert inverses[2] > 100 and general_inverses[2] == 0
    # the counters do see the general paths: in Q(zeta_12), a product is one
    # loop, a conjugate one substitution, and an inverse substitutes its three
    # other conjugates and runs three loops, two for their product and one
    # for the norm
    z = CycloField(12).zeta()
    before = loops[4], substitutions[4], general_inverses[4]
    z * z, z.conjugate(), z.inverse()
    assert (loops[4], substitutions[4], general_inverses[4]) == (before[0] + 4, before[1] + 4, before[2] + 1)
    crystmono.clear_caches()


def test_benchmark_tracer_finds_every_traced_name():
    """perfbench/tracing.py patches crystmono functions and methods by name;
    a deleted or renamed one makes install raise, which only a traced
    benchmark run would otherwise show."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    code = "import tracing; tracing.install(tracing.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], cwd=bench, env=fresh_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_unused_imports_in_the_package():
    """Every module-level name a src module imports is used in that module."""
    unused = []
    for path in sorted(Path(crystmono.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not unused


UNCALLED = {
    "classify.character": "public field-valued API: the unit scaling one monomial",
    "classify.character_multiplicity": "public field-valued API; acceptance criterion 3 rests on it",
    "classify.versal_classes": "public field-valued API; acceptance criterion 3 rests on it",
    "classify.class_character": "public field-valued API: the character of one basis class",
    "classify.equivariance_factor": "public field-valued API: the unit scaling every term",
    "classify.is_smoothable": "public field-valued API: whether a smoothing direction exists",
    "classify.kernel_character": "public field-valued API: the character on the kernel line",
    "classify.symmetry_order": "public field-valued API: the order of the symmetry",
    "cyclo.clear_caches": "README documents it as the way to empty every cache",
    "cyclo.CycloField.element": "public constructor from rational coefficients; the oracle tests build values with it",
    "linalg.ZLattice.basis_vectors": "public view of a lattice's basis; the lattice tests check membership with it",
}

# defs that no src statement reaches and perfbench/*.py names
BENCH_ONLY = {
    "affine.dilation_check": "acceptance criterion 9; the dilation workload runs it, and no CLI target does yet",
    "affine.reference_closure": "the model's elements as matrices, for the closure tests; the tracer patches it by name",
    "affine.reference_names": "the public list of models, which the intrinsic workload walks",
    "cli.diagram_from_payload": "README documents it as the way back from a `show` payload; the intrinsic workload's controls use it",
    "linalg.ZLattice.reduce": "canonical reduction modulo a lattice, for the lattice oracle tests; the tracer patches it by name",
    "linalg.solve": "one solution of a linear system, for the elimination tests; the tracer patches it by name",
    "monodromy.operator_order": "the power walk kept as order_failure's oracle; the tracer patches it by name",
}


def _names_used(tree) -> set[str]:
    """The names `tree` reads, imports or reads as attributes. A Name that
    a function `tree` binds as one of its own parameters is that
    parameter, not a use of a homonymous def."""
    params = set()
    if isinstance(tree, ast.FunctionDef):
        a = tree.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in params:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
    return names


def _unreached(src: dict[str, str], bench: list[str]) -> set[str]:
    """The "module.name" of each module-level def or class, and the
    "module.Class.name" of each method other than a dunder, in the ``src``
    sources (module stem -> text) that no other statement of ``src`` names
    and no ``bench`` source names, dotted string constants included. A
    class's own name and a method's own name inside its body do not count.
    "__init__" in ``src`` is skipped, so re-exports do not count."""
    defined, reached = [], set()
    for stem, text in src.items():
        if stem == "__init__":
            continue
        for top in ast.parse(text).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{stem}.{own}", own))
            if not isinstance(top, ast.ClassDef):
                reached |= _names_used(top) - {own}
                continue
            for node in [*top.decorator_list, *top.bases, *top.keywords]:
                reached |= _names_used(node)
            for member in top.body:
                name = getattr(member, "name", None)
                if isinstance(member, ast.FunctionDef) and not re.fullmatch(r"__\w+__", name):
                    defined.append((f"{stem}.{own}.{name}", name))
                reached |= _names_used(member) - {own, name}
    for text in bench:
        tree = ast.parse(text)
        reached |= _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
                reached |= set(node.value.split("."))
    return {dotted for dotted, name in defined if name not in reached}


def test_every_src_function_has_a_caller():
    """Each module-level def or class in src/crystmono, and each method but
    the dunders, is used elsewhere in src (outside its own definition;
    __init__.py's re-exports do not count). The scan goes by name, but a
    parameter is no use: the ``character`` parameter of cli._report does
    not reach classify.character. The uncalled rest is pinned, each with
    its reason for staying: UNCALLED, and BENCH_ONLY, the defs that only
    perfbench/*.py names, where the tracer patches functions by dotted
    strings such as "monodromy.operator_order". Each of those must still
    be named there, and a new def that only the benchmark names fails."""
    src = {path.stem: path.read_text() for path in Path(crystmono.__file__).parent.glob("*.py")}
    bench = [path.read_text() for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")]
    assert _unreached(src, []) == set(UNCALLED) | set(BENCH_ONLY)
    assert _unreached(src, bench) == set(UNCALLED)


def test_caller_scan_flags_only_the_uncalled():
    """The scan behind test_every_src_function_has_a_caller reports a def
    that only its own body and an __init__ re-export name, and counts as
    reached a def called from another module, a class used as an attribute
    and a function that a benchmark names only by a dotted string. A def
    whose name is only another def's parameter stays unreached. Methods
    are scanned too, dunders aside: one called through an instance is
    reached, one that only calls itself is not."""
    src = {
        "__init__": "from .a import lonely, Used\n__all__ = ['lonely']\n",
        "a": "class Used:\n    def __repr__(self):\n        return ''\n\n    def spin(self):\n        return self.spin()\n\n"
        "    def turn(self):\n        return Used()\n\n"
        "def lonely():\n    return lonely()\n\ndef called():\n    pass\n\n"
        "def traced():\n    pass\n\ndef homonym():\n    pass\n",
        "b": "from . import a\nfrom .a import called\n\ndef user(homonym=None):\n    return a.Used().turn(), called(), homonym\n",
    }
    bench = ["import b\nb.user()\nPATCH = 'a.traced'\n"]
    assert _unreached(src, bench) == {"a.lonely", "a.homonym", "a.Used.spin"}
    assert _unreached(src, []) == {"a.lonely", "a.traced", "b.user", "a.homonym", "a.Used.spin"}


def test_fold_and_its_helpers_are_gone():
    """monodromy.fold, HermitianGram.kernel and root_of_unity's power
    parameter were deleted with no replacement."""
    with pytest.raises(AttributeError):
        crystmono.fold
    assert "fold" not in crystmono.__all__
    assert not hasattr(crystmono.monodromy, "fold")
    assert not hasattr(crystmono.linalg.HermitianGram, "kernel")
    with pytest.raises(TypeError):
        CycloField(3).root_of_unity(3, 2)


def test_no_dynamic_evaluation_in_the_package():
    """No src module calls eval, exec, compile or __import__, so the value grammar stays a whitelist walk."""
    calls = []
    for path in sorted(Path(crystmono.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("eval", "exec", "compile", "__import__"):
                    calls.append(f"{path.name}:{node.lineno}: {node.func.id}")
    assert not calls


def test_ring_names_are_spelled_only_in_cyclo():
    """Which field and generator a ring has is decided by cyclo.RING_GENERATORS alone."""
    spelled = []
    for path in sorted(Path(crystmono.__file__).parent.glob("*.py")):
        if path.name == "cyclo.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in ("Z[w]", "Z[i]"):
                spelled.append(f"{path.name}:{node.lineno}: {node.value}")
    assert not spelled


def test_diagram_has_one_constructor():
    """Every Diagram, from a dataset or a payload, is made by
    monodromy.assemble_diagram, so each passes the same structural checks."""
    sites = []
    for path in sorted(Path(crystmono.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "Diagram" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    sites.append(f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert sites == ["monodromy.py:assemble_diagram"]


def test_only_replaced_records_are_dataclasses():
    """Value records are typing.NamedTuple classes, which build faster at
    import than the methods a dataclass generates.  Four stay dataclasses:
    TableRow and SymmetryCase, because the negative controls in
    perfbench/child.py and tests/test_acceptance.py copy them with
    dataclasses.replace; Diagram, because its equality and hash are by
    identity, and tests copy it with replace; AffineIsometry, because its
    * is composition, and a tuple's * and + must not leak into it."""
    decorated = []
    for path in sorted(Path(crystmono.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = getattr(dec, "func", dec)
                    if "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None)):
                        decorated.append(node.name)
    assert sorted(decorated) == ["AffineIsometry", "Diagram", "SymmetryCase", "TableRow"]


RECORDS = (
    "CheckResult", "Cycle", "Edge", "PLOperator", "Quotient", "ProjRow", "ReferenceGroup",
    "TranslationReport", "Conjugacy", "MaximalRootReport", "CaseReport", "DilationReport",
)


@pytest.fixture(scope="module")
def real_records():
    """The first instance of each record class met in a `verify all` run,
    a dilation check, a reference group and the projective rows."""
    from crystmono import affine, cli

    seen = {}

    def keep(*records):
        for r in records:
            seen.setdefault(type(r).__name__, r)

    def spy(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            keep(out)
            return out

        return wrapper

    spied = [(affine, n) for n in ("quotient_basis", "translation_subgroup", "maximal_root_check")]
    with pytest.MonkeyPatch.context() as mp:
        for module, name in spied + [(cli, "verify_crystallographic")]:
            mp.setattr(module, name, spy(getattr(module, name)))
        assert main(["verify", "all"]) == 0
    case = seen["CaseReport"]
    d = diagram(case.diagram)
    ref = crystmono.reference_group(case.group)
    keep(*case.checks, case.conjugacy, *d.cycles, *d.edges, ref, *ref.generators, dilation_check(d))
    keep(*crystmono.proj_rows())
    return seen


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_their_value_semantics(name, real_records):
    """Each record is immutable, shows as Name(field=value, ...) in field
    order, and hashes as the tuple of its field values, as the frozen
    dataclasses did; one holding a dict or a lattice is unhashable, as before."""
    rec = real_records[name]
    values = [getattr(rec, f) for f in rec._fields]
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], values[0])
    with pytest.raises(AttributeError):
        rec.extra = None
    assert repr(rec) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(rec._fields, values)) + ")"
    twin = type(rec)(*values)
    assert twin == rec and twin is not rec
    try:
        expected = hash(tuple(values))
    except TypeError:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == expected


@pytest.fixture
def patched_group(monkeypatch):
    """Serve reference_groups.json with one model's entry changed, from cold caches."""
    from crystmono import affine, cli

    def patch(name, **fields):
        groups = dict(affine._raw_groups())
        groups[name] = dict(groups[name], **fields)
        for module in (affine, cli):
            monkeypatch.setattr(module, "_raw_groups", lambda: groups)
        crystmono.clear_caches()

    yield patch
    crystmono.clear_caches()


def test_unknown_lattice_ring_is_a_data_error(patched_group, capsys):
    patched_group("K3_6", lattice_rule={"kind": "ring", "ring": "Z[x]"})
    code, _, err = run(["show", "group", "K3_6"], capsys)
    assert code == 2
    assert "K3_6: unknown lattice ring 'Z[x]'" in err


def test_model_braid_must_be_the_least_that_holds(patched_group, capsys):
    # K8's generators satisfy the length-3 braid, so the length-6 one too
    patched_group("K8", braids=[[0, 1, 6]])
    with pytest.raises(AffineError, match="K8: declared braid 6 is not the least that holds between generators 0,1"):
        crystmono.reference_group("K8")
    code, _, err = run(["show", "group", "K8"], capsys)
    assert code == 2
    assert "K8: declared braid 6 is not the least that holds" in err


def test_unknown_lattice_rule_is_a_data_error(patched_group, capsys):
    patched_group("K3_6", lattice_rule={"kind": "rng", "ring": "Z[w]"})
    code, _, err = run(["verify", "diagram", "P8Z6_prime"], capsys)
    assert code == 2
    assert "K3_6: unknown lattice rule 'rng'" in err


def test_model_contradicting_its_reflection_counts_is_a_data_error(patched_group, capsys):
    patched_group("K5", reflection_orders={"2": 99})
    code, _, err = run(["verify", "diagram", "C3_33"], capsys)
    assert code == 2
    assert "K5: reflection orders {3: 16} contradict declared {2: 99}" in err


def test_closure_beyond_the_declared_order_is_a_data_error(patched_group, capsys):
    """K5 has 72 elements; declared as 71, its closure stops at the bound,
    and the outcome is the same from cold caches and after a warming run."""
    patched_group("K5", order=71)
    targets = [["verify", "group", "K5"], ["verify", "diagram", "C3_33"]]
    cold = []
    for argv in targets:
        crystmono.clear_caches()
        cold.append(run(argv, capsys))
    # the model's generators and the diagram's quotient are cached; a failed closure is not
    for argv in (["show", "group", "K5"], ["show", "diagram", "C3_33"], *targets):
        run(argv, capsys)
    warm = [run(argv, capsys) for argv in targets]
    assert cold == warm
    for code, _, err in cold:
        assert code == 2
        assert err == "error: K5: closure exceeds declared order 71\n"


def test_closure_short_of_the_declared_order_is_a_data_error(patched_group, capsys):
    patched_group("K5", order=73)
    for target, name in (("group", "K5"), ("diagram", "C3_33")):
        code, _, err = run(["verify", target, name], capsys)
        assert code == 2
        assert err == "error: K5: closure order 72 contradicts declared 73\n"


def test_show_then_verify_round_trips(capsys):
    code, out, _ = run(["show", "diagram", "P8divZ4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1" and payload["classical_order"] == 4
    rebuilt = diagram_from_payload(payload)
    args = build_parser().parse_args(["verify", "diagram", "P8divZ4"])
    assert diagram_report(rebuilt, args) == diagram_report(diagram("P8divZ4"), args)


@pytest.mark.parametrize(
    "source, name, missing, cycles", [("P8Z6_prime", "C3_33", 2, 2), ("P8Z6_prime", "D4_3", 3, 2), ("C3_24", "D4_3", 3, 3)]
)
def test_payload_under_a_shipped_name_with_fewer_cycles_is_an_affine_error(source, name, missing, cycles):
    """The maximal-root words are declared by diagram name and index cycles
    by position, so a payload that keeps a shipped name with fewer cycles
    is refused by name and missing cycle, not by an IndexError."""
    rebuilt = diagram_from_payload(dict(show_diagram_payload(diagram(source)), name=name))
    with pytest.raises(AffineError, match=f"^{name}: the maximal-root word names cycle {missing} of {cycles} cycles$"):
        verify_crystallographic(rebuilt)


@pytest.mark.parametrize("source, group", [("D4_3", "K5"), ("C3_33", "K25")])
@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_payload_naming_a_model_of_another_rank_fails_its_group_claims(source, group, chi):
    """Kept dual reflections and model generators of different counts have
    no conjugacy: the group claims fail and the lattice claims are
    inconclusive, with no exception."""
    rebuilt = diagram_from_payload(dict(show_diagram_payload(diagram(source, chi)), expected_group=group))
    verdicts = {c.claim_id: c.verdict for c in verify_crystallographic(rebuilt).checks}
    assert verdicts == {
        "dual_form": "pass",
        "linear_order": "fail",
        "reflection_multiset": "fail",
        **dict.fromkeys(("omitted_in_closure", "lattice_rank", "lattice_invariant"), "inconclusive"),
        **dict.fromkeys(("translations_contained", "translations_generate"), "inconclusive"),
        "maximal_root": "pass",
    }


@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_every_renamed_payload_verifies_or_is_an_affine_error(chi):
    """All 64 renamings of the 8 diagrams: a run gives verdicts or raises
    AffineError, and a maximal-root unit outside the payload's ring is
    refused by both rings, not by a ValueError from the parser."""
    names = diagram_names()
    cross = {("C3_24", "Z[w]", "i", "Z[i]"), ("P8_Z3", "Z[i]", "conj(w)", "Z[w]")}
    refused = []
    for source in names:
        payload = show_diagram_payload(diagram(source, chi))
        for name in names:
            try:
                verify_crystallographic(diagram_from_payload(dict(payload, name=name)))
            except AffineError as e:
                refused.append((name, payload["ring"], str(e)))
    unit_errors = {(name, ring, msg) for name, ring, msg in refused if "maximal-root unit" in msg}
    assert unit_errors == {
        (name, ring, f"{name}: the maximal-root unit {unit} lies in {home}, not in the diagram's ring {ring}")
        for name, ring, unit, home in cross
    }


@pytest.mark.parametrize("source, group", [("C3_24", "K25"), ("D4_3", "K8")])
@pytest.mark.parametrize("chi", ["primary", "conj"])
def test_payload_naming_a_model_over_another_ring_fails_its_group_claims(source, group, chi):
    """A model whose ring does not embed in the diagram's field has no
    conjugacy: the verdicts of the rank mismatch, and a witness naming both
    rings, with no exception."""
    d = diagram_from_payload(dict(show_diagram_payload(diagram(source, chi)), expected_group=group))
    checks = {c.claim_id: c for c in verify_crystallographic(d).checks}
    assert {k: c.verdict for k, c in checks.items()} == {
        "dual_form": "pass",
        "linear_order": "fail",
        "reflection_multiset": "fail",
        **dict.fromkeys(("omitted_in_closure", "lattice_rank", "lattice_invariant"), "inconclusive"),
        **dict.fromkeys(("translations_contained", "translations_generate"), "inconclusive"),
        "maximal_root": "pass",
    }
    rings = (d.ring, {"K25": "Z[w]", "K8": "Z[i]"}[group])
    assert checks["linear_order"].witness == (
        f"the model's ring {rings[1]} does not embed in Q(zeta_{d.field.n}), where the diagram's ring {rings[0]} is verified"
    )


@pytest.mark.parametrize("key, value", [("ring", "Z[x]"), ("chi", "sideways")])
def test_payload_with_unknown_ring_or_character_is_rejected(key, value, capsys):
    code, out, _ = run(["show", "diagram", "P8divZ4"], capsys)
    assert code == 0
    payload = dict(json.loads(out), **{key: value})
    with pytest.raises(DiagramError, match=re.escape(repr(value))):
        diagram_from_payload(payload)


def _set(*path, value):
    """An edit that sets payload[path[0]]...[path[-1]] = value."""

    def edit(p):
        *head, last = path
        for key in head:
            p = p[key]
        p[last] = value

    return edit


PAYLOAD_FAULTS = {
    "tau": ("C3_33", lambda p: p.update(tau=p["tau"] + 1), "tau does not match cycle/relation count"),
    "short_kernel_vector": (
        "C3_33",
        lambda p: p["kernel_vector"].pop(),
        "kernel vector must have tau entries",
    ),
    "classical_order_zero": ("C3_33", _set("classical_order", value=0), "classical order must be positive"),
    "classical_order_negative": ("C3_33", _set("classical_order", value=-3), "classical order must be positive"),
    "short_relation": ("P8divZ4", lambda p: p["relation"].pop(), "relation must have one entry per cycle"),
    "endpoint": ("C3_33", _set("edges", 0, "dst", value="nowhere"), "edge endpoint missing"),
    "loop": ("C3_33", _set("edges", 0, "dst", value="e1"), "edge e1->e1 joins a cycle to itself"),
    "second_edge": (
        "C3_33",
        lambda p: p["edges"].append(dict(p["edges"][0], src="e0", dst="e1")),
        "conflicting edge e0->e1",
    ),
    "braid": ("C3_33", _set("edges", 0, "braid", value=5), "unsupported braid length 5"),
    "duplicate_id": (
        "C3_33",
        lambda p: p["cycles"][1].update(id=p["cycles"][0]["id"]),
        "duplicate cycle ids",
    ),
    "gram_size": (
        "C3_33",
        lambda p: p.update(gram=[row[:-1] for row in p["gram"][:-1]]),
        "gram must have one row and one column per cycle",
    ),
    "gram_ragged_row": ("C3_33", lambda p: p["gram"][1].pop(), "gram must have one row and one column per cycle"),
    "gram_not_hermitian": ("C3_33", _set("gram", 0, 1, value="7"), "gram matrix is not Hermitian at (0, 1)"),
    "fractional_self_pairing": ("C3_33", _set("gram", 0, 0, value=-3.5), "self-pairings must be integers"),
    "kernel_pair": (
        "C3_33",
        lambda p: p.update(kernel_characters=[p["kernel_characters"][0]] * 2),
        "kernel characters are not conjugate",
    ),
    "kernel_order": (
        "C3_33",
        _set("kernel_characters", value=["1", "1"]),
        "kernel character is not an admissible root of unity",
    ),
    "omitted_root": (
        "C3_33",
        _set("omitted_root", value="nowhere"),
        "omitted root must be one of the first tau cycles",
    ),
}


@pytest.mark.parametrize("fault", PAYLOAD_FAULTS, ids=str)
def test_payload_with_broken_structure_is_rejected(fault):
    """A tampered payload is rejected by the check it breaks, never read
    past its end, truncated into verdicts or passed."""
    name, edit, message = PAYLOAD_FAULTS[fault]
    payload = show_diagram_payload(diagram(name))
    edit(payload)
    with pytest.raises(DiagramError, match=re.escape(f"{name}: {message}")):
        diagram_from_payload(payload)


PAYLOAD_TYPE_FAULTS = {
    "gram_name": ("C3_33", ("gram", 0, 1), "x", "gram[0][1] must be in the value grammar"),
    "gram_power": ("C3_33", ("gram", 1, 0), "w**2", "gram[1][0] must be in the value grammar"),
    "gram_null": ("C3_33", ("gram", 0, 1), None, "gram[0][1] must be a value"),
    "gram_bool": ("C3_33", ("gram", 0, 0), True, "gram[0][0] must be a value"),
    "gram_list": ("C3_33", ("gram", 0, 2), [0], "gram[0][2] must be a value"),
    "gram_nan": ("C3_33", ("gram", 0, 2), float("nan"), "gram[0][2] must be a value"),
    "gram_infinite": ("C3_33", ("gram", 2, 2), float("-inf"), "gram[2][2] must be a value"),
    "eigenvalue": ("C3_33", ("cycles", 1, "eigenvalue"), "zeta", "cycles[1].eigenvalue must be in the value grammar"),
    "kernel_vector": ("C3_33", ("kernel_vector", 1), "2 + q", "kernel_vector[1] must be in the value grammar"),
    "kernel_characters": ("C3_33", ("kernel_characters", 0), "-w^", "kernel_characters[0] must be in the value grammar"),
    "relation": ("P8divZ4", ("relation", 2), "i*", "relation[2] must be in the value grammar"),
    "order_text": ("C3_33", ("cycles", 0, "order"), "3", "cycles[0].order must be an integer"),
    "order_bool": ("C3_33", ("cycles", 0, "order"), True, "cycles[0].order must be an integer"),
    "order_float": ("C3_33", ("cycles", 0, "order"), 3.0, "cycles[0].order must be an integer"),
    "tau_text": ("C3_33", ("tau",), "3", "tau must be an integer"),
    "tau_bool": ("C3_33", ("tau",), True, "tau must be an integer"),
    "tau_float": ("C3_33", ("tau",), 3.0, "tau must be an integer"),
    "braid_text": ("C3_33", ("edges", 0, "braid"), "3", "edges[0].braid must be an integer"),
    "braid_bool": ("C3_33", ("edges", 0, "braid"), True, "edges[0].braid must be an integer"),
    "braid_float": ("C3_33", ("edges", 0, "braid"), 3.0, "edges[0].braid must be an integer"),
    "classical_order_text": ("C3_33", ("classical_order",), "3", "classical_order must be an integer"),
    "classical_order_bool": ("C3_33", ("classical_order",), True, "classical_order must be an integer"),
    "omitted_root_index": ("C3_33", ("omitted_root",), 0, "omitted_root must be a cycle id"),
    "omitted_root_list": ("C3_33", ("omitted_root",), ["e0"], "omitted_root must be a cycle id"),
    "cycle_id": ("C3_33", ("cycles", 0, "id"), ["e0"], "cycles[0].id must be a cycle id"),
    "edge_src": ("C3_33", ("edges", 0, "src"), 1, "edges[0].src must be a cycle id"),
    "gram_scalar": ("C3_33", ("gram",), 5, "gram must be a list"),
    "gram_row_scalar": ("C3_33", ("gram", 0), 5, "gram[0] must be a list"),
    "cycles_scalar": ("C3_33", ("cycles",), 5, "cycles must be a list"),
    "edge_scalar": ("C3_33", ("edges", 0), 5, "edges[0] must be an object"),
    "kernel_vector_scalar": ("C3_33", ("kernel_vector",), 5, "kernel_vector must be a list"),
    "rejected_assignment": (
        "P8_Z3",  # the one diagram with a rejected choice
        ("rejected_choices", 0, "assignment"),
        5,
        "rejected_choices[0].assignment must be an object",
    ),
    "resolved_choices_list": ("C3_33", ("resolved_choices",), [1], "resolved_choices must be an object"),
    "name_list": ("C3_33", ("name",), [], "name must be a string"),
    "ring_list": ("C3_33", ("ring",), [], "ring must be a string"),
    "expected_group_list": ("C3_33", ("expected_group",), [], "expected_group must be a string or null"),
    "resolved_choice_int": ("C3_33", ("resolved_choices", "x"), 5, "resolved_choices['x'] must be a string"),
    "rejected_violates": ("P8_Z3", ("rejected_choices", 0, "violates"), 5, "rejected_choices[0].violates must be a string"),
}


@pytest.mark.parametrize("fault", PAYLOAD_TYPE_FAULTS, ids=str)
def test_payload_value_of_the_wrong_type_is_rejected(fault):
    """A value outside the value grammar, an integer field that holds no
    int (a bool is an int to Python), an id that is no string, or a list or
    object of the wrong shape is rejected, naming the key and the value,
    and never reaches a check.  A name that is no string is reported
    under "payload", as a missing one is."""
    name, path, value, message = PAYLOAD_TYPE_FAULTS[fault]
    payload = show_diagram_payload(diagram(name))
    _set(*path, value=value)(payload)
    prefix = "payload" if path == ("name",) else name
    with pytest.raises(DiagramError, match="^" + re.escape(f"{prefix}: {message}, not {value!r}") + "$"):
        diagram_from_payload(payload)


def test_payload_braid_may_be_absent():
    payload = show_diagram_payload(diagram("C3_33"))
    payload["edges"][1]["braid"] = None
    assert diagram_from_payload(payload).edges[1].braid is None


def test_payload_edge_values_are_read_off_the_gram():
    payload = show_diagram_payload(diagram("C3_33"))
    payload["edges"][0]["value"] = "7"
    rebuilt = diagram_from_payload(payload)
    assert rebuilt.gram.gram == diagram("C3_33").gram.gram


def test_negative_controls_reach_their_verdicts():
    """The tampered gram entry and eigenvalue pass the structural checks,
    so verify_diagram judges them, with the verdicts these mutations have
    always had; the flipped symmetry row fails its equivariance claim."""
    payload = show_diagram_payload(diagram("C3_33"))
    payload["gram"][0][0] = "-4"
    verdicts = {c.claim_id: c.verdict for c in verify_diagram(diagram_from_payload(payload))}
    assert verdicts == dict.fromkeys(("gram_form", "reflections", "braids", "classical_monodromy"), "fail")

    payload = show_diagram_payload(diagram("C3_24"))
    payload["cycles"][1]["eigenvalue"] = "-1"
    verdicts = {c.claim_id: c.verdict for c in verify_diagram(diagram_from_payload(payload))}
    assert verdicts == {"gram_form": "pass", "reflections": "fail", "braids": "fail", "classical_monodromy": "fail"}

    row = table_rows()[0]
    kx, ky, kz = row.case.kappa
    flipped = dataclasses.replace(row, case=dataclasses.replace(row.case, kappa=(-kx, ky, kz)))
    assert {c.claim_id: c.verdict for c in verify_table_row(flipped)}["equivariance"] == "fail"


@pytest.mark.parametrize(
    "fields, violated, witness",
    [
        ({}, None, "semidefinite True, corank 1, kernel annihilated True"),
        ({"kernel_vector": ["0", "0", "0"]}, "kernel_vector", "semidefinite True, corank 1, kernel vector is zero"),
        (
            {"gram": [["3", "2 + w", "0"], ["1 - w", "-3", "2 - 2*w"], ["0", "4 + 2*w", "-6"]]},
            "negative_semidefinite",
            "semidefinite False, corank 0, kernel annihilated False",
        ),
        (
            {"gram": [["-3"] * 3] * 3, "kernel_vector": ["1", "-1", "0"]},
            "quotient_corank",
            "semidefinite True, corank 2, kernel annihilated True",
        ),
    ],
    ids=["shipped", "zero-kernel", "positive-self-pairing", "corank-2"],
)
def test_zero_kernel_vector_fails_the_gram_claim(fields, violated, witness):
    """Reconciliation (_check_gram) and the gram_form claim decide the form
    from the same form facts (_form_facts), so on C3_33's payload with `fields`
    replaced, _check_gram names a constraint exactly when gram_form fails.
    The zero vector is annihilated by every form but spans no radical; a
    positive self-pairing makes the form indefinite; and the rank-one form
    -3 (1, 1, 1)^T (1, 1, 1) has a radical of dimension 2, which contains
    the kernel vector (1, -1, 0)."""
    payload = dict(show_diagram_payload(diagram("C3_33")), **fields)
    d = diagram_from_payload(payload)
    gram = next(c for c in verify_diagram(d) if c.claim_id == "gram_form")
    assert (gram.verdict, gram.witness) == ("pass" if violated is None else "fail", witness)
    assert crystmono.monodromy._check_gram(d.gram, d.tau, d.kernel_vector, d.relation) == violated


def _lowered(form):
    """The form with its first self-pairing lowered by 1."""
    rows = [list(row) for row in form.gram]
    rows[0][0] -= 1
    return HermitianGram(tuple(map(tuple, rows)))


def test_quotient_basis_is_cached_per_diagram():
    """quotient_basis keeps one Quotient per Diagram object, and
    clear_caches() empties that cache.  Forms compare by their Gram rows,
    so the Quotient rebuilt after clearing equals the first one; forms over
    different Grams are unequal."""
    from crystmono.monodromy import quotient_basis

    d = diagram("C3_33")
    q = quotient_basis(d)
    assert quotient_basis(d) is q
    crystmono.clear_caches()
    assert quotient_basis.cache_info().currsize == 0
    fresh = quotient_basis(d)
    assert fresh is not q and fresh.gram is not q.gram
    assert fresh == q and fresh.gram == q.gram and hash(fresh.gram) == hash(q.gram)
    assert _lowered(d.gram) != d.gram and d.gram != diagram("C3_33", "conj").gram
    assert fresh._replace(gram=_lowered(q.gram)) != q


def test_verify_all_builds_one_quotient_per_diagram(monkeypatch, capsys):
    """A cold `verify all` judges each candidate form once and builds one
    Quotient per (diagram, character), in either character.  Reconciliation
    judges the 9 candidate forms (P8_Z3 has two), with one semidefiniteness
    and one rank elimination each, and assembles only the 8 winners; the
    gram_form claim reads that judgement, and quotient_basis is first
    called on the assembled diagram, which the spy reads from its frame."""
    from crystmono import linalg, monodromy

    counted = {
        "Quotient": (monodromy, "Quotient"),
        "semidefinite": (linalg.HermitianGram, "is_negative_semidefinite"),
        "mat_rank": (linalg, "mat_rank"),
        "assemble_diagram": (monodromy, "assemble_diagram"),
    }
    calls, quotients = collections.Counter(), collections.Counter()
    for key, (owner, attr) in counted.items():

        def spy(*args, _real=getattr(owner, attr), _key=key, **kwargs):
            calls[_key] += 1
            if _key == "Quotient":
                d = sys._getframe(1).f_locals["d"]
                quotients[d.name, d.chi_label] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    for chi in ("primary", "conj"):
        calls.clear()
        crystmono.clear_caches()
        assert main(["verify", "all", "--chi", chi]) == 0
        assert calls == {"Quotient": 8, "semidefinite": 9, "mat_rank": 9, "assemble_diagram": 8}
    crystmono.clear_caches()
    assert quotients == {(name, chi): 1 for name in diagram_names() for chi in ("primary", "conj")}


def _claims(d):
    """[claim id, verdict, witness] of every check of verify_diagram and
    verify_crystallographic on one diagram."""
    return [[c.claim_id, c.verdict, c.witness] for c in (*verify_diagram(d), *verify_crystallographic(d).checks)]


def test_verdicts_do_not_depend_on_cache_state():
    """Every check of the 8 diagrams in both characters reads the same, claim
    id, verdict and witness: cold, in a fresh interpreter; warm, run twice
    in this process; after clear_caches(); and with the diagrams taken in
    reversed order from cleared caches.  A copy of a diagram with one
    self-pairing lowered is judged on its own form, not on the cached
    judgement of the form it was copied from."""
    cases = [[name, chi] for name in diagram_names() for chi in ("primary", "conj")]

    def run_all(order):
        return sorted([*case, _claims(diagram(*case))] for case in order)

    code = (
        "import json, test_cli; from crystmono.monodromy import diagram;"
        f" print(json.dumps([[*c, test_cli._claims(diagram(*c))] for c in {cases!r}]))"
    )
    env = fresh_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    cold = sorted(json.loads(done.stdout))
    run_all(cases)
    warm = run_all(cases)
    crystmono.clear_caches()
    cleared = run_all(cases)
    crystmono.clear_caches()
    backwards = run_all(cases[::-1])
    assert cold == warm == cleared == backwards

    d = diagram("D4_3")
    copy = dataclasses.replace(d, gram=_lowered(d.gram))
    gram = next(c for c in verify_diagram(copy) if c.claim_id == "gram_form")
    assert (gram.verdict, gram.witness) == ("fail", "semidefinite True, corank 0, kernel annihilated False")
    assert next(c for c in verify_diagram(d) if c.claim_id == "gram_form").verdict == "pass"


# every payload key diagram_from_payload reads; list entries are named by their first item
READ_KEYS = [
    ("name",), ("ring",), ("chi",), ("kernel_characters",), ("tau",), ("classical_order",),
    ("expected_group",), ("omitted_root",), ("cycles",), ("edges",), ("gram",), ("kernel_vector",),
    ("relation",), ("resolved_choices",), ("rejected_choices",),
    ("cycles", 0, "id"), ("cycles", 0, "order"), ("cycles", 0, "eigenvalue"),
    ("edges", 0, "src"), ("edges", 0, "dst"), ("edges", 0, "braid"),
    ("rejected_choices", 0, "assignment"), ("rejected_choices", 0, "violates"),
]
# the keys it does not read: labels, and the sections derived from the rest
UNREAD_KEYS = [
    ("schema",), ("kind",), ("character",), ("frame",), ("cycles", 0, "self_pairing"), ("edges", 0, "value"),
]


def _key_path_id(path):
    return ".".join(map(str, path))


def _delete(payload, path):
    *head, last = path
    for key in head:
        payload = payload[key]
    del payload[last]


def test_every_payload_key_is_read_or_unread():
    payload = show_diagram_payload(diagram("P8_Z3"))  # the one diagram with a rejected choice
    paths = {(k,) for k in payload}
    for section in ("cycles", "edges", "rejected_choices"):
        paths |= {(section, 0, k) for k in payload[section][0]}
    assert paths == set(READ_KEYS) | set(UNREAD_KEYS)
    assert not set(READ_KEYS) & set(UNREAD_KEYS)


@pytest.mark.parametrize("path", READ_KEYS, ids=_key_path_id)
def test_payload_missing_a_key_is_rejected(path):
    payload = show_diagram_payload(diagram("P8_Z3"))
    _delete(payload, path)
    owner = "payload" if path == ("name",) else "P8_Z3"
    with pytest.raises(DiagramError, match="^" + re.escape(f"{owner}: missing key {path[-1]!r}") + "$"):
        diagram_from_payload(payload)


@pytest.mark.parametrize("chi", ["primary", "conj"])
@pytest.mark.parametrize("name", sorted(diagram_names()))
def test_payload_round_trip_is_a_fixed_point(name, chi):
    payload = show_diagram_payload(diagram(name, chi))
    assert show_diagram_payload(diagram_from_payload(payload)) == payload


@pytest.mark.parametrize("value", ["x", -7, None], ids=["text", "integer", "deleted"])
@pytest.mark.parametrize("path", UNREAD_KEYS, ids=_key_path_id)
def test_unread_payload_keys_are_inert(path, value):
    """Editing or deleting a key the reader does not read changes nothing:
    the rebuilt diagram shows as the unedited one."""
    shown = show_diagram_payload(diagram("P8_Z3"))
    payload = show_diagram_payload(diagram("P8_Z3"))
    if value is None:
        _delete(payload, path)
    else:
        _set(*path, value=value)(payload)
    assert show_diagram_payload(diagram_from_payload(payload)) == shown


def test_round_trip_preserves_the_conjugate_binding(capsys):
    code, out, _ = run(["show", "diagram", "C3_24", "--chi", "conj"], capsys)
    assert code == 0
    rebuilt = diagram_from_payload(json.loads(out))
    d = diagram("C3_24", "conj")
    assert rebuilt.chi == d.chi
    assert [c.eigenvalue for c in rebuilt.cycles] == [c.eigenvalue for c in d.cycles]


def test_show_group_echoes_the_stored_spellings(capsys):
    code, out, _ = run(["show", "group", "K3_6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"][0]["eigenvalue"] == "-conj(w)"
    assert payload["lattice_basis"] == ["1", "w"]
    assert payload["order"] == 6


def test_show_group_without_ring_rule_has_no_basis(capsys):
    code, out, _ = run(["show", "group", "G312"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["lattice_basis"] is None
    assert payload["lattice_rule"]["kind"] == "order2_root_orbit"


def test_max_group_is_not_an_option(capsys):
    """Each model closure is bounded by its declared order, so no option bounds it."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--max-group", "648"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-group 648" in capsys.readouterr().err


def test_verify_options_are_the_documented_flags():
    """The verify options are exactly these four, and README's Flags
    paragraph names each of them."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for a in commands.choices["verify"]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--chi", "--json", "--timings"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (flags,) = [p for p in readme.split("\n\n") if p.startswith("Flags:")]
    assert all(f"`{o}" in flags for o in options)


@pytest.mark.parametrize("argv", [["verify", "table1"], ["show", "group", "K5"]], ids=["verify", "show"])
def test_unwritable_json_path_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run([*argv, "--json", str(path)], capsys)
    assert code == 2
    assert out == ""  # the path is checked before the first case runs
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


FAILING_COMMANDS = [["verify", "diagram", "bogus"], ["verify", "bogus"], ["show", "group", "bogus"]]


@pytest.mark.parametrize("argv", FAILING_COMMANDS, ids=" ".join)
def test_failed_command_leaves_no_json_file_behind(argv, tmp_path, capsys):
    path = tmp_path / "p.json"
    code, _, _ = run([*argv, "--json", str(path)], capsys)
    assert code == 2
    assert not path.exists()


@pytest.mark.parametrize("argv", FAILING_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("text", ["", "kept\n"], ids=["empty", "text"])
def test_failed_command_leaves_an_existing_json_file_untouched(argv, text, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(text)
    code, _, _ = run([*argv, "--json", str(path)], capsys)
    assert code == 2
    assert path.read_text() == text


@pytest.mark.parametrize("target", [["verify", "all"], ["show", "group", "K5"]])
def test_json_document_is_serialized_only_for_a_path(target, tmp_path, monkeypatch, capsys):
    """Without --json `verify` serializes nothing; with it, once.  `show`
    serializes its payload once, for stdout, and writes those same bytes."""
    dumped = []
    real = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda doc: dumped.append(doc) or real(doc))
    shown = target[0] == "show"
    code, out, _ = run(target, capsys)
    assert code == 0 and len(dumped) == shown
    path = tmp_path / "doc.json"
    code, out, _ = run([*target, "--json", str(path)], capsys)
    assert code == 0 and len(dumped) == 1 + shown
    assert path.read_text() == json.dumps(dumped[-1], indent=2) + "\n"
    assert not shown or path.read_text() == out


def test_timings_fill_the_timing_field(tmp_path, capsys):
    path = tmp_path / "t.json"
    run(["verify", "diagram", "P8divZ6", "--timings", "--json", str(path)], capsys)
    doc = json.loads(path.read_text())
    assert isinstance(doc["reports"][0]["timing"], float)


def test_exit_code_mapping():
    assert worst_verdict(["pass", "pass"]) == "pass"
    assert worst_verdict(["pass", "inconclusive", "pass"]) == "inconclusive"
    assert worst_verdict(["inconclusive", "fail"]) == "fail"
    assert (_EXIT["pass"], _EXIT["fail"], _EXIT["inconclusive"]) == (0, 1, 3)


def test_failing_check_exits_one(monkeypatch, capsys):
    import crystmono.cli as cli

    def broken(d):
        return (CheckResult("gram_form", "stub", "fail", "forced for the exit-code path"),)

    monkeypatch.setattr(cli, "verify_diagram", broken)
    code, out, _ = run(["verify", "diagram", "P8divZ6"], capsys)
    assert code == 1
    assert "verdict: fail" in out
