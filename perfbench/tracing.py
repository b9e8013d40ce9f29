"""Spans and counters around calls into the crystmono modules.

`install` replaces public functions and methods of cyclo, linalg,
monodromy, affine, classify and cli with wrappers that record a span
(name, start, end, parent span, run id) or bump a counter. A function
imported by name (``from .linalg import mat_mul``) is a separate binding
in the importing module, so every binding of the original object is
replaced, not only the one in the defining module.

The hot cyclotomic operations (about two million multiplies in one
`verify all`) are counted rather than spanned: a span each would cost
more than the multiply and hold hundreds of megabytes, so their time
stays in the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("cyclo", "linalg", "monodromy", "affine", "classify", "cli")

ELIMINATION = ("linalg.mat_rank", "linalg.mat_inverse", "linalg.nullspace", "linalg.solve", "linalg.det")
REPORTS = ("cli.diagram_report", "cli.table_report", "cli.proj_report", "cli.group_report")

# span record fields
NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.rejected: dict[tuple[str, str], int] = {}  # rejected assignments per reconciled diagram
        self.case_spans: dict[int, str] = {}  # verify_crystallographic span -> diagram name
        self.run_id = 0
        self.phase: str | None = None
        self.hnf_max_bits = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, enter=None, leave=None):
        """Wrap fn so each call records a span; enter(args) runs before the
        call, leave(args, result) after it returns."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            idx = len(spans)
            rec = [nid, 0, 0, stack[-1] if stack else -1, self.run_id]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if leave is not None:
                leave(args, result)
            return result

        return wrapper

    def counter(self, fn, key: str, extra=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if extra is not None:
                extra()
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "run"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its direct children cover.

    Children may be adjacent or (in principle) overlap; the covered part
    is the length of the union of their intervals clipped to the parent.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][START]):
            a, b = max(spans[c][START], lo), min(spans[c][END], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def _rebind(owners, orig, wrapper) -> None:
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, key, wrapper)


def install(tracer: Tracer) -> None:
    """Patch every binding of the traced functions and methods in the package."""
    pkg = importlib.import_module("crystmono")
    mods = {m: importlib.import_module(f"crystmono.{m}") for m in MODULES}
    owners = [pkg, *mods.values()]
    counts = tracer.counts

    def enter_lattice(args):
        # translation_subgroup opens its fullness search with the empty lattice
        if tracer.phase == "containment" and len(args) > 3 and args[3] == []:
            tracer.phase = "fullness"

    def leave_lattice(args, _result):
        bits = max((abs(x).bit_length() for row in args[0].rows for x in row), default=0)
        tracer.hnf_max_bits = max(tracer.hnf_max_bits, bits)

    def enter_translation(_args):
        tracer.phase = "containment"

    def leave_translation(_args, report):
        tracer.phase = None
        counts["affine.translation_states"] += report.states

    def in_fullness(key):
        def bump(*_):
            if tracer.phase == "fullness":
                counts[key] += 1

        return bump

    def leave_diagram(_args, d):
        tracer.rejected[(d.name, d.chi_label)] = len(d.rejected_choices)

    def leave_closure(_args, group):
        counts["affine.closure_elements"] += len(group)

    def enter_case(args):
        tracer.case_spans[len(tracer.spans)] = args[0].name  # the span about to open

    spans = {
        "linalg.mat_mul": {},
        **{name: {} for name in ELIMINATION},
        "linalg.ZLattice.__init__": {"enter": enter_lattice, "leave": leave_lattice},
        "linalg.ZLattice.reduce": {},
        "linalg.ZLattice.member": {},
        "linalg.ZLattice.join": {"enter": in_fullness("affine.fullness_joins")},
        "monodromy.diagram": {"leave": leave_diagram},
        "monodromy.verify_diagram": {},
        "monodromy.operator_order": {},
        "affine.translation_subgroup": {"enter": enter_translation, "leave": leave_translation},
        "affine.linear_closure": {"leave": leave_closure},
        "affine.reference_closure": {},
        "affine.reflection_order_multiset": {},
        "affine.verify_crystallographic": {"enter": enter_case},
        "affine.dilation_check": {},
        "classify.verify_table_row": {},
        "classify.verify_proj_row": {},
        **{name: {} for name in REPORTS},
        "cli._emit": {},
    }
    for name, hooks in spans.items():
        mod, path = name.split(".", 1)
        _patch(mods[mod], path, owners, lambda fn, name=name, h=hooks: tracer.span(fn, name, **h))

    counters = {
        "cyclo.CycloNum.__mul__": ("cyclo.mul_calls", None),
        "cyclo.CycloNum.inverse": ("cyclo.inverse_calls", None),
        "affine.AffineIsometry.__mul__": ("affine.isometry_mul_calls", in_fullness("affine.fullness_products")),
    }
    for name, (key, extra) in counters.items():
        mod, path = name.split(".", 1)
        _patch(mods[mod], path, owners, lambda fn, k=key, e=extra: tracer.counter(fn, k, e))


def _patch(module, path: str, owners, make) -> None:
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(module, cls_name)
        orig = vars(cls)[meth]
        _rebind([cls], orig, make(orig))
    else:
        orig = getattr(module, path)
        _rebind(owners, orig, make(orig))


def layer_metrics(tracer: Tracer, diagram_names) -> dict[str, float]:
    """Per-layer numbers from the spans and counters of one traced run."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_ns: dict[str, int] = defaultdict(int)
    incl_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for s, own in zip(spans, selfs):
        name = tracer.names[s[NAME]]
        self_ns[name] += own
        incl_ns[name] += s[END] - s[START]
        calls[name] += 1

    def secs(*names):
        return sum(self_ns[n] for n in names) / 1e9

    case_s = dict.fromkeys(diagram_names, 0.0)
    for idx, name in tracer.case_spans.items():
        case_s[name] = case_s.get(name, 0.0) + (spans[idx][END] - spans[idx][START]) / 1e9

    products = tracer.counts["affine.fullness_products"]
    verified = calls["affine.verify_crystallographic"]
    # linear closures computed by verify_crystallographic itself; the other
    # calls come from elsewhere and say nothing of its cache
    closures_in_cases = sum(
        1 for s in spans if tracer.names[s[NAME]] == "affine.linear_closure" and s[PARENT] in tracer.case_spans
    )
    out = {
        "cyclo.mul_calls": tracer.counts["cyclo.mul_calls"],
        "cyclo.inverse_calls": tracer.counts["cyclo.inverse_calls"],
        "linalg.mat_mul_calls": calls["linalg.mat_mul"],
        "linalg.mat_mul_self_s": secs("linalg.mat_mul"),
        "linalg.reduce_calls": calls["linalg.ZLattice.reduce"],
        "linalg.reduce_self_s": secs("linalg.ZLattice.reduce"),
        "linalg.member_calls": calls["linalg.ZLattice.member"],
        "linalg.zlattice_builds": calls["linalg.ZLattice.__init__"],
        "linalg.zlattice_self_s": secs("linalg.ZLattice.__init__"),
        "linalg.hnf_max_bits": tracer.hnf_max_bits,
        "linalg.elimination_self_s": secs(*ELIMINATION),
        "monodromy.diagram_self_s": secs("monodromy.diagram"),
        "monodromy.rejected_assignments": sum(tracer.rejected.values()),
        "monodromy.verify_diagram_self_s": secs("monodromy.verify_diagram"),
        "monodromy.operator_order_calls": calls["monodromy.operator_order"],
        "affine.translation_subgroup_self_s": secs("affine.translation_subgroup"),
        "affine.translation_subgroup_s": incl_ns["affine.translation_subgroup"] / 1e9,
        "affine.translation_states": tracer.counts["affine.translation_states"],
        "affine.isometry_mul_calls": tracer.counts["affine.isometry_mul_calls"],
        "affine.fullness_useful_ratio": tracer.counts["affine.fullness_joins"] / products if products else 0.0,
        "affine.linear_closure_self_s": secs("affine.linear_closure"),
        "affine.closure_elements": tracer.counts["affine.closure_elements"],
        "affine.linear_closure_calls": calls["affine.linear_closure"],
        "affine.closure_cache_reuse": 1 - closures_in_cases / verified if verified else 0.0,
        "affine.dilation_check_self_s": secs("affine.dilation_check"),
        "affine.reflection_multiset_self_s": secs("affine.reflection_order_multiset"),
        "classify.table_row_self_s": secs("classify.verify_table_row"),
        "classify.proj_row_self_s": secs("classify.verify_proj_row"),
        "cli.report_self_s": secs(*REPORTS),
        "cli.emit_s": incl_ns["cli._emit"] / 1e9,
    }
    for name, value in case_s.items():
        out[f"affine.verify_case_s.{name}"] = value
    return out
