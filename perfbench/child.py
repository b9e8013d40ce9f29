"""One workload execution in a fresh interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH. Prints one
JSON object: in setup mode, when setup ended (time.monotonic(),
comparable with run.py's clock); in a workload mode, the verdicts per
case and claim and per-case wall time; when traced or in micro mode, the
per-layer numbers. Setup and workload children also report the host's
speed while they ran (speed.Probe).

    python3 perfbench/child.py MODE [--order-seed N] [--tmp DIR] [--trace]

MODE is setup, catalogue, dilation, intrinsic or micro.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import statistics
import sys
import time
import traceback
from importlib import resources

import speed

import crystmono
from crystmono import affine, classify, cli, cyclo, linalg, monodromy

CHIS = ("primary", "conj")


def setup() -> float:
    """Load every dataset the checks read: tables, reconciled diagrams, models."""
    classify.table_rows()
    classify.proj_rows()
    for name in monodromy.diagram_names():
        for chi in CHIS:
            monodromy.diagram(name, chi)
    for name in affine.reference_names():
        affine.reference_group(name)
    return time.monotonic()


def _verdicts(checks) -> dict:
    return {c.claim_id: c.verdict for c in checks}


def catalogue(tmp: str, _order_seed: int):
    """The user's command, `crystmono verify all`, in its own fixed order."""
    path = os.path.join(tmp, f"catalogue-{os.getpid()}.json")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(["verify", "all", "--json", path, "--timings"])
    with open(path) as fh:
        doc = json.load(fh)
    os.remove(path)
    cases = {r["case"]: {c["claim_id"]: c["verdict"] for c in r["checks"]} for r in doc["reports"]}
    case_s = {r["case"]: r["timing"] for r in doc["reports"]}
    errors = {} if code in (0, 1, 3) else {"verify all": f"exit code {code}"}
    return cases, case_s, errors, [], {}


def _negative_gram() -> dict:
    payload = cli.show_diagram_payload(monodromy.diagram("C3_33"))
    payload["gram"][0][0] = "-4"
    return _verdicts(monodromy.verify_diagram(cli.diagram_from_payload(payload)))


def _negative_kappa() -> dict:
    row = classify.table_rows()[0]
    kx, ky, kz = row.case.kappa
    flipped = dataclasses.replace(row, case=dataclasses.replace(row.case, kappa=(-kx, ky, kz)))
    return _verdicts(classify.verify_table_row(flipped))


def _negative_eigenvalue() -> dict:
    payload = cli.show_diagram_payload(monodromy.diagram("C3_24"))
    payload["cycles"][1]["eigenvalue"] = "-1"
    return _verdicts(monodromy.verify_diagram(cli.diagram_from_payload(payload)))


def _intrinsic_tasks():
    for row in classify.table_rows():
        yield row.notation, (lambda r=row: _verdicts(classify.verify_table_row(r)))
    for row in classify.proj_rows():
        yield f"Pproj-{row.id}", (lambda r=row: _verdicts(classify.verify_proj_row(r)))
    for name in monodromy.diagram_names():
        for chi in CHIS:
            yield f"{name} {chi}", (lambda n=name, c=chi: _verdicts(monodromy.verify_diagram(monodromy.diagram(n, c))))
    group_args = cli.build_parser().parse_args(["verify", "group", "-"])
    for name in affine.reference_names():
        yield f"group {name}", (
            lambda n=name: {c["claim_id"]: c["verdict"] for c in cli.group_report(n, group_args)["checks"]}
        )
    yield "negative C3_33 gram[0][0]=-4", _negative_gram
    yield "negative table row 0 kappa[0] negated", _negative_kappa
    yield "negative C3_24 cycle 1 eigenvalue=-1", _negative_eigenvalue


def _run_tasks(tasks, order_seed: int):
    """Run the tasks in the order the seed picks; a raising task is an error.

    Returns verdicts, seconds and errors per case, the order, and each
    case's (start, end) perf_counter window.
    """
    tasks = list(tasks)
    random.Random(order_seed).shuffle(tasks)
    cases, case_s, errors, windows = {}, {}, {}, {}
    for key, task in tasks:
        start = time.perf_counter()
        try:
            cases[key] = task()
        except Exception as exc:  # reported as a failed case, the run goes on
            errors[key] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        end = time.perf_counter()
        case_s[key] = end - start
        windows[key] = (start, end)
    return cases, case_s, errors, [key for key, _ in tasks], windows


def _dilation_verdicts(rep) -> dict:
    """The undilated run's claims, plus whether dilating kept every verdict
    and scaled the translation lattice by 1 - w."""
    out = _verdicts(rep.base.checks)
    out["verdicts_match"] = "pass" if rep.verdicts_match else "fail"
    out["lattice_scaled"] = "pass" if rep.lattice_scaled else "fail"
    return out


def _dilation_tasks():
    for name in monodromy.diagram_names():
        if name == "D4_3":  # catalogue carries D4_3; its dilation alone takes about 50 s per character
            continue
        for chi in CHIS:
            yield f"{name} {chi}", (
                lambda n=name, c=chi: _dilation_verdicts(affine.dilation_check(monodromy.diagram(n, c)))
            )


WORKLOADS = {
    "catalogue": catalogue,
    "dilation": lambda _tmp, seed: _run_tasks(_dilation_tasks(), seed),
    "intrinsic": lambda _tmp, seed: _run_tasks(_intrinsic_tasks(), seed),
}


# -- microbenchmarks on operands taken from the shipped data ------------------


def _timed(op, operands, target_s: float = 0.02, repeats: int = 15) -> float:
    """Seconds per call of op over the operand list, median of the repeats.

    Each repeat is scaled by the host speed (speed.py) that the kernel
    timed on either side of it shows.
    """
    start = time.perf_counter()
    for args in operands:
        op(*args)
    rounds = max(1, round(target_s / max(time.perf_counter() - start, 1e-9)))
    samples = []
    before = speed.time_kernel()
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            for args in operands:
                op(*args)
        per_call = (time.perf_counter() - start) / (rounds * len(operands))
        after = speed.time_kernel()
        samples.append(per_call * speed.speed_factor([before, after]))
        before = after
    return statistics.median(samples)


def _distinct_nonzero(values) -> list:
    out = []
    for v in values:
        if not v.is_zero() and v not in out:
            out.append(v)
    return out


def _pairs(values) -> list:
    return [(a, b) for a in values for b in values]


def micro() -> dict:
    mul = cyclo.CycloNum.__mul__
    add = cyclo.CycloNum.__add__

    q = monodromy.quotient_basis(monodromy.diagram("D4_3"))
    frame = affine.DualFrame(q)
    d43 = [frame.dual_reflection(r, lam) for r, lam in zip(q.roots, q.eigenvalues)]
    q3 = _distinct_nonzero(x for g in d43 for row in g.linear for x in row)
    q3 += _distinct_nonzero(x for g in d43 for x in g.translation if x not in q3)
    k8 = _distinct_nonzero(x for g in affine.reference_group("K8").generators for row in g.matrix for x in row)
    lifted = affine.lifted_quotient(monodromy.quotient_basis(monodromy.diagram("C3_24")), cyclo.CycloField(12))
    q12 = _distinct_nonzero(
        [x for row in lifted.gram.gram for x in row]
        + [x for r in lifted.roots for x in r]
        + list(lifted.eigenvalues)
        + list(lifted.kernel)
    )
    q72 = _distinct_nonzero(k for row in classify.table_rows() for k in row.case.kappa)

    raw = json.loads(resources.files("crystmono").joinpath("data/reference_groups.json").read_text())
    texts = []
    for g in raw["groups"]:
        field = cyclo.CycloField(3 if g["ring"] == "Z[w]" else 4)
        texts += [(s, field) for row in g["form"] for s in row]
        texts += [(s, field) for gen in g["generators"] for s in gen["root"] + [gen["eigenvalue"]]]

    mats = [(a.linear, b.linear) for a in d43 for b in d43]
    return {
        "cyclo.mul_ns.q3": _timed(mul, _pairs(q3)) * 1e9,
        "cyclo.mul_ns.q4": _timed(mul, _pairs(k8)) * 1e9,
        "cyclo.mul_ns.q12": _timed(mul, _pairs(q12)) * 1e9,
        "cyclo.mul_ns.q72": _timed(mul, _pairs(q72)) * 1e9,
        "cyclo.add_ns.q3": _timed(add, _pairs(q3)) * 1e9,
        "cyclo.inverse_us.q3": _timed(cyclo.CycloNum.inverse, [(x,) for x in q3]) * 1e6,
        "cyclo.parse_render_us": _timed(lambda s, f: cyclo.render_value(cyclo.parse_value(s, f)), texts) * 1e6,
        "linalg.mat_mul_us.3x3_q3": _timed(linalg.mat_mul, mats) * 1e6,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "micro", *WORKLOADS))
    p.add_argument("--order-seed", type=int, default=0)
    p.add_argument("--tmp", default=".")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    src = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    if not os.path.realpath(crystmono.__file__).startswith(src + os.sep):
        print(f"crystmono imported from {crystmono.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    probe = None
    if args.mode != "micro":
        probe = speed.Probe()
        probe.start()
    out = {}
    windows = {}
    if args.mode == "micro":
        out["layers"] = micro()
    elif args.mode == "setup":
        out["setup_end"] = setup()
    elif args.mode != "catalogue":  # `verify all` loads what it needs itself
        setup()
    if args.mode in WORKLOADS:
        cases, case_s, errors, order, windows = WORKLOADS[args.mode](args.tmp, args.order_seed)
        out.update(cases=cases, case_s=case_s, errors=errors, order=order)
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, monodromy.diagram_names())
        tracer.dump(os.path.join(args.tmp, f"spans-{args.mode}-{args.order_seed}.json"))
    if probe is not None:
        out["speed"] = probe.stop(windows)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
