"""Command-line front end.

Subcommands: model, lines, intersect, invariants, classify, witness, repro,
table.  Exit status 0 on success, 1 on claim failure, 2 on usage errors.
All output is deterministic; no environment variables are consulted.
"""

import argparse
import json
import sys

from .classify import (
    QUARTIC_ACM,
    QUARTIC_CONDITIONAL,
    QUINTIC_ACM,
    QUINTIC_CONDITIONAL,
    Status,
    Verdict,
    _header,
    _search,
    classify_numeric,
    render_verdict,
    verdict_json,
)
from .divisors import chi, degree, genus, k_invariant
from .exprs import ParseError, parse_line
from .geometry import Incidence, lines_meet
from .repro import (
    EXAMPLE_IDS,
    case_json,
    render_case,
    render_summary,
    run_example,
    summary_json,
    verify_all,
)
from .surfaces import (
    BUILTIN_NAMES,
    MODEL_NAMES,
    builtin_model,
    fermat_model,
    load_model,
    model_validate,
    named_model,
)


def _resolve_model(name):
    if name in MODEL_NAMES:
        return named_model(name)
    # anything else is a custom model document (path or JSON text)
    return load_model(name)


def _cmd_model(args):
    if args.action == "build":
        if args.kind == "fermat":
            if args.degree is None:
                print("model build fermat requires --degree 4 or 5", file=sys.stderr)
                return 2
            model = fermat_model(args.degree)
        else:
            model = builtin_model(args.kind)
        report = model_validate(model)
        nlines = 0 if model.lines is None else len(model.lines)
        print(f"built {model.name}: {model.ngens} generators"
              + (f" (H + {nlines} lines)" if nlines else ""))
        print(f"validation: {'OK' if report.ok else 'VIOLATIONS'}")
        if not report.ok:
            print(report)
            return 1
        return 0
    model = _resolve_model(args.name)
    report = model_validate(model)
    print(f"model {model.name} (kind {model.kind}"
          + (f", degree {model.degree}" if model.degree else "") + ")")
    print(f"chi(O_X) = {model.chi0}")
    print(f"hyperplane = {model.hyperplane_class}")
    print(f"canonical = {model.canonical_class}")
    print("generators and Gram rows:")
    for name, row in zip(model.generators, model.gram):
        print(f"  {name}: {' '.join(str(v) for v in row)}")
    if not report.ok:
        print("validation VIOLATIONS:")
        print(report)
        return 1
    return 0


def _cmd_lines(args):
    model = _resolve_model(args.model)
    if model.lines is None:
        print(f"model {model.name} has no line atlas", file=sys.stderr)
        return 2
    for name in model.line_names():
        print(f"{name}: {model.line_named(name)}")
    return 0


def _line_argument(token, model):
    if ";" in token:
        return parse_line(token)
    if model is not None and model.lines is not None:
        return model.line_named(token)
    raise ParseError(
        f"{token!r} is neither a line literal (two forms joined by ';') "
        f"nor an atlas name of a selected model"
    )


_MEET_TEXT = {
    Incidence.SKEW: "0 (skew)",
    Incidence.MEET: "1 (meet at one point)",
    Incidence.SAME: "SAME (equal lines)",
}


def _cmd_intersect(args):
    model = _resolve_model(args.model) if args.model else None
    a = _line_argument(args.line_a, model)
    b = _line_argument(args.line_b, model)
    print(_MEET_TEXT[lines_meet(a, b)])
    return 0


def _cmd_invariants(args):
    model = _resolve_model(args.model)
    d = model.parse(args.expr)
    values = {
        "degree": degree(d),
        "genus": genus(d),
        "chi": chi(d),
        "k": k_invariant(d),
    }
    if args.json:
        print(json.dumps({"class": str(d), **values}))
        return 0
    for key, val in values.items():
        print(f"{key}: {val}")
    return 0


def _cmd_classify(args):
    verdict = classify_numeric(args.kind, args.deg, args.genus)
    if args.json:
        print(json.dumps(verdict_json(verdict)))
    else:
        print(render_verdict(verdict))
    return 2 if verdict.status is Status.INVALID else 0


def _cmd_witness(args):
    model = _resolve_model(args.model)
    target = model.parse(args.target)
    spec, trace, twists = header = _header(args.prop, target)
    if twists is None:  # the rule does not apply to the target
        v = Verdict(Status.INVALID, spec.prop_id, trace)
        print(json.dumps({"found": False, **verdict_json(v)}) if args.json else render_verdict(v))
        return 2
    verdict = _search(target, header, args.bound)
    if verdict is None:
        if args.json:
            print(json.dumps({"found": False}))
        else:
            print("no witness found within the bound "
                  "(the search is incomplete; absence does not prove aCM)")
        return 0
    if args.json:
        print(json.dumps({"found": True, **verdict_json(verdict)}))
    else:
        print(f"witness: {verdict.witness}")
        print(render_verdict(verdict))
    return 0


def _cmd_repro(args):
    if args.action == "run":
        report = run_example(args.case_id)
        if args.json:
            print(json.dumps(case_json(report)))
        else:
            print(render_case(report))
        return 0 if report.ok else 1
    summary = verify_all()
    if args.json:
        print(json.dumps(summary_json(summary)))
    else:
        print(render_summary(summary))
    return 0 if summary.ok else 1


def _cmd_table(args):
    if args.which == "thm1.3":
        for (k, d), rule in sorted(QUINTIC_CONDITIONAL.items()):
            print(f"k={k} d={d} witness-rule={rule}")
    elif args.which == "thm1.2":
        for (k, d), rule in sorted(QUINTIC_ACM.items()):
            print(f"k={k} d={d} rule={rule}")
    else:
        for (g, d), rule in sorted(QUARTIC_ACM.items()):
            print(f"genus={g} d={d} rule={rule}")
        for (g, d), rule in sorted(QUARTIC_CONDITIONAL.items()):
            print(f"genus={g} d={d} witness-rule={rule}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="acmcurves",
        description="exact divisor-class workbench for curves on low-degree "
        "hypersurfaces in P^3",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("model", help="build or inspect surface models")
    msub = p.add_subparsers(dest="action", required=True)
    mb = msub.add_parser("build", help="build and validate a model")
    mb.add_argument("kind", choices=("fermat",) + BUILTIN_NAMES)
    mb.add_argument("--degree", type=int, choices=(4, 5))
    mb.set_defaults(func=_cmd_model)
    ms = msub.add_parser("show", help="print generators and Gram rows")
    ms.add_argument("name", help=f"one of {', '.join(MODEL_NAMES)} or a JSON document")
    ms.set_defaults(func=_cmd_model)

    p = sub.add_parser("lines", help="list a model's line atlas")
    lsub = p.add_subparsers(dest="action", required=True)
    ll = lsub.add_parser("list")
    ll.add_argument("--model", default="fermat5")
    ll.set_defaults(func=_cmd_lines)

    p = sub.add_parser("intersect", help="incidence of two lines")
    p.add_argument("line_a")
    p.add_argument("line_b")
    p.add_argument("--model", help="resolve atlas names against this model")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("invariants", help="degree, genus, chi, k of a divisor class")
    p.add_argument("expr")
    p.add_argument("--model", default="fermat5")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="numeric aCM classification")
    p.add_argument("--kind", required=True, choices=("quartic", "quintic"))
    p.add_argument("--deg", required=True, type=int)
    p.add_argument("--genus", required=True, type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="search for a non-aCM witness")
    wsub = p.add_subparsers(dest="action", required=True)
    ws = wsub.add_parser("search")
    ws.add_argument("--prop", required=True)
    ws.add_argument("--target", required=True)
    ws.add_argument("--bound", type=int, metavar="N", help="skip a clause whose twist has "
                    "degree above N; every twist has degree at most 6, so 10 is no bound")
    ws.add_argument("--model", default="fermat5")
    ws.add_argument("--json", action="store_true")
    ws.set_defaults(func=_cmd_witness)

    p = sub.add_parser("repro", help="worked-example reproduction suite")
    rsub = p.add_subparsers(dest="action", required=True)
    rr = rsub.add_parser("run")
    rr.add_argument("case_id", choices=EXAMPLE_IDS)
    rr.add_argument("--json", action="store_true")
    rr.set_defaults(func=_cmd_repro)
    ra = rsub.add_parser("all")
    ra.add_argument("--json", action="store_true")
    ra.set_defaults(func=_cmd_repro)

    p = sub.add_parser("table", help="print a classification table")
    p.add_argument("which", choices=("thm1.2", "thm1.3", "prop2.1"))
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
