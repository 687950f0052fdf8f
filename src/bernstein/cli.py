"""Command line interface.

Exit codes: 0 when the requested verdicts were computed (even when a
verdict is negative), 1 for problems with the input or its bounds, and
2 when an internal cross-check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import catalog, elements, fileformat, groebner, structure
from . import train as train_mod
from .core import (AlgebraError, InternalCheckError, format_scalar,
                   parse_scalar, read_scalar)
from .symbolic import generic_degree


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 1), not usage aborts."""

    def error(self, message):
        raise AlgebraError(message)


def _poly_json(poly):
    return [format_scalar(c) for c in poly.coefficients()]


def _emit(lines, payload, as_json):
    for line in lines:
        print(line)
    if as_json:
        print(json.dumps(payload, sort_keys=True))


def _witness_json(check):
    if check.holds:
        return None
    return {
        "assignment": {k: format_scalar(v)
                       for k, v in sorted(check.witness_assignment.items())},
        "elements": [fileformat.element_to_json(el)
                     for el in check.witness_elements],
        "value": fileformat.element_to_json(check.witness_value),
    }


def cmd_check(args):
    table = fileformat.load_algebra(args.file)
    report = structure.classify(table)
    lines = [f"algebra: {table.name or args.file} (dim {table.dim})",
             f"bernstein: {'yes' if report.is_bernstein else 'no'}"]
    payload = {"command": "check", "dim": table.dim,
               "bernstein": report.is_bernstein}
    if not report.is_bernstein:
        witness = _witness_json(report.bernstein_witness)
        lines.append("counterexample to (x^2)^2 = w(x)^2 x^2:")
        lines.append(f"  x = {report.bernstein_witness.witness_elements[0]}")
        lines.append(f"  defect = {report.bernstein_witness.witness_value}")
        payload["witness"] = witness
    else:
        lines.append(f"type: {report.type_pair}")
        lines.append(f"idempotent: {report.idempotent}")
        lines.append(f"nuclear: {'yes' if report.is_nuclear else 'no'}")
        lines.append(
            f"exceptional: {'yes' if report.is_exceptional else 'no'}")
        lines.append(f"jordan: {'yes' if report.is_jordan else 'no'}")
        lines.append(f"annihilator ideal dimension: {len(report.lyubich_basis)}")
        payload.update({
            "type": list(report.type_pair),
            "idempotent": fileformat.element_to_json(report.idempotent),
            "nuclear": report.is_nuclear,
            "exceptional": report.is_exceptional,
            "jordan": report.is_jordan,
            "annihilator_dim": len(report.lyubich_basis),
        })
    if args.generic_degree:
        gdeg = generic_degree(table)
        lines.append(f"generic element degree: {gdeg}")
        payload["generic_degree"] = gdeg
    _emit(lines, payload, args.json)
    return 0


def cmd_element(args):
    table = fileformat.load_algebra(args.file)
    a = fileformat.parse_element_spec(table, args.spec)
    analysis = elements.analyze_element(a)
    lines = [f"element: {a}",
             f"degree: {analysis.degree}",
             f"minimal polynomial: {analysis.minimal_poly}"]
    payload = {"command": "element",
               "element": fileformat.element_to_json(a),
               "degree": analysis.degree,
               "minimal_poly": _poly_json(analysis.minimal_poly)}
    if analysis.right_nil_index is not None:
        lines.append(f"right nil index: {analysis.right_nil_index}")
    else:
        lines.append("right nil index: none (element is not nilpotent)")
    payload["right_nil_index"] = analysis.right_nil_index
    if table.has_weight:
        w = a.weight()
        lines.append(f"weight: {format_scalar(w)}")
        payload["weight"] = format_scalar(w)
        form_ok = elements.minimal_poly_form_check(analysis)
        lines.append("minimal polynomial shape: "
                     + ("expected for the degree" if form_ok else "unexpected"))
        payload["minimal_poly_shape_ok"] = form_ok
        if w:
            rank = analysis.train_rank()
            if rank is None:
                lines.append("train equation: none within the search bound")
            else:
                lines.append(f"train equation: f_{rank} vanishes (rank {rank})")
            payload["train_rank"] = rank
        else:
            lines.append("train equation: not applicable (weight zero)")
            payload["train_rank"] = None
    _emit(lines, payload, args.json)
    return 0


def cmd_train(args):
    table = fileformat.load_algebra(args.file)
    lines = [f"algebra: {table.name or args.file} (dim {table.dim})"]
    payload = {"command": "train", "dim": table.dim}
    if not table.has_weight:
        raise AlgebraError("train analysis needs a weighted table")
    if not structure.is_bernstein(table):
        lines.append("bernstein: no (train analysis not applicable)")
        payload["bernstein"] = False
        _emit(lines, payload, args.json)
        return 0
    report = train_mod.train_analysis(table)
    payload["bernstein"] = True
    lines.append("bernstein: yes")
    lines.append(f"train: {'yes' if report.is_train else 'no'}")
    payload["train"] = report.is_train
    payload["bounds"] = report.bounds
    if report.is_train:
        lines.append(f"rank: {report.rank}")
        lines.append(f"equation (weight 1): {report.train_poly} = 0")
        coeff_text = ", ".join(format_scalar(c) for c in report.train_coeffs)
        lines.append(f"coefficients: ({coeff_text})")
        lines.append(f"weight kernel nil index: {report.nil_index_N}")
        payload.update({"rank": report.rank,
                        "coefficients": [format_scalar(c)
                                         for c in report.train_coeffs],
                        "nil_index": report.nil_index_N})
    else:
        lines.append("weight kernel is not nil of bounded index")
        payload.update({"rank": None, "nil_index": None})
    lines.append(
        f"locally train: {'yes' if report.is_locally_train else 'no'}")
    payload["locally_train"] = report.is_locally_train
    lines.append(f"search bounds: {report.bounds}")
    _emit(lines, payload, args.json)
    return 0


def _resolve_carrier(table, spec):
    if spec is None:
        return None
    labels = [part.strip() for part in spec.split(",") if part.strip()]
    if not labels:
        raise AlgebraError("empty carrier specification")
    return [table.basis_element(table.index(lab)) for lab in labels]


def cmd_engel(args):
    table = fileformat.load_algebra(args.file)
    carrier = _resolve_carrier(table, args.carrier)
    report = train_mod.engel_yagzhev_report(table, carrier)
    lines = [f"algebra: {table.name or args.file} (dim {table.dim})",
             "carrier satisfies (x^2)^2 = 0: "
             + ("yes" if report.satisfies_sq_sq_zero else "no")]
    payload = {"command": "engel",
               "sq_sq_zero": report.satisfies_sq_sq_zero,
               "bounds": report.bounds}
    if report.satisfies_sq_sq_zero:
        if report.nil_bounded_index is not None:
            lines.append(f"bounded nil index: {report.nil_bounded_index}")
            lines.append(f"engel index: {report.engel_index}")
            lines.append("tree power sums verified up to "
                         f"{report.yagzhev_verified_upto} leaves")
        else:
            lines.append("carrier is not nil of bounded index; "
                         "no Engel bound, tree sums stay nonzero")
        payload.update({"nil_index": report.nil_bounded_index,
                        "engel_index": report.engel_index,
                        "tree_sums_upto": report.yagzhev_verified_upto})
    _emit(lines, payload, args.json)
    return 0


_CONSTRUCTORS = {
    "elementary": catalog.elementary_algebra,
    "constant": catalog.constant_algebra,
    "three_dim": catalog.three_dim_alpha,
    "not_train": catalog.example_not_train,
    "shift_up": catalog.shift_up_truncated,
    "shift_down": catalog.shift_down_truncated,
    "free_single": catalog.free_single_truncated,
    "zhevlakov": catalog.zhevlakov_bernstein,
}


def _parse_param(text):
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise AlgebraError(f"parameters look like key=value, got {text!r}")
    if "," in value:
        return key.strip(), [parse_scalar(p) for p in value.split(",")]
    n, d = read_scalar(value)
    return key.strip(), n if d == 1 else Fraction(n, d)


def cmd_construct(args):
    if args.name not in _CONSTRUCTORS:
        known = ", ".join(sorted(_CONSTRUCTORS))
        raise AlgebraError(f"unknown construction {args.name!r}; "
                           f"available: {known}")
    params = dict(_parse_param(p) for p in args.param or [])
    try:
        table = _CONSTRUCTORS[args.name](**params)
    except TypeError as exc:
        raise AlgebraError(f"bad parameters for {args.name}: {exc}")
    lines = [f"constructed: {table.name} (dim {table.dim})",
             f"basis: {', '.join(table.labels)}"]
    for note in table.notes:
        lines.append(f"note: {note}")
    if args.out:
        fileformat.save_algebra(table, args.out)
        lines.append(f"written to {args.out}")
    payload = {"command": "construct", "table": fileformat.table_to_json(table)}
    _emit(lines, payload, args.json)
    return 0


def cmd_groebner(args):
    presentation = fileformat.load_presentation(args.file)
    state = groebner.buchberger_truncated(presentation, args.max_deg)
    gens = presentation.generators
    lines = [f"generators: {', '.join(gens)}",
             f"input relations: {len(presentation.relations)}",
             f"degree bound: {args.max_deg} "
             f"(normal forms complete below {state.complete_below})",
             f"new elements during completion: {state.new_elements}",
             "input was already a Groebner basis below the bound: "
             + ("yes" if state.is_groebner_as_given else "no"),
             f"basis ({len(state.basis)} elements):"]
    for g in state.basis:
        lines.append(f"  {g.render(gens)} = 0")
    counts = groebner.hilbert_counts(state, args.max_deg)
    lines.append(f"normal word counts, degree 1..{args.max_deg}: "
                 + ", ".join(str(c) for c in counts))
    words_deg = min(args.words_deg, args.max_deg)
    for d in range(1, words_deg + 1):
        rendered = ["".join(gens[g] for g in w)
                    for w in groebner.normal_words(state, d)]
        lines.append(f"normal words of degree {d}: "
                     + (", ".join(rendered) if rendered else "none"))
    payload = {"command": "groebner",
               "basis": state.render(),
               "new_elements": state.new_elements,
               "groebner_as_given": state.is_groebner_as_given,
               "complete_below": state.complete_below,
               "hilbert": counts}
    _emit(lines, payload, args.json)
    return 0


def _kurosh_steps(max_deg, trunc):
    """The steps of ``kurosh-demo`` in order, each yielding (ok, detail,
    extra); an AlgebraError ends the pipeline at the step that raised."""
    state = groebner.buchberger_truncated(catalog.kurosh_presentation(),
                                          max_deg)
    yield state.is_groebner_as_given, (
        f"{len(state.basis)} relations close below degree "
        f"{state.complete_below} with {state.new_elements} new elements"), \
        {"basis_size": len(state.basis)}

    x = groebner.NcPoly.word((0,))
    y = groebner.NcPoly.word((1,))
    cubes = groebner.nil_span_check(state, [x, y], 3)
    squares = groebner.nil_span_check(state, [x, y], 2)
    yield cubes and not squares, ("every element of span(x, y) cubes to "
                                  "zero; squares do not all vanish"), \
        {"cubes": cubes, "squares": squares}

    counts = groebner.hilbert_counts(state, max_deg)
    expected = [2 if d == 1 else (4 if d % 2 else 5) if d >= 3 else 4
                for d in range(1, max_deg + 1)]
    ok = counts == expected and all(
        groebner.is_normal_word(state, (0, 1) * t)
        for t in range(1, trunc + 1) if 2 * t < state.complete_below)
    yield ok, (f"normal word counts {counts} match the alternating "
               "pattern and (xy)^t stays normal"), {"counts": counts}

    ctable = groebner.truncated_algebra_table(state, trunc)
    ok = ctable.dim == sum(groebner.hilbert_counts(state, trunc))
    yield ok, f"truncated algebra has dimension {ctable.dim}", \
        {"dim": ctable.dim}

    s_indices = [i for i, w in enumerate(ctable.words) if len(w) == 1]
    algebra = catalog.from_associative(ctable, s_indices,
                                       name=f"kurosh(deg<={trunc})")
    dec = structure.peirce(algebra)
    ok = algebra.dim == 1 + ctable.dim + len(s_indices) \
        and dec.type_pair == (1 + ctable.dim, len(s_indices))
    yield ok, (f"baric extension has dimension {algebra.dim} and "
               f"type {dec.type_pair}"), {"dim": algebra.dim,
                                          "type": list(dec.type_pair)}

    report = train_mod.train_analysis(algebra)
    expected = (1, parse_scalar("-3/2"), parse_scalar("1/2"),
                parse_scalar("0"))
    ok = (report.is_train and report.rank == 4
          and report.train_coeffs == expected
          and report.nil_index_N == 4 and report.operator_index == 3)
    coeffs = [format_scalar(c) for c in report.train_coeffs]
    yield ok, (f"train rank {report.rank} with coefficients "
               f"({', '.join(coeffs)}); weight kernel nil index "
               f"{report.nil_index_N}, operator index "
               f"{report.operator_index}"), \
        {"rank": report.rank, "coefficients": coeffs,
         "nil_index": report.nil_index_N,
         "operator_index": report.operator_index}


def cmd_kurosh_demo(args):
    lines = []
    payload = {"command": "kurosh_demo", "max_deg": args.max_deg,
               "trunc": args.trunc}
    steps = _kurosh_steps(args.max_deg, args.trunc)
    for label in ("completion", "nil_span", "hilbert", "truncation",
                  "baric", "train"):
        try:
            ok, detail, extra = next(steps)
        except AlgebraError as exc:
            lines.append(f"FAIL {label}: {exc}")
            payload[label] = {"ok": False, "error": str(exc)}
            break
        lines.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
        payload[label] = {"ok": ok, **extra}
        if not ok:
            break
    _emit(lines, payload, args.json)
    return 0 if payload[label]["ok"] else 1


def build_parser():
    parser = _Parser(prog="bernstein",
                     description="Exact tools for baric and Bernstein "
                                 "algebras over the rationals.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="structure report for an algebra file")
    p.add_argument("file")
    p.add_argument("--generic-degree", action="store_true",
                   help="also compute the degree of a generic element")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("element", help="analyse one element")
    p.add_argument("file")
    p.add_argument("spec", help='element expression such as "e + 2u1 - 1/2 v1"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("train", help="train equation analysis")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("engel", help="nil / Engel / tree-sum analysis")
    p.add_argument("file")
    p.add_argument("--carrier",
                   help="comma separated basis labels (default: weight kernel)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_engel)

    p = sub.add_parser("construct", help="build a catalog algebra")
    p.add_argument("name")
    p.add_argument("--param", action="append",
                   help="key=value, repeatable (lists comma separated)")
    p.add_argument("--out", help="write the table as JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("groebner",
                       help="truncated completion of a presentation")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--words-deg", type=int, default=3,
                   help="list normal words up to this degree (default 3)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("kurosh-demo",
                       help="two generators, cubes zero: full pipeline")
    p.add_argument("--max-deg", type=int, default=12)
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kurosh_demo)

    return parser


@functools.cache
def _parser():
    """The parser of ``main``, built once per process; argparse keeps
    no state between calls of ``parse_args``."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
