"""Command line interface.

Each ``cmd_*`` returns one ordered report of (text, JSON key, value)
entries, text or key None when absent (``kurosh-demo`` also returns its
exit code).  ``main`` writes it once the command returns: the text lines,
then with ``--json`` exactly one JSON line of ``command`` and every keyed
value.

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


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 1), not usage aborts."""

    def error(self, message):
        raise AlgebraError(message)


def _yes(flag):
    return "yes" if flag else "no"


def _emit(command, entries, as_json):
    for text, _, _ in entries:
        if text is not None:
            print(text)
    if as_json:
        payload = {"command": command}
        payload.update((key, value) for _, key, value in entries
                       if key is not None)
        print(json.dumps(payload, sort_keys=True))


def _witness_json(check):
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
    entries = [
        (f"algebra: {table.name or args.file} (dim {table.dim})", "dim",
         table.dim),
        (f"bernstein: {_yes(report.is_bernstein)}", "bernstein",
         report.is_bernstein)]
    if not report.is_bernstein:
        check = report.bernstein_witness
        entries += [("counterexample to (x^2)^2 = w(x)^2 x^2:", "witness",
                     _witness_json(check)),
                    (f"  x = {check.witness_elements[0]}", None, None),
                    (f"  defect = {check.witness_value}", None, None)]
    else:
        entries += [
            (f"type: {report.type_pair}", "type", list(report.type_pair)),
            (f"idempotent: {report.idempotent}", "idempotent",
             fileformat.element_to_json(report.idempotent)),
            (f"nuclear: {_yes(report.is_nuclear)}", "nuclear",
             report.is_nuclear),
            (f"exceptional: {_yes(report.is_exceptional)}", "exceptional",
             report.is_exceptional),
            (f"jordan: {_yes(report.is_jordan)}", "jordan", report.is_jordan),
            (f"annihilator ideal dimension: {len(report.lyubich_basis)}",
             "annihilator_dim", len(report.lyubich_basis))]
    if args.generic_degree:
        gdeg = elements.generic_degree(table)
        entries.append((f"generic element degree: {gdeg}", "generic_degree",
                        gdeg))
    return entries


def cmd_element(args):
    table = fileformat.load_algebra(args.file)
    a = fileformat.parse_element_spec(table, args.spec)
    analysis = elements.analyze_element(a)
    nil = analysis.right_nil_index
    entries = [
        (f"element: {a}", "element", fileformat.element_to_json(a)),
        (f"degree: {analysis.degree}", "degree", analysis.degree),
        (f"minimal polynomial: {analysis.minimal_poly}", "minimal_poly",
         [format_scalar(c) for c in analysis.minimal_poly.coefficients()]),
        ("right nil index: " + ("none (element is not nilpotent)"
                                if nil is None else str(nil)),
         "right_nil_index", nil)]
    if table.has_weight:
        w = a.weight()
        form_ok = elements.minimal_poly_form_check(analysis)
        entries += [(f"weight: {format_scalar(w)}", "weight",
                     format_scalar(w)),
                    ("minimal polynomial shape: "
                     + ("expected for the degree" if form_ok
                        else "unexpected"), "minimal_poly_shape_ok", form_ok)]
        rank = analysis.train_rank() if w else None
        if not w:
            text = "train equation: not applicable (weight zero)"
        elif rank is None:
            text = "train equation: none within the search bound"
        else:
            text = f"train equation: f_{rank} vanishes (rank {rank})"
        entries.append((text, "train_rank", rank))
    return entries


def cmd_train(args):
    table = fileformat.load_algebra(args.file)
    if not table.has_weight:
        raise AlgebraError("train analysis needs a weighted table")
    entries = [(f"algebra: {table.name or args.file} (dim {table.dim})",
                "dim", table.dim)]
    if not structure.is_bernstein(table):
        return entries + [("bernstein: no (train analysis not applicable)",
                           "bernstein", False)]
    report = train_mod.train_analysis(table)
    entries += [("bernstein: yes", "bernstein", True),
                (f"train: {_yes(report.is_train)}", "train", report.is_train)]
    if report.is_train:
        coeffs = [format_scalar(c) for c in report.train_coeffs]
        entries += [(f"rank: {report.rank}", "rank", report.rank),
                    (f"equation (weight 1): {report.train_poly} = 0", None,
                     None),
                    (f"coefficients: ({', '.join(coeffs)})", "coefficients",
                     coeffs),
                    (f"weight kernel nil index: {report.nil_index_N}",
                     "nil_index", report.nil_index_N)]
    else:
        entries += [("weight kernel is not nil of bounded index", "rank",
                     None),
                    (None, "nil_index", None)]
    return entries + [
        (f"locally train: {_yes(report.is_locally_train)}", "locally_train",
         report.is_locally_train),
        (f"search bounds: {report.bounds}", "bounds", report.bounds)]


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
    entries = [(f"algebra: {table.name or args.file} (dim {table.dim})",
                None, None),
               ("carrier satisfies (x^2)^2 = 0: "
                + _yes(report.satisfies_sq_sq_zero), "sq_sq_zero",
                report.satisfies_sq_sq_zero),
               (None, "bounds", report.bounds)]
    if report.satisfies_sq_sq_zero:
        if report.nil_bounded_index is not None:
            texts = [f"bounded nil index: {report.nil_bounded_index}",
                     f"engel index: {report.engel_index}",
                     "tree power sums verified up to "
                     f"{report.yagzhev_verified_upto} leaves"]
        else:
            texts = ["carrier is not nil of bounded index; "
                     "no Engel bound, tree sums stay nonzero", None, None]
        entries += zip(texts, ("nil_index", "engel_index", "tree_sums_upto"),
                       (report.nil_bounded_index, report.engel_index,
                        report.yagzhev_verified_upto))
    return entries


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
    params = {}
    for key, value in map(_parse_param, args.param or []):
        if key in params:
            raise AlgebraError(f"parameter {key} given twice")
        params[key] = value
    try:
        table = _CONSTRUCTORS[args.name](**params)
    except TypeError as exc:
        raise AlgebraError(f"bad parameters for {args.name}: {exc}")
    entries = [(f"constructed: {table.name} (dim {table.dim})", None, None),
               (f"basis: {', '.join(table.labels)}", None, None)]
    entries += [(f"note: {note}", None, None) for note in table.notes]
    if args.out:
        fileformat.save_algebra(table, args.out)
        entries.append((f"written to {args.out}", None, None))
    return entries + [(None, "table", fileformat.table_to_json(table))]


def cmd_groebner(args):
    presentation = fileformat.load_presentation(args.file)
    state = groebner.buchberger_truncated(presentation, args.max_deg)
    gens = presentation.generators
    entries = [
        (f"generators: {', '.join(gens)}", None, None),
        (f"input relations: {len(presentation.relations)}", None, None),
        (f"degree bound: {args.max_deg} "
         f"(normal forms complete below {state.complete_below})",
         "complete_below", state.complete_below),
        (f"new elements during completion: {state.new_elements}",
         "new_elements", state.new_elements),
        ("input was already a Groebner basis below the bound: "
         + _yes(state.is_groebner_as_given), "groebner_as_given",
         state.is_groebner_as_given),
        (f"basis ({len(state.basis)} elements):", "basis", state.render())]
    entries += [(f"  {g.render(gens)} = 0", None, None) for g in state.basis]
    counts = groebner.hilbert_counts(state, args.max_deg)
    entries.append((f"normal word counts, degree 1..{args.max_deg}: "
                    + ", ".join(str(c) for c in counts), "hilbert", counts))
    for d in range(1, min(args.words_deg, args.max_deg) + 1):
        rendered = ["".join(gens[g] for g in w)
                    for w in groebner.normal_words(state, d)]
        entries.append((f"normal words of degree {d}: "
                        + (", ".join(rendered) if rendered else "none"),
                        None, None))
    return entries


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
    entries = [(None, "max_deg", args.max_deg), (None, "trunc", args.trunc)]
    steps = _kurosh_steps(args.max_deg, args.trunc)
    for label in ("completion", "nil_span", "hilbert", "truncation",
                  "baric", "train"):
        try:
            ok, detail, extra = next(steps)
        except AlgebraError as exc:
            ok, detail, extra = False, str(exc), {"error": str(exc)}
        entries.append((f"{'PASS' if ok else 'FAIL'} {label}: {detail}",
                        label, {"ok": ok, **extra}))
        if not ok:
            break
    return entries, 0 if ok else 1


def build_parser():
    parser = _Parser(prog="bernstein",
                     description="Exact tools for baric and Bernstein "
                                 "algebras over the rationals.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="structure report for an algebra file")
    p.add_argument("file")
    p.add_argument("--generic-degree", action="store_true",
                   help="also compute the degree of a generic element")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("element", help="analyse one element")
    p.add_argument("file")
    p.add_argument("spec", help='element expression such as "e + 2u1 - 1/2 v1"')
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("train", help="train equation analysis")
    p.add_argument("file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("engel", help="nil / Engel / tree-sum analysis")
    p.add_argument("file")
    p.add_argument("--carrier",
                   help="comma separated basis labels (default: weight kernel)")
    p.set_defaults(func=cmd_engel)

    p = sub.add_parser("construct", help="build a catalog algebra")
    p.add_argument("name")
    p.add_argument("--param", action="append",
                   help="key=value, repeatable (lists comma separated)")
    p.add_argument("--out", help="write the table as JSON")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("groebner",
                       help="truncated completion of a presentation")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--words-deg", type=int, default=3,
                   help="list normal words up to this degree (default 3)")
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("kurosh-demo",
                       help="two generators, cubes zero: full pipeline")
    p.add_argument("--max-deg", type=int, default=12)
    p.add_argument("--trunc", type=int, default=6)
    p.set_defaults(func=cmd_kurosh_demo)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser():
    """The parser of ``main``, built once per process; argparse keeps
    no state between calls of ``parse_args``."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        result = args.func(args)
        entries, code = result if isinstance(result, tuple) else (result, 0)
        _emit(args.cmd.replace("-", "_"), entries, args.json)
        return code
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
