"""JSON interchange for algebra tables and presentations, plus the
small textual element syntax used on the command line.

All scalars travel as exact strings like "3" or "-5/2", read by
``core.read_scalar``; JSON numbers, decimals and exponents are rejected
everywhere.
"""

from __future__ import annotations

import json
import re
from math import lcm

from .core import (MAX_SCALAR_CHARS, AlgebraError, AlgebraTable, _concrete,
                   parse_scalar, read_scalar)
from .groebner import NcPoly, Presentation
from .multipoly import format_ratio


def _written(n, d, where, *args):
    """n/d as written; raises, naming ``where.format(*args)``, when
    ``read_scalar`` would reject it as long."""
    text = format_ratio(n, d)
    if len(text) > MAX_SCALAR_CHARS:
        raise AlgebraError(f"cannot write {where.format(*args)}: longer "
                           f"than {MAX_SCALAR_CHARS} characters")
    return text


def table_to_json(table):
    labels = table.labels
    data = {"name": table.name, "basis": list(labels)}
    if table.has_weight:
        ws, dw = table._weight
        data["weight"] = {labels[i]: _written(w, dw, "the weight of {}",
                                              labels[i])
                          for i, w in enumerate(ws) if w}
    rows, den = table._integer_rows()
    data["products"] = [
        {"left": labels[i], "right": labels[j],
         "value": {labels[k]: _written(s, den, "the {} coefficient of {}*{}",
                                       labels[k], labels[i], labels[j])
                   for k, s in row[j]}}
        for i, row in enumerate(rows) for j in sorted(row) if i <= j]
    if table.notes:
        data["notes"] = list(table.notes)
    return data


def _expect(condition, message):
    if not condition:
        raise AlgebraError(message)


def table_from_json(data):
    """The table of a JSON object; each scalar is read by ``read_scalar``
    into an (n, d) pair, and no Fraction is built."""
    _expect(isinstance(data, dict), "algebra file must be a JSON object")
    basis = data.get("basis")
    _expect(isinstance(basis, list) and basis and
            all(isinstance(b, str) for b in basis),
            "field 'basis' must be a nonempty list of labels")
    index = {b: i for i, b in enumerate(basis)}

    weight = None
    if "weight" in data:
        wdata = data["weight"]
        _expect(isinstance(wdata, dict), "field 'weight' must be an object")
        weight = [0] * len(basis)
        for label, value in wdata.items():
            if label not in index:
                raise AlgebraError(f"weight uses unknown label {label!r}")
            weight[index[label]] = read_scalar(value)

    entries = data.get("products", [])
    _expect(isinstance(entries, list), "field 'products' must be a list")
    products = {}
    for pos, entry in enumerate(entries):
        if not (isinstance(entry, dict) and "left" in entry
                and "right" in entry and "value" in entry):
            raise AlgebraError(f"product entry {pos} needs left, right "
                               "and value")
        left, right, value = entry["left"], entry["right"], entry["value"]
        if not (isinstance(left, str) and isinstance(right, str)
                and left in index and right in index):
            raise AlgebraError(f"product entry {pos} uses an unknown label")
        i, j = index[left], index[right]
        pair = (i, j) if i <= j else (j, i)
        if pair in products:
            raise AlgebraError(
                f"duplicate product entry for pair ({left}, {right})")
        if not isinstance(value, dict):
            raise AlgebraError(f"product entry {pos} value must be an object")
        vec = products[pair] = {}
        for label, coeff in value.items():
            if label not in index:
                raise AlgebraError(f"product entry {pos} targets unknown "
                                   f"label {label!r}")
            vec[index[label]] = read_scalar(coeff)

    notes = data.get("notes", [])
    _expect(isinstance(notes, list) and
            all(isinstance(x, str) for x in notes),
            "field 'notes' must be a list of strings")
    return AlgebraTable(basis, products, weight=weight,
                        name=str(data.get("name", "")), notes=notes)


def save_algebra(table, path):
    data = table_to_json(table)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _read_json(path):
    """Parsed JSON of the file at path; a file that is not UTF-8, not
    JSON, or nested past the parser's recursion limit is an input
    error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise AlgebraError(f"{path}: not valid JSON ({exc})")


def load_algebra(path):
    return table_from_json(_read_json(path))


def element_to_json(element):
    """{label: "p/q"} of the nonzero coordinates of a concrete element."""
    labels, den = element.algebra.labels, element.den
    return {labels[i]: format_ratio(element.num[i], den)
            for i in sorted(element.num)}


# The coefficient also takes the shapes of decimals ("0.5"), exponents
# ("1e3", when no identifier character follows) and doubled signs, so
# that read_scalar rejects them by name.
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coeff>[+-]*[0-9.]+(?:[eE][+-]?[0-9]+(?![A-Za-z0-9_]))?"
    r"(?:\s*/\s*[0-9.]+)?)\s*\*?\s*)?"
    r"(?P<label>[A-Za-z_][A-Za-z0-9_]*)\s*")


def parse_element_spec(table, text):
    """Parse "e + 2u1 - 1/2 v1" style element expressions.

    Each term is an optional rational coefficient, read with its sign
    by ``read_scalar``, followed by a basis label; repeated labels
    accumulate.
    """
    if not isinstance(text, str) or not text.strip():
        raise AlgebraError("empty element expression")
    terms = []
    pos = 0
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match:
            raise AlgebraError(
                f"cannot parse element expression near {text[pos:pos + 12]!r}")
        sign, coeff, label = match.group("sign", "coeff", "label")
        if pos and sign is None:
            raise AlgebraError(
                f"expected + or - before {label!r} in element expression")
        if coeff:
            n, d = read_scalar((sign or "") + "".join(coeff.split()))
        else:
            n, d = (-1 if sign == "-" else 1), 1
        terms.append((table.index(label), n, d))
        pos = match.end()
    den = lcm(*(d for _, _, d in terms))
    num = {}
    for k, n, d in sorted(terms):
        num[k] = num.get(k, 0) + n * (den // d)
    return _concrete(table, num, den)


def presentation_to_json(presentation):
    relations = []
    for pos, rel in enumerate(presentation.relations):
        terms = []
        for word in sorted(rel.terms, key=lambda w: (len(w), w)):
            names = [presentation.generators[g] for g in word]
            c = rel.terms[word]
            terms.append({"word": names, "coeff": _written(
                c.numerator, c.denominator,
                "the coefficient of {} in relation {}", "".join(names), pos)})
        relations.append(terms)
    return {"generators": list(presentation.generators),
            "relations": relations}


def presentation_from_json(data):
    _expect(isinstance(data, dict), "presentation file must be a JSON object")
    gens = data.get("generators")
    _expect(isinstance(gens, list) and gens and
            all(isinstance(g, str) for g in gens),
            "field 'generators' must be a nonempty list of names")
    index = {g: i for i, g in enumerate(gens)}
    _expect(len(index) == len(gens), "generator names must be distinct")
    rels_data = data.get("relations")
    _expect(isinstance(rels_data, list) and rels_data,
            "field 'relations' must be a nonempty list")
    relations = []
    for pos, terms in enumerate(rels_data):
        _expect(isinstance(terms, list) and terms,
                f"relation {pos} must be a nonempty list of terms")
        poly = NcPoly.zero()
        for term in terms:
            _expect(isinstance(term, dict) and "word" in term,
                    f"relation {pos} has a malformed term")
            word = term["word"]
            _expect(isinstance(word, list) and word and
                    all(isinstance(w, str) and w in index for w in word),
                    f"relation {pos} uses an unknown generator")
            coeff = parse_scalar(term.get("coeff", "1"))
            poly = poly + NcPoly.word([index[w] for w in word], coeff)
        _expect(bool(poly), f"relation {pos} collapses to zero")
        relations.append(poly)
    return Presentation(tuple(gens), tuple(relations))


def save_presentation(presentation, path):
    data = presentation_to_json(presentation)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_presentation(path):
    return presentation_from_json(_read_json(path))
