"""Command-line surface: parse, enumerate, evaluate, combine, verify, check.

Exit codes: 0 success, 1 domain failure (total conflict, axiom violation,
verification failure), 2 input or usage error.  All output is deterministic
given the inputs, the flags, and the seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .cases import CASE_IDS, build_case, display_labels
from .combine import combine_many
from .context import (ContextDocument, check_document_keys,
                      document_from_json, load_document,
                      normalize_no_universal_object, parse_cxt,
                      parse_json_object)
from .errors import (ConceptDSError, ParseError, TotalConflictError,
                     check_capacity)
from .evidence import MAX_SET_CARRIER, MassFunction, resolve_mass
from .lattice import ConceptLattice, enumerate_concepts
from .oracle import (MAX_AXIOM_CARRIER, check_belief_axioms_set,
                     check_plausibility_axioms_set, random_context,
                     random_mass)
from .powerset import subset_text, subsets
from .probspace import (ProbabilitySpace, json_elements,
                        probability_space_from_json)
from .rationals import format_exact, format_fixed, parse_rational
from .represent import (normalize_with_mass, represent_concepts,
                        represent_concepts_frame)


# ---------------------------------------------------------------------------
# Small rendering helpers

def _formatter(args: argparse.Namespace) -> Callable[[Fraction], str]:
    """Exact p/q under --exact, else the value rounded to --round places."""
    if args.exact:
        return format_exact
    return lambda value: format_fixed(value, args.digits)


def _yes(ok: bool) -> str:
    return "yes" if ok else "NO"


def _table_lines(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 indent: str = "") -> list[str]:
    """Align a table: first column left, numeric columns right."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [list(headers)] + [list(r) for r in rows]:
        first = row[0].ljust(widths[0])
        rest = [cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0]
        lines.append((indent + "  ".join([first] + rest)).rstrip())
    return lines


def _csv_text(rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _print_json(payload: Mapping) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _set_text(names: Sequence[str]) -> str:
    return "{" + ",".join(names) + "}"


def _concept_line(lat: ConceptLattice, index: int, label: str) -> str:
    concept = lat[index]
    extent = _set_text(lat.context.object_names(concept.extent))
    intent = _set_text(lat.context.attribute_names(concept.intent))
    return f"{label}: ({extent},{intent})"


# ---------------------------------------------------------------------------
# Input loading

def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _is_json(text: str) -> bool:
    return text.lstrip().startswith("{")


def _cxt_document(text: str) -> ContextDocument:
    """A bare CXT context, as a document with no labels and no masses."""
    return ContextDocument(parse_cxt(text), (), {}, None)


def _load(path: str) -> tuple[ContextDocument, ConceptLattice, tuple[str, ...]]:
    """A JSON context document or a CXT file, its lattice and display labels."""
    text = _read_text(path)
    doc = load_document(text) if _is_json(text) else _cxt_document(text)
    lat = enumerate_concepts(doc.context)
    return doc, lat, display_labels(lat, doc.labels)


def _is_partition_space(doc: Mapping) -> bool:
    return {"carrier", "blocks", "mu"} <= set(doc)


def _named_masses(doc: ContextDocument,
                  lat: ConceptLattice) -> dict[str, MassFunction]:
    masses = {spec.name: resolve_mass(spec, lat) for spec in doc.masses}
    if not masses:
        raise ParseError("the document defines no mass functions")
    return masses


# ---------------------------------------------------------------------------
# lattice

def _cmd_lattice(args: argparse.Namespace) -> int:
    doc, lat, labels = _load(args.path)
    ctx = doc.context
    if args.json:
        _print_json({
            "context": {
                "objects": list(ctx.objects),
                "attributes": list(ctx.attributes),
                "incidence": [[ctx.objects[g], ctx.attributes[a]]
                              for g, a in sorted(ctx.incidence)],
                "labels": {name: list(ctx.object_names(extent))
                           for name, extent in doc.labels.items()},
            },
            "concepts": [{
                "label": labels[i],
                "extent": list(ctx.object_names(c.extent)),
                "intent": list(ctx.attribute_names(c.intent)),
            } for i, c in enumerate(lat)],
            "covers": [[labels[i], labels[j]] for i, j in lat.covers()],
        })
        return 0
    for i in range(len(lat)):
        print(_concept_line(lat, i, labels[i]))
    print("covers:")
    for i, j in lat.covers():
        print(f"{labels[i]} < {labels[j]}")
    return 0


# ---------------------------------------------------------------------------
# bel / pl

def _cmd_evidence(args: argparse.Namespace) -> int:
    fmt = _formatter(args)
    doc, lat, labels = _load(args.path)
    columns = {name: [fmt(v) for v in getattr(m.belief_table(), args.kind)]
               for name, m in _named_masses(doc, lat).items()}
    if args.format == "json":
        _print_json({"kind": args.kind, "concepts": list(labels),
                     "rows": columns})
        return 0
    header = ["concept", *columns]
    cells = list(zip(labels, *columns.values()))
    if args.format == "csv":
        print(_csv_text([header] + cells), end="")
        return 0
    for line in _table_lines(header, cells):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# combine

def _cmd_combine(args: argparse.Namespace) -> int:
    fmt = _formatter(args)
    doc, lat, labels = _load(args.path)
    masses = _named_masses(doc, lat)
    if args.order:
        order = [s.strip() for s in args.order.split(",") if s.strip()]
        for name in order:
            if name not in masses:
                raise ParseError(f"--order names unknown mass {name!r}")
    else:
        order = list(masses)
    if len(order) < 2:
        raise ParseError("combine needs at least two mass functions")

    fold = combine_many([masses[name] for name in order])
    acc, conflicts = fold.result, fold.conflicts
    table = acc.belief_table()

    if args.format == "json":
        _print_json({
            "order": order,
            "conflicts": [fmt(v) for v in conflicts],
            "concepts": list(labels),
            "mass": [fmt(v) for v in acc.values],
            "bel": [fmt(v) for v in table.bel],
            "pl": [fmt(v) for v in table.pl],
        })
        return 0
    header = ["concept", "mass", "bel", "pl"]
    cells = [[labels[i], fmt(acc.values[i]), fmt(table.bel[i]),
              fmt(table.pl[i])] for i in range(len(lat))]
    if args.format == "csv":
        conflict_rows = [[f"conflict step {k}", fmt(v)]
                         for k, v in enumerate(conflicts, start=1)]
        print(_csv_text(conflict_rows + [header] + cells), end="")
        return 0
    print(f"combined {'⊕'.join(order)}")
    for k, value in enumerate(conflicts, start=1):
        print(f"conflict (step {k}): {fmt(value)}")
    for line in _table_lines(header, cells):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# verify-representation

_VERIFY_COLUMNS = ("concept", "bel", "inner", "pl", "outer")


def _verify_partition_space(space: ProbabilitySpace, output: str) -> int:
    """Measure-side checks for a partition-space document.

    Sweeps every subset of the carrier: the inner and outer measures must
    match the measures of their measurable approximants, the approximants
    must sandwich the subset, and outer must be the dual of inner under
    complement.
    """
    n = len(space.carrier)
    # The sweep visits every subset of its carrier, as many as the concepts
    # of that carrier's powerset lattice.
    check_capacity("carrier for the measure sweep", n, MAX_SET_CARRIER)
    approximants_ok = True
    duality_ok = True
    checked = 0
    for y in subsets(space.carrier):
        checked += 1
        inside = space.iota(y)
        around = space.gamma(y)
        if not (inside <= y <= around):
            approximants_ok = False
        if space.inner_measure(y) != space.inner_measure(inside):
            approximants_ok = False
        if space.outer_measure(y) != space.outer_measure(around):
            approximants_ok = False
        if space.outer_measure(y) != 1 - space.inner_measure(space.carrier - y):
            duality_ok = False
    passed = approximants_ok and duality_ok
    if output == "json":
        _print_json({
            "kind": "partition-space",
            "subsets_checked": checked,
            "approximants_ok": approximants_ok,
            "duality_ok": duality_ok,
            "passed": passed,
        })
        return 0 if passed else 1
    print(f"partition space: {len(space.blocks)} blocks over {n} elements")
    print(f"subsets checked: {checked}")
    print(f"inner/outer agree with approximants: {_yes(approximants_ok)}")
    print(f"outer is the complement-dual of inner: {_yes(duality_ok)}")
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _verification(name: str, mass: MassFunction, labels: Sequence[str],
                  construction: str, fmt: Callable[[Fraction], str]) -> dict:
    """One (mass, construction) result, as `--format json` prints it."""
    represent = (represent_concepts_frame if construction == "frame"
                 else represent_concepts)
    rep = represent(mass)
    return {
        "mass": name,
        "construction": construction,
        "rows": [{
            "concept": labels[r.concept_index],
            "bel": fmt(r.bel), "inner": fmt(r.inner),
            "pl": fmt(r.pl), "outer": fmt(r.outer),
            "ok": r.passed,
        } for r in rep.rows],
        "structural": rep.checks,
        "passed": rep.all_passed,
    }


def _verification_lines(result: dict) -> list[str]:
    lines = [f"mass {result['mass']} ({result['construction']}):"]
    lines += _table_lines(
        [*_VERIFY_COLUMNS, "ok"],
        [[row[key] for key in _VERIFY_COLUMNS] + [_yes(row["ok"])]
         for row in result["rows"]], indent="  ")
    lines += [f"  {check}: {_yes(ok)}"
              for check, ok in result["structural"].items()]
    lines.append(f"  result: {'PASS' if result['passed'] else 'FAIL'}")
    return lines


def _soak_instance(rng: random.Random) -> MassFunction | None:
    """One random normalized lattice of at most 10 concepts, with a mass."""
    ctx = random_context(rng.randrange(2 ** 32), rng.randint(2, 5),
                         rng.randint(2, 5), rng.uniform(0.2, 0.8))
    ctx = normalize_no_universal_object(ctx)
    lat = enumerate_concepts(ctx)
    if len(lat) > 10:
        return None
    return random_mass(rng.randrange(2 ** 32), lat)


def _cmd_verify(args: argparse.Namespace) -> int:
    if (args.path is None) == (args.soak is None):
        raise ParseError("pass exactly one of an input path or --soak N")

    if args.soak is not None:
        if args.soak <= 0:
            raise ParseError("--soak needs a positive instance count")
        if args.format != "text" or args.construction != "algebraic":
            raise ParseError("--soak runs the algebraic construction with text "
                             "output; --format and --construction apply to "
                             "an input path")
        rng = random.Random(args.seed)
        failures = 0
        for k in range(args.soak):
            mass = None
            while mass is None:
                mass = _soak_instance(rng)
            ok = represent_concepts(mass).all_passed
            if not ok:
                failures += 1
            print(f"instance {k}: {len(mass.lattice)} concepts, "
                  f"{'PASS' if ok else 'FAIL'}")
        print(f"soak: {args.soak - failures}/{args.soak} passed")
        return 0 if failures == 0 else 1

    text = _read_text(args.path)
    if _is_json(text):
        doc_json = parse_json_object(text)
        if _is_partition_space(doc_json):
            return _verify_partition_space(
                probability_space_from_json(doc_json), args.format)
        doc = document_from_json(doc_json)
    else:
        doc = _cxt_document(text)
    lat = enumerate_concepts(doc.context)
    masses = _named_masses(doc, lat)
    constructions = ["algebraic", "frame"] if args.construction == "both" \
        else [args.construction]

    fmt = _formatter(args)
    # Every mass lives on `lat`, so all move to the one normalized lattice.
    labels = display_labels(lat.normalized, doc.labels)
    moved = {name: normalize_with_mass(mass)[0]
             for name, mass in masses.items()}
    results = [_verification(name, mass, labels, construction, fmt)
               for name, mass in moved.items()
               for construction in constructions]
    normalized = lat.normalized is not lat
    passed = all(result["passed"] for result in results)
    if args.format == "json":
        _print_json({"normalized": normalized, "results": results,
                     "passed": passed})
        return 0 if passed else 1
    if normalized:
        print("note: the least concept had a nonempty extent; verification "
              "ran on the normalized context")
    for result in results:
        print("\n".join(_verification_lines(result)))
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# check

def _table_from_entries(doc: Mapping) -> dict[frozenset, Fraction]:
    check_document_keys(doc, {"carrier", "kind", "entries"})
    for key in ("carrier", "entries"):
        if key not in doc:
            raise ParseError(f"table document is missing {key!r}")
    carrier = json_elements(doc["carrier"], "'carrier'")
    if not isinstance(doc["entries"], list):
        raise ParseError("'entries' must be a list of [subset, value] pairs")
    table: dict[frozenset, Fraction] = {}
    for i, pair in enumerate(doc["entries"]):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], list)):
            raise ParseError(f"entries must be [subset, value] pairs, got {pair!r}")
        subset = json_elements(pair[0], f"the subset of 'entries'[{i}]")
        if not subset <= carrier:
            raise ParseError(f"{subset_text(subset)} is not a subset of the carrier")
        if subset in table:
            raise ParseError(f"duplicate entry for subset {subset_text(subset)}")
        table[subset] = parse_rational(pair[1])
    if carrier not in table:
        raise ParseError("the table must include an entry for the whole carrier")
    return table


def _check_result(kind: str, report, fmt: Callable[[Fraction], str]) -> dict:
    """One axiom check, as `--format json` prints it."""
    v = report.first_violation
    return {"kind": kind, "checked": report.checked_tuples,
            "violation": None if v is None else {
                "sets": [sorted(map(str, s)) for s in v.sets],
                "value": fmt(v.lhs),
                "bound": fmt(v.rhs),
                "note": v.note,
            }}


def _check_lines(result: dict) -> list[str]:
    kind, v = result["kind"], result["violation"]
    lines = [f"{kind} axioms: checked {result['checked']} tuples"]
    if v is None:
        return lines + [f"{kind} axioms: no violations"]
    return lines + [f"{kind} axioms: VIOLATION ({v['note']})",
                    f"  sets: {'; '.join(map(_set_text, v['sets']))}",
                    f"  value {v['value']} against bound {v['bound']}"]


def _cmd_check(args: argparse.Namespace) -> int:
    doc = parse_json_object(_read_text(args.path))
    if _is_partition_space(doc):
        space = probability_space_from_json(doc)
        # The checkers bound the carrier too, but only after every subset
        # and both measure tables exist.
        check_capacity("carrier for axiom checking", len(space.carrier),
                       MAX_AXIOM_CARRIER)
        every = subsets(space.carrier)
        kind = args.kind or "both"
        measures = {"bel": space.inner_measure, "pl": space.outer_measure}
        kinds = ("bel", "pl") if kind == "both" else (kind,)
        tables = {k: {s: measures[k](s) for s in every} for k in kinds}
    else:
        table = _table_from_entries(doc)
        kind = args.kind or doc.get("kind")
        if kind not in ("bel", "pl", "both"):
            raise ParseError("no table kind given; pass --kind bel|pl|both or "
                             "put \"kind\" in the document")
        kinds = ("bel", "pl") if kind == "both" else (kind,)
        tables = {k: table for k in kinds}

    fmt = _formatter(args)
    results = []
    for k, table in tables.items():
        checker = check_belief_axioms_set if k == "bel" \
            else check_plausibility_axioms_set
        results.append(_check_result(k, checker(table, n_max=args.n_max), fmt))
    passed = all(result["violation"] is None for result in results)
    if args.format == "json":
        _print_json({"checks": results, "passed": passed})
    else:
        for result in results:
            print("\n".join(_check_lines(result)))
        print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# examples

def _cmd_examples(args: argparse.Namespace) -> int:
    fmt = _formatter(args)
    report = build_case(args.case)
    lat = report.lattice
    noted = {(n.table, n.row, n.column) for n in report.notes}

    def cell(table: str, row: str, column_index: int, value: Fraction) -> str:
        star = "*" if (table, row, report.labels[column_index]) in noted else ""
        return fmt(value) + star

    print(f"case: {report.case_id}")
    ctx = lat.context
    print(f"context: {len(ctx.objects)} objects, {len(ctx.attributes)} "
          f"attributes, {len(lat)} concepts")
    print("concepts:")
    for i in range(len(lat)):
        print("  " + _concept_line(lat, i, report.labels[i]))

    headers = ["row"] + list(report.labels)
    # The expected block picks the tables to show; with none, all three.
    expected = report.document.expected or {}
    for title, rows in (("mass", report.mass_rows), ("bel", report.bel_rows),
                        ("pl", report.pl_rows)):
        if expected and title not in expected:
            continue
        print(f"{title}:")
        body = [[name] + [cell(title, name, i, values[i])
                          for i in range(len(lat))]
                for name, values in rows.items()]
        for line in _table_lines(headers, body, indent="  "):
            print(line)

    if report.combined_order:
        print(f"combined {report.combined_name}:")
        for k, value in enumerate(report.conflicts, start=1):
            print(f"  conflict (step {k}): {fmt(value)}")
        expected_combined = expected.get("combined", {})
        row_names = [name for name in ("mass", "bel", "pl")
                     if name in expected_combined] or ["mass", "bel", "pl"]
        body = [[name] + [cell("combined", name, i,
                               report.combined_rows[name][i])
                          for i in range(len(lat))]
                for name in row_names]
        for line in _table_lines(headers, body, indent="  "):
            print(line)

    if report.notes:
        print("annotations:")
        for n in report.notes:
            exact = format_exact(n.computed)
            print(f"  * {n.table} row {n.row} at {n.column}: computed "
                  f"{format_fixed(n.computed, 2)} (exact {exact}), expected "
                  f"grid prints {format_fixed(n.expected, 2)}")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch

def _digits_arg(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}")
    if not 0 <= value <= 9:
        raise argparse.ArgumentTypeError("rounding digits must be within 0..9")
    return value


def _add_format_flags(sp: argparse.ArgumentParser,
                      formats: tuple[str, ...] = ()) -> None:
    """--exact and --round, plus --format when there is a choice of formats."""
    if formats:
        sp.add_argument("--format", choices=formats, default="text",
                        help="output format")
    sp.add_argument("--exact", action="store_true",
                    help="print exact rationals as p/q")
    sp.add_argument("--round", type=_digits_arg, default=2, dest="digits",
                    metavar="N", help="decimal places (default 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptds",
        description="Evidence over concept lattices: enumerate, evaluate, "
                    "combine, verify, and reproduce the bundled cases.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("lattice", help="enumerate the concepts of a context")
    sp.add_argument("path", help="JSON document or CXT file")
    sp.add_argument("--json", action="store_true", help="structured output")
    sp.set_defaults(handler=_cmd_lattice)

    for kind, text in (("bel", "belief"), ("pl", "plausibility")):
        sp = sub.add_parser(kind, help=f"per-concept {text} table")
        sp.add_argument("path", help="JSON document with named masses")
        _add_format_flags(sp, ("text", "csv", "json"))
        sp.set_defaults(handler=_cmd_evidence, kind=kind)

    sp = sub.add_parser("combine",
                        help="fold named masses with the conjunctive rule")
    sp.add_argument("path", help="JSON document with at least two masses")
    sp.add_argument("--order", metavar="m1,m2,...",
                    help="fold order (default: document order)")
    _add_format_flags(sp, ("text", "csv", "json"))
    sp.set_defaults(handler=_cmd_combine)

    sp = sub.add_parser(
        "verify-representation",
        help="check bel/pl against inner/outer measures of the "
             "constructed space")
    sp.add_argument("path", nargs="?",
                    help="JSON document with masses, or a partition space")
    sp.add_argument("--construction", choices=("algebraic", "frame", "both"),
                    default="algebraic")
    sp.add_argument("--soak", type=int, metavar="N",
                    help="verify N random lattice masses instead of a file "
                         "(algebraic construction)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for --soak (default 0)")
    _add_format_flags(sp, ("text", "json"))
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("check",
                        help="run the axiom checkers on a table or a "
                             "partition space")
    sp.add_argument("path", help="JSON table {carrier, entries, kind} or "
                                 "partition space {carrier, blocks, mu}")
    sp.add_argument("--kind", choices=("bel", "pl", "both"))
    sp.add_argument("--n-max", type=int, default=3, dest="n_max",
                    help="largest tuple length to check (default 3)")
    _add_format_flags(sp, ("text", "json"))
    sp.set_defaults(handler=_cmd_check)

    sp = sub.add_parser("examples", help="recompute a bundled case and "
                                         "annotate differences")
    sp.add_argument("--case", required=True, choices=CASE_IDS)
    _add_format_flags(sp)
    sp.set_defaults(handler=_cmd_examples)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except TotalConflictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConceptDSError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
