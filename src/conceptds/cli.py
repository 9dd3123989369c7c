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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cases import CASE_IDS, CaseReport, build_case, display_labels
from .combine import combine_many
from .context import (ContextDocument, document_from_json, load_document,
                      normalize_no_universal_object, parse_cxt,
                      parse_json_object)
from .errors import (ConceptDSError, ParseError, TotalConflictError,
                     check_capacity)
from .evidence import MassFunction, resolve_mass
from .lattice import ConceptLattice, enumerate_concepts
from .oracle import (MAX_AXIOM_CARRIER, check_belief_axioms_set,
                     check_plausibility_axioms_set, random_context,
                     random_mass)
from .powerset import subsets
from .probspace import (ProbabilitySpace, json_elements,
                        probability_space_from_json)
from .rationals import format_exact, format_fixed, parse_rational
from .represent import (atom_order_matches, atoms_pairwise_disjoint,
                        embedding_meet_preserving, normalize_with_mass,
                        represent_concepts, represent_concepts_frame)

MAX_MEASURE_SWEEP = 12


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation settings shared by the subcommand handlers."""

    subcommand: str
    paths: tuple[str, ...] = ()
    format: str = "text"
    digits: int = 2
    exact: bool = False
    construction: str = "algebraic"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.digits <= 9:
            raise ParseError(f"rounding digits must be within 0..9, got {self.digits}")

    def fmt(self, value: Fraction) -> str:
        return format_exact(value) if self.exact else format_fixed(value, self.digits)


# ---------------------------------------------------------------------------
# Small rendering helpers

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


def _load_context_document(path: str) -> ContextDocument:
    """Load a JSON context document, or a bare CXT context with no masses."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return load_document(text)
    return ContextDocument(parse_cxt(text), (), {}, None)


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
    doc = _load_context_document(args.path)
    lat = enumerate_concepts(doc.context)
    labels = display_labels(lat, doc.labels)
    ctx = doc.context
    if args.json:
        payload = {
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
                "extent": list(ctx.object_names(lat[i].extent)),
                "intent": list(ctx.attribute_names(lat[i].intent)),
            } for i in range(len(lat))],
            "covers": [[labels[i], labels[j]] for i, j in lat.covers()],
        }
        print(json.dumps(payload, indent=2, ensure_ascii=False))
        return 0
    for i in range(len(lat)):
        print(_concept_line(lat, i, labels[i]))
    print("covers:")
    for i, j in lat.covers():
        print(f"{labels[i]} < {labels[j]}")
    return 0


# ---------------------------------------------------------------------------
# bel / pl

def _evidence_rows(kind: str, lat: ConceptLattice,
                   masses: Mapping[str, MassFunction]) -> list[list[Fraction]]:
    rows = []
    for i in range(len(lat)):
        if kind == "bel":
            rows.append([m.bel(i) for m in masses.values()])
        else:
            rows.append([m.pl(i) for m in masses.values()])
    return rows


def _cmd_evidence(args: argparse.Namespace, kind: str) -> int:
    cfg = RunConfig(kind, paths=(args.path,), format=args.format,
                    digits=args.digits, exact=args.exact)
    doc = _load_context_document(args.path)
    lat = enumerate_concepts(doc.context)
    labels = display_labels(lat, doc.labels)
    masses = _named_masses(doc, lat)
    values = _evidence_rows(kind, lat, masses)
    names = list(masses)
    if cfg.format == "json":
        payload = {
            "kind": kind,
            "concepts": list(labels),
            "rows": {name: [cfg.fmt(values[i][k]) for i in range(len(lat))]
                     for k, name in enumerate(names)},
        }
        print(json.dumps(payload, indent=2, ensure_ascii=False))
        return 0
    cells = [[labels[i]] + [cfg.fmt(v) for v in values[i]]
             for i in range(len(lat))]
    if cfg.format == "csv":
        print(_csv_text([["concept"] + names] + cells), end="")
        return 0
    for line in _table_lines(["concept"] + names, cells):
        print(line)
    return 0


def _cmd_bel(args: argparse.Namespace) -> int:
    return _cmd_evidence(args, "bel")


def _cmd_pl(args: argparse.Namespace) -> int:
    return _cmd_evidence(args, "pl")


# ---------------------------------------------------------------------------
# combine

def _cmd_combine(args: argparse.Namespace) -> int:
    cfg = RunConfig("combine", paths=(args.path,), format=args.format,
                    digits=args.digits, exact=args.exact)
    doc = _load_context_document(args.path)
    lat = enumerate_concepts(doc.context)
    labels = display_labels(lat, doc.labels)
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
    title = "⊕".join(order)

    if cfg.format == "json":
        payload = {
            "order": order,
            "conflicts": [cfg.fmt(v) for v in conflicts],
            "concepts": list(labels),
            "mass": [cfg.fmt(v) for v in acc.values],
            "bel": [cfg.fmt(v) for v in table.bel],
            "pl": [cfg.fmt(v) for v in table.pl],
        }
        print(json.dumps(payload, indent=2, ensure_ascii=False))
        return 0
    cells = [[labels[i], cfg.fmt(acc.values[i]), cfg.fmt(table.bel[i]),
              cfg.fmt(table.pl[i])] for i in range(len(lat))]
    if cfg.format == "csv":
        conflict_rows = [[f"conflict step {k}", cfg.fmt(v)]
                         for k, v in enumerate(conflicts, start=1)]
        print(_csv_text(conflict_rows
                        + [["concept", "mass", "bel", "pl"]] + cells), end="")
        return 0
    print(f"combined {title}")
    for k, value in enumerate(conflicts, start=1):
        print(f"conflict (step {k}): {cfg.fmt(value)}")
    for line in _table_lines(["concept", "mass", "bel", "pl"], cells):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# verify-representation

def _verify_partition_space(space: ProbabilitySpace, cfg: RunConfig) -> int:
    """Measure-side checks for a partition-space document.

    Sweeps every subset of the carrier: the inner and outer measures must
    match the measures of their measurable approximants, the approximants
    must sandwich the subset, and outer must be the dual of inner under
    complement.
    """
    n = len(space.carrier)
    check_capacity("carrier for the measure sweep", n, MAX_MEASURE_SWEEP)
    approximants_ok = True
    duality_ok = True
    checked = 0
    for y in subsets(sorted(space.carrier, key=repr)):
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
    if cfg.format == "json":
        print(json.dumps({
            "kind": "partition-space",
            "subsets_checked": checked,
            "approximants_ok": approximants_ok,
            "duality_ok": duality_ok,
            "passed": passed,
        }, indent=2))
        return 0 if passed else 1
    print(f"partition space: {len(space.blocks)} blocks over {n} elements")
    print(f"subsets checked: {checked}")
    print(f"inner/outer agree with approximants: {'yes' if approximants_ok else 'NO'}")
    print(f"outer is the complement-dual of inner: {'yes' if duality_ok else 'NO'}")
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _verify_rows(cfg: RunConfig, labels: Sequence[str], rows) -> list[list[str]]:
    return [[labels[r.concept_index], cfg.fmt(r.bel), cfg.fmt(r.inner),
             cfg.fmt(r.pl), cfg.fmt(r.outer),
             "yes" if r.passed else "NO"] for r in rows]


def _verify_one(cfg: RunConfig, name: str, mass: MassFunction,
                labels: Sequence[str], construction: str,
                out_text: list[str], out_json: list[dict]) -> bool:
    if construction == "frame":
        rep = represent_concepts_frame(mass)
        structural = {
            "atom extents closed": rep.atom_extents_closed,
            "atom unions closed": rep.unions_closed,
            "embedded concepts closed": rep.embedding_closed,
            "embedding injective": rep.embedding_injective,
            "embedding meet-preserving": rep.embedding_meet_preserving,
        }
        passed = rep.all_passed
        rows = rep.rows
    else:
        rep = represent_concepts(mass)
        structural = {
            "atom order matches the lattice order": atom_order_matches(rep),
            "atoms pairwise disjoint": atoms_pairwise_disjoint(rep),
            "embedding meet-preserving": embedding_meet_preserving(rep),
        }
        rows = rep.rows
        passed = rep.all_passed and all(structural.values())
    out_text.append(f"mass {name} ({construction}):")
    out_text.extend(_table_lines(
        ["concept", "bel", "inner", "pl", "outer", "ok"],
        _verify_rows(cfg, labels, rows), indent="  "))
    for check, ok in structural.items():
        out_text.append(f"  {check}: {'yes' if ok else 'NO'}")
    out_text.append(f"  result: {'PASS' if passed else 'FAIL'}")
    out_json.append({
        "mass": name,
        "construction": construction,
        "rows": [{
            "concept": labels[r.concept_index],
            "bel": cfg.fmt(r.bel), "inner": cfg.fmt(r.inner),
            "pl": cfg.fmt(r.pl), "outer": cfg.fmt(r.outer),
            "ok": r.passed,
        } for r in rows],
        "structural": structural,
        "passed": passed,
    })
    return passed


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
    cfg = RunConfig("verify-representation",
                    paths=(args.path,) if args.path else (),
                    format=args.format, digits=args.digits, exact=args.exact,
                    construction=args.construction, seed=args.seed)
    if (args.path is None) == (args.soak is None):
        raise ParseError("pass exactly one of an input path or --soak N")

    if args.soak is not None:
        if args.soak <= 0:
            raise ParseError("--soak needs a positive instance count")
        rng = random.Random(cfg.seed)
        failures = 0
        for k in range(args.soak):
            mass = None
            for _ in range(10000):
                mass = _soak_instance(rng)
                if mass is not None:
                    break
            assert mass is not None, "random lattices under the size cap exist"
            report = represent_concepts(mass)
            ok = (report.all_passed and atom_order_matches(report)
                  and atoms_pairwise_disjoint(report)
                  and embedding_meet_preserving(report))
            if not ok:
                failures += 1
            print(f"instance {k}: {len(mass.lattice)} concepts, "
                  f"{'PASS' if ok else 'FAIL'}")
        print(f"soak: {args.soak - failures}/{args.soak} passed")
        return 0 if failures == 0 else 1

    text = _read_text(args.path)
    if text.lstrip().startswith("{"):
        doc_json = parse_json_object(text)
        if _is_partition_space(doc_json):
            return _verify_partition_space(
                probability_space_from_json(doc_json), cfg)
        doc = document_from_json(doc_json)
    else:
        doc = ContextDocument(parse_cxt(text), (), {}, None)
    lat = enumerate_concepts(doc.context)
    masses = _named_masses(doc, lat)
    constructions = ["algebraic", "frame"] if cfg.construction == "both" \
        else [cfg.construction]

    out_text: list[str] = []
    out_json: list[dict] = []
    all_passed = True
    normalized_any = False
    for name, mass in masses.items():
        normalized, _ = normalize_with_mass(mass)
        if normalized.lattice is not mass.lattice:
            normalized_any = True
        labels = display_labels(normalized.lattice, doc.labels)
        for construction in constructions:
            if not _verify_one(cfg, name, normalized, labels, construction,
                               out_text, out_json):
                all_passed = False
    if cfg.format == "json":
        print(json.dumps({"normalized": normalized_any, "results": out_json,
                          "passed": all_passed
                          }, indent=2, ensure_ascii=False))
        return 0 if all_passed else 1
    if normalized_any:
        print("note: the least concept had a nonempty extent; verification "
              "ran on the normalized context")
    for line in out_text:
        print(line)
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# check

def _table_from_entries(doc: Mapping) -> dict[frozenset, Fraction]:
    for key in ("carrier", "entries"):
        if key not in doc:
            raise ParseError(f"table document is missing {key!r}")
    carrier = json_elements(doc["carrier"], "'carrier'")
    if not isinstance(doc["entries"], list):
        raise ParseError("'entries' must be a list of [subset, value] pairs")
    table: dict[frozenset, Fraction] = {}
    for pair in doc["entries"]:
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], list)):
            raise ParseError(f"entries must be [subset, value] pairs, got {pair!r}")
        subset = json_elements(pair[0], "each entry's subset")
        if not subset <= carrier:
            raise ParseError(f"{sorted(map(str, subset))} is not a subset of the carrier")
        if subset in table:
            raise ParseError(f"duplicate entry for subset {sorted(map(str, subset))}")
        table[subset] = parse_rational(pair[1])
    if carrier not in table:
        raise ParseError("the table must include an entry for the whole carrier")
    return table


def _render_check(cfg: RunConfig, kind: str, report) -> tuple[list[str], dict]:
    lines = [f"{kind} axioms: checked {report.checked_tuples} tuples"]
    payload: dict = {"kind": kind, "checked": report.checked_tuples,
                     "violation": None}
    if report.passed:
        lines.append(f"{kind} axioms: no violations")
    else:
        v = report.first_violation
        sets = "; ".join(_set_text(sorted(map(str, s))) for s in v.sets)
        lines.append(f"{kind} axioms: VIOLATION ({v.note})")
        lines.append(f"  sets: {sets}")
        lines.append(f"  value {cfg.fmt(v.lhs)} against bound {cfg.fmt(v.rhs)}")
        payload["violation"] = {
            "sets": [sorted(map(str, s)) for s in v.sets],
            "value": cfg.fmt(v.lhs),
            "bound": cfg.fmt(v.rhs),
            "note": v.note,
        }
    return lines, payload


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = RunConfig("check", paths=(args.path,), format=args.format,
                    digits=args.digits, exact=args.exact)
    doc = parse_json_object(_read_text(args.path))
    checks: list[tuple[str, Mapping[frozenset, Fraction]]] = []
    if _is_partition_space(doc):
        space = probability_space_from_json(doc)
        # The checkers bound the carrier too, but only after every subset
        # and both measure tables exist.
        check_capacity("carrier for axiom checking", len(space.carrier),
                       MAX_AXIOM_CARRIER)
        every = subsets(sorted(space.carrier, key=repr))
        kind = args.kind or "both"
        if kind in ("bel", "both"):
            checks.append(("bel", {s: space.inner_measure(s) for s in every}))
        if kind in ("pl", "both"):
            checks.append(("pl", {s: space.outer_measure(s) for s in every}))
    else:
        table = _table_from_entries(doc)
        kind = args.kind or doc.get("kind")
        if kind not in ("bel", "pl", "both"):
            raise ParseError("no table kind given; pass --kind bel|pl|both or "
                             "put \"kind\" in the document")
        if kind in ("bel", "both"):
            checks.append(("bel", table))
        if kind in ("pl", "both"):
            checks.append(("pl", table))

    lines: list[str] = []
    payloads: list[dict] = []
    any_violation = False
    for kind_name, table in checks:
        checker = check_belief_axioms_set if kind_name == "bel" \
            else check_plausibility_axioms_set
        report = checker(table, n_max=args.n_max)
        block, payload = _render_check(cfg, kind_name, report)
        lines.extend(block)
        payloads.append(payload)
        if not report.passed:
            any_violation = True
    if cfg.format == "json":
        print(json.dumps({"checks": payloads, "passed": not any_violation},
                         indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)
        print(f"overall: {'FAIL' if any_violation else 'PASS'}")
    return 1 if any_violation else 0


# ---------------------------------------------------------------------------
# examples

def _case_tables(report: CaseReport) -> list[tuple[str, str, Mapping]]:
    """Tables to render: (title, note key, rows), driven by the expected block."""
    expected = report.document.expected or {}
    out: list[tuple[str, str, Mapping]] = []
    if not expected:
        out.append(("mass", "mass", report.mass_rows))
        out.append(("bel", "bel", report.bel_rows))
        out.append(("pl", "pl", report.pl_rows))
        return out
    if "mass" in expected:
        out.append(("mass", "mass", report.mass_rows))
    if "bel" in expected:
        out.append(("bel", "bel", report.bel_rows))
    if "pl" in expected:
        out.append(("pl", "pl", report.pl_rows))
    return out


def _cmd_examples(args: argparse.Namespace) -> int:
    cfg = RunConfig("examples", format="text", digits=args.digits,
                    exact=args.exact)
    report = build_case(args.case)
    lat = report.lattice
    noted = {(n.table, n.row, n.column) for n in report.notes}

    def cell(table: str, row: str, column_index: int, value: Fraction) -> str:
        star = "*" if (table, row, report.labels[column_index]) in noted else ""
        return cfg.fmt(value) + star

    print(f"case: {report.case_id}")
    ctx = lat.context
    print(f"context: {len(ctx.objects)} objects, {len(ctx.attributes)} "
          f"attributes, {len(lat)} concepts")
    print("concepts:")
    for i in range(len(lat)):
        print("  " + _concept_line(lat, i, report.labels[i]))

    headers = ["row"] + list(report.labels)
    for title, key, rows in _case_tables(report):
        print(f"{title}:")
        body = [[name] + [cell(key, name, i, values[i])
                          for i in range(len(lat))]
                for name, values in rows.items()]
        for line in _table_lines(headers, body, indent="  "):
            print(line)

    if report.combined_order:
        print(f"combined {report.combined_name}:")
        for k, value in enumerate(report.conflicts, start=1):
            print(f"  conflict (step {k}): {cfg.fmt(value)}")
        expected_combined = (report.document.expected or {}).get("combined", {})
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
                      formats: tuple[str, ...]) -> None:
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
        sp.set_defaults(handler=_cmd_bel if kind == "bel" else _cmd_pl)

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
    sp.add_argument("--exact", action="store_true",
                    help="print exact rationals as p/q")
    sp.add_argument("--round", type=_digits_arg, default=2, dest="digits",
                    metavar="N", help="decimal places (default 2)")
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
