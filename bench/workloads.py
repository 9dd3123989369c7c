"""The benchmark's workloads: seeded inputs, one op, and the op's reference.

Each workload is a closed loop from one client in one process.  An op is one
document processed end to end, or one CLI call.  `op` calls the library inside
a span per layer call and extracts plain values from the results, so that no
lazily deferred work escapes the timed region.  `reference` recomputes the
same values with `refs`, outside the timed region, and also returns the
input's size statistics.

Document sizes keep every input inside the package's documented desk bounds,
and each workload keeps the contexts whose concept counts are nearest a target,
so that runs with different seeds do comparable work.
"""

from __future__ import annotations

import compileall
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import conceptds.cli as cli_module
from conceptds import (FormalContext, SetMassFunction, atom_order_matches,
                       atoms_pairwise_disjoint, check_belief_axioms_set,
                       check_plausibility_axioms_set, combine_many,
                       embedding_meet_preserving, enumerate_concepts,
                       load_document, mass_from_bel_lattice, mass_from_bel_set,
                       normalize_no_universal_object, normalize_with_mass,
                       probability_space_from_json, random_context,
                       random_mass, random_partition_space, random_set_mass,
                       represent_concepts, represent_concepts_frame,
                       represent_set, resolve_mass)

import host
import refs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DENSITY = 0.5
POOL = 8
CANDIDATES_PER_DOC = 25
MASS_DRAWS = 2

Digest = tuple  # ((layer, value), ...)


@dataclass
class Doc:
    """A generated context document and what the reference needs of it."""

    text: str
    context: FormalContext
    masses: list[dict[int, Fraction]]
    extra: Any = None


def _seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _extent_label(ctx: FormalContext, extent: int) -> str:
    return "{" + ",".join(name for g, name in enumerate(ctx.objects)
                          if extent >> g & 1) + "}"


def _document_text(ctx: FormalContext,
                   masses: list[dict[int, Fraction]]) -> str:
    return json.dumps({
        "objects": list(ctx.objects),
        "attributes": list(ctx.attributes),
        "incidence": [[ctx.objects[g], ctx.attributes[a]]
                      for g, a in sorted(ctx.incidence)],
        "masses": {f"m{k}": {_extent_label(ctx, e): str(v)
                             for e, v in sorted(m.items())}
                   for k, m in enumerate(masses, start=1)},
    })


def _fold_survives(masses: list[dict[int, Fraction]]) -> bool:
    """Whether no step of the fold is in total conflict (supports only)."""
    support = set(masses[0])
    for m in masses[1:]:
        support = {x & y for x in support for y in m if x & y}
        if not support:
            return False
    return True


def _documents(rng: random.Random, objects: tuple, attributes: tuple,
               target: int, n_masses: int, bound: int,
               min_support: float = 0.0, normalize: bool = False,
               count: int = POOL) -> list[Doc]:
    """`count` documents, each with `n_masses` masses, on the contexts whose
    concept counts are nearest `target` among CANDIDATES_PER_DOC * `count`
    drawn contexts.

    Every seed draws the same number of contexts, and MASS_DRAWS masses per
    mass kept, so that setup does the same work whatever the seed.
    `min_support` is the least share of concepts a kept mass must cover; a
    context whose draws keep too few masses, or whose fold would be in total
    conflict, gives way to the next nearest.
    """
    def context(draw: tuple[int, int, int]) -> FormalContext:
        ctx = random_context(*draw, DENSITY)
        return normalize_no_universal_object(ctx) if normalize else ctx

    # Only the draws are kept, so that setup holds one context at a time.
    draws = [(rng.randrange(2 ** 32), rng.choice(objects),
              rng.choice(attributes))
             for _ in range(CANDIDATES_PER_DOC * count)]
    distance = {draw: abs(refs.concept_count(context(draw)) - target)
                for draw in draws}
    docs = []
    for draw in sorted(draws, key=distance.__getitem__):
        ctx = context(draw)
        lat = enumerate_concepts(ctx)
        drawn = [random_mass(rng.randrange(2 ** 32), lat, bound)
                 for _ in range(MASS_DRAWS * n_masses)]
        masses = [{refs.bits(lat[j].extent): m.values[j] for j in m.support()}
                  for m in drawn
                  if len(m.support()) >= min_support * len(lat)][:n_masses]
        if len(masses) == n_masses and _fold_survives(masses):
            docs.append(Doc(_document_text(ctx, masses), ctx, masses))
            if len(docs) == count:
                return docs
    raise RuntimeError(f"fewer than {count} usable documents among "
                       f"{len(draws)} drawn contexts")


def _extents(lat) -> tuple[int, ...]:
    return tuple(refs.bits(c.extent) for c in lat)


def _load(text: str, tr):
    with tr.span("context.load_document"):
        doc = load_document(text)
    with tr.span("lattice.enumerate_concepts"):
        lat = enumerate_concepts(doc.context)
    masses = []
    for spec in doc.masses:
        with tr.span("evidence.resolve_mass"):
            masses.append(resolve_mass(spec, lat))
    if tr.enabled:
        tr.count("lattice.concepts", len(lat))
        tr.count("evidence.focal_elements",
                 sum(len(m.support()) for m in masses))
    return lat, masses


def _table(m, tr) -> tuple[tuple, tuple]:
    with tr.span("evidence.belief_table"):
        table = m.belief_table()
    return table.bel, table.pl


def _fold(masses, tr):
    with tr.span("combine.combine_many"):
        report = combine_many(masses)
    if tr.enabled:
        tr.maximum("combine.max_denominator_bits",
                   max(v.denominator.bit_length()
                       for v in report.result.values))
    return report


def _fold_reference(doc: Doc, extents: list[int]):
    combined, conflicts, pairs, useful = refs.conjunctive_fold(doc.masses)
    stats = {"concepts": len(extents),
             "focal_elements": sum(len(m) for m in doc.masses),
             "pairs": pairs, "useful_pairs": useful}
    return (refs.vector(extents, combined),
            conflicts[-1] if conflicts else Fraction(0), stats)


class Workload:
    name = ""
    # Ops run in child processes: peak memory is theirs, and the traced run
    # also times bare interpreter start and package import.
    subprocess_ops = False
    # Items whose ops run once more after the timed loop to measure memory.
    probed = 2

    def __init__(self) -> None:
        self.items: list = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, item, tr) -> Digest:
        raise NotImplementedError

    def in_process_op(self, item, tr) -> Digest:
        """The op as the traced run times it, traced or not."""
        return self.op(item, tr)

    def reference(self, item) -> tuple[Digest, dict]:
        raise NotImplementedError

    def speed(self) -> host.Speed:
        """The host-speed reference that scales this workload's times."""
        return host.Speed(self.env if self.subprocess_ops else None)

    def close(self) -> None:
        pass


class LatticeScale(Workload):
    """Mid-size lattices with small-support masses: `lattice` and `evidence`
    do nearly all the work, through the dense order tables."""

    name = "lattice-scale"
    OBJECTS, ATTRIBUTES, TARGET = (24,), (11, 12), 180
    MASSES, BOUND = 3, 64
    # Ops on documents of the same concept count differ by up to a factor
    # of 1.7 with the order's size and the masses' supports; a larger pool
    # keeps the median op of a seed's pool near that of another seed's.
    POOL = 2 * POOL

    def setup(self, seed: int) -> None:
        self.items = _documents(_seeded(self.name, seed), self.OBJECTS,
                                self.ATTRIBUTES, self.TARGET, self.MASSES,
                                self.BOUND, count=self.POOL)

    def op(self, doc: Doc, tr) -> Digest:
        lat, masses = _load(doc.text, tr)
        with tr.span("lattice.covers"):
            edges = lat.covers()
        if tr.enabled:
            tr.count("lattice.cover_edges", len(edges))
        tables = tuple(_table(m, tr) for m in masses)
        report = _fold(masses, tr)
        combined = _table(report.result, tr)
        with tr.span("evidence.mass_from_bel_lattice"):
            back = mass_from_bel_lattice(combined[0], lat)
        return (("lattice.enumerate_concepts", _extents(lat)),
                ("lattice.covers", tuple(sorted(edges))),
                ("evidence.resolve_mass", tuple(m.values for m in masses)),
                ("evidence.belief_table", tables + (combined,)),
                ("combine.combine_many",
                 (report.result.values, report.conflict)),
                ("evidence.mass_from_bel_lattice", back.values))

    def reference(self, doc: Doc) -> tuple[Digest, dict]:
        extents = refs.concept_extents(doc.context)
        vectors = [refs.vector(extents, m) for m in doc.masses]
        combined, conflict, stats = _fold_reference(doc, extents)
        tables = refs.brute_tables(doc.context, extents, vectors + [combined])
        return ((("lattice.enumerate_concepts", tuple(extents)),
                 ("lattice.covers", refs.cover_pairs(extents)),
                 ("evidence.resolve_mass", tuple(vectors)),
                 ("evidence.belief_table", tuple(tables)),
                 ("combine.combine_many", (combined, conflict)),
                 ("evidence.mass_from_bel_lattice", combined)), stats)


class DeepFold(Workload):
    """Small lattices with eight wide-support masses: the conjunctive fold
    and its Fraction arithmetic do nearly all the work."""

    name = "deep-fold"
    OBJECTS, ATTRIBUTES, TARGET = (15, 16, 17), (9, 10), 80
    MASSES, BOUND, MIN_SUPPORT = 8, 1000, 0.9

    def setup(self, seed: int) -> None:
        self.items = _documents(_seeded(self.name, seed), self.OBJECTS,
                                self.ATTRIBUTES, self.TARGET, self.MASSES,
                                self.BOUND, self.MIN_SUPPORT)

    def op(self, doc: Doc, tr) -> Digest:
        lat, masses = _load(doc.text, tr)
        report = _fold(masses, tr)
        return (("lattice.enumerate_concepts", _extents(lat)),
                ("evidence.resolve_mass", tuple(m.values for m in masses)),
                ("combine.combine_many",
                 (report.result.values, report.conflict)),
                ("evidence.belief_table", _table(report.result, tr)))

    def reference(self, doc: Doc) -> tuple[Digest, dict]:
        extents = refs.concept_extents(doc.context)
        combined, conflict, stats = _fold_reference(doc, extents)
        return ((("lattice.enumerate_concepts", tuple(extents)),
                 ("evidence.resolve_mass",
                  tuple(refs.vector(extents, m) for m in doc.masses)),
                 ("combine.combine_many", (combined, conflict)),
                 ("evidence.belief_table",
                  refs.brute_tables(doc.context, extents, [combined])[0])),
                stats)


def _space_text(rng: random.Random) -> str:
    """A seeded partition space on 5 elements, as a JSON document."""
    space = random_partition_space(rng.randrange(2 ** 32), range(5))
    return json.dumps({"carrier": sorted(space.carrier),
                       "blocks": [sorted(b) for b in space.blocks],
                       "mu": [str(v) for v in space.mu]})


SUBSETS5 = tuple(frozenset(i for i in range(5) if mask >> i & 1)
                 for mask in range(2 ** 5))
SUBSETS4 = tuple(frozenset(i for i in range(4) if mask >> i & 1)
                 for mask in range(2 ** 4))
AXIOM_TUPLES = 32 + 32 ** 2 + 32 ** 3  # every 1-, 2- and 3-tuple of subsets


@dataclass
class SetLevel:
    """The set-level certificates that a fixed share of certify ops run."""

    frame: Doc
    set_mass: SetMassFunction
    space_text: str


def _rows(rows) -> tuple:
    return tuple((r.concept_index, r.bel, r.inner, r.pl, r.outer)
                 for r in rows)


def _expected_rows(tables) -> tuple:
    bel, pl = tables
    return tuple((c, b, b, p, p) for c, (b, p) in enumerate(zip(bel, pl)))


class Certify(Workload):
    """Normalised lattices with one mass, certified as inner/outer measures:
    the cubic loops of `represent` do nearly all the work."""

    name = "certify"
    OBJECTS, ATTRIBUTES, TARGET = (13, 14, 15), (8, 9), 75
    BOUND = 64
    SET_LEVEL_EVERY = 4
    # Frames of 3-4 objects with about 5 concepts stay inside the frame
    # construction's bounds of 8 concepts and 24 derived objects.
    FRAME_SIZES, FRAME_TARGET = (3, 4), 5

    def setup(self, seed: int) -> None:
        rng = _seeded(self.name, seed)
        self.items = _documents(rng, self.OBJECTS, self.ATTRIBUTES,
                                self.TARGET, 1, self.BOUND, normalize=True)
        frames = _documents(rng, self.FRAME_SIZES, self.FRAME_SIZES,
                            self.FRAME_TARGET, 1, self.BOUND, normalize=True,
                            count=POOL // self.SET_LEVEL_EVERY)
        for doc, frame in zip(self.items[::self.SET_LEVEL_EVERY], frames):
            doc.extra = SetLevel(
                frame, random_set_mass(rng.randrange(2 ** 32), range(4)),
                _space_text(rng))

    def op(self, doc: Doc, tr) -> Digest:
        lat, (mass,) = _load(doc.text, tr)
        with tr.span("represent.normalize_with_mass"):
            mass, _ = normalize_with_mass(mass)
        with tr.span("represent.represent_concepts"):
            rep = represent_concepts(mass)
        with tr.span("represent.structural_checks"):
            structural = (atom_order_matches(rep), atoms_pairwise_disjoint(rep),
                          embedding_meet_preserving(rep))
        out = (("lattice.enumerate_concepts", _extents(lat)),
               ("evidence.resolve_mass", mass.values),
               ("represent.represent_concepts",
                (_rows(rep.rows), rep.all_passed)),
               ("represent.structural_checks", structural))
        if doc.extra is not None:
            out += self._set_level_op(doc.extra, tr)
        return out

    def _set_level_op(self, extra: SetLevel, tr) -> Digest:
        _, (mass,) = _load(extra.frame.text, tr)
        with tr.span("represent.normalize_with_mass"):
            mass, _ = normalize_with_mass(mass)
        with tr.span("represent.represent_concepts_frame"):
            frame = represent_concepts_frame(mass)
        with tr.span("represent.represent_set"):
            srep = represent_set(extra.set_mass)
        with tr.span("evidence.mass_from_bel_set"):
            back = mass_from_bel_set({r.subset: r.bel for r in srep.rows})
        with tr.span("probspace.measure_tables"):
            space = probability_space_from_json(json.loads(extra.space_text))
            inner = {s: space.inner_measure(s) for s in SUBSETS5}
            outer = {s: space.outer_measure(s) for s in SUBSETS5}
        with tr.span("oracle.check_axioms"):
            bel_report = check_belief_axioms_set(inner, n_max=3)
        with tr.span("oracle.check_axioms"):
            pl_report = check_plausibility_axioms_set(outer, n_max=3)
        if tr.enabled:
            tr.count("oracle.axiom_tuples",
                     bel_report.checked_tuples + pl_report.checked_tuples)
        return (("represent.represent_concepts_frame",
                 (_rows(frame.rows), frame.all_passed)),
                ("represent.represent_set",
                 (frozenset((r.subset, r.bel, r.inner, r.pl, r.outer)
                            for r in srep.rows), srep.all_passed)),
                ("evidence.mass_from_bel_set", frozenset(back.values.items())),
                ("probspace.measure_tables",
                 (tuple(inner[s] for s in SUBSETS5),
                  tuple(outer[s] for s in SUBSETS5))),
                ("oracle.check_axioms",
                 ((bel_report.checked_tuples, bel_report.passed),
                  (pl_report.checked_tuples, pl_report.passed))))

    def reference(self, doc: Doc) -> tuple[Digest, dict]:
        extents = refs.concept_extents(doc.context)
        vector = refs.vector(extents, doc.masses[0])
        tables = refs.brute_tables(doc.context, extents, [vector])[0]
        out = (("lattice.enumerate_concepts", tuple(extents)),
               ("evidence.resolve_mass", vector),
               ("represent.represent_concepts", (_expected_rows(tables), True)),
               ("represent.structural_checks", (True, True, True)))
        stats = {"concepts": len(extents),
                 "focal_elements": len(doc.masses[0])}
        if doc.extra is not None:
            out += self._set_level_reference(doc.extra)
        return out, stats

    def _set_level_reference(self, extra: SetLevel) -> Digest:
        frame = extra.frame
        extents = refs.concept_extents(frame.context)
        frame_tables = refs.brute_tables(
            frame.context, extents, [refs.vector(extents, frame.masses[0])])[0]
        set_bel, set_pl = refs.set_tables(extra.set_mass.values, SUBSETS4)
        space = json.loads(extra.space_text)
        blocks = [frozenset(b) for b in space["blocks"]]
        mu = [Fraction(v) for v in space["mu"]]
        return (("represent.represent_concepts_frame",
                 (_expected_rows(frame_tables), True)),
                ("represent.represent_set",
                 (frozenset((x, b, b, p, p)
                            for x, b, p in zip(SUBSETS4, set_bel, set_pl)),
                  True)),
                ("evidence.mass_from_bel_set",
                 frozenset(extra.set_mass.values.items())),
                ("probspace.measure_tables",
                 refs.measure_tables(blocks, mu, SUBSETS5)),
                ("oracle.check_axioms",
                 ((AXIOM_TUPLES, True), (AXIOM_TUPLES, True))))


# ---------------------------------------------------------------------------
# CLI calls

CASES = ("movies-1", "movies-2", "movies-3", "music")
CLI_TIMEOUT_S = 120

# Names the cli module imports from other modules, and the span each gets
# when the traced run calls `cli.run` in process.
_CLI_SPANS = {
    "build_case": "cases.build_case",
    "load_document": "context.load_document",
    "enumerate_concepts": "lattice.enumerate_concepts",
    "resolve_mass": "evidence.resolve_mass",
    "normalize_with_mass": "represent.normalize_with_mass",
    "represent_concepts": "represent.represent_concepts",
    "represent_concepts_frame": "represent.represent_concepts_frame",
    "atom_order_matches": "represent.structural_checks",
    "atoms_pairwise_disjoint": "represent.structural_checks",
    "embedding_meet_preserving": "represent.structural_checks",
    "check_belief_axioms_set": "oracle.check_axioms",
    "check_plausibility_axioms_set": "oracle.check_axioms",
}


def _spanned(fn, name: str, tr):
    def call(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)
    return call


@contextlib.contextmanager
def _traced_cli(tr):
    saved = {attr: getattr(cli_module, attr) for attr in _CLI_SPANS
             if hasattr(cli_module, attr)}
    for attr, fn in saved.items():
        setattr(cli_module, attr, _spanned(fn, _CLI_SPANS[attr], tr))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli_module, attr, fn)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass(frozen=True)
class Call:
    kind: str
    case: str
    argv: tuple[str, ...]


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _parse_examples(text: str) -> tuple:
    """(section, row, values) for every table row `examples --exact` prints."""
    rows = []
    section = None
    header_seen = False
    for line in text.splitlines():
        if not line.startswith(" "):
            title = line.rstrip(":")
            section = ("combined" if title.startswith("combined ")
                       else title if title in ("mass", "bel", "pl") else None)
            header_seen = False
        elif section and not line.strip().startswith("conflict"):
            if not header_seen:
                header_seen = True
                continue
            name, *cells = line.split()
            rows.append((section, name,
                         _fractions(c.rstrip("*") for c in cells)))
    return tuple(rows)


def _digest_cli(call: Call, code: int, out: str) -> Digest:
    if code != 0:
        return (("cli.run", ("exit", code)),)
    if call.kind == "examples":
        return (("cli.run", _parse_examples(out)),)
    payload = json.loads(out)
    if call.kind == "lattice":
        names = {name: g for g, name in
                 enumerate(payload["context"]["objects"])}
        labels = [c["label"] for c in payload["concepts"]]
        value = (tuple(refs.bits(names[o] for o in c["extent"])
                       for c in payload["concepts"]),
                 tuple(sorted((labels.index(a), labels.index(b))
                              for a, b in payload["covers"])))
    elif call.kind in ("bel", "pl"):
        value = tuple((name, _fractions(row))
                      for name, row in payload["rows"].items())
    elif call.kind == "combine":
        value = tuple(_fractions(payload[key])
                      for key in ("conflicts", "mass", "bel", "pl"))
    elif call.kind == "verify":
        value = (payload["passed"],
                 tuple((r["mass"], r["construction"],
                        tuple((Fraction(row["bel"]), Fraction(row["inner"]),
                               Fraction(row["pl"]), Fraction(row["outer"]),
                               row["ok"]) for row in r["rows"]),
                        all(r["structural"].values()), r["passed"])
                       for r in payload["results"]))
    else:
        value = (payload["passed"],
                 tuple((c["kind"], c["checked"], c["violation"] is None)
                       for c in payload["checks"]))
    return (("cli.run", value),)


class CliCalls(Workload):
    """One `python -m conceptds.cli` subprocess per op over the bundled
    cases: interpreter start and import dominate each call."""

    name = "cli-calls"
    subprocess_ops = True
    probed = 7  # every kind of call, on the first case

    def __init__(self) -> None:
        super().__init__()
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.env = child_env()

    def setup(self, seed: int) -> None:
        rng = _seeded(self.name, seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.items = []
        for k, case in enumerate(CASES):
            space = self.workdir / f"space-{k}.json"
            space.write_text(_space_text(rng), encoding="utf-8")
            path = str(SRC / "conceptds" / "data" / f"{case}.json")
            self.items += [
                Call("lattice", case, ("lattice", path, "--json")),
                Call("bel", case, ("bel", path, "--format", "json", "--exact")),
                Call("pl", case, ("pl", path, "--format", "json", "--exact")),
                Call("combine", case,
                     ("combine", path, "--format", "json", "--exact")),
                Call("verify", case,
                     ("verify-representation", path, "--construction", "both",
                      "--format", "json", "--exact")),
                Call("examples", case, ("examples", "--case", case, "--exact")),
                Call("check", case, ("check", str(space), "--format", "json")),
            ]
        # Each call then loads compiled modules, as an installed package
        # would, even where the environment forbids writing them on import.
        compileall.compile_dir(str(SRC / "conceptds"), quiet=1)
        subprocess.run([sys.executable, "-c", "import conceptds.cli"],
                       env=self.env, capture_output=True, check=True,
                       timeout=CLI_TIMEOUT_S)

    def op(self, call: Call, tr) -> Digest:
        proc = subprocess.run(
            [sys.executable, "-m", "conceptds.cli", *call.argv],
            env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S)
        return _digest_cli(call, proc.returncode, proc.stdout)

    def in_process_op(self, call: Call, tr) -> Digest:
        out = io.StringIO()
        with (_traced_cli(tr) if tr.enabled else contextlib.nullcontext()), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            with tr.span("cli.run"):
                code = cli_module.run(list(call.argv))
        return _digest_cli(call, code, out.getvalue())

    def reference(self, call: Call) -> tuple[Digest, dict]:
        if call.kind == "check":
            value = (True, (("bel", AXIOM_TUPLES, True),
                            ("pl", AXIOM_TUPLES, True)))
            return (("cli.run", value),), {}
        doc = json.loads((SRC / "conceptds" / "data" / f"{call.case}.json")
                         .read_text(encoding="utf-8"))
        ctx = refs.document_context(doc)
        extents = refs.concept_extents(ctx)
        masses = refs.document_masses(doc, ctx, extents)
        stats = {"concepts": len(extents),
                 "focal_elements": sum(len(m) for m in masses.values())}
        if call.kind == "lattice":
            value = (tuple(extents), refs.cover_pairs(extents))
        elif call.kind in ("bel", "pl"):
            tables = refs.brute_tables(
                ctx, extents, [refs.vector(extents, m) for m in masses.values()])
            column = 0 if call.kind == "bel" else 1
            value = tuple((name, t[column]) for name, t in zip(masses, tables))
        elif call.kind == "combine":
            combined, conflicts, _, _ = refs.conjunctive_fold(list(masses.values()))
            vector = refs.vector(extents, combined)
            bel, pl = refs.brute_tables(ctx, extents, [vector])[0]
            value = (tuple(conflicts), vector, bel, pl)
        elif call.kind == "verify":
            value = self._verify_reference(ctx, extents, masses)
        else:
            value = self._examples_reference(doc, ctx, extents, masses)
        return (("cli.run", value),), stats

    @staticmethod
    def _verify_reference(ctx, extents, masses) -> tuple:
        if extents[-1]:
            # The CLI first adds an attribute that no object has.
            ctx = FormalContext(ctx.objects, ctx.attributes + ("\0fresh",),
                                ctx.incidence)
            extents = refs.concept_extents(ctx)
        tables = refs.brute_tables(
            ctx, extents, [refs.vector(extents, m) for m in masses.values()])
        results = []
        for name, (bel, pl) in zip(masses, tables):
            rows = tuple((b, b, p, p, True) for b, p in zip(bel, pl))
            results += [(name, construction, rows, True, True)
                        for construction in ("algebraic", "frame")]
        return (True, tuple(results))

    @staticmethod
    def _examples_reference(doc, ctx, extents, masses) -> tuple:
        names = list(masses)
        tables = refs.brute_tables(
            ctx, extents, [refs.vector(extents, m) for m in masses.values()])
        grids = {"mass": [refs.vector(extents, m) for m in masses.values()],
                 "bel": [t[0] for t in tables], "pl": [t[1] for t in tables]}
        expected = doc.get("expected") or {}
        rows = []
        for section in ("mass", "bel", "pl"):
            if section in expected or not expected:
                rows += [(section, n, grid)
                         for n, grid in zip(names, grids[section])]
        combined_block = expected.get("combined", {})
        order = combined_block.get("order", names)
        combined, _, _, _ = refs.conjunctive_fold([masses[n] for n in order])
        vector = refs.vector(extents, combined)
        bel, pl = refs.brute_tables(ctx, extents, [vector])[0]
        shown = [k for k in ("mass", "bel", "pl") if k in combined_block] \
            or ["mass", "bel", "pl"]
        cells = {"mass": vector, "bel": bel, "pl": pl}
        rows += [("combined", k, cells[k]) for k in shown]
        return tuple(rows)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LatticeScale, DeepFold, Certify, CliCalls)}
