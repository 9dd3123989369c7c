"""End-to-end runs of the command-line interface."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import pytest

import conceptds
from conceptds import (ConceptLattice, enumerate_concepts, load_document,
                       serialize_cxt)
import conceptds.cli as cli
from conceptds.cli import run
from conceptds.errors import ENV_UNSAFE_SCALE

from conftest import contranominal

DATA = files("conceptds") / "data"

MUSIC = str(DATA / "music.json")
MOVIES1 = str(DATA / "movies-1.json")
MOVIES3 = str(DATA / "movies-3.json")

MUSIC_LATTICE_TEXT = """\
⊤: ({a,b,c},{})
Pop: ({a,b},{x})
R&B: ({b,c},{y})
E-Pop: ({a},{w,x})
Pop-R&B: ({b},{x,y})
Funk: ({c},{y,z})
⊥: ({},{w,x,y,z})
covers:
Pop < ⊤
R&B < ⊤
E-Pop < Pop
Pop-R&B < Pop
Pop-R&B < R&B
Funk < R&B
⊥ < E-Pop
⊥ < Pop-R&B
⊥ < Funk
"""


@pytest.fixture
def space_path(tmp_path):
    path = tmp_path / "space.json"
    path.write_text('{"carrier": [1, 2, 3], "blocks": [[1, 2], [3]],'
                    ' "mu": ["1/2", "1/2"]}', encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# lattice

def test_lattice_text_golden(capsys):
    assert run(["lattice", MUSIC]) == 0
    assert capsys.readouterr().out == MUSIC_LATTICE_TEXT


def test_lattice_json_round_trips(capsys):
    assert run(["lattice", MOVIES1, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    reloaded = load_document(json.dumps(payload["context"]))
    lat = enumerate_concepts(reloaded.context)
    objects = reloaded.context.objects
    assert [sorted(c["extent"]) for c in payload["concepts"]] == [
        sorted(objects[g] for g in concept.extent) for concept in lat]
    assert ["⊥", "c1"] in payload["covers"]
    assert len(payload["covers"]) == 6


# ---------------------------------------------------------------------------
# bel / pl

def test_bel_table_text(capsys):
    assert run(["bel", MUSIC]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["concept", "m1", "m2", "m3"]
    rows = {line.split()[0]: line.split()[1:] for line in out[1:]}
    assert rows["Pop"] == ["0.20", "0.60", "0.20"]
    assert rows["R&B"] == ["0.00", "0.00", "0.80"]
    assert rows["⊥"] == ["0.00", "0.00", "0.00"]


def test_pl_table_csv(capsys):
    assert run(["pl", MUSIC, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["concept", "m1", "m2", "m3"]
    by_name = {row[0]: row[1:] for row in table[1:]}
    assert by_name["Pop"] == ["1.00", "1.00", "0.40"]
    assert by_name["Funk"] == ["0.80", "0.40", "0.80"]


def test_bel_json_exact(capsys):
    assert run(["bel", MUSIC, "--format", "json", "--exact"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "bel"
    i = payload["concepts"].index("R&B")
    assert payload["rows"]["m3"][i] == "4/5"


# ---------------------------------------------------------------------------
# combine

def test_combine_exact_text_golden(capsys):
    assert run(["combine", MUSIC, "--order", "m1,m2,m3", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "combined m1⊕m2⊕m3" in out
    assert "conflict (step 1): 0" in out
    assert "conflict (step 2): 56/125" in out
    rows = {line.split()[0]: line.split()[1:]
            for line in out.splitlines() if line and "conflict" not in line}
    assert rows["Pop-R&B"] == ["20/69", "20/69", "40/69"]
    assert rows["Funk"] == ["8/23", "8/23", "32/69"]
    assert rows["⊤"] == ["8/69", "1", "1"]


def test_combine_respects_order_and_rejects_unknown_names(capsys):
    assert run(["combine", MUSIC, "--order", "m3,m1,m2",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == ["m3", "m1", "m2"]
    assert run(["combine", MUSIC, "--order", "m1,mX"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "mX" in err
    assert run(["combine", MUSIC, "--order", "m1"]) == 2


def test_combine_total_conflict_exits_one(tmp_path, capsys):
    doc = {
        "objects": ["a", "b"],
        "attributes": ["x", "y"],
        "incidence": [["a", "x"], ["b", "y"]],
        "masses": {"m1": {"{a}": "1"}, "m2": {"{b}": "1"}},
    }
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["combine", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: total conflict while folding in mass 2 of 2\n")


# ---------------------------------------------------------------------------
# verify-representation

def test_verify_document_both_constructions(capsys):
    assert run(["verify-representation", MOVIES3,
                "--construction", "both"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("note: the least concept had a nonempty extent")
    assert "mass m1 (algebraic):" in out
    assert "mass m2 (frame):" in out
    assert "result: FAIL" not in out


def test_verify_partition_space(space_path, capsys):
    assert run(["verify-representation", space_path]) == 0
    out = capsys.readouterr().out
    assert "subsets checked: 8" in out
    assert "overall: PASS" in out


def test_verify_soak(capsys):
    assert run(["verify-representation", "--soak", "3", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "soak: 3/3 passed" in out


def test_verify_soak_redraws_a_lattice_of_more_than_ten_concepts(
        monkeypatch, capsys):
    """Seed 3 draws one lattice past 10 concepts among its first three; it
    is drawn again, and every instance run has at most 10 concepts."""
    draws = []
    real = cli._soak_instance
    monkeypatch.setattr(cli, "_soak_instance",
                        lambda rng: draws.append(real(rng)) or draws[-1])
    assert run(["verify-representation", "--soak", "3", "--seed", "3"]) == 0
    assert draws.count(None) == 1 and len(draws) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "soak: 3/3 passed"
    assert [len(m.lattice) for m in draws if m] == [
        int(line.split()[2]) for line in lines[:-1]]
    assert all(len(m.lattice) <= 10 for m in draws if m)


def test_verify_soak_counts_its_failures(monkeypatch, capsys):
    class Failing:
        all_passed = False

    monkeypatch.setattr(cli, "represent_concepts", lambda mass: Failing)
    assert run(["verify-representation", "--soak", "2", "--seed", "9"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(", ")[-1] for line in lines[:-1]] == ["FAIL", "FAIL"]
    assert lines[-1] == "soak: 0/2 passed"


def test_verify_needs_a_file_or_a_soak_count(capsys):
    assert run(["verify-representation"]) == 2
    assert run(["verify-representation", MUSIC, "--soak", "2"]) == 2
    assert run(["verify-representation", "--soak", "0"]) == 2


@pytest.mark.parametrize("flags", [["--format", "json"],
                                   ["--construction", "frame"],
                                   ["--construction", "both"]])
def test_verify_soak_refuses_options_it_would_ignore(flags, capsys):
    assert run(["verify-representation", "--soak", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: --soak ")


def test_verify_normalizes_and_labels_once_per_document(monkeypatch, capsys):
    """movies-3's two masses share one lattice and one normalized lattice."""
    built, labelled, moved = [], [], []
    real_init, real_labels = ConceptLattice.__init__, cli.display_labels
    real_move = cli.normalize_with_mass

    def counting_init(self, *args):
        built.append(args[0])
        real_init(self, *args)

    monkeypatch.setattr(ConceptLattice, "__init__", counting_init)
    monkeypatch.setattr(cli, "display_labels",
                        lambda *a: labelled.append(a) or real_labels(*a))
    monkeypatch.setattr(cli, "normalize_with_mass",
                        lambda m: moved.append(m) or real_move(m))
    assert run(["verify-representation", MOVIES3,
                "--construction", "both"]) == 0
    assert len(built) == 2  # the document's lattice and the normalized one
    assert len(labelled) == 1
    assert len(moved) == 2  # once per mass, not per construction
    capsys.readouterr()


def _partition_space(tmp_path, n: int) -> str:
    path = tmp_path / f"space{n}.json"
    path.write_text(json.dumps({"carrier": list(range(n)),
                                "blocks": [list(range(n))], "mu": ["1"]}),
                    encoding="utf-8")
    return str(path)


def test_verify_measure_sweep_bound_honours_the_escape_hatch(
        tmp_path, monkeypatch, capsys):
    path = _partition_space(tmp_path, 13)
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    assert run(["verify-representation", path]) == 2
    assert capsys.readouterr().err == (
        "error: carrier for the measure sweep: 13 exceeds the supported bound "
        "of 12 (set CONCEPTDS_UNSAFE_SCALE=1 to override at your own risk)\n")
    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    assert run(["verify-representation", path]) == 0
    assert "subsets checked: 8192" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# check

def test_check_partition_space_passes(space_path, capsys):
    assert run(["check", space_path]) == 0
    out = capsys.readouterr().out
    assert "bel axioms: checked 584 tuples" in out
    assert "pl axioms: no violations" in out
    assert "overall: PASS" in out


def test_check_reports_the_violation(tmp_path, capsys):
    doc = {"carrier": [1, 2], "kind": "bel",
           "entries": [[[], "0"], [[1], "1"], [[2], "1"], [[1, 2], "1"]]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION (belief inequality fails at n=2)" in out
    assert "sets: {1}; {2}" in out
    assert "value 1.00 against bound 2.00" in out
    assert "overall: FAIL" in out


def test_check_bounds_the_carrier_before_building_subsets(
        tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    path = _partition_space(tmp_path, 18)
    start = time.perf_counter()
    assert run(["check", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: carrier for axiom checking: 18 exceeds")


def test_check_rejects_bad_tables(tmp_path, capsys):
    path = tmp_path / "dup.json"
    doc = {"carrier": [1], "kind": "bel",
           "entries": [[[], "0"], [[1], "1"], [[1], "1"]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    path.write_text(json.dumps({"carrier": [1], "kind": "bel",
                                "entries": [[[], "0"]]}), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("carrier, entries, message", [
    ([2], [[[1], "1"]], "{1} is not a subset of the carrier"),
    ([2], [[["1"], "1"]], "{'1'} is not a subset of the carrier"),
    ([1], [[[1], "1"], [[1], "1"]], "duplicate entry for subset {1}"),
    (["1"], [[["1"], "1"], [["1"], "1"]], "duplicate entry for subset {'1'}"),
], ids=["int-outside", "str-outside", "int-twice", "str-twice"])
def test_check_names_a_bad_entry_by_its_subset(carrier, entries, message,
                                               tmp_path, capsys):
    """A subset is printed as `read_table` prints it, so the int 1 and the
    string "1" read apart."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"carrier": carrier, "kind": "bel",
                                "entries": entries}), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("source, extra, command, unknown", [
    ("space-seed7.json", {"kind": "pl"}, "check", "['kind']"),
    ("space-seed7.json", {"kind": "pl"}, "verify-representation", "['kind']"),
    ("table-violation.json", {"kinds": "bel", "zeta": 0}, "check",
     "['kinds', 'zeta']"),
], ids=["space-check", "space-verify", "table-check"])
def test_a_document_key_outside_the_schema_is_refused(
        source, extra, command, unknown, tmp_path, capsys):
    """Partition-space and table documents name their keys, as context
    documents do: a key that is read by nothing is an input error, not a
    silent no-op."""
    doc = json.loads((GOLDEN / source).read_text(encoding="utf-8"))
    path = tmp_path / source
    path.write_text(json.dumps({**doc, **extra}), encoding="utf-8")
    assert run([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown document keys: {unknown}\n"


@pytest.mark.parametrize("n_max, unsafe", [("0", False), ("-1", False),
                                           ("4", True)])
def test_check_rejects_tuple_lengths_it_does_not_check(
        n_max, unsafe, space_path, monkeypatch, capsys):
    # A PASS must never cover tuples that were not checked, so lengths
    # outside 1..3 are input errors even under the escape hatch.
    if unsafe:
        monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    else:
        monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    assert run(["check", space_path, "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: tuple length for axiom checking must be "
                            f"within 1..3, got {n_max}\n")


# ---------------------------------------------------------------------------
# examples

@pytest.mark.parametrize("case", ["movies-1", "movies-2", "movies-3", "music"])
def test_examples_run_clean(case, capsys):
    assert run(["examples", "--case", case]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"case: {case}\n")
    assert "combined " in out


def test_examples_annotates_published_discrepancies(capsys):
    assert run(["examples", "--case", "movies-1"]) == 0
    out = capsys.readouterr().out
    assert "0.05*" in out
    assert ("* combined row mass at ⊤: computed 0.05 (exact 1/19), "
            "expected grid prints 0.06") in out

    assert run(["examples", "--case", "music"]) == 0
    out = capsys.readouterr().out
    assert ("* pl row m2 at Pop: computed 1.00 (exact 1), "
            "expected grid prints 0.60") in out
    assert out.count("annotations:") == 1


def test_examples_movies2_has_no_annotations(capsys):
    assert run(["examples", "--case", "movies-2"]) == 0
    out = capsys.readouterr().out
    assert "annotations:" not in out
    assert "*" not in out


# ---------------------------------------------------------------------------
# error handling and determinism

def test_oversized_lattice_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    path = tmp_path / "contranominal.cxt"
    path.write_text(serialize_cxt(contranominal(14)), encoding="utf-8")
    assert run(["lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: concepts in lattice: ")
    assert "Traceback" not in captured.err


def test_missing_file_is_an_input_error(capsys):
    assert run(["lattice", "/nonexistent/nowhere.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(["bel", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


PARTITION_OF_LISTS = '{"carrier": [[1]], "blocks": [[[1]]], "mu": ["1"]}'
ONE_OBJECT = '{"objects": ["a"], "attributes": ["x"], '
ONE_ELEMENT = '{"carrier": [1], "kind": "bel", '
# 0 and 0.0 are one member of a Python set: without the repeat check, each
# of these documents reads as a smaller, valid space.
REPEATED_CARRIER = '{"carrier": [0, 0.0, 1], "blocks": [[0, 1]], "mu": ["1"]}'
REPEATED_BLOCK = ('{"carrier": ["a", "b"], "blocks": [["a", "a"], ["b"]], '
                  '"mu": ["1/2", "1/2"]}')
NULL_AND_TRUE = ('{"carrier": [null, true, "x"], '
                 '"blocks": [[null, true], ["x"]], "mu": ["1/2", "1/2"]}')


@pytest.mark.parametrize("argv, text", [
    (["lattice"], ONE_OBJECT + '"incidence": 5}'),
    (["check"], PARTITION_OF_LISTS),
    (["verify-representation"], PARTITION_OF_LISTS),
    (["check"], '{"carrier": [[1]], "entries": [], "kind": "bel"}'),
    (["bel"], ONE_OBJECT + '"masses": {"m": '
              '{"top": "0.5", "top": "0.5", "{a}": "0.5"}}}'),
    (["bel"], ONE_OBJECT + '"masses": {"m": {"top": "1e1000000"}}}'),
    (["bel"], ONE_OBJECT + '"masses": {}}'),
    (["verify-representation"], ONE_OBJECT + '"masses": {}}'),
    (["verify-representation"], "B\n\n1\n1\n\na\nx\nX\n"),
    (["check"], '{"carrier": [1], "kind": "bel"}'),
    (["check"], ONE_ELEMENT + '"entries": {"[1]": "1"}}'),
    (["check"], ONE_ELEMENT + '"entries": [[[1]]]}'),
    (["check"], ONE_ELEMENT + '"entries": [[[1], "1"], [[2], "1"]]}'),
    (["check"], '{"carrier": [1], "entries": [[[], "0"], [[1], "1"]]}'),
    (["check"], REPEATED_CARRIER),
    (["verify-representation"], REPEATED_CARRIER),
    (["check"], REPEATED_BLOCK),
    (["verify-representation"], REPEATED_BLOCK),
    (["check"], NULL_AND_TRUE),
    (["verify-representation"], NULL_AND_TRUE),
    (["bel"], ONE_OBJECT + '"masses": {"m": {"top": "' + "1" * 5000 + '"}}}'),
], ids=["incidence-not-a-list", "check-list-elements",
        "verify-list-elements", "check-table-list-elements",
        "duplicate-key", "huge-exponent", "bel-no-masses",
        "verify-no-masses", "verify-cxt", "check-no-entries",
        "check-entries-not-a-list", "check-entry-not-a-pair",
        "check-subset-outside-carrier", "check-no-kind",
        "check-repeated-carrier", "verify-repeated-carrier",
        "check-repeated-block", "verify-repeated-block",
        "check-null-and-true", "verify-null-and-true", "5000-digit-mass"])
def test_malformed_input_exits_two_with_one_error_line(argv, text, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    assert run(argv + [str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


def _music_labeled(**labels) -> str:
    doc = json.loads((DATA / "music.json").read_text("utf-8"))
    doc["labels"] = labels
    doc["masses"] = {"m": {"top": "1"}}
    del doc["expected"]
    return json.dumps(doc, ensure_ascii=False)


@pytest.mark.parametrize("argv, text, error", [
    # b spans Pop-R&B, not the least extent, which keeps the name ⊥.
    (["lattice"], _music_labeled(**{"⊥": ["b"]}),
     "label '⊥' of concept 4 is also the display name of concept 6"),
    (["lattice"], _music_labeled(**{"#1": ["b"]}),
     "label '#1' of concept 4 is also the display name of concept 1"),
    # The least extent {a} is nonempty; normalizing adds an empty one below.
    (["verify-representation"], ONE_OBJECT + '"incidence": [["a", "x"]], '
     '"labels": {"⊥": ["a"]}, "masses": {"m": {"top": "1"}}}',
     "label '⊥' of concept 0 is also the display name of concept 1"),
], ids=["lattice-bottom", "lattice-index", "verify-normalized-bottom"])
def test_a_label_may_not_repeat_another_concepts_name(argv, text, error,
                                                      tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert run(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_a_label_may_rename_its_own_concept(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_music_labeled(**{"⊥": [], "#1": ["a", "b"]}),
                    encoding="utf-8")
    assert run(["lattice", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:2] == ["#1: ({a,b},{x})"]


@pytest.mark.parametrize("path", [MUSIC, "space"])
def test_verify_reads_and_parses_its_file_once(path, space_path, monkeypatch,
                                               capsys):
    calls = []
    real_read, real_loads = cli._read_text, json.loads
    monkeypatch.setattr(cli, "_read_text",
                        lambda p: calls.append("read") or real_read(p))
    monkeypatch.setattr(json, "loads",
                        lambda *a, **k: calls.append("parse")
                        or real_loads(*a, **k))
    path = space_path if path == "space" else path
    assert run(["verify-representation", path]) == 0
    assert calls == ["read", "parse"]
    capsys.readouterr()


def test_rounding_digits_are_validated(capsys):
    assert run(["bel", MUSIC, "--round", "12"]) == 2
    assert "rounding digits must be within 0..9" in capsys.readouterr().err
    assert run(["bel", MUSIC, "--round", "x"]) == 2
    assert "argument --round: not an integer: 'x'" in capsys.readouterr().err


def test_output_is_deterministic(capsys):
    assert run(["combine", MUSIC, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["combine", MUSIC, "--format", "json"]) == 0
    assert capsys.readouterr().out == first
    assert run(["examples", "--case", "music"]) == 0
    first = capsys.readouterr().out
    assert run(["examples", "--case", "music"]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# The entry point, in a fresh interpreter: `python -m conceptds.cli` runs
# `main`, which exits with `run`'s code.

def _module_run(*argv: str) -> subprocess.CompletedProcess:
    source = str(Path(conceptds.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=source, PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, "-m", "conceptds.cli", *argv],
                          env=env, capture_output=True, encoding="utf-8",
                          timeout=60)


def test_the_module_entry_point_prints_its_help():
    done = _module_run("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: ")
    assert done.stderr == ""


def test_the_module_entry_point_exits_2_on_a_missing_file(tmp_path):
    done = _module_run("bel", str(tmp_path / "missing.json"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: ")


def test_the_module_entry_point_exits_1_on_an_axiom_violation():
    golden = Path(__file__).parent / "golden"
    done = _module_run("check", str(golden / "table-violation.json"))
    assert done.returncode == 1
    assert done.stdout == (golden / "check-table-violation.out").read_text(
        encoding="utf-8")
    assert done.stderr == ""
