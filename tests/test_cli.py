"""End-to-end command-line runs, exit codes, and output files."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from idtree import corpus as corpus_mod
from idtree.cli import main
from idtree.corpus import (
    CACHE_FORMAT,
    file_digest,
    ingest_files,
    load_cache,
    write_csv,
    write_edge_file,
    write_metadata_file,
)
from idtree.synth import corpus_for_tree, star_tree


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    for kind in ("planted-z", "planted-tot"):
        assert run("synth", "--kind", kind, "--out", str(root / kind)) == 0
    return root


@pytest.fixture
def toy_files(tmp_path):
    out = tmp_path / "toy"
    assert run("synth", "--kind", "toy", "--out", str(out)) == 0
    return out / "edges.tsv", out / "meta.jsonl"


class TestIngest:
    def test_clean_fixture_zero_drops(self, tmp_path, toy_files):
        edges, meta = toy_files
        out = tmp_path / "run"
        assert run("ingest", "--edges", str(edges), "--meta", str(meta), "--out", str(out)) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["edges_kept"] == report["edges_in"] == 10
        assert report["dropped_forward"] == report["dropped_dup"] == 0
        assert (out / "corpus.cache").exists()

    def test_run_config_records_seed(self, tmp_path, toy_files):
        edges, meta = toy_files
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(out), "--tie", "random", "--seed", "42") == 0
        config = json.loads((out / "run_config.json").read_text())
        assert config["seed"] == 42
        assert config["tie"] == "random"
        assert config["command"] == "metrics"

    def test_cache_bytes_independent_of_hash_seed(self, tmp_path, planted):
        # nothing in the cache (ids, venue names, arrays) may follow string hash order
        fixture = planted / "planted-z"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        caches = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hash-{hash_seed}"
            subprocess.run(
                [sys.executable, "-m", "idtree.cli", "ingest", "--edges", str(fixture / "edges.tsv"),
                 "--meta", str(fixture / "meta.jsonl"), "--out", str(out)],
                env={**env, "PYTHONHASHSEED": hash_seed}, check=True, capture_output=True, timeout=300,
            )
            caches.append((out / "corpus.cache").read_bytes())
        assert caches[0] == caches[1]

    @pytest.mark.parametrize("fmt", [3, 4])
    def test_planted_pickle_in_out_is_not_run(self, tmp_path, toy_files, planted_pickle, fmt):
        # a pickle in --out, even one claiming the right digest, is stale: the command re-ingests
        edges, meta = toy_files
        flags = ("--edges", str(edges), "--meta", str(meta))
        out, marker = tmp_path / "run", tmp_path / "PWNED"
        out.mkdir()
        (out / "corpus.cache").write_bytes(planted_pickle(marker, fmt, file_digest(edges, meta)))
        assert run("metrics", *flags, "--out", str(out)) == 0
        assert not marker.exists()
        assert load_cache(out / "corpus.cache", expect_hash=file_digest(edges, meta)) is not None
        assert run("metrics", *flags, "--out", str(tmp_path / "fresh")) == 0
        assert (out / "metrics.csv").read_bytes() == (tmp_path / "fresh" / "metrics.csv").read_bytes()

    def test_year_outside_int32_is_malformed(self, tmp_path, planted):
        # a citer dated 10**20 of a scored venue paper is rejected at ingest, not a crash in eval-z
        fixture = planted / "planted-z"
        meta_lines = (fixture / "meta.jsonl").read_text(encoding="utf-8").splitlines()
        cited = next(rec["id"] for rec in map(json.loads, meta_lines)
                     if rec.get("venue") and 1995 <= rec["year"] <= 2000)
        edges, meta = tmp_path / "edges.tsv", tmp_path / "meta.jsonl"
        edges.write_text((fixture / "edges.tsv").read_text(encoding="utf-8") + f"huge\t{cited}\n", encoding="utf-8")
        meta.write_text("\n".join(meta_lines) + '\n{"id": "huge", "year": 100000000000000000000}\n', encoding="utf-8")
        out, clean = tmp_path / "run", tmp_path / "clean"
        assert run("ingest", "--edges", str(edges), "--meta", str(meta), "--out", str(out)) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert (report["malformed_papers"], report["dropped_unknown"]) == (1, 1)
        assert run("eval-z", "--edges", str(edges), "--meta", str(meta), "--out", str(out)) == 0
        assert run("eval-z", "--edges", str(fixture / "edges.tsv"), "--meta", str(fixture / "meta.jsonl"),
                   "--out", str(clean)) == 0
        assert (out / "venues.csv").read_bytes() == (clean / "venues.csv").read_bytes()

    def test_planted_forward_citations_counted(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        meta = tmp_path / "meta.jsonl"
        rows = ["b\ta", "c\ta", "a\tb", "a\tc", "a\td"]  # 3 forward citations
        edges.write_text("\n".join(rows) + "\n")
        meta.write_text(
            "\n".join(
                json.dumps({"id": pid, "year": year})
                for pid, year in [("a", 2000), ("b", 2001), ("c", 2002), ("d", 2003)]
            )
            + "\n"
        )
        out = tmp_path / "run"
        assert run("ingest", "--edges", str(edges), "--meta", str(meta), "--out", str(out)) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["dropped_forward"] == 3
        assert report["edges_kept"] == 2

    def test_missing_file_exit_2_names_path(self, tmp_path, toy_files, capsys):
        # a missing input file is found before --out is made
        edges, meta = toy_files
        awardees = tmp_path / "awardees.csv"
        awardees.write_text("P,TOY-2000,2000\n")
        missing = str(tmp_path / "no" / "such.file")
        for command in ("ingest", "metrics", "stats", "eval-z", "eval-tot"):
            files = {"--edges": edges, "--meta": meta}
            if command == "eval-tot":
                files["--awardees"] = awardees
            for flag in files:
                argv = [command, "--out", str(tmp_path / "x")]
                for name, path in files.items():
                    argv += [name, missing if name == flag else str(path)]
                assert run(*argv) == 2
                assert missing in capsys.readouterr().err
                assert not (tmp_path / "x").exists(), (command, flag)

    def test_empty_result_exit_2(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        meta = tmp_path / "meta.jsonl"
        edges.write_text("")  # no edges: both papers end up isolated
        meta.write_text('{"id": "a", "year": 2000}\n{"id": "b", "year": 2001}\n')
        rc = run("ingest", "--edges", str(edges), "--meta", str(meta),
                 "--out", str(tmp_path / "x"))
        assert rc == 2
        # the report on stdout says why nothing survived, and nothing is written
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert (report["papers_in"], report["dropped_isolated"], report["papers_kept"]) == (2, 2, 0)
        assert "no papers" in captured.err
        assert not (tmp_path / "x").exists()

    def test_metrics_after_ingest_matches_fresh_out(self, tmp_path, toy_files, planted):
        # after an ingest of the same files (a cache hit) or of other ones (a re-ingest), and
        # after a hit whose --out lost its report or holds another input's, --out holds what
        # a fresh --out gets, ingest_report.json included
        edges, meta = toy_files
        flags = ("--edges", str(edges), "--meta", str(meta), "--tie", "random", "--seed", "1")
        fresh = tmp_path / "fresh"
        assert run("metrics", *flags, "--out", str(fresh)) == 0

        def outputs(out):
            return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_config.json"}

        assert "ingest_report.json" in outputs(fresh)
        other = planted / "planted-tot"
        other_flags = ("--edges", str(other / "edges.tsv"), "--meta", str(other / "meta.jsonl"))
        assert run("ingest", *other_flags, "--out", str(tmp_path / "other-report")) == 0
        other_report = (tmp_path / "other-report" / "ingest_report.json").read_bytes()
        assert other_report != outputs(fresh)["ingest_report.json"]
        for name, first, report in (("same", flags[:4], None), ("other", other_flags, None),
                                    ("deleted", flags[:4], b""), ("replaced", flags[:4], other_report)):
            used = tmp_path / name
            assert run("ingest", *first, "--out", str(used)) == 0
            if report is not None:
                (used / "ingest_report.json").unlink()
                if report:
                    (used / "ingest_report.json").write_bytes(report)
            assert run("metrics", *flags, "--out", str(used)) == 0
            assert outputs(used) == outputs(fresh), name
        # a cache hit after the report and the CSV of a fresh --out were deleted
        for name in ("ingest_report.json", "metrics.csv"):
            (fresh / name).unlink()
        assert run("metrics", *flags, "--out", str(fresh)) == 0
        assert outputs(fresh) == outputs(tmp_path / "same")


class TestUsageErrors:
    def test_missing_required_arguments(self, capsys):
        assert run("metrics", "--edges", "a.tsv") == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_year_range(self, toy_files, tmp_path):
        edges, meta = toy_files
        assert run("eval-z", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(tmp_path / "x"), "--years", "2001") == 1

    def test_t1_not_below_t2(self, toy_files, tmp_path):
        edges, meta = toy_files
        assert run("eval-z", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(tmp_path / "x"), "--t1", "8", "--t2", "3") == 1

    def test_bad_tie_choice(self, toy_files, tmp_path):
        edges, meta = toy_files
        assert run("metrics", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(tmp_path / "x"), "--tie", "coin") == 1

    def test_unknown_subcommand(self):
        assert run("flatten") == 1

    @pytest.mark.parametrize("command, flags, message", [
        ("eval-tot", ["--pct", "0"], "pct must be in (0, 1], got 0.0"),
        ("eval-tot", ["--pct", "nan"], "pct must be in (0, 1], got nan"),
        ("eval-tot", ["--t2", "-1"], "horizon must be >= 0, got -1"),
        ("eval-z", ["--t1", "-3", "--t2", "2"], "t1 must be >= 0, got -3"),
        ("eval-z", ["--years", "2001:2000"], "year range is empty: 2001 > 2000"),
        ("metrics", ["--tie", "random", "--seed", "-1"], "seed must be >= 0, got -1"),
        ("metrics", ["--ids", "P\np1"], "--ids is not one CSV record"),
        ("eval-z", ["--tie", "random", "--seed", "-1"], "seed must be >= 0, got -1"),
        ("synth", ["--kind", "ideal", "--n", "2"], "no equal depth/breadth layout exists for n=2"),
        ("synth", ["--kind", "star", "--n", "0"], "star needs n >= 1"),
        ("synth", ["--kind", "broom", "--n", "5", "--k", "9"], "broom handle length must be in [0, 4], got 9"),
        ("synth", ["--kind", "random", "--n-papers", "0"], "n_papers must be >= 1"),
        ("synth", ["--kind", "random", "--bias", "2"], "bias must be in [0, 1]"),
        ("synth", ["--kind", "random", "--years", "0:2147483648"], "years must be an int32 range"),
        ("synth", ["--kind", "planted-z", "--t1", "1", "--t2", "3"], "shape depth exceeds t1"),
        ("synth", ["--kind", "planted-z", "--t1", "5", "--t2", "5"], "need t1 < t2"),
    ], ids=["tot-pct-0", "tot-pct-nan", "tot-negative-t2", "z-negative-t1", "z-empty-years",
            "metrics-negative-seed", "metrics-ids-line-break", "z-negative-seed", "ideal-n-2", "star-n-0",
            "broom-k-9", "random-n-0", "random-bias-2", "random-years-past-int32", "planted-z-t1-1",
            "planted-z-t1-equals-t2"])
    def test_bad_value_is_usage_error(self, planted, tmp_path, capsys, command, flags, message):
        # the library's range checks reach the user as usage errors, before --out is made
        argv = [command, *flags, "--out", str(tmp_path / "x")]
        if command != "synth":
            fixture = planted / ("planted-z" if command == "eval-z" else "planted-tot")
            argv += ["--edges", str(fixture / "edges.tsv"), "--meta", str(fixture / "meta.jsonl")]
        if command == "eval-tot":
            argv += ["--awardees", str(planted / "planted-tot" / "awardees.csv")]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert message in err
        assert not (tmp_path / "x").exists()

    def test_undecodable_input_is_data_error(self, tmp_path, toy_files, capsys):
        _, meta = toy_files
        edges = tmp_path / "edges.tsv"
        edges.write_bytes(b"p1\tP\n\xff\xfe\n")
        assert run("metrics", "--edges", str(edges), "--meta", str(meta), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edge_bytes, meta_bytes", [
        (b"p1\tP\xff\n", b'{"id": "P", "year": 2000}\n{"id": "p1", "year": 2001}\n'),
        (b"p1\tP\n", b'{"id": "P\xff", "year": 2000}\n{"id": "p1", "year": 2001}\n'),
    ])
    def test_invalid_utf8_in_a_common_line_is_data_error(self, tmp_path, capsys, edge_bytes, meta_bytes):
        edges, meta = tmp_path / "edges.tsv", tmp_path / "meta.jsonl"
        edges.write_bytes(edge_bytes)
        meta.write_bytes(meta_bytes)
        assert run("ingest", "--edges", str(edges), "--meta", str(meta), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x" / "corpus.cache").exists()


class TestFailingRun:
    @pytest.mark.parametrize("case", ["data-error", "range-error", "no-paper"])
    def test_out_left_as_it_was(self, tmp_path, toy_files, planted, case):
        # after a run that succeeded, a run that fails into the same --out writes nothing:
        # no run_config.json naming its flags beside the first run's outputs, no report, no cache
        out = tmp_path / "out"
        edges, meta = map(str, toy_files)
        if case == "range-error":
            tot = planted / "planted-tot"
            first = ["eval-tot", "--edges", str(tot / "edges.tsv"), "--meta", str(tot / "meta.jsonl"),
                     "--awardees", str(tot / "awardees.csv"), "--out", str(out)]
            failing, code = [*first, "--pct", "0"], 1
        else:
            bad = tmp_path / "bad.tsv"
            bad.write_bytes(b"p1\tP\n\xff\xfe\n" if case == "data-error" else b"")   # no edge: every paper isolated
            first = ["metrics", "--edges", edges, "--meta", meta, "--out", str(out)]
            failing, code = ["metrics", "--edges", str(bad), "--meta", meta, "--out", str(out),
                             "--tie", "random"], 2
        assert run(*first) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*failing) == code
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command", ["metrics", "eval-z", "synth"])
    def test_out_naming_a_file_is_refused_first(self, tmp_path, toy_files, monkeypatch, capsys, command):
        # refused before any input is read or corpus is made, with mkdir's exit code and message
        monkeypatch.setattr(corpus_mod, "file_digest", lambda *paths: pytest.fail("the input was read"))
        monkeypatch.setattr("idtree.synth.toy_corpus", lambda: pytest.fail("the corpus was made"))
        out = tmp_path / "out"
        out.write_text("a file")
        inputs = ["--kind", "toy"] if command == "synth" else ["--edges", str(toy_files[0]), "--meta", str(toy_files[1])]
        assert run(command, *inputs, "--out", str(out)) == 2
        assert "File exists" in capsys.readouterr().err
        assert out.read_text() == "a file"


class TestMetrics:
    def test_toy_row_with_fidelity_tie(self, tmp_path, toy_files):
        edges, meta = toy_files
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(out), "--tie", "random", "--seed", "1") == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "paper_id,n,d,b,idi,idi_min,idi_max,id,nid"
        assert lines[1] == "P,5,3,2,5,5,9,0,0.0"

    def test_large_star_fixture(self, tmp_path):
        corpus = corpus_for_tree(star_tree(100))
        edges = tmp_path / "edges.tsv"
        meta = tmp_path / "meta.jsonl"
        write_edge_file(corpus, edges)
        write_metadata_file(corpus, meta)
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta), "--out", str(out)) == 0
        row = (out / "metrics.csv").read_text().splitlines()[1]
        assert row == "P,100,1,100,100,100,2550,0,0.0"

    def test_unknown_ids_recorded_run_continues(self, tmp_path, toy_files):
        edges, meta = toy_files
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(out), "--ids", "P,ghost,p1") == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 3  # header + P + p1
        errors = (out / "metrics_errors.csv").read_text().splitlines()
        assert errors[1] == "ghost,unknown paper id"

    def test_repeated_ids_reported_once_in_id_order(self, tmp_path, toy_files):
        edges, meta = toy_files
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(out), "--ids", "p1,P,ghost,P,ghost,aaa") == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["P", "p1"]
        errors = (out / "metrics_errors.csv").read_text().splitlines()[1:]
        assert errors == ["aaa,unknown paper id", "ghost,unknown paper id"]

    @pytest.mark.parametrize("ids", ['"a,b",c', 'c, "a,b"'])
    def test_quoted_id_with_comma(self, tmp_path, ids):
        # the cited id holds a comma; CSV quoting keeps it one id
        edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
        edges.write_text("c\ta,b\n", encoding="utf-8")
        meta.write_text('{"id": "a,b", "year": 2000}\n{"id": "c", "year": 2001}\n', encoding="utf-8")
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(out), "--ids", ids) == 0
        with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["a,b"]
        assert not (out / "metrics_errors.csv").exists()

    def test_ids_taken_verbatim(self, tmp_path):
        # "x " and "x" are two papers; only empty fields are dropped, and a
        # quoted field keeps its line break
        edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
        edges.write_text("c\tx \nc\tx\n", encoding="utf-8")
        meta.write_text("".join(json.dumps({"id": pid, "year": year}) + "\n"
                                for pid, year in (("x ", 2000), ("x", 2000), ("c", 2001))), encoding="utf-8")
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta),
                   "--out", str(out), "--ids", '"x ",, ghost ,"a\nb"') == 0
        with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
            assert [row[0] for row in list(csv.reader(fh))[1:]] == ["x "]
        with open(out / "metrics_errors.csv", encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [["a\nb", "unknown paper id"], ["ghost ", "unknown paper id"]]

    @pytest.mark.parametrize("flags, scored", [((), ["P", "p1", "p2", "p3"]), (("--ids", ""), []),
                                               (("--ids", ","), []), (("--ids", " "), [])],
                             ids=["absent", "empty", "comma", "space"])
    def test_ids_naming_no_id_score_none(self, tmp_path, toy_files, flags, scored):
        # no --ids scores every cited paper; an --ids that names no id writes only the header
        edges, meta = toy_files
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta), "--out", str(out), *flags) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == "paper_id,n,d,b,idi,idi_min,idi_max,id,nid"
        assert [row.split(",")[0] for row in rows[1:]] == scored
        assert not (out / "metrics_errors.csv").exists()

    def test_no_stale_error_list(self, tmp_path, toy_files):
        # a run that rejects no id removes the list an earlier run wrote
        edges, meta = toy_files
        flags = ("--edges", str(edges), "--meta", str(meta), "--out", str(tmp_path / "run"))
        assert run("metrics", *flags, "--ids", "P,nosuch") == 0
        assert (tmp_path / "run" / "metrics_errors.csv").exists()
        assert run("metrics", *flags, "--ids", "P") == 0
        assert not (tmp_path / "run" / "metrics_errors.csv").exists()

    def test_deterministic(self, tmp_path):
        out_fixture = tmp_path / "fx"
        assert run("synth", "--kind", "random", "--n-papers", "2000",
                   "--years", "1980:2005", "--seed", "3", "--out", str(out_fixture)) == 0
        edges, meta = out_fixture / "edges.tsv", out_fixture / "meta.jsonl"
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("metrics", "--edges", str(edges), "--meta", str(meta),
                       "--out", str(out), "--tie", "random", "--seed", "9") == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_cache_invalidated_on_input_change(self, tmp_path, toy_files):
        edges, meta = toy_files
        out = tmp_path / "run"
        assert run("metrics", "--edges", str(edges), "--meta", str(meta), "--out", str(out)) == 0
        n_before = len((out / "metrics.csv").read_text().splitlines())
        # grow the corpus: new paper citing P
        with open(edges, "a") as fh:
            fh.write("p9\tP\n")
        with open(meta, "a") as fh:
            fh.write('{"id": "p9", "year": 2004}\n')
        assert run("metrics", "--edges", str(edges), "--meta", str(meta), "--out", str(out)) == 0
        body = (out / "metrics.csv").read_text()
        assert len(body.splitlines()) == n_before  # p9 cited nothing new... P gains a citer
        assert "P,6," in body

    def test_files_that_hashed_alike_share_no_cache(self, tmp_path, toy_files):
        # with a NUL after each file, both pairs hashed one stream, so the second run
        # read the first one's cache and reported its malformed paper, not its own edge
        edges, meta = (path.read_bytes() for path in toy_files)
        runs = [(tmp_path / "run", edges, b"x\x00" + meta), (tmp_path / "run", edges + b"\x00x", meta),
                (tmp_path / "fresh", edges + b"\x00x", meta)]
        for i, (out, edge_bytes, meta_bytes) in enumerate(runs):
            paths = tmp_path / f"edges{i}.tsv", tmp_path / f"meta{i}.jsonl"
            paths[0].write_bytes(edge_bytes)
            paths[1].write_bytes(meta_bytes)
            assert run("metrics", "--edges", str(paths[0]), "--meta", str(paths[1]), "--out", str(out)) == 0
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        report = json.loads((fresh / "ingest_report.json").read_text())
        assert (report["malformed_papers"], report["malformed_edges"]) == (0, 1)
        for name in ("ingest_report.json", "metrics.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_oversized_cache_in_out_is_reingested(self, tmp_path, toy_files, oversized_cache):
        edges, meta = toy_files
        flags = ("--edges", str(edges), "--meta", str(meta))
        fresh, out = tmp_path / "fresh", tmp_path / "run"
        for where in (fresh, out):
            assert run("metrics", *flags, "--out", str(where)) == 0
        oversized_cache(out / "corpus.cache")
        assert run("metrics", *flags, "--out", str(out)) == 0
        for name in ("corpus.cache", "metrics.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_format_4_cache_in_out_is_reingested_once(self, tmp_path, toy_files, format_4_cache, monkeypatch):
        # a format-4 cache with the right digest misses, is rewritten as the current format, then hits
        edges, meta = toy_files
        flags = ("--edges", str(edges), "--meta", str(meta))
        fresh, out = tmp_path / "fresh", tmp_path / "run"
        assert run("metrics", *flags, "--out", str(fresh)) == 0
        out.mkdir()
        (out / "corpus.cache").write_bytes(format_4_cache(load_cache(fresh / "corpus.cache"), file_digest(edges, meta)))
        ingests = []
        monkeypatch.setattr(corpus_mod, "ingest_files", lambda *paths: ingests.append(paths) or ingest_files(*paths))
        for _ in range(2):
            assert run("metrics", *flags, "--out", str(out)) == 0
        assert len(ingests) == 1
        assert json.loads(np.load(out / "corpus.cache").tobytes())["format"] == CACHE_FORMAT
        for name in ("corpus.cache", "metrics.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


class TestStats:
    def test_all_star_corpus_histogram(self, tmp_path):
        # several star papers of different sizes in one corpus
        from idtree.corpus import PaperRecord, ingest

        records, edge_rows = [], []
        for i in range(6):
            pid = f"s{i}"
            records.append(PaperRecord(pid, 2000))
            for j in range(3 + i):
                cid = f"{pid}.c{j}"
                records.append(PaperRecord(cid, 2001))
                edge_rows.append((cid, pid))
        corpus, _ = ingest(edge_rows, records)
        edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
        write_edge_file(corpus, edges)
        write_metadata_file(corpus, meta)
        out = tmp_path / "run"
        assert run("stats", "--edges", str(edges), "--meta", str(meta), "--out", str(out)) == 0
        assert (out / "depth_hist.csv").read_text() == "depth,count\n1,6\n"
        summary = json.loads((out / "stats_summary.json").read_text())
        assert summary["n_papers"] == 6
        assert summary["correlations"]["breadth_vs_citations"] == 1.0

    def test_outputs_deterministic(self, tmp_path):
        fixture = tmp_path / "fx"
        assert run("synth", "--kind", "random", "--n-papers", "800", "--seed", "5",
                   "--out", str(fixture)) == 0
        edges, meta = fixture / "edges.tsv", fixture / "meta.jsonl"
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("stats", "--edges", str(edges), "--meta", str(meta),
                       "--out", str(out)) == 0
            blobs.append(b"".join(
                (out / f).read_bytes()
                for f in ("depth_hist.csv", "breadth_hist.csv", "scatter.csv", "stats_summary.json")
            ))
        assert blobs[0] == blobs[1]


class TestEvalZ:
    def test_planted_benchmark_run(self, tmp_path):
        fixture = tmp_path / "fx"
        assert run("synth", "--kind", "planted-z", "--seed", "0", "--out", str(fixture)) == 0
        out = tmp_path / "run"
        # the documented reproduction flags
        assert run("eval-z", "--edges", str(fixture / "edges.tsv"),
                   "--meta", str(fixture / "meta.jsonl"), "--out", str(out),
                   "--years", "1995:2000", "--t1", "5", "--t2", "10") == 0
        summary = json.loads((out / "z_summary.json").read_text())
        assert summary["n_venues"] == 8
        assert summary["mean_z_nid"] < summary["mean_z_cite"]
        lines = (out / "venues.csv").read_text().splitlines()
        assert lines[0] == "venue,year,n_papers,z_nid,z_cite,z_diff"
        assert len(lines) == 9

    def test_no_usable_venue_exit_2(self, tmp_path, toy_files, capsys):
        edges, meta = toy_files
        rc = run("eval-z", "--edges", str(edges), "--meta", str(meta),
                 "--out", str(tmp_path / "run"), "--years", "2000:2000")
        assert rc == 2
        assert "no venue" in capsys.readouterr().err

    def test_corpus_without_venues_exit_2(self, tmp_path, capsys):
        # no paper has a venue, so there is no edition to score or to rank in
        edges, meta, awardees = tmp_path / "e.tsv", tmp_path / "m.jsonl", tmp_path / "aw.csv"
        edges.write_text("b\ta\n", encoding="utf-8")
        meta.write_text('{"id": "a", "year": 2000}\n{"id": "b", "year": 2001}\n', encoding="utf-8")
        awardees.write_text("paper_id,venue,year\na,V-2000,2000\n", encoding="utf-8")
        corpus = ["--edges", str(edges), "--meta", str(meta)]
        assert run("eval-z", *corpus, "--out", str(tmp_path / "z")) == 2
        assert "no venue" in capsys.readouterr().err
        assert run("eval-tot", *corpus, "--awardees", str(awardees), "--out", str(tmp_path / "tot")) == 2
        assert "no award case" in capsys.readouterr().err

    def test_unencodable_venue_is_data_error(self, tmp_path, capsys):
        # a lone surrogate is a valid JSON escape that ingest keeps, but no UTF-8 output can hold it
        edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
        edges.write_text("b\ta1\nc\ta1\nb\ta2\nc\tb\nd\ta3\n", encoding="utf-8")
        meta.write_text("".join(json.dumps(rec) + "\n" for rec in (
            *({"id": f"a{i}", "year": 2000, "venue": "V\ud800"} for i in (1, 2, 3)),
            {"id": "b", "year": 2001}, {"id": "c", "year": 2002}, {"id": "d", "year": 2002})),
            encoding="utf-8")
        rc = run("eval-z", "--edges", str(edges), "--meta", str(meta), "--out", str(tmp_path / "run"),
                 "--years", "2000:2000", "--t1", "1", "--t2", "2")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "can't encode" in err
        assert not (tmp_path / "run").exists()
        # eval-tot writes only venues that its awardees file names, and reading that file
        # as UTF-8 refuses such a name before the corpus is read
        awardees = tmp_path / "awardees.csv"
        awardees.write_bytes("paper_id,venue,year\na1,V\ud800,2000\n".encode("utf-8", "surrogatepass"))
        rc = run("eval-tot", "--edges", str(edges), "--meta", str(meta), "--awardees", str(awardees),
                 "--out", str(tmp_path / "tot"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "can't decode" in err
        assert not (tmp_path / "tot").exists()


def _year_span(fixture: Path) -> int:
    years = [json.loads(line)["year"] for line in (fixture / "meta.jsonl").read_text(encoding="utf-8").splitlines()]
    return max(years) - min(years)


class TestHugeHorizons:
    """A cutoff at or past the corpus's last year counts every citation, so any
    longer horizon gives the outputs of a horizon equal to the span of years."""

    @staticmethod
    def _output(planted, out, command, *flags):
        fixture = planted / ("planted-z" if command == "eval-z" else "planted-tot")
        argv = [command, "--edges", str(fixture / "edges.tsv"), "--meta", str(fixture / "meta.jsonl"),
                "--out", str(out), *flags]
        if command == "eval-tot":
            argv += ["--awardees", str(fixture / "awardees.csv"), "--pct", "0.25"]
        assert run(*argv) == 0
        return (out / ("venues.csv" if command == "eval-z" else "tot_cases.csv")).read_bytes()

    def test_eval_z(self, tmp_path, planted):
        span = _year_span(planted / "planted-z")
        at_span = self._output(planted, tmp_path / "a", "eval-z", "--t1", "5", "--t2", str(span))
        assert self._output(planted, tmp_path / "b", "eval-z", "--t2", "99999999999999999999") == at_span
        both_at_span = self._output(planted, tmp_path / "c", "eval-z", "--t1", str(span), "--t2", str(span + 1))
        assert self._output(planted, tmp_path / "d", "eval-z", "--t1", "9223372036854775000",
                            "--t2", "9223372036854775800") == both_at_span

    def test_eval_tot(self, tmp_path, planted):
        at_span = self._output(planted, tmp_path / "a", "eval-tot", "--t2", str(_year_span(planted / "planted-tot")))
        assert self._output(planted, tmp_path / "b", "eval-tot", "--t2", "99999999999999999999") == at_span


class TestEvalToT:
    def test_planted_benchmark_run(self, tmp_path):
        fixture = tmp_path / "fx"
        assert run("synth", "--kind", "planted-tot", "--out", str(fixture)) == 0
        out = tmp_path / "run"
        # the documented reproduction flag
        assert run("eval-tot", "--edges", str(fixture / "edges.tsv"),
                   "--meta", str(fixture / "meta.jsonl"),
                   "--awardees", str(fixture / "awardees.csv"),
                   "--out", str(out), "--pct", "0.05") == 0
        summary = json.loads((out / "tot_summary.json").read_text())
        assert summary["mrr_nid"] == 1.0
        assert summary["mrr_cite"] == 0.75
        assert summary["rank1_nid"] == 4
        lines = (out / "tot_cases.csv").read_text().splitlines()
        assert lines[0] == "paper_id,venue,year,cohort_size,rank_cite,rank_nid"
        assert len(lines) == 5

    def test_awardee_ids_taken_verbatim(self, tmp_path):
        # "a " and "a" are two papers of one edition; "a " has two citations, "a" one
        edges, meta, awardees = tmp_path / "e.tsv", tmp_path / "m.jsonl", tmp_path / "aw.csv"
        edges.write_text("c1\ta \nc1\ta\nc2\ta \n", encoding="utf-8")
        meta.write_text("".join(json.dumps(rec) + "\n" for rec in (
            {"id": "a ", "year": 2000, "venue": "V"}, {"id": "a", "year": 2000, "venue": "V"},
            {"id": "c1", "year": 2001}, {"id": "c2", "year": 2002})), encoding="utf-8")
        awardees.write_text('paper_id,venue,year\n\n  # comment\n   \n"a ",V,2000\na,V,2000\n', encoding="utf-8")
        out = tmp_path / "run"
        assert run("eval-tot", "--edges", str(edges), "--meta", str(meta), "--awardees", str(awardees),
                   "--out", str(out), "--pct", "1", "--t2", "2") == 0
        with open(out / "tot_cases.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(row[0], row[4]) for row in rows] == [("a", "2"), ("a ", "1")]

    def test_awardees_byte_order_mark_is_ignored(self, tmp_path, planted):
        fixture = planted / "planted-tot"
        rows = (fixture / "awardees.csv").read_bytes().split(b"\n", 1)[1]   # no header row
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            awardees = tmp_path / f"{name}.csv"
            awardees.write_bytes(prefix + rows)
            out = tmp_path / name
            assert run("eval-tot", "--edges", str(fixture / "edges.tsv"), "--meta", str(fixture / "meta.jsonl"),
                       "--awardees", str(awardees), "--out", str(out)) == 0
            outputs.append((out / "tot_cases.csv").read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 5

    def test_awardee_header_found_after_comments_and_signed_year_kept(self, tmp_path, planted):
        # the header is the first row left after blank and comment lines, told
        # by a year int() cannot read; a first data row's "+1998" is a year
        fixture = planted / "planted-tot"
        header, rows = (fixture / "awardees.csv").read_text(encoding="utf-8").split("\n", 1)
        signed = rows.replace(",1998", ",+1998", 1)
        for name, text in (("plain", header + "\n" + rows), ("commented", f"# awardees\n\n{header}\n{rows}"),
                           ("signed", signed)):
            awardees = tmp_path / f"{name}.csv"
            awardees.write_text(text, encoding="utf-8")
            assert run("eval-tot", "--edges", str(fixture / "edges.tsv"), "--meta", str(fixture / "meta.jsonl"),
                       "--awardees", str(awardees), "--out", str(tmp_path / name)) == 0
        cases = {name: (tmp_path / name / "tot_cases.csv").read_bytes() for name in ("plain", "commented", "signed")}
        assert cases["plain"] == cases["commented"] == cases["signed"] and cases["plain"].count(b"\n") == 5

    def test_malformed_awardees_exit_2(self, tmp_path, capsys):
        # the awardee rows are read before --out is made
        fixture = tmp_path / "fx"
        assert run("synth", "--kind", "planted-tot", "--out", str(fixture)) == 0
        bad = tmp_path / "bad.csv"
        for text, message in (
            ("paper_id,venue\n", "expected paper_id,venue,year"),
            ("paper_id,venue,year\nP,V,20x0\n", "year is not an integer: '20x0'"),
            ("paper_id,venue,year\n# a comment\n\n", "no awardee rows found"),
        ):
            bad.write_text(text)
            rc = run("eval-tot", "--edges", str(fixture / "edges.tsv"),
                     "--meta", str(fixture / "meta.jsonl"),
                     "--awardees", str(bad), "--out", str(tmp_path / "run"))
            assert rc == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "run").exists()


class TestCsvQuoting:
    def test_commas_in_ids_and_venues(self, tmp_path):
        # the cited id holds a comma, and so does the venue of its cohort
        venue = "Conf, Vol 1-2000"
        papers = [("a,b", 2000, venue), ("x", 2000, venue), ("c1", 2001, None), ("c2", 2002, None)]
        edges, meta, awardees = tmp_path / "e.tsv", tmp_path / "m.jsonl", tmp_path / "aw.csv"
        edges.write_text("c1\ta,b\nc1\tx\nc2\ta,b\nc2\tc1\n", encoding="utf-8")
        meta.write_text("".join(
            json.dumps({"id": pid, "year": year, **({"venue": v} if v else {})}) + "\n"
            for pid, year, v in papers
        ), encoding="utf-8")
        write_csv(awardees, ("paper_id", "venue", "year"), [("a,b", venue, 2000)])
        flags = ("--edges", str(edges), "--meta", str(meta), "--out", str(tmp_path / "run"))
        assert run("metrics", *flags) == 0
        assert run("eval-z", *flags, "--years", "2000:2000", "--t1", "1", "--t2", "2") == 0
        assert run("eval-tot", *flags, "--awardees", str(awardees), "--pct", "1", "--t2", "2") == 0
        for name, first in (("metrics.csv", "a,b"), ("venues.csv", venue), ("tot_cases.csv", "a,b")):
            with open(tmp_path / "run" / name, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), name
            assert rows[0][0] == first


class TestSynthCommand:
    def test_shape_kinds_emit_tree_json(self, tmp_path):
        out = tmp_path / "ideal"
        assert run("synth", "--kind", "ideal", "--n", "9", "--out", str(out)) == 0
        tree = json.loads((out / "tree.json").read_text())
        assert tree["root"] == "P"
        assert len(tree["nodes"]) == 10
        assert (out / "edges.tsv").exists() and (out / "meta.jsonl").exists()

    @pytest.mark.parametrize("kind, extra", [("ideal", "tree.json"), ("planted-tot", "awardees.csv")])
    def test_no_stale_extra_file(self, tmp_path, kind, extra):
        # a kind that writes no tree or awardees removes the one an earlier kind wrote
        out = tmp_path / "fx"
        assert run("synth", "--kind", kind, "--out", str(out)) == 0
        assert (out / extra).exists()
        assert run("synth", "--kind", "toy", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["edges.tsv", "meta.jsonl", "run_config.json"]

    def test_random_corpus_reproducible(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("synth", "--kind", "random", "--n-papers", "500",
                       "--seed", "2", "--out", str(out)) == 0
            blobs.append((out / "edges.tsv").read_bytes())
        assert blobs[0] == blobs[1]
