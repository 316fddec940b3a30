"""End-to-end command-line runs, exit codes, and output files."""

import csv
import json

import pytest

from idtree.cli import main
from idtree.corpus import write_csv, write_edge_file, write_metadata_file
from idtree.synth import ShapeSpec, gen_shape


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
        _, meta = toy_files
        rc = run("ingest", "--edges", "/no/such/file.tsv", "--meta", str(meta),
                 "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "/no/such/file.tsv" in capsys.readouterr().err

    def test_empty_result_exit_2(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        meta = tmp_path / "meta.jsonl"
        edges.write_text("")  # no edges: both papers end up isolated
        meta.write_text('{"id": "a", "year": 2000}\n{"id": "b", "year": 2001}\n')
        rc = run("ingest", "--edges", str(edges), "--meta", str(meta),
                 "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "no papers" in capsys.readouterr().err

    def test_metrics_after_ingest_matches_fresh_out(self, tmp_path, toy_files):
        edges, meta = toy_files
        flags = ("--edges", str(edges), "--meta", str(meta), "--tie", "random", "--seed", "1")
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert run("ingest", "--edges", str(edges), "--meta", str(meta), "--out", str(used)) == 0
        assert run("metrics", *flags, "--out", str(used)) == 0
        assert run("metrics", *flags, "--out", str(fresh)) == 0
        assert (used / "metrics.csv").read_bytes() == (fresh / "metrics.csv").read_bytes()


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
        ("synth", ["--kind", "ideal", "--n", "2"], "no equal depth/breadth layout exists for n=2"),
        ("synth", ["--kind", "star", "--n", "0"], "star needs n >= 1"),
        ("synth", ["--kind", "broom", "--n", "5", "--k", "9"], "broom handle length must be in [0, 4], got 9"),
        ("synth", ["--kind", "random", "--n-papers", "0"], "n_papers must be >= 1"),
        ("synth", ["--kind", "random", "--bias", "2"], "bias must be in [0, 1]"),
        ("synth", ["--kind", "planted-z", "--t1", "1", "--t2", "3"], "shape depth exceeds t1"),
    ], ids=["tot-pct-0", "tot-pct-nan", "tot-negative-t2", "z-negative-t1", "ideal-n-2", "star-n-0",
            "broom-k-9", "random-n-0", "random-bias-2", "planted-z-t1-1"])
    def test_bad_value_is_usage_error(self, planted, tmp_path, capsys, command, flags, message):
        # the library's range checks reach the user as usage errors
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

    def test_undecodable_input_is_data_error(self, tmp_path, toy_files, capsys):
        _, meta = toy_files
        edges = tmp_path / "edges.tsv"
        edges.write_bytes(b"p1\tP\n\xff\xfe\n")
        assert run("metrics", "--edges", str(edges), "--meta", str(meta), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith("error: ")


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
        _, corpus = gen_shape(ShapeSpec("star", 100))
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

    def test_malformed_awardees_exit_2(self, tmp_path):
        fixture = tmp_path / "fx"
        assert run("synth", "--kind", "planted-tot", "--out", str(fixture)) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("paper_id,venue\n")
        rc = run("eval-tot", "--edges", str(fixture / "edges.tsv"),
                 "--meta", str(fixture / "meta.jsonl"),
                 "--awardees", str(bad), "--out", str(tmp_path / "run"))
        assert rc == 2


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

    def test_random_corpus_reproducible(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("synth", "--kind", "random", "--n-papers", "500",
                       "--seed", "2", "--out", str(out)) == 0
            blobs.append((out / "edges.tsv").read_bytes())
        assert blobs[0] == blobs[1]
