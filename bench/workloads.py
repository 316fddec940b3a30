"""The three workloads: inputs, timed set-up, timed operations and checks.

Each workload puts most of its work in a different layer of `idtree`:

* ``metrics-corpus``: tree construction and per-paper metrics over the whole
  corpus, serially and through the fork pool;
* ``venue-horizons``: the venue z sweep and the award experiment, which
  rebuild trees on every snapshot;
* ``cli-session``: the CLI on raw files with injected faults, so the cache
  write path is set-up and the cache read path is most of the run.

A workload's `operations` form one round; `keep` saves what the checks need
from a round once its timing has stopped, and `check` compares the program's
outputs with `oracle.Oracle` and returns the mismatches.
"""

from __future__ import annotations

import contextlib
import csv
import json
import shutil
from pathlib import Path

import inputs
import oracle

WORK_DIR = ".bench_work"
Z_YEARS = (1965, 2000)
Z_HORIZONS = tuple((t1, t1 + 5) for t1 in range(1, 6))


def _clean_oracle(edges: Path, meta: Path) -> oracle.Oracle:
    return oracle.Oracle(oracle.read_meta(meta), oracle.read_edges(edges))


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.work = root / WORK_DIR
        self.edges, self.meta = inputs.clean_files(self.work, generate=False)
        self.out = self.work / "runs" / self.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.first: dict | None = None
        self.problems: list[str] = []

    def reset(self) -> None:
        """Drop what `setup` built, so the next `setup` starts cold."""

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def summarize(self, results: dict) -> dict:
        """Comparable form of one round's results."""
        return results

    def keep(self, results: dict) -> None:
        summary = self.summarize(results)
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            self.problems.append("a later round's outputs differ from the first round's")

    def check(self) -> list[str]:
        raise NotImplementedError

    def cache_mb(self) -> float:
        return 0.0


class MetricsCorpus(Workload):
    """Score every paper under random ties, serially and with jobs=2."""

    name = "metrics-corpus"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.corpus = None

    def reset(self) -> None:
        self.corpus = None

    def setup(self) -> None:
        from idtree.corpus import ingest_files

        self.corpus, _ = ingest_files(self.edges, self.meta)

    def operations(self):
        from idtree import metrics

        csv_path = self.out / "metrics.csv"
        return [
            ("score", lambda r: metrics.corpus_metrics(self.corpus, tie="random", seed=inputs.TIE_SEED)),
            ("write_csv", lambda r: metrics.write_metrics_csv(r["score"], csv_path)),
            ("score_jobs2", lambda r: metrics.corpus_metrics(
                self.corpus, tie="random", seed=inputs.TIE_SEED, jobs=2)),
        ]

    def summarize(self, results):
        from idtree import metrics

        jobs2_path = self.out / "metrics_jobs2.csv"
        if "score_jobs2" in results:
            metrics.write_metrics_csv(results["score_jobs2"], jobs2_path)
        serial = (self.out / "metrics.csv").read_bytes() if "write_csv" in results else None
        jobs2 = jobs2_path.read_bytes() if "score_jobs2" in results else None
        if serial is not None and jobs2 is not None and serial != jobs2:
            self.problems.append("the jobs=2 CSV differs from the serial CSV")
        return {"csv": serial or jobs2}

    def check(self):
        if self.first is None or self.first["csv"] is None:
            return self.problems
        ref = _clean_oracle(self.edges, self.meta)
        rows = list(csv.reader(self.first["csv"].decode("utf-8").splitlines()))
        problems = list(self.problems)
        if rows[0] != ["paper_id", "n", "d", "b", "idi", "idi_min", "idi_max", "id", "nid"]:
            problems.append(f"unexpected CSV header {rows[0]}")
        body = rows[1:]
        ids = [row[0] for row in body]
        if ids != sorted(ref.cited()):
            problems.append(f"row set: {len(ids)} rows against {len(ref.cited())} cited papers")
            return problems
        for pid, n, d, b, idi, idi_min, idi_max, div, nid in body:
            tree = ref.tree(pid)
            n_ref, d_ref, b_ref, idi_ref = tree.values()
            n, d, b, idi, idi_min, idi_max, div = map(int, (n, d, b, idi, idi_min, idi_max, div))
            ok = (n, d, b, idi_min, idi_max, div) == (n_ref, d_ref, b_ref, n, oracle.idi_max(n), idi - n)
            ok = ok and (n <= idi <= oracle.idi_max(n) if tree.tie else idi == idi_ref)
            if not ok or float(nid) != oracle.nid(n, idi):
                problems.append(f"{pid}: program {n},{d},{b},{idi},{nid} oracle {n_ref},{d_ref},{b_ref},{idi_ref}")
                if len(problems) > 20:
                    break
        return problems


class VenueHorizons(Workload):
    """The early-prediction z sweep and the award experiment under min-id ties."""

    name = "venue-horizons"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.corpus = None
        meta, _, cite_years = inputs.load_clean(self.edges, self.meta)
        self.awardees = inputs.pick_awardees(meta, cite_years, *Z_YEARS, seed)

    def reset(self) -> None:
        self.corpus = None

    def setup(self) -> None:
        from idtree.corpus import ingest_files

        self.corpus, _ = ingest_files(self.edges, self.meta)

    def operations(self):
        from idtree import experiments

        ops = [
            (f"z_t1_{t1}", lambda r, t1=t1, t2=t2: experiments.z_experiment(self.corpus, Z_YEARS, t1, t2))
            for t1, t2 in Z_HORIZONS
        ]
        ops.append(("tot", lambda r: experiments.tot_experiment(
            self.corpus, self.awardees, pct=inputs.TOT_PCT, horizon=inputs.TOT_HORIZON)))
        return ops

    def summarize(self, results):
        summary = {}
        for name, report in results.items():
            if name == "tot":
                summary[name] = (
                    {c.paper_id: (c.venue, c.year, c.cohort_size, c.rank_cite, c.rank_nid) for c in report.cases},
                    sorted(pid for pid, _ in report.skipped),
                )
            else:
                summary[name] = (
                    {(v.venue, v.year): (len(v.paper_ids), v.z_nid, v.z_cite) for v in report.venues},
                    sorted((venue, year) for venue, year, _ in report.skipped),
                )
        return summary

    def check(self):
        if self.first is None:
            return self.problems
        ref = _clean_oracle(self.edges, self.meta)
        problems = list(self.problems)
        for t1, t2 in Z_HORIZONS:
            got = self.first.get(f"z_t1_{t1}")
            if got is not None and got != ref.z_scores(*Z_YEARS, t1, t2):
                problems.append(f"z scores at t1={t1} differ from the oracle")
        got = self.first.get("tot")
        if got is not None and got != ref.award_ranks(self.awardees, inputs.TOT_PCT, inputs.TOT_HORIZON):
            problems.append("award ranks differ from the oracle")
        return problems


class CliSession(Workload):
    """Commands through `idtree.cli.main` on raw files with injected faults."""

    name = "cli-session"
    EVAL_Z = ("1990:1991", 3, 8)
    N_IDS = 300
    AWARDEE_YEARS = (1985, 1986)

    @classmethod
    def session_inputs(cls, meta, cite_years, seed: int) -> dict:
        return {
            "ids": inputs.pick_ids(cite_years, cls.N_IDS, seed),
            "awardees": inputs.pick_awardees(meta, cite_years, *cls.AWARDEE_YEARS, seed),
        }

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        meta, lines, cite_years = inputs.load_clean(self.edges, self.meta)
        self.raw = inputs.write_faulty_files(lines, meta, seed, self.out / "raw")
        session = self.session_inputs(meta, cite_years, seed)
        self.ids = session["ids"]
        self.awardees = session["awardees"]
        self.awardee_file = self.out / "awardees.csv"
        inputs.write_awardee_file(self.awardees, self.awardee_file)
        self.run_dir = self.out / "run"
        self.log = self.out / "cli.log"

    def _main(self, *argv: str) -> None:
        from idtree import cli

        flags = ["--edges", str(self.raw.edges), "--meta", str(self.raw.meta), "--out", str(self.run_dir)]
        with open(self.log, "a", encoding="utf-8") as log, contextlib.redirect_stdout(log):
            code = cli.main([argv[0], *flags, *argv[1:]])
        if code != 0:
            raise RuntimeError(f"idtree {argv[0]} exited with {code}")

    def reset(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def setup(self) -> None:
        self._main("ingest")

    def operations(self):
        years, t1, t2 = self.EVAL_Z
        return [
            ("metrics", lambda r: self._main("metrics", "--ids", ",".join(self.ids))),
            ("eval_z", lambda r: self._main("eval-z", "--years", years, "--t1", str(t1), "--t2", str(t2))),
            ("eval_tot", lambda r: self._main(
                "eval-tot", "--awardees", str(self.awardee_file),
                "--pct", str(inputs.TOT_PCT), "--t2", str(inputs.TOT_HORIZON))),
        ]

    def summarize(self, results):
        files = {"metrics": "metrics.csv", "eval_z": "venues.csv", "eval_tot": "tot_cases.csv"}
        return {name: (self.run_dir / files[name]).read_text(encoding="utf-8") for name in results}

    def cache_mb(self) -> float:
        from idtree import cli

        return (self.run_dir / cli.CACHE_NAME).stat().st_size / (1024 * 1024)

    def check(self):
        from idtree import cli
        from idtree.corpus import load_cache

        problems = list(self.problems)
        report = json.loads((self.run_dir / "ingest_report.json").read_text(encoding="utf-8"))
        if report != self.raw.expected_report:
            problems.append(f"ingest report {report} != injected {self.raw.expected_report}")
        meta = oracle.read_meta(self.meta)
        edges = oracle.read_edges(self.edges)
        cached = load_cache(self.run_dir / cli.CACHE_NAME)
        if cached is None:
            problems.append("no readable corpus cache after ingest")
        else:
            got_meta = {p: (cached.record(p).year, cached.record(p).venue) for p in cached.paper_ids}
            if got_meta != meta or sorted(cached.edges()) != sorted(edges):
                problems.append("the cleaned corpus differs from the clean source")
        if self.first is None:
            return problems
        ref = oracle.Oracle(meta, edges)
        if "metrics" in self.first:
            rows = list(csv.reader(self.first["metrics"].splitlines()))[1:]
            want = []
            for pid in sorted(set(self.ids) & ref.cited()):
                n, d, b, idi = ref.tree(pid).values()
                want.append([pid, n, d, b, idi, n, oracle.idi_max(n), idi - n, oracle.nid(n, idi)])
            got = [[r[0], *map(int, r[1:8]), float(r[8])] for r in rows]
            if got != want:
                problems.append("metrics --ids rows differ from the oracle")
        if "eval_z" in self.first:
            years, t1, t2 = self.EVAL_Z
            lo, hi = map(int, years.split(":"))
            scored, _ = ref.z_scores(lo, hi, t1, t2)
            rows = list(csv.reader(self.first["eval_z"].splitlines()))[1:]
            got = {(r[0], int(r[1])): (int(r[2]), float(r[3]), float(r[4])) for r in rows}
            diffs_ok = all(float(r[5]) == float(r[4]) - float(r[3]) for r in rows)
            if got != scored or not diffs_ok:
                problems.append("eval-z venues differ from the oracle")
        if "eval_tot" in self.first:
            cases, _ = ref.award_ranks(self.awardees, inputs.TOT_PCT, inputs.TOT_HORIZON)
            rows = list(csv.reader(self.first["eval_tot"].splitlines()))[1:]
            got = {r[0]: (r[1], int(r[2]), int(r[3]), int(r[4]), int(r[5])) for r in rows}
            if got != cases:
                problems.append("eval-tot cases differ from the oracle")
        return problems


WORKLOADS = {cls.name: cls for cls in (MetricsCorpus, VenueHorizons, CliSession)}
