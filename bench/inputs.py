"""Seeded inputs of the benchmark.

Every workload runs on the criterion-6 corpus,
``gen_random_corpus(100000, (1960, 2010), mean_refs=3, followup=0.3, seed=7)``,
written to raw files by this module's own writer.  Generating it takes about
8 s, so the files are kept under the work directory, keyed by a digest of the
program sources that produce them, and reused by later runs.

The workload seed (``--seed``) picks only the small inputs: the awardees,
the id list of ``metrics --ids`` and where the hygiene faults are injected.
The corpus itself (seed 7) and the tie seed (11) are fixed, so every seed runs
the same amount of tree work.

Run as a script to write every input of one seed into a directory:

    python3 bench/inputs.py --seed 3 --out .bench_work/regen
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent

CORPUS_ARGS = {"n_papers": 100000, "years": (1960, 2010), "mean_refs": 3, "followup": 0.3, "seed": 7}
# Make-up of the seed-7 corpus; a different one means the program's generator
# changed and the runs are no longer comparable with earlier ones.
CORPUS_PAPERS = 98566
CORPUS_EDGES = 311278
CORPUS_CITED = 76596
TIE_SEED = 11
# Award experiment: competitors are the top TOT_PCT of a venue edition by
# citations TOT_HORIZON years after publication.
TOT_PCT = 0.25
TOT_HORIZON = 10

# Injected faults per hygiene rule in the cli-session raw files.  Each same-year
# cycle is one 2-cycle, so it adds two edges that ingest drops.
FAULTS = {
    "malformed_edges": 30,
    "malformed_papers": 30,
    "self": 40,
    "dup": 40,
    "unknown": 40,
    "forward": 40,
    "cycles": 20,
    "isolated": 40,
}

_MALFORMED_EDGE_FORMS = ("{a}", "{a}\t{b}\t{a}", "\t{b}")
_MALFORMED_META_FORMS = ('{{"id": "{pid}"', '{{"id": "{pid}"}}', '["{pid}", 1990]')


def clean_files(work: Path, generate: bool = True) -> tuple[Path, Path]:
    """Edge and metadata files of the seed-7 corpus, generated on first use."""
    from idtree import corpus as corpus_mod
    from idtree import synth

    digest = hashlib.sha256(repr(sorted(CORPUS_ARGS.items())).encode())
    for module in (synth, corpus_mod):
        digest.update(Path(module.__file__).read_bytes())
    digest.update(Path(__file__).read_bytes())
    target = work / "inputs" / digest.hexdigest()[:16]
    edges, meta = target / "edges.tsv", target / "meta.jsonl"
    if (target / "complete").is_file():
        return edges, meta
    if not generate:
        raise FileNotFoundError(f"benchmark inputs missing under {target}; run bench/inputs.py --prepare")
    # Files made from other sources are stale; only the newest set is kept.
    shutil.rmtree(target.parent, ignore_errors=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.mkdir(parents=True)
    corpus = synth.gen_random_corpus(**CORPUS_ARGS)
    n_cited = sum(1 for pid in corpus.paper_ids if corpus.citation_count(pid))
    if (len(corpus), corpus.n_edges, n_cited) != (CORPUS_PAPERS, CORPUS_EDGES, CORPUS_CITED):
        raise ValueError(
            f"the seed-7 corpus has {len(corpus)} papers, {corpus.n_edges} edges and {n_cited} cited papers; "
            f"expected {CORPUS_PAPERS}, {CORPUS_EDGES} and {CORPUS_CITED}"
        )
    with open(tmp / "edges.tsv", "w", encoding="utf-8") as fh:
        for pid in corpus.paper_ids:
            for cited in sorted(corpus.references_of(pid)):
                fh.write(f"{pid}\t{cited}\n")
    with open(tmp / "meta.jsonl", "w", encoding="utf-8") as fh:
        for pid in corpus.paper_ids:
            rec = corpus.record(pid)
            fh.write(json.dumps({"id": rec.id, "year": rec.year, "venue": rec.venue}) + "\n")
    (tmp / "complete").write_text("")
    tmp.rename(target)
    return edges, meta


def venues_in(meta: dict, lo: int, hi: int) -> dict[tuple[str, int], list[str]]:
    """Sorted member ids of every (venue, year) edition published in [lo, hi]."""
    groups: dict[tuple[str, int], list[str]] = {}
    for pid, (year, venue) in meta.items():
        if venue is not None and lo <= year <= hi:
            groups.setdefault((venue, year), []).append(pid)
    return {key: sorted(members) for key, members in sorted(groups.items())}


def load_clean(edges: Path, meta: Path) -> tuple[dict, list[str], dict[str, list[int]]]:
    """Metadata (id -> (year, venue)), edge lines and citer years per cited id."""
    meta_map = oracle.read_meta(meta)
    lines = edges.read_text(encoding="utf-8").splitlines()
    return meta_map, lines, citer_years(lines, meta_map)


def citer_years(edge_lines: list[str], meta: dict) -> dict[str, list[int]]:
    years: dict[str, list[int]] = {}
    for line in edge_lines:
        citing, cited = line.split("\t")
        years.setdefault(cited, []).append(meta[citing][0])
    return years


def pick_awardees(meta: dict, cite_years: dict, lo: int, hi: int, seed: int):
    """One seeded awardee per venue edition published in [lo, hi].

    Each is drawn from the papers the award experiment ranks anyway, the cited
    ones among the top `TOT_PCT` of the edition by citations `TOT_HORIZON`
    years on, so the seed moves the ranks but not the number of trees built.
    """
    rng = random.Random(seed)
    awardees = []
    for (venue, year), members in venues_in(meta, lo, hi).items():
        count = {p: sum(y <= year + TOT_HORIZON for y in cite_years.get(p, ())) for p in members}
        top = sorted(members, key=lambda p: (-count[p], p))[: math.ceil(TOT_PCT * len(members))]
        pool = [p for p in top if count[p] > 0] or members
        awardees.append((rng.choice(pool), venue, year))
    return awardees


def pick_ids(cite_years: dict, count: int, seed: int) -> list[str]:
    """Seeded sample of cited ids, so every seed scores `count` trees."""
    return random.Random(seed).sample(sorted(cite_years), count)


@dataclass(frozen=True)
class FaultyInputs:
    edges: Path
    meta: Path
    expected_report: dict


def write_faulty_files(edge_lines: list[str], meta: dict, seed: int, out: Path) -> FaultyInputs:
    """Raw files holding the clean corpus plus a known number of faults per rule.

    `edge_lines` are the clean ``citing<TAB>cited`` lines and `meta` maps id to
    (year, venue).  Injected lines go to seeded positions among the clean ones.
    Returns the paths and the `IngestReport` counters ingest must produce.
    """
    rng = random.Random(seed)
    ids = sorted(meta)
    existing = {tuple(line.split("\t")) for line in edge_lines}
    same_year_linked = {u for u, v in existing if meta[u][0] == meta[v][0]}
    same_year_linked |= {v for u, v in existing if meta[u][0] == meta[v][0]}

    extra_edges: list[str] = []
    for i in range(FAULTS["malformed_edges"]):
        form = _MALFORMED_EDGE_FORMS[i % len(_MALFORMED_EDGE_FORMS)]
        extra_edges.append(form.format(a=rng.choice(ids), b=rng.choice(ids)))
    for _ in range(FAULTS["self"]):
        pid = rng.choice(ids)
        extra_edges.append(f"{pid}\t{pid}")
    extra_edges += rng.sample(edge_lines, FAULTS["dup"])
    for i in range(FAULTS["unknown"]):
        extra_edges.append(f"ghost{i:03d}\t{rng.choice(ids)}")
    forward: set[tuple[str, str]] = set()
    while len(forward) < FAULTS["forward"]:
        a, b = rng.choice(ids), rng.choice(ids)
        if meta[a][0] < meta[b][0] and (a, b) not in existing:
            forward.add((a, b))
    extra_edges += [f"{a}\t{b}" for a, b in sorted(forward)]
    # Cycle members touch no other same-year edge, so ingest drops exactly
    # the two injected edges of each cycle.
    used: set[str] = set()
    n_cycles = 0
    while n_cycles < FAULTS["cycles"]:
        a, b = rng.choice(ids), rng.choice(ids)
        if a == b or meta[a][0] != meta[b][0] or {a, b} & (used | same_year_linked):
            continue
        used |= {a, b}
        extra_edges += [f"{a}\t{b}", f"{b}\t{a}"]
        n_cycles += 1

    extra_meta: list[str] = []
    for i in range(FAULTS["isolated"]):
        extra_meta.append(json.dumps({"id": f"lone{i:03d}", "year": rng.randint(1960, 2010)}))
    for i in range(FAULTS["malformed_papers"]):
        form = _MALFORMED_META_FORMS[i % len(_MALFORMED_META_FORMS)]
        extra_meta.append(form.format(pid=f"bad{i:03d}"))

    meta_lines = [
        json.dumps({"id": pid, "year": year, "venue": venue}) for pid, (year, venue) in sorted(meta.items())
    ]
    out.mkdir(parents=True, exist_ok=True)
    edge_path, meta_path = out / "edges.tsv", out / "meta.jsonl"
    _write_interleaved(edge_path, edge_lines, extra_edges, rng)
    _write_interleaved(meta_path, meta_lines, extra_meta, rng)
    expected = {
        "papers_in": len(meta) + len(extra_meta),
        "papers_kept": len(meta),
        "edges_in": len(edge_lines) + len(extra_edges),
        "edges_kept": len(edge_lines),
        "dropped_self": FAULTS["self"],
        "dropped_dup": FAULTS["dup"],
        "dropped_forward": FAULTS["forward"],
        "dropped_cycle": 2 * FAULTS["cycles"],
        "dropped_isolated": FAULTS["isolated"],
        "dropped_unknown": FAULTS["unknown"],
        "malformed_papers": FAULTS["malformed_papers"],
        "malformed_edges": FAULTS["malformed_edges"],
    }
    return FaultyInputs(edge_path, meta_path, expected)


def _write_interleaved(path: Path, lines: list[str], extra: list[str], rng: random.Random) -> None:
    slots = sorted(rng.randrange(len(lines) + 1) for _ in extra)
    with open(path, "w", encoding="utf-8") as fh:
        start = 0
        for slot, line in zip(slots, extra):
            fh.writelines(f"{x}\n" for x in lines[start:slot])
            fh.write(line + "\n")
            start = slot
        fh.writelines(f"{x}\n" for x in lines[start:])


def write_awardee_file(awardees, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("paper_id,venue,year\n")
        for pid, venue, year in awardees:
            fh.write(f"{pid},{venue},{year}\n")


def _main(argv=None) -> int:
    import argparse

    import workloads

    parser = argparse.ArgumentParser(description="Write every benchmark input of one seed")
    parser.add_argument("--prepare", action="store_true", help="only generate the shared corpus files")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    edges, meta_path = clean_files(ROOT / workloads.WORK_DIR)
    if args.prepare:
        return 0
    if args.seed is None or args.out is None:
        parser.error("--seed and --out are required without --prepare")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(edges, out / "clean_edges.tsv")
    shutil.copy(meta_path, out / "clean_meta.jsonl")
    meta, edge_lines, cite_years = load_clean(edges, meta_path)
    faulty = write_faulty_files(edge_lines, meta, args.seed, out / "faulty")
    (out / "faulty" / "expected_report.json").write_text(json.dumps(faulty.expected_report, indent=2) + "\n")
    write_awardee_file(pick_awardees(meta, cite_years, *workloads.Z_YEARS, args.seed), out / "venue_awardees.csv")
    session = workloads.CliSession.session_inputs(meta, cite_years, args.seed)
    write_awardee_file(session["awardees"], out / "cli_awardees.csv")
    (out / "cli_ids.txt").write_text(",".join(session["ids"]) + "\n")
    print(f"wrote the inputs of seed {args.seed} to {out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(_main())
