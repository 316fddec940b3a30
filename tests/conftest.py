import io
import json
import pickle
from itertools import count
from pathlib import Path

import numpy as np
import pytest

from idtree.corpus import write_edge_file, write_metadata_file
from idtree.synth import gen_random_corpus, toy_corpus


@pytest.fixture(scope="session")
def toy():
    """Six-paper walkthrough corpus: P cited by p1..p5 with cross-citations."""
    return toy_corpus()


@pytest.fixture(scope="session")
def small_random_corpus():
    return gen_random_corpus(300, years=(1990, 2005), mean_refs=2.5, seed=11)


@pytest.fixture
def corpus_files(tmp_path):
    """Write a corpus to edge/meta files in tmp_path; returns the two paths."""

    def write(corpus, prefix="corpus"):
        edges = tmp_path / f"{prefix}_edges.tsv"
        meta = tmp_path / f"{prefix}_meta.jsonl"
        write_edge_file(corpus, edges)
        write_metadata_file(corpus, meta)
        return edges, meta

    return write


class _Touch:
    """Unpickling this creates the file `path`."""

    def __init__(self, path):
        self.path = Path(path)

    def __reduce__(self):
        return (Path.touch, (self.path,))


@pytest.fixture
def planted_pickle():
    """Pickled cache payload of format `fmt` whose unpickling creates the file `marker`."""

    def make(marker, fmt, source_hash):
        return pickle.dumps({"format": fmt, "source_hash": source_hash, "corpus": _Touch(marker)})

    return make


@pytest.fixture
def format_4_cache():
    """Bytes of the corpus cached in format 4: a JSON header that held the ids
    themselves, then the years, the venue codes, and the citing and cited rows."""

    def make(corpus, source_hash):
        head = json.dumps({"format": 4, "source_hash": source_hash,
                           "ids": corpus.paper_ids, "venues": corpus.venue_names})
        buf = io.BytesIO()
        for a in (np.frombuffer(head.encode("ascii"), np.uint8),
                  corpus.years, corpus.venues, corpus.cites, corpus.refs):
            np.save(buf, a, allow_pickle=False)
        return buf.getvalue()

    return make


@pytest.fixture
def format_5_cache():
    """Bytes of the corpus cached in format 5: a JSON header that held the venue
    names, the ids as one UTF-8 block joined by the first code point from U+000A
    on that no id holds, then the years, the venue codes, and the citing and cited rows."""

    def make(corpus, source_hash):
        used = set("".join(corpus.paper_ids))
        sep = next(c for c in map(chr, count(10)) if c not in used)
        head = json.dumps({"format": 5, "source_hash": source_hash, "sep": sep, "venues": corpus.venue_names})
        block = sep.join(corpus.paper_ids).encode("utf-8", "surrogatepass")
        buf = io.BytesIO()
        for a in (np.frombuffer(head.encode("ascii"), np.uint8), np.frombuffer(block, np.uint8),
                  corpus.years, corpus.venues, corpus.cites, corpus.refs):
            np.save(buf, a, allow_pickle=False)
        return buf.getvalue()

    return make


@pytest.fixture
def format_6_cache():
    """Bytes of the corpus cached in format 6: a JSON header without the ingest report
    (format, digest, separator, id count), the ids and then the venue names as one
    UTF-8 block, each ended by the separator, then the years, the venue codes, and
    the citing and cited rows."""

    def make(corpus, source_hash):
        names = (*corpus.paper_ids, *corpus.venue_names, "")
        used = set("".join(names))
        sep = next(c for c in map(chr, count(10)) if c not in used)
        head = json.dumps({"format": 6, "source_hash": source_hash, "sep": sep, "ids": len(corpus)})
        buf = io.BytesIO()
        for a in (np.frombuffer(head.encode("ascii"), np.uint8),
                  np.frombuffer(sep.join(names).encode("utf-8", "surrogatepass"), np.uint8),
                  corpus.years, corpus.venues, corpus.cites, corpus.refs):
            np.save(buf, a, allow_pickle=False)
        return buf.getvalue()

    return make


@pytest.fixture
def oversized_cache():
    """Rewrite the cache at a path as its header array followed by the header of a
    10**13-byte array that the file does not hold, which `np.save` cannot write."""

    def make(path):
        with open(path, "rb") as fh:
            head = np.load(fh, allow_pickle=False)
        with open(path, "wb") as fh:
            np.save(fh, head, allow_pickle=False)
            np.lib.format.write_array_header_1_0(fh, {"descr": "|u1", "fortran_order": False, "shape": (10**13,)})

    return make
