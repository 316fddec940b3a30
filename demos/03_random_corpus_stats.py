"""Distribution statistics over a synthetic citation corpus.

A preferentially-attached random corpus shows the characteristic pattern:
breadth tracks citation counts closely while depth grows much more slowly,
and heavily cited papers drift toward low NID.
"""

import numpy as np

from idtree.experiments import corpus_stats
from idtree.synth import gen_random_corpus

corpus = gen_random_corpus(
    20_000, years=(1970, 2010), mean_refs=4.0, bias=0.8, followup=0.4, seed=42
)
print(f"corpus: {len(corpus)} papers, {corpus.n_edges} edges")

stats = corpus_stats(corpus)
reports = stats.reports   # one column per metric, one row per cited paper
print(f"papers with trees: {len(reports)} (uncited: {stats.n_uncited})")

print("\ndepth frequency:")
for depth, count in stats.depth_hist.items():
    print(f"  {depth:2d}: {count}")

print("\nbreadth frequency (log-ish buckets):")
edges = [1, 2, 3, 5, 10, 20, 50, 100, 10**9]
labels = ["1", "2", "3-4", "5-9", "10-19", "20-49", "50-99", "100+"]
counts = np.bincount(np.searchsorted(edges, reports.breadth, "right") - 1, minlength=len(labels))
for label, cnt in zip(labels, counts):
    print(f"  {label:>6}: {cnt}")

print("\ncorrelations:")
for name, rho in sorted(stats.correlations.items()):
    print(f"  {name}: {rho:.3f}")

# NID against citations: bucket papers by citation count and average.
print("\nmean NID by citation count:")
buckets = np.minimum(reports.n, 50) // 10
for bucket in np.unique(buckets).tolist():
    values = reports.nid[buckets == bucket]
    lo, hi = bucket * 10, bucket * 10 + 9
    label = f"{lo}-{hi}" if bucket < 5 else f"{lo}+"
    print(f"  n in {label:>6}: mean nid {np.mean(values):.3f}  ({len(values)} papers)")
