"""Walkthrough: from a tiny citation corpus to a dispersion tree.

Six papers: P is cited by p1..p5, and some of the citers also cite each
other.  We build P's influence graph, derive the dispersion tree under
both tie policies, and read off depth, breadth, IDI and NID.
"""

import numpy as np

from idtree import build_idg, build_idt, paper_metrics, tree_stats
from idtree.synth import toy_corpus

corpus = toy_corpus()
print("papers:", ", ".join(corpus.paper_ids))
print("citers of P:", ", ".join(corpus.citations_of("P")))

# The influence graph keeps P plus its citers, with edges reversed so they
# follow the direction influence travels (cited -> citing).
idg = build_idg(corpus, "P")
print("\ninfluence edges:")
edges = [(idg.root, v) for v in idg.citers]
edges += [(u, v) for v in idg.citers for u in sorted(idg.cited_within[v])]
for u, v in edges:
    print(f"  {u} -> {v}")

# Each citer gets exactly one parent: the root if it cites nothing else,
# otherwise the deepest of the citers it cites.  p4 cites both p1 and p2,
# which sit at the same depth, so a tie-break decides its parent.
tree = build_idt(idg)  # deterministic: smallest id wins the tie
print("\ntree (min-id ties):")
for v in sorted(tree.parent):
    print(f"  {tree.parent[v]} -> {v}   (level {tree.depth[v]})")

stats = tree_stats(tree)
print(f"depth={stats.depth}  breadth={stats.breadth}  level sizes={stats.level_sizes}")
for branch in stats.branches:
    kind = "unified" if branch.unified else f"fragmented at {', '.join(branch.fragment_points)}"
    print(f"  branch to {branch.leaf}: length {branch.length}, {kind}")

# The random policy mirrors a coin-flip tie resolution; with this seed the
# tie goes to p2, producing the layout where every branch stays unified.
rng = np.random.default_rng([1] + list(b"P"))
alt = build_idt(idg, tie="random", rng=rng)
print("\ntree (random ties, seeded):")
for v in sorted(alt.parent):
    print(f"  {alt.parent[v]} -> {v}")

# Full metric reports for both layouts.  IDI sums root-to-leaf lengths;
# NID rescales its gap above the ideal value n onto [0, 1].
for tie, seed in (("min-id", 0), ("random", 1)):
    report = paper_metrics(corpus, "P", tie=tie, seed=seed)
    print(f"\n{tie}: n={report.n} d={report.depth} b={report.breadth} "
          f"idi={report.idi} (bounds {report.idi_min}..{report.idi_max}) nid={report.nid}")
