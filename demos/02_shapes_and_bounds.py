"""Tree shapes and the analytical IDI bounds.

Star, chain, broom, and ideal layouts bracket the metric's behaviour:
stars and chains sit at the minimum (IDI = n), the broom attains the
maximum, and the ideal layout balances depth and breadth at ceil(sqrt(n)).
Exhaustive enumeration over all small tree shapes confirms the formulas.
"""

import numpy as np

from idtree import idi, idi_max, idi_min, nid, optimal_shape, tree_stats
from idtree.synth import (
    broom_tree,
    chain_tree,
    enumerate_trees,
    ideal_tree,
    parent_matrix_stats,
    random_parent_matrix,
    star_tree,
)

n = 9
print(f"shapes with n = {n} citers:")
for name, tree in [
    ("star ", star_tree(n)),
    ("chain", chain_tree(n)),
    ("broom", broom_tree(n)),
    ("ideal", ideal_tree(n)),
]:
    s = tree_stats(tree)
    print(f"  {name}: depth={s.depth:2d} breadth={s.breadth:2d} "
          f"idi={idi(tree):3d} nid={nid(tree):.3f}")
print(f"bounds for n={n}: {idi_min(n)} <= IDI <= {idi_max(n)}")
print(f"ideal depth/breadth: {optimal_shape(n)}")

# Every rooted tree shape with up to 8 citers, checked against the bounds.
print("\nexhaustive check over all tree shapes:")
for m in range(1, 9):
    values = [idi(t) for t in enumerate_trees(m)]
    print(f"  n={m}: {len(values):3d} shapes, "
          f"min idi={min(values):2d} (= n: {min(values) == m}), "
          f"max idi={max(values):2d} (= formula: {max(values) == idi_max(m)})")

# At larger sizes, sample random trees in bulk; none may leave the bounds.
rng = np.random.default_rng(0)
for m in (25, 100):
    stats = parent_matrix_stats(random_parent_matrix(m, 5000, rng))
    inside = ((m <= stats["idi"]) & (stats["idi"] <= idi_max(m))).all()
    print(f"\n5000 random trees with n={m}: all inside bounds: {inside}")
    print(f"  observed idi range {stats['idi'].min()}..{stats['idi'].max()} "
          f"(analytic {m}..{idi_max(m)})")
    print(f"  depth+breadth max {int((stats['depth'] + stats['breadth']).max())} <= {m + 1}")
