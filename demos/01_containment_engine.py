"""
The containment engine: boxes, a BVH, and containment traversal
================================================================

Every data point gets an axis-aligned box; a BVH indexes the boxes; a
query is a bare point, and traversal reports every box containing it, as
a ray-tracing any-hit program does.  This script walks through that
contract and shows the pruning you get from the tree.
"""

import numpy as np

from bvhknn import build_point_bvh, containment_scan, traverse_points

# A box is closed: faces count as inside.  Take a one-point scene, the
# origin with a box of half width 1; containment_scan, the linear scan the
# traversal is checked against, lists the points whose box holds a query.
# The index stores a box as (lo, -hi), its upper faces negated, so that a
# walk tests a box with one comparison; negating them back gives hi.
origin = [(0.0, 0.0, 0.0)]
box = build_point_bvh(origin, half_width=1.0).boxes[0]
print("box around origin, half width 1:", tuple(box[:3].tolist()), "..", tuple((-box[3:]).tolist()))
print("contains (1,1,1)?", containment_scan(origin, 1.0, (1, 1, 1)) == [0])
print("contains (1.0000001,0,0)?", containment_scan(origin, 1.0, (1.0000001, 0, 0)) == [0])

# Index 20k random points, each with a box of half width 0.03.
rng = np.random.default_rng(0)
points = rng.random((20_000, 3))
bvh = build_point_bvh(points, half_width=0.03, leaf_size=4)
print(f"\nBVH over {bvh.num_primitives} boxes: {bvh.num_nodes} nodes, depth {bvh.max_depth()}")

# Traverse a batch of queries at once, one tree level a step.  The walk
# hands over runs of queries: for each run, the (query row, id) pairs of
# every box containing a query, and the node boxes each query tested.
queries = np.array([[0.5, 0.5, 0.5], [50.0, 50.0, 50.0]])
hits = {}
for first, end, rows, ids, tested in traverse_points(bvh, queries):
    for j in range(first, end):
        hits[j] = sorted(ids[rows == j].tolist())
        print(f"query {tuple(queries[j].tolist())}: {len(hits[j])} hits, e.g. {hits[j][:5]}; "
              f"node boxes tested: {tested[j - first]} of {bvh.num_nodes} "
              f"({100 * tested[j - first] / bvh.num_nodes:.1f}%)")

# The same answer by brute force over all boxes.  The query outside the
# scene fails the root box, so it tests just that one box.
print("linear scan agrees:", all(hits[j] == containment_scan(points, 0.03, q) for j, q in enumerate(queries)))
