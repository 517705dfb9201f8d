"""
The containment engine: boxes, a BVH, and any-hit traversal
============================================================

Every data point gets an axis-aligned box; a BVH indexes the boxes; a
query is a bare point, and traversal reports every box containing it
through a callback.  This script walks through that contract and shows
the pruning you get from the tree.
"""

import numpy as np

from bvhknn import (
    Point3,
    PointQuery,
    Verdict,
    build_point_bvh,
    containment_scan,
    node_visits,
    traverse_point,
)

# A box is closed: faces count as inside.  Take a one-point scene, the
# origin with a box of half width 1; containment_scan, the linear scan the
# traversal is checked against, lists the points whose box holds a query.
origin = [(0.0, 0.0, 0.0)]
box = build_point_bvh(origin, half_width=1.0).boxes[0]
print("box around origin, half width 1:", tuple(box[:3].tolist()), "..", tuple(box[3:].tolist()))
print("contains (1,1,1)?", containment_scan(origin, 1.0, PointQuery(Point3(1, 1, 1))) == [0])
print("contains (1.0000001,0,0)?", containment_scan(origin, 1.0, PointQuery(Point3(1.0000001, 0, 0))) == [0])

# Index 20k random points, each with a box of half width 0.03.
rng = np.random.default_rng(0)
points = rng.random((20_000, 3))
bvh = build_point_bvh(points, half_width=0.03, leaf_size=4)
print(f"\nBVH over {bvh.num_primitives} boxes: {bvh.num_nodes} nodes, depth {bvh.max_depth()}")

# Traverse: the callback fires once per box containing the query point and
# receives the id of the point that box belongs to.
q = PointQuery(Point3(0.5, 0.5, 0.5))
hit_ids = []
hits = traverse_point(bvh, q, hit_ids.append)
print(f"query {q.origin.as_tuple()}: {hits} hits, e.g. {sorted(hit_ids)[:5]}")

# The same answer by brute force over all boxes.
inside = np.flatnonzero((np.abs(points - 0.5) <= 0.03).all(axis=1))
print("linear scan agrees:", sorted(hit_ids) == list(inside))

# The callback can stop the delivery of further hits; the node walk has
# already run in full, so this saves callbacks, not traversal work.
first = []


def stop_after_one(hit_id):
    first.append(hit_id)
    return Verdict.TERMINATE


delivered = traverse_point(bvh, q, stop_after_one)
print("early termination delivered", delivered, "hit")

# Pruning: the traversal tests far fewer node boxes than the tree holds.
visits = node_visits(bvh, q)
print(f"\nnode boxes tested: {visits} of {bvh.num_nodes} "
      f"({100 * visits / bvh.num_nodes:.1f}%)")
far = PointQuery(Point3(50, 50, 50))
print("query outside the scene tests just the root:", node_visits(bvh, far), "visit")
