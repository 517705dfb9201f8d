"""
Transform-backed metrics: cosine, angular, 2D, and Hamming
==========================================================

No finite L2 radius can bound a cosine or angular neighborhood of raw
vectors, so these metrics are handled differently: map the points through
an order-preserving transformation, search with a native metric in the
mapped space, and convert the distances back.

* cosine/angular  ->  normalize to the unit sphere, search by chord (L2)
* 2D Euclidean    ->  lift (x, y) to (x, y, 0), search by L2
* Hamming (<=3)   ->  bit strings to unit-cube vertices, search by L1
"""

import math

import numpy as np

from bvhknn import (
    MetricSpec,
    ReductionConfig,
    batch_query,
    build_index,
    knn_search,
    transform_chain_for,
    transform_points,
)

rng = np.random.default_rng(2)

# --- cosine / angular --------------------------------------------------------
vectors = rng.normal(size=(30_000, 3))
query = rng.normal(size=(1, 3))

# chord radius 0.4 on the unit sphere covers angles up to 2*asin(0.2) ~ 23deg
res = knn_search(vectors, query, MetricSpec.angular(), r=0.4, k=5)[0]
print("nearest by angle (radians):")
for i, d in res.neighbors:
    print(f"  id {i:5d}  angle {d:.5f}  ({math.degrees(d):.2f} deg)")

res = knn_search(vectors, query, MetricSpec.cosine(), r=0.4, k=5)[0]
print("same neighbors by cosine similarity (descending):")
for i, d in res.neighbors:
    print(f"  id {i:5d}  similarity {d:.5f}")

# verify against raw dot products
unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
uq = (query / np.linalg.norm(query))[0]
best = np.argsort(-(unit @ uq), kind="stable")[:5]
print("dot-product oracle agrees:", res.ids() == list(best))

# --- 2D Euclidean ------------------------------------------------------------
pts2d = rng.random((10_000, 2))
q2d = [[0.5, 0.5]]
res = knn_search(pts2d, q2d, MetricSpec.euclid2d(), r=0.05, k=3)[0]
print("\n2D neighbors of (0.5, 0.5):", [(i, round(d, 5)) for i, d in res.neighbors])

# --- Hamming on bit strings --------------------------------------------------
print("\nbit strings map to cube vertices:", transform_points(transform_chain_for(MetricSpec.hamming3()), ["101"])[0].tolist())
codes = ["000", "001", "010", "011", "100", "101", "110", "111"]
res = knn_search(codes, ["011"], MetricSpec.hamming3(), r=3.0, k=4)[0]
print("nearest to 011 by bit flips:", [(codes[i], int(d)) for i, d in res.neighbors])

# --- composing transforms ----------------------------------------------------
# Manhattan distance on 2D points: lift to 3D first, then run the L1
# pipeline directly in the lifted space.
lift = transform_chain_for(MetricSpec.euclid2d())
data3 = transform_points(lift, pts2d)
q3 = transform_points(lift, q2d)
config = ReductionConfig(MetricSpec.lp(1), r=0.06, k=3)
bvh = build_index(data3, config)
res = batch_query(bvh, data3, q3, config)[0]
print("\nManhattan-on-2D via composition:", [(i, round(d, 5)) for i, d in res.neighbors])
manhattan = np.abs(pts2d - q2d[0]).sum(axis=1)
print("matches the direct scan:", res.ids() == list(np.argsort(manhattan, kind="stable")[:3]))
