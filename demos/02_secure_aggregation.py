"""Simulated secure aggregation with pairwise masks on a sparse graph.

The server's view is only the masked submissions. Each client masks only
its edges of a Harary graph H(k, n), k = 2 * ceil(log2 n): here 16 clients
with 8 neighbours each. Masks cancel pairwise, so the logged sum still
equals the exact field sum of the raw inputs.
"""

import numpy as np

from twmark.field import FieldParams, FieldVector
from twmark.secagg import SecAggSession, mask_degree, secagg_sum

rng = np.random.default_rng(1)
params = FieldParams()
d, participants = 6, tuple(range(1, 17))
n, k = len(participants), mask_degree(len(participants))
print(f"mask graph H({k}, {n}): {n * k // 2} edges instead of {n * (n - 1) // 2} pairs")

session = SecAggSession(round_id=1, participants=participants, d=d,
                        params=params, session_seed=42)
inputs = {c: FieldVector(params.uniform(rng, d), params) for c in participants}

out = secagg_sum(inputs, session)

plain = FieldVector.zeros(d, params)
for v in inputs.values():
    plain = plain.add(v)
print("masked-sum output == plain field sum:", out == plain)

for c, masked in session.observations:
    hidden = not np.array_equal(masked, inputs[c].values)
    print(f"client {c}: {len(session.neighbours(c))} neighbours, server sees a "
          f"masked vector (raw hidden: {hidden})")

# the net masks cancel structurally
total = FieldVector.zeros(d, params)
for c in participants:
    total = total.add(session.client_mask(c))
print("net masks sum to zero:", total == FieldVector.zeros(d, params))
