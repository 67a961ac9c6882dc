"""Field arithmetic, fixed-point encoding and threshold secret sharing.

Walks through the primitives: exact arithmetic mod a prime, encoding real
vectors as field elements, splitting a secret into shares, and the
commitment that pins the key down at setup time.
"""

import numpy as np

from twmark.field import FieldParams, FieldVector, FixedPointCodec
from twmark.sharing import ShamirConfig, commit, lagrange_at_zero, shamir_share

rng = np.random.default_rng(0)
params = FieldParams()  # 2^61 - 1
print(f"modulus q = {params.modulus}")

# centered fixed-point: real -> field and back, 20 fractional bits
codec = FixedPointCodec(20, params)
x = np.array([0.5, -1.0, 0.333333, 2.25])
enc = codec.encode(x)
print("encode([0.5, -1, 1/3, 2.25]) =", [int(v) for v in enc.values])
print("roundtrip error:", np.abs(codec.decode_centered(enc) - x).max())

# share a 4-dim secret among K = 5 clients, any t = 3 reconstruct;
# client k holds the share at point k
cfg = ShamirConfig(n_clients=5, threshold=3, params=params)
shares = shamir_share(enc, cfg, rng)
print("evaluation points:", cfg.points)

# Lagrange weights at zero turn shares into summable terms
# w_k = lambda_k * s_k; over t or more points they sum to the secret. A
# round embeds through these terms and a coalition verifies through them,
# and no party forms the sum: only this demo does
participants = (1, 3, 4, 5)
lam = lagrange_at_zero(participants, params)
print("lagrange weights:", {k: hex(v)[:8] + "..." for k, v in lam.items()})


def combine(points):
    """sum of lambda_k * s_k over the shares at ``points``"""
    weights = lagrange_at_zero(points, params)
    acc = FieldVector.zeros(4, params)
    for k in points:
        acc = acc.add(shares[k - 1].values.scalar_mul(weights[k]))
    return acc


print("terms over {1,3,4,5} sum to the encoded secret:", combine(participants) == enc)
print("terms over {2,3,4} sum to the encoded secret:", combine((2, 3, 4)) == enc)
print("terms over {1,2}, below t, do not:", combine((1, 2)) != enc)

# commitment: binding digest of the encoded key plus its public norm sqrt(d);
# it opens when committing again under its nonce gives its digest
c = commit(enc, f_share=20)
print("commitment opens:", commit(enc, 20, nonce=c.nonce).digest == c.digest)
tampered = enc.add(FieldVector(np.ones(4, dtype=np.uint64), params))
print("tampered key opens:", commit(tampered, 20, nonce=c.nonce).digest == c.digest)
