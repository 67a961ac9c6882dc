"""Field arithmetic, fixed-point encoding and threshold secret sharing.

Walks through the primitives: exact arithmetic mod a prime, encoding real
vectors as field elements, splitting a secret into shares, and the
commitment that pins the key down at setup time.
"""

import numpy as np

from twmark.field import FieldParams, FieldVector, FixedPointCodec
from twmark.sharing import (
    ShamirConfig,
    commit,
    derive_embedding_share,
    lagrange_at_zero,
    open_check,
    shamir_reconstruct,
    shamir_share,
)

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
rec = shamir_reconstruct(shares[1:4], cfg)
print("reconstructed from shares {2,3,4}:", rec == enc)

# Lagrange weights at zero turn shares into summable embedding shares
# w_k = lambda_k * s_k, each again a share at its client's point
participants = (1, 3, 4, 5)
lam = lagrange_at_zero(participants, params)
print("lagrange weights:", {k: hex(v)[:8] + "..." for k, v in lam.items()})
embedding = [derive_embedding_share(s, participants, cfg)
             for s in shares if s.point in participants]
print("embedding share points:", [w.point for w in embedding])
acc = FieldVector.zeros(4, params)
for w in embedding:
    acc = acc.add(w.values)
print("sum of embedding shares == encoded secret:", acc == enc)

# commitment: binding digest of the encoded key plus its public norm sqrt(d)
c = commit(enc, f_share=20)
print("commitment opens:", open_check(c, enc, 20))
tampered = enc.add(FieldVector(np.ones(4, dtype=np.uint64), params))
print("tampered key opens:", open_check(c, tampered, 20))
