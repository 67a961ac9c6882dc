"""Key establishment: trusted dealer vs dealer-free DKG.

Both paths take the same arguments (config, d, rng, codecs, keep_key) and
end with every client holding one Shamir share of the encoded watermark
key at its point 1..K. The DKG never materializes the key anywhere; its
network cost follows the closed forms reported by the cost model.
"""

import functools

import numpy as np

from twmark.field import FieldParams, FieldVector
from twmark.keysetup import (BANDWIDTH_BPS, FIELD_MUL_NS, dkg_cost_model, setup_dkg,
                             setup_trusted_dealer)
from twmark.sharing import ShamirConfig, commit, lagrange_at_zero

params = FieldParams()
cfg = ShamirConfig(n_clients=8, threshold=4, params=params)
d = 64

# keep_key retains the key (for the DKG, the sum of the contributions)
# beside the same shares, so the demo can check them
dealer = setup_trusted_dealer(cfg, d, np.random.default_rng(0), keep_key=True)
dkg = setup_dkg(cfg, d, np.random.default_rng(1), keep_key=True)
print("share points:", [s.point for s in dealer.shares], [s.point for s in dkg.shares])


def combine(shares):
    """sum of lambda_k * s_k over ``shares``: the encoded key from t or
    more. Only this check forms it; no party in the protocol does"""
    lam = lagrange_at_zero([s.point for s in shares], params)
    return functools.reduce(FieldVector.add, (s.values.scalar_mul(lam[s.point]) for s in shares))


rec = combine(dealer.shares[:4])
print("dealer: shares reconstruct enc(key):",
      rec == dealer.codecs.share.encode(dealer.debug_key))
c = dealer.commitment
print("dealer: commitment opens:",
      commit(rec, dealer.codecs.f_share, nonce=c.nonce).digest == c.digest)

decoded = dkg.codecs.share.decode_centered(combine(dkg.shares))
err = np.abs(decoded - dkg.debug_key).max()
print(f"dkg: reconstruction matches sum of contributions (max err {err:.2e})")
ov = dkg.overhead
print(f"dkg overhead: {ov.messages} messages, {ov.payload_bytes} bytes "
      f"(= K(K-1) * d * 8 = {8 * 7 * d * 8})")

print(f"\ncost model at {BANDWIDTH_BPS:.0e} bit/s and {FIELD_MUL_NS} ns per field "
      "multiplication, t = K/2, d = 5514:")
print("    K    t  messages         bytes  compute (ms)  comm (ms)")
for K in (4, 8, 16, 32, 64, 128):
    rec = dkg_cost_model(K, K // 2, 5514)
    print(f"{rec.n_clients:5d} {rec.threshold:4d} {rec.messages:9d} {rec.payload_bytes:13d} "
          f"{rec.compute_ns / 1e6:13.3f} {rec.comm_ns / 1e6:10.3f}")
