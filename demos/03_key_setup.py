"""Key establishment: trusted dealer vs dealer-free DKG.

Both paths take the same arguments (config, d, rng, codecs, keep_key) and
end with every client holding one Shamir share of the encoded watermark
key at its point 1..K. The DKG never materializes the key anywhere; its
network cost follows the closed forms reported by the cost model.
"""

import numpy as np

from twmark.field import FieldParams
from twmark.keysetup import (BANDWIDTH_BPS, FIELD_MUL_NS, dkg_cost_model, setup_dkg,
                             setup_trusted_dealer)
from twmark.sharing import ShamirConfig, open_check, shamir_reconstruct

params = FieldParams()
cfg = ShamirConfig(n_clients=8, threshold=4, params=params)
d = 64

# keep_key retains the key (for the DKG, the sum of the contributions)
# beside the same shares, so the demo can check them
dealer = setup_trusted_dealer(cfg, d, np.random.default_rng(0), keep_key=True)
dkg = setup_dkg(cfg, d, np.random.default_rng(1), keep_key=True)
print("share points:", [s.point for s in dealer.shares], [s.point for s in dkg.shares])

rec = shamir_reconstruct(dealer.shares[:4], cfg)
print("dealer: shares reconstruct enc(key):",
      rec == dealer.codecs.share.encode(dealer.debug_key))
print("dealer: commitment opens:",
      open_check(dealer.commitment, rec, dealer.codecs.f_share))

decoded = dkg.codecs.share.decode_centered(shamir_reconstruct(dkg.shares, cfg))
err = np.abs(decoded - dkg.debug_key).max()
print(f"dkg: reconstruction matches sum of contributions (max err {err:.2e})")
ov = dkg.overhead
print(f"dkg overhead: {ov.messages} messages, {ov.payload_bytes} bytes "
      f"(= K(K-1) * d * 8 = {8 * 7 * d * 8})")

print(f"\ncost model at {BANDWIDTH_BPS:.0e} bit/s and {FIELD_MUL_NS} ns per field "
      "multiplication, t = K/2, d = 5514:")
print(ov.CSV_HEADER)
for K in (4, 8, 16, 32, 64, 128):
    print(dkg_cost_model(K, K // 2, 5514).csv_row())
