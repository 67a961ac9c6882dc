"""Key establishment: trusted dealer vs dealer-free DKG.

Both paths end with every client holding one Shamir share of the encoded
watermark key. The DKG never materializes the key anywhere; its network
cost follows the closed forms reported by the cost model.
"""

import numpy as np

from twmark.field import FieldParams
from twmark.keysetup import dkg_cost_model, setup_dkg, setup_trusted_dealer
from twmark.sharing import ShamirConfig, open_check, shamir_reconstruct

params = FieldParams()
cfg = ShamirConfig(n_clients=8, threshold=4, params=params)
d = 64

dealer = setup_trusted_dealer(cfg, d, np.random.default_rng(0), keep_key=True)
rec = shamir_reconstruct(dealer.shares[:4], cfg)
print("dealer: shares reconstruct enc(key):",
      rec == dealer.codecs.share.encode(dealer.debug_key))
print("dealer: commitment opens:",
      open_check(dealer.commitment, rec, dealer.codecs.f_share))

dkg = setup_dkg(cfg, d, master_rng=np.random.default_rng(1),
                keep_contributions=True)
decoded = dkg.codecs.share.decode_centered(shamir_reconstruct(dkg.shares, cfg))
err = np.abs(decoded - dkg.debug_key).max()
print(f"dkg: reconstruction matches sum of contributions (max err {err:.2e})")
ov = dkg.overhead
print(f"dkg overhead: {ov.messages} messages, {ov.payload_bytes} bytes "
      f"(= K(K-1) * d * 8 = {8 * 7 * d * 8})")

print("\ncost model, t = K/2, d = 5514:")
print(ov.CSV_HEADER)
for K in (4, 8, 16, 32, 64, 128):
    print(dkg_cost_model(K, K // 2, 5514).csv_row())
