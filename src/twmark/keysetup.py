"""One-time key establishment: trusted dealer and dealer-free DKG.

Dealer path: sample the key tau ~ N(0, I_d), publish a commitment,
Shamir-share the fixed-point encoding, then discard tau.

DKG path: each client samples an additive contribution w_k ~ N(0, I_d/K),
shares its encoding through its own degree-(t-1) polynomials and sends
evaluations to every other client; client i's share is the componentwise
field sum of what it received. The implicit key tau = sum_k w_k is never
materialized at any single party. Each client's K evaluations are one
exact Vandermonde product (sharing.shamir_share), and the K received
evaluations are summed as 32-bit halves in uint64 and reduced mod q once.
setup_dkg adds each client's evaluations as they are made and keeps none
of them; dkg_exchange also returns them all, the view the secrecy tests
reconstruct.

Both paths take (cfg, d, rng, codecs, keep_key) and draw everything from
rng, the setup id last. keep_key retains tau (for the DKG, the sum of the
contributions) as debug_key, for oracle checks in tests.

Overhead accounting for the DKG is dkg_cost_model's closed form: K(K-1)
point-to-point messages (self-delivery is local), each carrying d
8-byte words, with per-client compute modeled as K*t*d field
multiplications at FIELD_MUL_NS each and communication at BANDWIDTH_BPS.
"""

from dataclasses import dataclass

import numpy as np

from .binfile import Format
from .errors import ConfigurationError
from .field import _MASK32, FieldParams, FieldVector, ProtocolCodecs, _fold
from .sharing import Commitment, ShamirConfig, ShamirShare, commit, shamir_share

# the DKG cost model's link bandwidth and cost of one field multiplication
BANDWIDTH_BPS = 1e9
FIELD_MUL_NS = 10.0


@dataclass(frozen=True)
class OverheadRecord:
    """Network and compute accounting for a (simulated) DKG run."""

    n_clients: int
    threshold: int
    d: int
    messages: int             # point-to-point sends, self-delivery excluded
    payload_bytes: int        # messages * d * 8
    per_client_mults: int     # field multiplications per client
    compute_ns: float         # per-client compute time at FIELD_MUL_NS
    comm_ns: float            # per-client communication time at BANDWIDTH_BPS


@dataclass
class SetupResult:
    """Key material produced by either setup path."""

    cfg: ShamirConfig
    codecs: ProtocolCodecs
    shares: list                    # one ShamirShare per client
    setup_id: bytes = None          # 16 bytes, the setup RNG's last draw
    commitment: Commitment = None   # dealer path only
    overhead: OverheadRecord = None  # DKG path only
    debug_key: np.ndarray = None    # real tau, kept only under keep_key

    @property
    def d(self) -> int:
        return len(self.shares[0])


def setup_trusted_dealer(cfg: ShamirConfig, d: int, rng: np.random.Generator,
                         codecs: ProtocolCodecs = None,
                         keep_key: bool = False) -> SetupResult:
    """Alg.-style dealer setup: sample, commit (to enc(tau) and sqrt(d)), share, delete."""
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    if codecs is None:
        codecs = ProtocolCodecs(params=cfg.params)
    tau = rng.standard_normal(d)
    enc = codecs.share.encode(tau)
    c = commit(enc, codecs.f_share, nonce=rng.bytes(32))
    shares = shamir_share(enc, cfg, rng)
    return SetupResult(
        cfg=cfg,
        codecs=codecs,
        shares=shares,
        setup_id=rng.bytes(16),
        commitment=c,
        debug_key=tau if keep_key else None,
    )


def _dkg_outgoing(contributions_enc: list, cfg: ShamirConfig, rngs: list,
                  coeffs_per_client: list = None):
    """Each client's evaluations for every recipient (its outgoing traffic),
    produced one client at a time."""
    for k, contribution in enumerate(contributions_enc):
        coeffs = None if coeffs_per_client is None else coeffs_per_client[k]
        yield shamir_share(contribution, cfg, rngs[k], coeffs=coeffs)


def _dkg_shares(outgoing, cfg: ShamirConfig, d: int) -> list:
    """Recipient i's share: the field sum over senders of their evaluations
    at i. The 32-bit halves of K < 2^31 values below 2^61 sum without
    overflow, so each sender's rows can be released once they are added."""
    hi = np.zeros((cfg.n_clients, d), dtype=np.uint64)
    lo = np.zeros((cfg.n_clients, d), dtype=np.uint64)
    for sent in outgoing:
        evals = np.stack([s.values.values for s in sent])
        hi += evals >> np.uint64(32)
        lo += evals & _MASK32
    summed = _fold(hi, lo, cfg.params.modulus)
    return [ShamirShare(point=x, values=FieldVector(row, cfg.params))
            for x, row in zip(cfg.points, summed)]


def dkg_exchange(contributions_enc: list, cfg: ShamirConfig,
                 rngs: list, coeffs_per_client: list = None):
    """Core DKG exchange over already-encoded contributions.

    Each client k Shamir-shares contributions_enc[k] with its own random
    polynomials; client i sums the evaluations addressed to it. Returns
    (shares, per_client_evaluations) where per_client_evaluations[k] is
    the list of ShamirShare rows client k produced (its outgoing traffic),
    used by secrecy tests to reconstruct a coalition's full view.
    """
    if len(contributions_enc) != cfg.n_clients:
        raise ConfigurationError("need one contribution per client")
    outgoing = list(_dkg_outgoing(contributions_enc, cfg, rngs, coeffs_per_client))
    return _dkg_shares(outgoing, cfg, len(contributions_enc[0])), outgoing


def setup_dkg(cfg: ShamirConfig, d: int, rng: np.random.Generator,
              codecs: ProtocolCodecs = None, keep_key: bool = False) -> SetupResult:
    """Dealer-free setup; the key is implicitly sum_k w_k, w_k ~ N(0, I_d/K).
    Per-client RNG streams are spawned deterministically from rng; the
    overhead is dkg_cost_model(K, t, d)."""
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    if codecs is None:
        codecs = ProtocolCodecs(params=cfg.params)
    K = cfg.n_clients
    seeds = rng.integers(0, 2**63, size=K)
    rngs = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]
    contributions = [rngs[k].standard_normal(d) / np.sqrt(K) for k in range(K)]
    enc = [codecs.share.encode(w) for w in contributions]
    shares = _dkg_shares(_dkg_outgoing(enc, cfg, rngs), cfg, d)
    return SetupResult(
        cfg=cfg,
        codecs=codecs,
        shares=shares,
        setup_id=rng.bytes(16),
        overhead=dkg_cost_model(K, cfg.threshold, d),
        debug_key=sum(contributions) if keep_key else None,
    )


def dkg_cost_model(K: int, t: int, d: int) -> OverheadRecord:
    """Closed-form DKG cost: per-client O(Kd) communication, O(Ktd) compute.

    Communication time charges (K-1) outgoing vector shares of d 8-byte
    words each against BANDWIDTH_BPS; compute charges K*t*d field
    multiplications (one evaluation of each of d degree-(t-1) polynomials
    at K points) at FIELD_MUL_NS each.
    """
    if K < 1 or t < 1 or d < 1:
        raise ConfigurationError("K, t and d must be positive")
    messages = K * (K - 1)
    per_client_bits = (K - 1) * d * 8 * 8
    per_client_mults = K * t * d
    return OverheadRecord(
        n_clients=K,
        threshold=t,
        d=d,
        messages=messages,
        payload_bytes=messages * d * 8,
        per_client_mults=per_client_mults,
        compute_ns=per_client_mults * FIELD_MUL_NS,
        comm_ns=per_client_bits / BANDWIDTH_BPS * 1e9,
    )


# -- key-material files: header + share, binary --

# q, f_share, K, t, point, setup id, d; then the d share words
_SHARE_FILE = Format("TWSHARE2", "<QHIIQ16sQ", lambda hdr: hdr[-1])


def save_share(share: ShamirShare, setup: SetupResult, path):
    """Per-client key-material file; self-contained for verification."""
    _SHARE_FILE.write(path, (
        setup.codecs.params.modulus, setup.codecs.f_share, setup.cfg.n_clients,
        setup.cfg.threshold, share.point, setup.setup_id, len(share),
    ), share.values.words())


def load_share(path):
    """Returns (ShamirShare, header dict: modulus, f_share, n_clients, threshold
    and setup_id as hex); point and t must lie in [1, K], K below q, q prime."""
    (q, f_share, K, t, point, setup_id, _), words = _SHARE_FILE.read(path)
    if not (1 <= point <= K and 1 <= t <= K < q):
        raise ConfigurationError(f"{path}: need 1 <= point, t <= K < q, got point {point}, "
                                 f"t {t}, K {K}, q {q}")
    try:
        vec = FieldVector(np.frombuffer(words, dtype="<u8").astype(np.uint64), FieldParams(q))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return ShamirShare(point=point, values=vec), dict(
        modulus=q, f_share=f_share, n_clients=K, threshold=t, setup_id=setup_id.hex())


def load_shares(paths):
    """Returns (shares sorted by point, their common header, ShamirConfig) for
    the share files of one setup; no files, a header that differs from the
    first one or a point held twice raise ConfigurationError naming the files."""
    if not paths:
        raise ConfigurationError("no share files given")
    loaded = [(path, *load_share(path)) for path in paths]
    first, _, hdr0 = loaded[0]
    by_point = {}
    for path, share, hdr in loaded:
        key = next((key for key in hdr0 if hdr[key] != hdr0[key]), None)
        if key:
            raise ConfigurationError(f"{path}: share files disagree on {key}: "
                                     f"{hdr[key]!r} here, {hdr0[key]!r} in {first}")
        if share.point in by_point:
            raise ConfigurationError(f"{path}: point {share.point} is also the "
                                     f"point of {by_point[share.point]}")
        by_point[share.point] = path
    cfg = ShamirConfig(n_clients=hdr0["n_clients"], threshold=hdr0["threshold"],
                       params=FieldParams(hdr0["modulus"]))
    return sorted((share for _, share, _ in loaded), key=lambda s: s.point), hdr0, cfg
