"""One-time key establishment: trusted dealer and dealer-free DKG.

Dealer path: sample the key tau ~ N(0, I_d), publish a commitment,
Shamir-share the fixed-point encoding, then discard tau.

DKG path: each client samples an additive contribution w_k ~ N(0, I_d/K),
shares its encoding through its own degree-(t-1) polynomials and sends
evaluations to every other client; client i's share is the componentwise
field sum of what it received. The implicit key tau = sum_k w_k is never
materialized at any single party. dkg_exchange runs that exchange message
by message and returns every client's outgoing evaluations, the view the
secrecy tests reconstruct. Sharing is linear, so the K evaluations client
i receives sum to the value at i of one polynomial whose coefficients are
the clients' coefficients summed: setup_dkg draws what each client draws,
adds enc(w_k) and the coefficients into one (t x d) sum as 32-bit halves
in uint64, reduces it mod q once and makes one Vandermonde product
(sharing.shamir_share). Row 0 of that sum is enc(tau); it is a local of
setup_dkg, a simulator that already holds every w_k, and no return value,
file or log carries it.

Both paths take (cfg, d, rng, codecs, keep_key) and draw everything from
rng, the setup id last. keep_key retains tau (for the DKG, the sum of the
contributions) as debug_key, for oracle checks in tests.

Overhead accounting for the DKG is dkg_cost_model's closed form: K(K-1)
point-to-point messages (self-delivery is local), each carrying d
8-byte words, with per-client compute modeled as K*t*d field
multiplications at FIELD_MUL_NS each and communication at BANDWIDTH_BPS.
"""

import functools
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
    outgoing = [shamir_share(enc, cfg, rngs[k],
                             coeffs=None if coeffs_per_client is None else coeffs_per_client[k])
                for k, enc in enumerate(contributions_enc)]
    shares = [ShamirShare(point=x, values=functools.reduce(
                  FieldVector.add, (sent[i].values for sent in outgoing)))
              for i, x in enumerate(cfg.points)]
    return shares, outgoing


def setup_dkg(cfg: ShamirConfig, d: int, rng: np.random.Generator,
              codecs: ProtocolCodecs = None, keep_key: bool = False) -> SetupResult:
    """Dealer-free setup; the key is implicitly sum_k w_k, w_k ~ N(0, I_d/K).
    Per-client RNG streams are spawned deterministically from rng, and the
    shares equal dkg_exchange's over the same streams; the overhead is
    dkg_cost_model(K, t, d)."""
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    if codecs is None:
        codecs = ProtocolCodecs(params=cfg.params)
    K, t = cfg.n_clients, cfg.threshold
    seeds = rng.integers(0, 2**63, size=K)
    # the 32-bit halves of K < 2^31 words sum without overflow in uint64
    hi = np.zeros((t, d), dtype=np.uint64)
    lo = np.zeros((t, d), dtype=np.uint64)
    key = 0
    for seed in seeds:
        rng_k = np.random.Generator(np.random.PCG64(int(seed)))
        w = rng_k.standard_normal(d) / np.sqrt(K)
        poly = np.vstack([codecs.share.encode(w).values, cfg.params.uniform(rng_k, (t - 1, d))])
        hi += poly >> np.uint64(32)
        lo += poly & _MASK32
        if keep_key:
            key = key + w
    summed = _fold(hi, lo, cfg.params.modulus)
    shares = shamir_share(FieldVector(summed[0], cfg.params), cfg, None, coeffs=summed[1:])
    return SetupResult(
        cfg=cfg,
        codecs=codecs,
        shares=shares,
        setup_id=rng.bytes(16),
        overhead=dkg_cost_model(K, t, d),
        debug_key=key if keep_key else None,
    )


def dkg_cost_model(K: int, t: int, d: int) -> OverheadRecord:
    """Closed-form cost of the real DKG protocol: per-client O(Kd)
    communication, O(Ktd) compute.

    It charges what the message-level protocol (dkg_exchange) costs, not
    what setup_dkg computes: communication time charges (K-1) outgoing
    vector shares of d 8-byte words each against BANDWIDTH_BPS; compute
    charges K*t*d field multiplications (one evaluation of each of d
    degree-(t-1) polynomials at K points) at FIELD_MUL_NS each.
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
