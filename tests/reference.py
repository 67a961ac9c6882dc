"""Reference implementations the tests check the package against.

No command, round or verification calls these, so the package keeps one
path per job: the protocol masks with ``SecAggSession.mask`` and sums with
``reveal``, ``setup_dkg`` forms the DKG's shares with one product, a round
forms the embedding term S * lambda_k * s_k in place, and no function in
``twmark`` reconstructs the key. Here each job is written out the direct
way, for tests to compare the shipped path with bit for bit:

- ``shamir_reconstruct``: the secret from >= t shares;
- ``derive_embedding_share``: one client's w_k = lambda_k * s_k;
- ``dkg_exchange``: the DKG message by message, with every client's
  outgoing evaluations, the view the secrecy tests reconstruct;
- ``secagg_sum``: mask, reduce and reveal one session in one process;
- ``_edge`` and ``neighbours``: one edge's stream row, and one client's
  neighbours in a session's mask graph;
- ``open_check``: whether an encoded key opens a dealer commitment;
- ``estimate_key_insider``: the attacker's key estimate less its own
  cumulative local updates.
"""

import functools
import hashlib

import numpy as np

from twmark.errors import (ConfigurationError, DegenerateModelError, ProtocolAbortError,
                           SkipRoundError, ThresholdError)
from twmark.field import FieldVector, _matmul_mod
from twmark.secagg import SecAggSession, _check_participants, _reach, mask_degree, reveal
from twmark.sharing import (Commitment, ShamirConfig, ShamirShare, _commitment_payload,
                            lagrange_at_zero, shamir_share)


def shamir_reconstruct(shares, cfg: ShamirConfig) -> FieldVector:
    """Recover the secret from >= t shares, exactly."""
    shares = list(shares)
    if len(shares) < cfg.threshold:
        raise ThresholdError(
            f"{len(shares)} shares given, threshold is {cfg.threshold}"
        )
    for s in shares:
        cfg.params._check(s.values.params)
    if len({len(s) for s in shares}) != 1:
        raise ConfigurationError("shares differ in length")
    pts = [s.point for s in shares]
    lam = lagrange_at_zero(pts, cfg.params)
    row = np.array([[lam[x] for x in pts]], dtype=np.uint64)
    stacked = np.stack([s.values.values for s in shares])
    return FieldVector(_matmul_mod(row, stacked, cfg.params)[0], cfg.params)


def derive_embedding_share(share: ShamirShare, participants, cfg: ShamirConfig) -> ShamirShare:
    """w_k = lambda_k * s_k at the share's point for the given participant
    set; the w_k over the set sum to the secret.

    Raises SkipRoundError when the participant set is below threshold,
    matching the protocol's skip-the-round behavior.
    """
    participants = tuple(sorted(participants))
    if len(participants) < cfg.threshold:
        raise SkipRoundError(
            f"participant set of size {len(participants)} is below t={cfg.threshold}"
        )
    if share.point not in participants:
        raise ConfigurationError(f"share point {share.point} not in participant set")
    lam = lagrange_at_zero(participants, cfg.params)[share.point]
    return ShamirShare(point=share.point, values=share.values.scalar_mul(lam))


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


def secagg_sum(inputs: dict, session: SecAggSession) -> FieldVector:
    """Field sum of the client inputs; the log sees only masked vectors.

    The output is computed by summing the masked submissions, so mask
    cancellation is structural rather than assumed.
    """
    _check_participants(inputs, session)
    for k in session.participants:
        vec = inputs[k]
        session.params._check(vec.params)
        if len(vec) != session.d:
            raise ProtocolAbortError(
                f"round {session.round_id}: client {k} submitted length {len(vec)}, "
                f"expected {session.d}"
            )
    rows = np.empty((len(inputs), session.d), dtype=np.uint64)
    for k, slot in zip(session.participants, session._slot):
        rows[slot] = inputs[k].values
    return reveal(session.mask(rows), session)


def _edge(a: int, b: int, n: int) -> tuple:
    """(row, sign) of the edge between slots a and b of a session of n: its
    row in the stream, and +1 if slot a adds the row's mask, -1 if it
    subtracts it."""
    reach, rows = _reach(n), n * mask_degree(n) // 2
    for sender, receiver, sign in ((a, b, 1), (b, a, -1)):
        j = (receiver - sender) % n
        row = (j - 1) * n + sender
        if 1 <= j <= reach and row < rows:
            return row, sign
    raise ConfigurationError(f"slots {a} and {b} of {n} share no mask edge")


def neighbours(session: SecAggSession, k: int) -> tuple:
    """The participants client k shares a pair mask with, ascending."""
    if k not in session.participants:
        raise ConfigurationError(f"{k} is not a participant")
    n = len(session.participants)
    dist = (session._slot - session._slot[session.participants.index(k)]) % n
    dist = np.minimum(dist, n - dist)
    joined = (dist > 0) & (dist <= _reach(n))
    return tuple(p for p, j in zip(session.participants, joined) if j)


def open_check(c: Commitment, secret_enc: FieldVector, f_share: int) -> bool:
    """True iff the recomputed digest matches; mismatch is not an error."""
    payload = _commitment_payload(c.nonce, secret_enc, f_share)
    return hashlib.sha256(payload).digest() == c.digest


def estimate_key_insider(trajectory, own_updates) -> np.ndarray:
    """Insider variant: subtract the attacker client's own cumulative local
    updates from the net displacement before normalizing."""
    if len(trajectory) < 2:
        raise ConfigurationError("need at least two checkpoints")
    delta = trajectory[-1].theta - trajectory[0].theta
    for upd in own_updates:
        delta = delta - upd
    norm = np.linalg.norm(delta)
    if norm == 0.0:
        raise DegenerateModelError("zero residual displacement in trajectory")
    return delta / norm
