"""(t, K)-threshold model watermarking for federated learning, desk scale.

Shamir-shared watermark keys, embedding under simulated secure
aggregation, reconstruction-free coalition verification via a calibrated
one-sided z-test, and a post-training attack suite.
"""

from .field import (
    FieldParams,
    FieldVector,
    FixedPointCodec,
    ProtocolCodecs,
    check_aggregate_bound,
)
from .keysetup import (
    SetupResult,
    dkg_cost_model,
    setup_dkg,
    setup_trusted_dealer,
)
from .protocol import (
    GlobalModel,
    ProtocolParams,
    RoundPlan,
    run_baseline,
    run_protocol,
)
from .sharing import (
    Commitment,
    ShamirConfig,
    ShamirShare,
    commit,
    lagrange_at_zero,
    shamir_share,
)
from .verify import (
    CalibrationTable,
    Coalition,
    VerificationReport,
    calibrate,
    coalition_statistic,
    partial_inner,
    verify_direct,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationTable",
    "Coalition",
    "Commitment",
    "FieldParams",
    "FieldVector",
    "FixedPointCodec",
    "GlobalModel",
    "ProtocolCodecs",
    "ProtocolParams",
    "RoundPlan",
    "SetupResult",
    "ShamirConfig",
    "ShamirShare",
    "VerificationReport",
    "calibrate",
    "check_aggregate_bound",
    "coalition_statistic",
    "commit",
    "dkg_cost_model",
    "lagrange_at_zero",
    "partial_inner",
    "run_baseline",
    "run_protocol",
    "setup_dkg",
    "setup_trusted_dealer",
    "shamir_share",
    "verify_direct",
]
