"""The benchmark's tracer still sees every layer it measures.

perfbench/tracing.py wraps functions by the module attribute their callers
look them up by; a refactor that calls a layer another way hides it from
the benchmark without failing any other test.
"""

import importlib.util
import os
from types import SimpleNamespace

from twmark import experiments
from twmark.experiments import ExperimentConfig, run_watermarked

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# targets that no longer exist in the program, left for the next change to
# the benchmark to retarget
STALE_TARGETS = ["twmark.experiments.load_share", "twmark.experiments.local_train"]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_sees_training_and_fine_tuning():
    cfg = ExperimentConfig(n_clients=4, threshold=2, hidden=16, n_samples=400, n_test=200,
                           rounds=2, strength_c=20.0, ema_beta=0.5, attack_epochs=2)
    tracer = _tracer()
    assert sorted(set(tracer.missing) - set(STALE_TARGETS)) == []
    tracer.install("job")
    try:
        _, dataset, trajectory = run_watermarked(cfg, 0)
        experiments._attack_and_verify(
            cfg, lambda theta: SimpleNamespace(z=0.0, accepted=False), "finetune",
            {"data_fraction": 0.05}, trajectory, dataset, cfg.config_hash())
    finally:
        tracer.uninstall()
    counters = tracer.counters["job"]
    for name in ("flsim.local_train", "flsim.forward_backward", "attacks.finetune"):
        assert counters[f"{name}.calls"] > 0, name
