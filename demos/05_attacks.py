"""Attack the watermark, then re-verify after each attempt.

Uses a small watermarked run as the target so the script finishes in
about a minute. Pruning, quantization, fine-tuning, and distillation are
each applied at one representative setting; the Pareto frontier at the
end shows the attacker's best accuracy/z trade-offs.
"""

from twmark import attacks
from twmark.experiments import (
    ExperimentConfig,
    make_coalition_verifier,
    run_plain_fedavg,
    run_watermarked,
)
from twmark.flsim import evaluate
from twmark.rngutil import rng_from_key
from twmark.verify import calibrate, model_fingerprint

cfg = ExperimentConfig(n_clients=6, threshold=3, rounds=12, n_samples=1920,
                       strength_c=0.1, attack_epochs=40)
shape = cfg.shape()

models = [run_plain_fedavg(cfg, seed=100 + i, rounds=3)[1] for i in range(2)]
table = calibrate(models, 500, rng_from_key("demo-calibration"),
                  fingerprint=model_fingerprint(shape))

print("training the target model...")
setup, dataset, trajectory = run_watermarked(cfg, seed=0)
theta = trajectory[-1].theta
verifier = make_coalition_verifier(cfg, setup, table)


def report(label, th):
    rep = verifier(th)
    acc = evaluate(th, dataset.X_test, dataset.y_test, shape)
    print(f"{label:<28s} acc = {acc:.4f}  z = {rep.z:7.2f}  "
          f"{'accept' if rep.accepted else 'reject'}")
    return acc, rep.z


report("no attack", theta)
report("prune magnitude 0.5", attacks.attack_prune(theta, shape, 0.5, "magnitude"))
report("prune structured 0.5", attacks.attack_prune(theta, shape, 0.5, "structured"))
report("quantize static8", attacks.attack_quantize(theta, shape, "static8"))
report("quantize static4", attacks.attack_quantize(theta, shape, "static4"))

opt = cfg.optimizer()
points = []
for p in (0.05, 0.20):
    acfg = attacks.AttackConfig(data_fraction=p,
                                epochs=cfg.attack_epochs, optimizer=opt)
    cps = attacks.attack_finetune(theta, dataset, shape, acfg)
    points.append(report(f"finetune p={p}", cps[-1][1]))

key = attacks.estimate_key(trajectory)
acfg = attacks.AttackConfig(data_fraction=0.05,
                            epochs=cfg.attack_epochs, alpha=0.5, optimizer=opt)
cps = attacks.attack_adaptive_finetune(theta, dataset, shape, key, acfg)
points.append(report("adaptive finetune a=0.5", cps[-1][1]))

acfg = attacks.AttackConfig(data_fraction=0.20,
                            epochs=cfg.attack_epochs, optimizer=opt)
cps = attacks.attack_distill(theta, dataset, shape, acfg)
points.append(report(f"distill p=0.2 T={attacks.DISTILL_TEMPERATURE}", cps[-1][1]))

front = attacks.pareto_frontier(points)
print("\nattacker's Pareto frontier (accuracy up, z down):")
for acc, z in front:
    print(f"  acc = {acc:.4f}, z = {z:.2f}")
