"""Multi-task switching: adaptors as swappable SRAM contents.

The hybrid architecture's continual-learning end-game (paper Sec. 4): each
downstream task owns a tiny sparse adaptor in SRAM; the MRAM backbone is
shared and never rewritten.  Switching tasks is an SRAM rewrite of a few
kilobytes — this example measures that, and demonstrates the architecture's
*zero catastrophic forgetting*: after learning task B, task A's accuracy is
bit-identical once its adaptor is reloaded.

Run: ``python examples/task_switching.py``  (~2 minutes)
"""

from repro.datasets import base_pretraining_spec, generate_task, load_downstream_task
from repro.energy import CostModel
from repro.repnet import (SequentialLearner, TrainConfig, build_repnet_model,
                          pretrain_backbone, sparsify_backbone)
from repro.sparsity import NMPattern

SEED = 0
pattern = NMPattern(1, 4)

# Pre-train + sparsify + freeze the shared backbone.
spec = base_pretraining_spec(num_classes=8, train_per_class=30,
                             test_per_class=12)
base_train, base_test = generate_task(spec, seed=SEED)
model = build_repnet_model(repnet_width=16, seed=SEED)
print("pre-training the shared backbone ...")
_, base_acc = pretrain_backbone(model.backbone, base_train, base_test,
                                spec.num_classes,
                                TrainConfig(epochs=8, batch_size=32, lr=2e-3))
sparsify_backbone(model.backbone, pattern)
print(f"  backbone@base {base_acc:.1%}, pruned to {pattern}, frozen\n")

# Learn two tasks in sequence; each adaptor is snapshotted into the library.
learner = SequentialLearner(model, pattern=pattern)
tasks = {
    "pets": load_downstream_task("pets", seed=SEED + 1, scale=0.7),
    "cifar10": load_downstream_task("cifar10", seed=SEED + 2, scale=0.7),
}
cfg = TrainConfig(epochs=15, batch_size=32, lr=6e-3, seed=SEED)
print("learning tasks sequentially ...")
accs = learner.learn_sequence(tasks, cfg)
for task, acc in accs.items():
    print(f"  {task}: {acc:.1%} right after learning")

# The forgetting test: re-activate each adaptor and re-evaluate.
print("\nre-activating adaptors after the full sequence:")
final = learner.accuracy_matrix()
for task, acc in final.items():
    drop = accs[task] - acc
    print(f"  {task}: {acc:.1%}  (forgetting: {drop:+.2%})")
assert all(abs(accs[t] - final[t]) < 1e-9 for t in accs), \
    "zero forgetting is architectural — adaptors are per-task"

# What does a task switch cost the hardware?
lib = learner.library
cost = CostModel()
bits = lib.switch_cost_bits("pets", pattern)
print(f"\ntask switch = SRAM rewrite of {bits / 8 / 1024:.1f} KB "
      f"({bits} bits)")
print(f"  energy: {cost.write_energy_pj(bits, 'sram') / 1e3:.2f} nJ, "
      f"latency: {cost.cycles_to_s(cost.write_latency_cycles(bits, 'sram', 8)) * 1e6:.1f} us")
print(f"  the same rewrite in MRAM would cost "
      f"{cost.write_energy_pj(bits, 'mram') / 1e3:.2f} nJ and wear the array")
