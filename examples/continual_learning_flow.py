"""End-to-end on-device continual learning, the paper's algorithm flow.

1. Pre-train a compact ResNet backbone on the synthetic base distribution
   (the ImageNet stand-in).
2. Freeze it; magnitude-prune it to 1:4 (destined for MRAM PEs).
3. Attach the Rep-Net path + a new task head, run the paper's recipe on a
   downstream task: one-epoch gradient saliency -> fix the N:M mask ->
   masked fine-tuning -> INT8 PTQ of the learned weights.
4. Report accuracies, achieved per-layer sparsity, and the learnable
   fraction (the paper's ~5% claim).

Run: ``python examples/continual_learning_flow.py``  (~2 minutes)
"""

from repro.datasets import base_pretraining_spec, generate_task, load_downstream_task
from repro.repnet import (ContinualLearner, TrainConfig, build_repnet_model,
                          pretrain_backbone, sparsify_backbone)
from repro.sparsity import NMPattern

SEED = 0
pattern = NMPattern(1, 4)

# ---------------------------------------------------------- 1. pre-training
spec = base_pretraining_spec(num_classes=8, train_per_class=30,
                             test_per_class=12)
base_train, base_test = generate_task(spec, seed=SEED)
model = build_repnet_model(repnet_width=16, seed=SEED)

print("pre-training the backbone on the base distribution ...")
cfg = TrainConfig(epochs=8, batch_size=32, lr=2e-3, seed=SEED)
_, base_acc = pretrain_backbone(model.backbone, base_train, base_test,
                                spec.num_classes, cfg)
print(f"  backbone@base accuracy: {base_acc:.1%}")

# ----------------------------------------------- 2. sparsify + freeze (MRAM)
sparsify_backbone(model.backbone, pattern)
print(f"backbone magnitude-pruned to {pattern} "
      f"({pattern.sparsity:.0%} zeros) and frozen")

# --------------------------------------------------- 3. learn a new task
train_set, test_set = load_downstream_task("pets", seed=SEED + 1)
learner = ContinualLearner(model, pattern=pattern, int8=True)
print(f"learning task 'pets' ({train_set.num_classes} classes, "
      f"{len(train_set)} samples) with sparse INT8 Rep-Net ...")
result = learner.learn_task(
    "pets", train_set, test_set,
    TrainConfig(epochs=20, batch_size=32, lr=6e-3, seed=SEED))

# ------------------------------------------------------------- 4. report
print(f"\nnew-task accuracy: {result.accuracy:.1%}")
print(f"learnable fraction of the model: {result.learnable_fraction:.1%} "
      "(paper reports ~5%)")
print("achieved sparsity on the learnable path:")
for name, ratio in sorted(result.sparsity.items()):
    print(f"  {name:32s} {ratio:.0%}")
print(f"\ntraining loss: {result.losses[0]:.3f} -> {result.losses[-1]:.3f} "
      f"over {len(result.losses)} masked epochs")
