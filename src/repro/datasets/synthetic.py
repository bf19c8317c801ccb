"""Synthetic image-classification distributions.

The paper evaluates continual learning on ImageNet-pretrained features
transferred to Flowers102/Pets/Food101/CIFAR10/CIFAR100.  Offline we cannot
ship those datasets, so we build a *procedural family* of image classes whose
statistics we can dial (class count, samples per class, intra-class variance)
— see DESIGN.md "Substitutions".

Every class is a textured prototype: a mixture of oriented sinusoidal
gratings and Gaussian blobs drawn from a class-specific seed.  Samples jitter
the prototype with per-instance phase shifts, brightness/contrast changes,
spatial translation and additive noise.  Because *all* tasks draw from the
same generative family, a backbone pre-trained on one split learns features
(orientation/frequency/blob detectors) that genuinely transfer to held-out
classes — reproducing the transfer-learning structure the paper relies on.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..nn.data import TensorDataset


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """Parameters of one synthetic classification task."""

    name: str
    num_classes: int
    train_per_class: int
    test_per_class: int
    image_size: int = 16
    channels: int = 3
    noise: float = 0.25          # additive pixel noise std (intra-class variance)
    jitter: int = 2              # max translation in pixels
    class_seed: int = 0          # offsets the class-prototype RNG stream

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("a classification task needs >= 2 classes")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("need at least one sample per class per split")


class ClassPrototype:
    """Deterministic textured prototype for one class."""

    def __init__(self, seed: int, image_size: int, channels: int):
        rng = np.random.default_rng(seed)
        self.image_size = image_size
        self.channels = channels
        self.n_gratings = int(rng.integers(2, 5))
        self.freqs = rng.uniform(0.5, 3.0, size=self.n_gratings)
        self.angles = rng.uniform(0, np.pi, size=self.n_gratings)
        self.phases = rng.uniform(0, 2 * np.pi, size=self.n_gratings)
        self.amps = rng.uniform(0.4, 1.0, size=self.n_gratings)
        self.channel_mix = rng.uniform(0.2, 1.0, size=(channels, self.n_gratings))
        self.n_blobs = int(rng.integers(1, 4))
        self.blob_pos = rng.uniform(0.2, 0.8, size=(self.n_blobs, 2))
        self.blob_sigma = rng.uniform(0.08, 0.25, size=self.n_blobs)
        self.blob_amp = rng.uniform(-1.0, 1.0, size=self.n_blobs)

    def render(self, rng: np.random.Generator, noise: float, jitter: int
               ) -> np.ndarray:
        """Render one sample ``(C, H, W)`` with per-instance perturbations."""
        s = self.image_size
        yy, xx = np.meshgrid(np.linspace(0, 1, s), np.linspace(0, 1, s),
                             indexing="ij")
        if jitter:
            dy = rng.integers(-jitter, jitter + 1) / s
            dx = rng.integers(-jitter, jitter + 1) / s
        else:
            dy = dx = 0.0
        img = np.zeros((self.channels, s, s))
        phase_jit = rng.normal(0, 0.3, size=self.n_gratings)
        for g in range(self.n_gratings):
            u = ((xx + dx) * np.cos(self.angles[g])
                 + (yy + dy) * np.sin(self.angles[g]))
            wave = self.amps[g] * np.sin(
                2 * np.pi * self.freqs[g] * u * 4 + self.phases[g] + phase_jit[g])
            for ch in range(self.channels):
                img[ch] += self.channel_mix[ch, g] * wave
        for b in range(self.n_blobs):
            by, bx = self.blob_pos[b]
            blob = self.blob_amp[b] * np.exp(
                -(((yy + dy) - by) ** 2 + ((xx + dx) - bx) ** 2)
                / (2 * self.blob_sigma[b] ** 2))
            img += blob[None, :, :]
        brightness = rng.normal(0, 0.15)
        contrast = rng.uniform(0.85, 1.15)
        img = img * contrast + brightness
        img += rng.normal(0, noise, size=img.shape)
        return img.astype(np.float32)


def generate_task(spec: TaskSpec, seed: int = 0
                  ) -> Tuple[TensorDataset, TensorDataset]:
    """Generate ``(train, test)`` datasets for a task spec.

    The class prototypes are derived from ``spec.class_seed`` (so distinct
    tasks have disjoint class sets), while sampling noise is driven by
    ``seed`` (so repeated generation with a different seed gives fresh draws
    from the same classes).
    """
    rng = np.random.default_rng(seed)
    protos = [ClassPrototype(spec.class_seed * 1000 + c, spec.image_size,
                             spec.channels)
              for c in range(spec.num_classes)]

    def _split(per_class: int) -> TensorDataset:
        xs, ys = [], []
        for c, proto in enumerate(protos):
            for _ in range(per_class):
                xs.append(proto.render(rng, spec.noise, spec.jitter))
                ys.append(c)
        x = np.stack(xs)
        y = np.array(ys, dtype=np.int64)
        order = rng.permutation(len(y))
        # Normalize per-dataset to zero mean / unit std, like the paper's
        # standard input normalization.
        x = (x - x.mean()) / (x.std() + 1e-8)
        return TensorDataset(x[order], y[order])

    return _split(spec.train_per_class), _split(spec.test_per_class)


def base_pretraining_spec(num_classes: int = 16, train_per_class: int = 60,
                          test_per_class: int = 20, image_size: int = 16
                          ) -> TaskSpec:
    """The "ImageNet-analogue" distribution used to pre-train the backbone."""
    return TaskSpec(
        name="base@synthetic",
        num_classes=num_classes,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        image_size=image_size,
        noise=0.25,
        jitter=2,
        class_seed=7,
    )
