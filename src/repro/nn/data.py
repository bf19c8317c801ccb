"""Dataset/DataLoader pipeline used by all training experiments."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np


class Dataset:
    """Abstract indexable dataset of ``(input, label)`` pairs."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, idx: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError


class TensorDataset(Dataset):
    """In-memory dataset over aligned arrays ``inputs (N, ...)`` / ``labels (N,)``."""

    def __init__(self, inputs: np.ndarray, labels: np.ndarray):
        inputs = np.asarray(inputs)
        labels = np.asarray(labels)
        if len(inputs) != len(labels):
            raise ValueError(f"inputs ({len(inputs)}) and labels ({len(labels)}) disagree")
        self.inputs = inputs
        self.labels = labels

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, idx: int) -> Tuple[np.ndarray, int]:
        return self.inputs[idx], int(self.labels[idx])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


class Subset(Dataset):
    """View of a dataset restricted to ``indices``."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]):
        self.dataset = dataset
        self.indices = list(indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, idx: int):
        return self.dataset[self.indices[idx]]


class DataLoader:
    """Mini-batch iterator with optional shuffling.

    Yields ``(batch_inputs, batch_labels)`` as plain ndarrays; training loops
    wrap inputs in :class:`repro.nn.Tensor` themselves so evaluation paths can
    stay graph-free.
    """

    def __init__(self, dataset: Dataset, batch_size: int = 32,
                 shuffle: bool = False, drop_last: bool = False,
                 rng: Optional[np.random.Generator] = None):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.rng = rng or np.random.default_rng(0)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                break
            # Fast path for TensorDataset: fancy-index the backing arrays.
            base = self.dataset
            if isinstance(base, TensorDataset):
                yield base.inputs[idx], base.labels[idx]
            elif isinstance(base, Subset) and isinstance(base.dataset, TensorDataset):
                real = np.asarray(base.indices)[idx]
                yield base.dataset.inputs[real], base.dataset.labels[real]
            else:
                items = [self.dataset[int(i)] for i in idx]
                xs = np.stack([x for x, _ in items])
                ys = np.array([y for _, y in items])
                yield xs, ys
