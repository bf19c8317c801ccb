"""Unit tests for the data pipeline."""

import numpy as np
import pytest

from repro.nn.data import DataLoader, Subset, TensorDataset


@pytest.fixture
def dataset():
    rng = np.random.default_rng(0)
    return TensorDataset(rng.standard_normal((50, 3)),
                         rng.integers(0, 4, 50))


class TestTensorDataset:
    def test_len_and_getitem(self, dataset):
        assert len(dataset) == 50
        x, y = dataset[5]
        assert x.shape == (3,)
        assert isinstance(y, int)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros((3, 2)), np.zeros(4))

    def test_num_classes(self, dataset):
        assert dataset.num_classes == int(dataset.labels.max()) + 1


class TestSubset:
    def test_indexing(self, dataset):
        sub = Subset(dataset, [3, 7, 9])
        assert len(sub) == 3
        x, y = sub[1]
        np.testing.assert_array_equal(x, dataset.inputs[7])


class TestDataLoader:
    def test_batch_shapes(self, dataset):
        loader = DataLoader(dataset, batch_size=16)
        batches = list(loader)
        assert len(batches) == 4  # 16+16+16+2
        assert batches[0][0].shape == (16, 3)
        assert batches[-1][0].shape == (2, 3)

    def test_drop_last(self, dataset):
        loader = DataLoader(dataset, batch_size=16, drop_last=True)
        assert len(list(loader)) == 3 == len(loader)

    def test_shuffle_changes_order_not_content(self, dataset):
        loader = DataLoader(dataset, batch_size=50, shuffle=True,
                            rng=np.random.default_rng(2))
        x, y = next(iter(loader))
        assert not np.array_equal(x, dataset.inputs)
        assert sorted(y.tolist()) == sorted(dataset.labels.tolist())

    def test_labels_stay_aligned(self, dataset):
        """Shuffling must keep (x, y) pairs together."""
        pairs = {tuple(x.round(6)): y for x, y in
                 zip(dataset.inputs, dataset.labels)}
        loader = DataLoader(dataset, batch_size=7, shuffle=True,
                            rng=np.random.default_rng(3))
        for xb, yb in loader:
            for x, y in zip(xb, yb):
                assert pairs[tuple(x.round(6))] == y

    def test_subset_fast_path(self, dataset):
        sub = Subset(dataset, list(range(10)))
        loader = DataLoader(sub, batch_size=4)
        total = sum(len(y) for _, y in loader)
        assert total == 10

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)

    @pytest.mark.parametrize("batch_size", [1, 7, 50, 64])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_epoch_visits_each_sample_once(self, dataset, batch_size, shuffle):
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=shuffle,
                            rng=np.random.default_rng(4))
        batches = list(loader)
        assert len(batches) == len(loader)
        assert all(len(y) <= batch_size for _, y in batches)
        seen = np.concatenate([x for x, _ in batches])
        order = np.lexsort(seen.T)
        np.testing.assert_array_equal(seen[order],
                                      dataset.inputs[np.lexsort(dataset.inputs.T)])

    @pytest.mark.parametrize("batch_size", [7, 64])
    def test_drop_last_yields_only_full_batches(self, dataset, batch_size):
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=True,
                            drop_last=True, rng=np.random.default_rng(5))
        batches = list(loader)
        assert len(batches) == len(loader) == len(dataset) // batch_size
        assert all(len(y) == batch_size for _, y in batches)

    def test_generic_dataset_path(self):
        class Custom(TensorDataset.__mro__[1]):  # plain Dataset
            def __len__(self):
                return 5
            def __getitem__(self, idx):
                return np.full(2, idx, dtype=float), idx
        loader = DataLoader(Custom(), batch_size=2)
        batches = list(loader)
        assert batches[0][0].shape == (2, 2)
        np.testing.assert_array_equal(batches[0][1], [0, 1])
