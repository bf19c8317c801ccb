"""The frozen-backbone memo: exact, scoped to one task, off when it must be.

Inside ``RepNetModel.backbone_memo`` a frozen, eval-mode backbone runs once
per example, and a batch of two or more known examples gathers its rows
from the memo.  That is exact only if a GEMM gives a row the same bits
whatever batch holds it, and if a gathered tap has the layout the backbone
produces, so the connectors' ``im2col`` builds its patch matrix with the
same strides (METHODOLOGY §15).  These tests compare bits, with no
tolerance: on a host whose GEMM is not batch-invariant they fail and say so.
A lone example is not batch-invariant on every host, so a batch of one
always runs the backbone.
"""

import contextlib

import numpy as np
import pytest

from repro.datasets import TaskSpec, generate_task
from repro.nn import functional as F
from repro.nn.data import DataLoader, TensorDataset
from repro.nn.tensor import Tensor, no_grad
from repro.obs import Tracer, use_tracer
from repro.repnet import ContinualLearner, TrainConfig, build_repnet_model
from repro.repnet.model import BackboneMemo, RepNetModel
from repro.repnet.multitask import SequentialLearner
from repro.sparsity import NMPattern

NOT_BATCH_INVARIANT = ("memoized and per-batch backbone outputs differ: this "
                       "host's GEMM is not batch-invariant, so the memo "
                       "cannot be exact here (METHODOLOGY §15)")


def frozen_model(dtype=np.float32):
    """The Table 1 model shape, backbone frozen and in eval mode.

    Pre-training leaves Table 1's backbone weights float64
    (``tests/test_dtype_flow.py``); a fresh one is float32.
    """
    model = build_repnet_model(repnet_width=16, seed=3)
    for p in model.backbone.parameters():
        p.data = p.data.astype(dtype)
    model.freeze_backbone()
    model.add_task("t", 4)
    model.set_active_task("t")
    return model


def images(n=45, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, 16, 16)).astype(np.float32)


def tiny_task(class_seed, per_class=8):
    spec = TaskSpec(f"t{class_seed}", num_classes=3, train_per_class=per_class,
                    test_per_class=4, image_size=8, class_seed=class_seed)
    return generate_task(spec, seed=class_seed)


def tiny_model():
    return build_repnet_model(widths=(8, 8, 16), strides=(1, 2, 1),
                              repnet_width=4, seed=0)


class TestExact:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch_size", [1, 2, 7, 32])
    def test_features_bit_equal_over_shuffled_batches(self, batch_size,
                                                      dtype):
        model = frozen_model(dtype)
        x = images()
        loader = DataLoader(TensorDataset(x, np.zeros(len(x), dtype=int)),
                            batch_size=batch_size, shuffle=True,
                            rng=np.random.default_rng(batch_size))
        batches = [xb for xb, _ in loader]
        assert len(batches[-1]) == (len(x) - 1) % batch_size + 1
        with no_grad():
            plain = [model.features(Tensor(xb)).data for xb in batches]
            with model.backbone_memo() as memo:
                # Fill the memo in another batching, then read it back in
                # this one: no batch of two or more below is recomputed.
                model.features(Tensor(x[::-1].copy()))
                memoized = [model.features(Tensor(xb)).data for xb in batches]
        assert memo.hits == sum(len(xb) for xb in batches if len(xb) > 1)
        assert memo.misses == len(x) + len(x) - memo.hits
        for want, got in zip(plain, memoized):
            assert want.dtype == got.dtype
            assert np.array_equal(want, got), NOT_BATCH_INVARIANT

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 32])
    def test_taps_and_patch_strides_match_the_backbone(self, batch_size):
        model = frozen_model()
        x = images(n=40)
        xb = x[np.random.default_rng(batch_size).permutation(len(x))[:batch_size]]
        with model.backbone_memo() as memo:
            memo.forward_with_taps(model.backbone, Tensor(x))
            pooled, taps = memo.forward_with_taps(model.backbone, Tensor(xb))
        want_pooled, want_taps = model.backbone.forward_with_taps(Tensor(xb))
        assert np.array_equal(pooled.data, want_pooled.data), NOT_BATCH_INVARIANT
        assert pooled.data.strides == want_pooled.data.strides
        for got, want in zip(taps, want_taps):
            assert np.array_equal(got.data, want.data), NOT_BATCH_INVARIANT
            assert got.data.strides == want.data.strides
            # The connectors are 1x1 convs: the patch matrix their GEMM
            # reads must have the per-batch path's strides.
            assert (F.im2col(got.data, 1, 1, 1, 0).strides
                    == F.im2col(want.data, 1, 1, 1, 0).strides)

    def test_lone_example_runs_the_backbone(self):
        model = frozen_model()
        x = images(n=4)
        with model.backbone_memo() as memo:
            model.features(Tensor(x[:1]))
            assert len(memo) == 0
            model.features(Tensor(x))
            model.features(Tensor(x[:1]))
        assert (memo.hits, memo.misses) == (0, 6)

    def test_batch_with_a_new_example_runs_whole(self):
        model = frozen_model()
        x = images(n=6)
        with no_grad(), model.backbone_memo() as memo:
            model.features(Tensor(x[:4]))
            got = model.features(Tensor(x[2:])).data
            assert len(memo) == 6
        assert (memo.hits, memo.misses) == (0, 8)
        assert np.array_equal(got, model.features(Tensor(x[2:])).data)


class TestOnlyWhileFrozen:
    def test_trainable_backbone_never_touches_the_memo(self):
        model = frozen_model()
        model.backbone.stem.weight.trainable = True
        with model.backbone_memo() as memo:
            model.features(Tensor(images(n=5)))
        assert (len(memo), memo.hits, memo.misses) == (0, 0, 0)

    def test_train_mode_backbone_never_touches_the_memo(self):
        model = frozen_model()
        x = Tensor(images(n=5))
        with model.backbone_memo() as memo:
            model.features(x)
            assert memo.misses == 5
            model.backbone.block0.bn1.train()
            model.features(x)
            model.backbone.train()
            model.features(x)
        assert memo.hits == 0 and memo.misses == 5

    def test_outside_the_context_the_memo_is_gone(self):
        model = frozen_model()
        with model.backbone_memo() as memo:
            model.features(Tensor(images(n=3)))
            assert len(memo) == 3
        assert len(memo) == 0
        model.features(Tensor(images(n=3)))
        assert len(memo) == 0 and memo.misses == 3


class TestOneTaskAtATime:
    def test_sequential_tasks_do_not_share_entries(self, monkeypatch):
        opened = []
        real_init = BackboneMemo.__init__

        def recording_init(memo):
            real_init(memo)
            opened.append(memo)

        monkeypatch.setattr(BackboneMemo, "__init__", recording_init)
        model = tiny_model()
        tasks = {"a": tiny_task(11), "b": tiny_task(22)}
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            SequentialLearner(model).learn_sequence(
                tasks, TrainConfig(epochs=2, batch_size=8))
        assert len(opened) == 2 and opened[0] is not opened[1]
        assert [len(memo) for memo in opened] == [0, 0]
        assert model._backbone_memo is None
        spans = [s for s in tracer.finished_spans()
                 if s.name == "repnet.learn_task"]
        assert [s.attrs["task"] for s in spans] == ["a", "b"]
        for span, (train, test) in zip(spans, tasks.values()):
            # Each example's backbone row is computed once in its task.
            assert span.counters["memo_misses"] == len(train) + len(test)
            assert span.counters["memo_hits"] == len(train)


class TestSameResults:
    @pytest.mark.parametrize("pattern,int8", [(None, False),
                                              (NMPattern(1, 4), True)])
    def test_learn_task_equal_with_and_without_memo(self, monkeypatch,
                                                    pattern, int8):
        def learn():
            # 33 training examples in batches of 8: each epoch ends with a
            # lone example, which then reappears among known ones.
            train, test = tiny_task(5, per_class=11)
            learner = ContinualLearner(tiny_model(), pattern=pattern,
                                       int8=int8)
            return learner.learn_task(
                "t", train, test, TrainConfig(epochs=2, batch_size=8,
                                              lr=3e-3))

        with_memo = learn()
        # The memo is opened but never installed, so features() runs the
        # backbone on every batch.
        monkeypatch.setattr(RepNetModel, "backbone_memo",
                            lambda self: contextlib.nullcontext(BackboneMemo()))
        without_memo = learn()
        assert with_memo == without_memo, NOT_BATCH_INVARIANT
