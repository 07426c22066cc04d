import numpy as np
import pytest

from sgconv.tasks import DISTRACTORS, KINDS, MAJORITY_VOTES, TaskSpec, gen_batch, rederive_label


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="nope", seq_len=8)
        with pytest.raises(ValueError):
            TaskSpec(kind="first_token_recall", seq_len=1)
        with pytest.raises(ValueError):
            TaskSpec(kind="first_token_recall", seq_len=8, num_classes=1)

    def test_vocab_and_classes(self):
        spec = TaskSpec(kind="first_token_recall", seq_len=8, num_classes=4)
        assert spec.vocab_size == 4 + DISTRACTORS and spec.classes == 4
        maj = TaskSpec(kind="sparse_majority", seq_len=16)
        assert maj.vocab_size == 3 and maj.classes == 2
        add = TaskSpec(kind="adding_problem", seq_len=16)
        assert add.is_regression and add.classes == 1


class TestFirstTokenRecall:
    def test_label_is_first_token(self):
        spec = TaskSpec(kind="first_token_recall", seq_len=8, num_classes=4)
        inputs, labels = gen_batch(spec, 32, np.random.default_rng(0))
        np.testing.assert_array_equal(inputs[:, 0], labels)

    def test_distractors_disjoint_from_classes(self):
        spec = TaskSpec(kind="first_token_recall", seq_len=16, num_classes=4)
        inputs, _ = gen_batch(spec, 64, np.random.default_rng(1))
        rest = inputs[:, 1:]
        assert np.array_equal(np.unique(rest), np.arange(4, 4 + DISTRACTORS))

    def test_class_balance(self):
        spec = TaskSpec(kind="first_token_recall", seq_len=4, num_classes=8)
        n = 10**4
        _, labels = gen_batch(spec, n, np.random.default_rng(2))
        counts = np.bincount(labels, minlength=8)
        p = 1.0 / 8
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 5 * sigma)


class TestAddingProblem:
    def test_label_is_flagged_sum(self):
        spec = TaskSpec(kind="adding_problem", seq_len=32)
        inputs, labels = gen_batch(spec, 16, np.random.default_rng(3))
        assert inputs.shape == (16, 2, 32)
        for i in range(16):
            flagged = inputs[i, 0][inputs[i, 1] == 1.0]
            assert flagged.size == 2
            assert abs(flagged.sum() - labels[i]) < 1e-12

    def test_one_marker_per_half(self):
        spec = TaskSpec(kind="adding_problem", seq_len=32)
        inputs, _ = gen_batch(spec, 64, np.random.default_rng(4))
        markers = inputs[:, 1, :]
        assert np.all(markers[:, :16].sum(axis=1) == 1)
        assert np.all(markers[:, 16:].sum(axis=1) == 1)


class TestSparseMajority:
    def test_label_is_vote_sign(self):
        spec = TaskSpec(kind="sparse_majority", seq_len=64)
        inputs, labels = gen_batch(spec, 32, np.random.default_rng(5))
        for i in range(32):
            assert labels[i] == rederive_label(spec, inputs[i])

    def test_vote_count_is_odd_and_fixed(self):
        spec = TaskSpec(kind="sparse_majority", seq_len=64)
        inputs, _ = gen_batch(spec, 32, np.random.default_rng(6))
        assert MAJORITY_VOTES % 2 == 1
        assert np.all((inputs != 0).sum(axis=1) == MAJORITY_VOTES)


class TestGenerators:
    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic_given_seed(self, kind):
        spec = TaskSpec(kind=kind, seq_len=32, num_classes=4)
        a = gen_batch(spec, 16, np.random.default_rng(7))
        b = gen_batch(spec, 16, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("kind", KINDS)
    def test_labels_rederive_from_inputs(self, kind):
        spec = TaskSpec(kind=kind, seq_len=32, num_classes=4)
        inputs, labels = gen_batch(spec, 128, np.random.default_rng(8))
        for i in range(128):
            expect = rederive_label(spec, inputs[i])
            if spec.is_regression:
                assert abs(labels[i] - expect) < 1e-12
            else:
                assert labels[i] == expect

    def test_rejects_bad_batch(self):
        spec = TaskSpec(kind="first_token_recall", seq_len=8)
        with pytest.raises(ValueError):
            gen_batch(spec, 0, np.random.default_rng(0))

