import math

import numpy as np
import pytest

from aukit.domain import ContractError, KnowledgeMatrix, NumericFailure
from aukit.labeling import PosWeightSpec
from aukit.losses import (
    au_loss,
    combined_loss,
    expression_loss,
    finite_difference_check,
    log_sigmoid,
)


def uniform_knowledge(value=1.0):
    return KnowledgeMatrix(values=np.full((18, 7), value), stage="loss-scaled")


def ones_pw():
    return PosWeightSpec(strategy="none", values=np.ones((7, 18)))


class TestExpressionLoss:
    def test_factor_five_neutralizes_p_02(self):
        # p_target = 0.2 exactly: logits log(0.2) for target, log(0.2) for all
        logits = np.log(np.array([[0.2, 0.2, 0.2, 0.2, 0.1, 0.05, 0.05]]))
        loss, _ = expression_loss(logits, np.array([0]), factor=5.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_factor_shift_is_log5(self, rng):
        logits = rng.normal(size=(6, 7))
        labels = rng.integers(0, 7, size=6)
        loss5, grad5 = expression_loss(logits, labels, factor=5.0)
        loss1, grad1 = expression_loss(logits, labels, factor=1.0)
        assert loss5 - loss1 == pytest.approx(-math.log(5.0), abs=1e-12)
        assert np.max(np.abs(grad5 - grad1)) <= 1e-12

    def test_uniform_logits_log7(self):
        logits = np.zeros((3, 7))
        loss, _ = expression_loss(logits, np.array([0, 3, 6]), factor=1.0)
        assert loss == pytest.approx(math.log(7.0), abs=1e-12)

    def test_factor1_nonnegative_factor5_bounded(self, rng):
        for _ in range(20):
            logits = rng.normal(0, 3, size=(4, 7))
            labels = rng.integers(0, 7, size=4)
            loss1, _ = expression_loss(logits, labels, factor=1.0)
            loss5, _ = expression_loss(logits, labels, factor=5.0)
            assert loss1 >= 0.0
            assert loss5 >= -math.log(5.0) - 1e-12

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            expression_loss(np.zeros((1, 7)), np.array([7]))

    @pytest.mark.parametrize("factor", [0.0, math.nan, math.inf])
    def test_factor_must_be_finite_and_positive(self, factor):
        # a nan factor once gave a nan loss
        with pytest.raises(ContractError,
                           match=f"^factor must be finite and > 0, got {factor}$"):
            expression_loss(np.zeros((1, 7)), np.array([0]), factor=factor)

    def test_gradient_matches_finite_differences(self, rng):
        labels = rng.integers(0, 7, size=8)

        def evaluator(x):
            return expression_loss(x, labels)

        report = finite_difference_check(evaluator, rng.normal(size=(8, 7)))
        assert report.max_relative_error < 1e-5

    def test_gradient_vanishes_at_saturation(self):
        logits = np.full((1, 7), -30.0)
        logits[0, 2] = 30.0
        _, grad = expression_loss(logits, np.array([2]))
        assert np.max(np.abs(grad)) < 1e-9


class TestAuLoss:
    def test_logit_zero_ln2(self):
        # each of the 18 AU terms is ln 2, summed per sample
        loss, _ = au_loss(
            np.zeros((1, 18)), np.ones((1, 18)), np.array([0]),
            uniform_knowledge(1.0), ones_pw(),
        )
        assert loss == pytest.approx(18.0 * math.log(2.0), abs=1e-12)

    def test_pw_irrelevant_when_all_negative(self, rng):
        logits = rng.normal(size=(5, 18))
        labels = np.zeros((5, 18))
        expr = rng.integers(0, 7, size=5)
        base, _ = au_loss(logits, labels, expr, uniform_knowledge(), ones_pw())
        heavy = PosWeightSpec(strategy="global", values=np.full((7, 18), 9.0))
        weighted, _ = au_loss(logits, labels, expr, uniform_knowledge(), heavy)
        assert weighted == pytest.approx(base, abs=1e-15)

    def test_linear_in_knowledge(self, rng):
        logits = rng.normal(size=(4, 18))
        labels = rng.integers(0, 2, (4, 18)).astype(float)
        expr = rng.integers(0, 7, size=4)
        loss1, grad1 = au_loss(logits, labels, expr, uniform_knowledge(1.0), ones_pw())
        loss2, grad2 = au_loss(logits, labels, expr, uniform_knowledge(2.0), ones_pw())
        assert loss2 == pytest.approx(2.0 * loss1, rel=1e-12)
        assert np.allclose(grad2, 2.0 * grad1, rtol=1e-12, atol=0)

    def test_reduces_to_plain_bce(self, rng):
        logits = rng.normal(size=(6, 18))
        labels = rng.integers(0, 2, (6, 18)).astype(float)
        expr = rng.integers(0, 7, size=6)
        loss, _ = au_loss(logits, labels, expr, uniform_knowledge(1.0), ones_pw())
        p = 1.0 / (1.0 + np.exp(-logits))
        direct = -(labels * np.log(p) + (1 - labels) * np.log(1 - p)).sum(axis=1).mean()
        assert loss == pytest.approx(direct, abs=1e-12)

    def test_batch_permutation_invariant(self, rng):
        logits = rng.normal(size=(7, 18))
        labels = rng.integers(0, 2, (7, 18)).astype(float)
        expr = rng.integers(0, 7, size=7)
        loss_a, _ = au_loss(logits, labels, expr, uniform_knowledge(), ones_pw())
        perm = rng.permutation(7)
        loss_b, _ = au_loss(
            logits[perm], labels[perm], expr[perm], uniform_knowledge(), ones_pw()
        )
        assert loss_b == pytest.approx(loss_a, abs=1e-12)

    def test_stage_mismatch_rejected(self, rng):
        wrong = KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="aggregate")
        with pytest.raises(ContractError, match="loss-scaled"):
            au_loss(np.zeros((1, 18)), np.ones((1, 18)), np.array([0]),
                    wrong, ones_pw())

    @pytest.mark.parametrize("label", [-1, 7])
    @pytest.mark.parametrize("runs", [None, 2])
    def test_label_out_of_range_rejected(self, rng, label, runs):
        # -1 once gathered class 6's knowledge and pos-weights, so labels
        # [0, 1, 2, -1] gave the loss of [0, 1, 2, 6]; 7 raised IndexError
        lead = () if runs is None else (runs,)
        expr = np.broadcast_to(np.array([0, 1, 2, label]), lead + (4,))
        pw = np.ones(lead + (7, 18))
        with pytest.raises(ContractError, match="expression label out of range"):
            au_loss(rng.normal(size=lead + (4, 18)), np.ones(lead + (4, 18)), expr,
                    uniform_knowledge(), pw)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0] * 9 + [-1000.0] * 9])
        loss, grad = au_loss(
            logits, np.ones((1, 18)), np.array([0]), uniform_knowledge(), ones_pw()
        )
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self, rng):
        labels = rng.integers(0, 2, (6, 18)).astype(float)
        expr = rng.integers(0, 7, size=6)
        knowledge = KnowledgeMatrix(
            values=rng.uniform(0.5, 4.5, (18, 7)), stage="loss-scaled"
        )
        pw = PosWeightSpec(strategy="global", values=rng.uniform(0.5, 4.0, (7, 18)))

        def evaluator(x):
            return au_loss(x, labels, expr, knowledge, pw)

        report = finite_difference_check(evaluator, rng.normal(size=(6, 18)))
        assert report.max_relative_error < 1e-5


class TestCombinedLoss:
    def test_endpoints(self):
        assert combined_loss(2.0, 4.0, 0.0) == 2.0
        assert combined_loss(2.0, 4.0, 1.0) == 4.0

    def test_midpoint(self):
        assert combined_loss(2.0, 4.0, 0.5) == 3.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            combined_loss(1.0, 1.0, 1.5)
        with pytest.raises(ContractError):
            combined_loss(1.0, 1.0, -0.1)


class TestFiniteDifferenceCheck:
    def test_quadratic_exact(self):
        def evaluator(x):
            return float(np.sum(x * x)), 2.0 * x

        report = finite_difference_check(evaluator, np.array([1.0, -2.0, 3.0]))
        assert report.max_relative_error < 1e-9
        assert report.parameters_checked == 3

    def test_larger_epsilon_is_worse(self, rng):
        labels = rng.integers(0, 7, size=4)
        point = rng.normal(size=(4, 7))

        def evaluator(x):
            return expression_loss(x, labels)

        fine = finite_difference_check(evaluator, point, epsilon=1e-5)
        coarse = finite_difference_check(evaluator, point, epsilon=1e-2)
        assert coarse.max_relative_error > fine.max_relative_error

    def test_detects_wrong_gradient(self):
        def evaluator(x):
            return float(np.sum(x * x)), 3.0 * x  # deliberately wrong

        report = finite_difference_check(evaluator, np.array([1.0, 2.0]))
        assert report.max_relative_error > 0.1

    def test_non_finite_loss_rejected(self):
        def evaluator(x):
            return float("nan"), x

        with pytest.raises(NumericFailure):
            finite_difference_check(evaluator, np.array([1.0]))

    def test_non_finite_gradient_rejected(self):
        # a NaN coordinate's relative error is NaN, which a running max skips
        def evaluator(x):
            return float(np.sum(x * x)), np.array([2.0 * x[0], np.nan])

        with pytest.raises(NumericFailure, match="non-finite analytic gradient"):
            finite_difference_check(evaluator, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, float("nan"), float("inf")])
    def test_step_must_be_positive_and_finite(self, epsilon):
        # a zero step divides by zero and once passed every check
        def evaluator(x):
            return float(np.sum(x * x)), 3.0 * x  # deliberately wrong

        with pytest.raises(ContractError, match="epsilon"):
            finite_difference_check(evaluator, np.array([1.0, 2.0]), epsilon=epsilon)


def test_log_sigmoid_stable():
    assert log_sigmoid(np.array([1000.0])) == pytest.approx(0.0)
    assert np.isfinite(log_sigmoid(np.array([-1000.0])))
