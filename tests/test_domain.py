import dataclasses
import importlib
import os
import pkgutil

import numpy as np
import pytest

import aukit

from aukit.domain import (
    AU_NAMES,
    ContractError,
    EXPRESSIONS,
    KnowledgeMatrix,
    MAJOR_CLASSES,
    MAJOR_MASK,
    expression_index,
    expression_labels,
    expression_name,
)
from aukit.harness import evaluate_predictions, export_embeddings
from aukit.labeling import PosWeightSpec, compute_pos_weights
from aukit.losses import au_loss, expression_loss
from aukit.model import init_params


def test_expression_index_canonical_order():
    assert expression_index("Happy") == 0
    assert expression_index("Fear") == 6
    assert [expression_index(n) for n in EXPRESSIONS] == list(range(7))


def test_expression_index_case_insensitive():
    assert expression_index("hApPy") == 0
    assert expression_index(" surprise ") == 4


def test_expression_index_rejects_unknown():
    with pytest.raises(ContractError, match="Boredom"):
        expression_index("Boredom")


def test_expression_roundtrip():
    for i in range(7):
        assert expression_index(expression_name(i)) == i


def test_expression_labels_are_int64_in_range():
    labels = expression_labels([[0, 6], [3, 1]])
    assert labels.dtype == np.int64 and labels.tolist() == [[0, 6], [3, 1]]
    assert expression_labels([]).shape == (0,)
    for bad in ([0, -1], [7, 0]):
        with pytest.raises(ContractError, match="^expression label out of range$"):
            expression_labels(bad)


# each function that takes expression labels, called on three of them with
# every other argument valid
LABEL_CALLERS = {
    "evaluate_predictions": lambda labels: evaluate_predictions(labels, [0, 0, 0]),
    "expression_loss": lambda labels: expression_loss(np.zeros((3, 7)), labels),
    "au_loss": lambda labels: au_loss(
        np.zeros((3, 18)), np.zeros((3, 18)), labels,
        KnowledgeMatrix(values=np.ones((18, 7)), stage="loss-scaled"),
        PosWeightSpec(strategy="none", values=np.ones((7, 18)))),
    "compute_pos_weights": lambda labels: compute_pos_weights(
        np.zeros((3, 18)), labels, "global"),
    "export_embeddings": lambda labels: export_embeddings(
        init_params(0, feature_dim=4, hidden=(2,)), np.zeros((3, 4)), labels,
        os.devnull),
}


@pytest.mark.parametrize("label", [-1, 7])
@pytest.mark.parametrize("caller", LABEL_CALLERS)
def test_every_caller_rejects_a_label_out_of_range(caller, label):
    # -1 would index class 6 (Fear) and 7 past the last class; each caller
    # checks through expression_labels, with its one message
    LABEL_CALLERS[caller]([0, 3, 6])
    with pytest.raises(ContractError, match="^expression label out of range$"):
        LABEL_CALLERS[caller]([0, 3, label])


def test_au_ascending_order():
    numbers = [int(n[2:]) for n in AU_NAMES]
    assert numbers == sorted(numbers)


def test_major_minor_partition():
    assert MAJOR_CLASSES < set(EXPRESSIONS)
    assert len(MAJOR_CLASSES) == 4
    assert [name for name, major in zip(EXPRESSIONS, MAJOR_MASK) if major] == [
        "Happy", "Sad", "Neutral", "Angry"
    ]


def test_knowledge_closed_range_constructs():
    KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="per-dataset")
    values = np.full((18, 7), 0.5)
    values[0, 0], values[1, 1] = 0.0, 1.0  # the closed range's ends
    KnowledgeMatrix(values=values, stage="aggregate")


@pytest.mark.parametrize("value", [1.0 + 1e-12, -1e-12, 4.999],
                         ids=["above_one", "below_zero", "loss_scaled_size"])
def test_knowledge_out_of_range_rejected(value):
    values = np.full((18, 7), 0.5)
    values[0, 0] = value
    with pytest.raises(ContractError, match=r"\(AU01, Happy\) is outside \[0, 1.0\]"):
        KnowledgeMatrix(values=values, stage="per-dataset")


def test_knowledge_loss_scaled_range():
    KnowledgeMatrix(values=np.full((18, 7), 2.5), stage="loss-scaled")
    KnowledgeMatrix(values=np.full((18, 7), 5.0), stage="loss-scaled")
    with pytest.raises(ContractError, match="outside"):
        KnowledgeMatrix(values=np.full((18, 7), 4.999), stage="aggregate")
    values = np.full((18, 7), 2.5)
    values[3, 2] = -40.0
    with pytest.raises(ContractError, match=r"-40.0 at \(AU05, Neutral\)"):
        KnowledgeMatrix(values=values, stage="loss-scaled")


def test_knowledge_shape_rejected():
    with pytest.raises(ContractError, match="18x7"):
        KnowledgeMatrix(values=np.full((17, 7), 0.5), stage="per-dataset")


def test_knowledge_nan_reported():
    values = np.full((18, 7), 0.5)
    values[3, 3] = np.nan
    with pytest.raises(ContractError, match=r"nan at \(AU05, Angry\) is outside"):
        KnowledgeMatrix(values=values, stage="per-dataset")


@pytest.mark.parametrize("theta", [float("nan"), -0.1, 1.5])
def test_knowledge_theta_outside_unit_interval_rejected(theta):
    with pytest.raises(ContractError, match="theta"):
        KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="per-dataset", theta=theta)


def test_knowledge_negative_support_rejected():
    support = np.zeros((18, 7), dtype=np.int64)
    support[2, 2] = -1
    with pytest.raises(ContractError, match="support"):
        KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="per-dataset",
                        support=support)


def test_knowledge_leaves_the_callers_arrays_writable():
    values = np.full((18, 7), 0.5)
    support = np.ones((18, 7), dtype=np.int64)
    matrix = KnowledgeMatrix(values=values, stage="per-dataset", support=support)
    assert values.flags.writeable and support.flags.writeable
    assert not matrix.values.flags.writeable and not matrix.support.flags.writeable
    values[0, 0] = 0.9  # the matrix holds its own copy
    assert matrix.values[0, 0] == 0.5


@pytest.mark.parametrize("count", [1.5, True, np.float64(2.0), "2"])
def test_knowledge_dataset_count_must_be_an_integer(count):
    # dataset_count=1.5 once constructed and exported a file that
    # import_knowledge rejected as "non-numeric datasets '1.5'"
    with pytest.raises(ContractError, match="^dataset_count must be an integer, got "):
        KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="aggregate",
                        dataset_count=count)
    matrix = KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="aggregate",
                             dataset_count=np.int64(2))
    assert matrix.dataset_count == 2


def test_every_value_type_is_frozen():
    # a value type is checked once, by its constructor, so a field that can
    # be assigned after construction undoes the check; OptimizerState is
    # training state, updated in place every step
    mutable = []
    for info in pkgutil.iter_modules(aukit.__path__):
        module = importlib.import_module(f"aukit.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__
                    and not value.__dataclass_params__.frozen):
                mutable.append(f"{module.__name__}.{name}")
    assert mutable == ["aukit.model.OptimizerState"]
