import numpy as np
import pytest

from aukit.domain import (
    AU_NAMES,
    ContractError,
    EXPRESSIONS,
    KnowledgeMatrix,
    MAJOR_CLASSES,
    MAJOR_MASK,
    expression_index,
    expression_name,
)


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
