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
    validate_knowledge,
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


def test_validate_knowledge_interior_point():
    m = KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="per-dataset")
    assert validate_knowledge(m) == []


def test_validate_knowledge_boundary_violation():
    values = np.full((18, 7), 0.5)
    values[0, 0] = 1.0
    m = KnowledgeMatrix(values=values, stage="per-dataset")
    violations = validate_knowledge(m)
    assert len(violations) == 1
    assert "AU01" in violations[0] and "Happy" in violations[0]


def test_validate_knowledge_loss_scaled_range():
    m = KnowledgeMatrix(values=np.full((18, 7), 2.5), stage="loss-scaled")
    assert validate_knowledge(m) == []
    bad = KnowledgeMatrix(values=np.full((18, 7), 4.999), stage="aggregate")
    assert validate_knowledge(bad)  # aggregate stage needs (0, 1)


def test_knowledge_shape_rejected():
    with pytest.raises(ContractError, match="18x7"):
        KnowledgeMatrix(values=np.full((17, 7), 0.5), stage="per-dataset")


def test_knowledge_nan_reported():
    values = np.full((18, 7), 0.5)
    values[3, 3] = np.nan
    violations = validate_knowledge(
        KnowledgeMatrix(values=values, stage="per-dataset")
    )
    assert any("non-finite" in v for v in violations)
