"""Action-unit knowledge extraction and auxiliary-loss training toolkit."""

__version__ = "0.1.0"

from .domain import (
    AU_NAMES,
    ContractError,
    EXPRESSIONS,
    KnowledgeMatrix,
    NumericFailure,
    expression_index,
    expression_name,
)

__all__ = [
    "AU_NAMES",
    "ContractError",
    "EXPRESSIONS",
    "KnowledgeMatrix",
    "NumericFailure",
    "expression_index",
    "expression_name",
    "__version__",
]
