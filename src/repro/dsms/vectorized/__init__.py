"""Columnar batch execution engine (DESIGN.md §11).

Enabled per instance with ``Gigascope(vectorize=True)`` (CLI:
``repro query --vectorize``).  Selection and plain aggregation plans
compile to whole-batch numpy evaluation; plans the batch engine cannot
express — SFUNs, superaggregates, nondeterministic scalar functions,
custom aggregate registrations — fall back per operator to the tuple
path with byte-identical results either way.
"""

from repro.dsms.vectorized.batch import RecordBatch
from repro.dsms.vectorized.compiler import (
    BatchCompiler,
    Env,
    UnsupportedExpression,
    as_column,
    as_mask,
    make_env,
)
from repro.dsms.vectorized.operators import (
    VectorizedAggregationOperator,
    VectorizedSelectionOperator,
)

__all__ = [
    "RecordBatch",
    "BatchCompiler",
    "Env",
    "UnsupportedExpression",
    "as_column",
    "as_mask",
    "make_env",
    "VectorizedAggregationOperator",
    "VectorizedSelectionOperator",
]
