"""Vectorized selection and aggregation operators.

Both subclass their tuple-path counterparts and replace only the
per-tuple body: the one entry every operator has, ``process_many``,
wraps a record run on entry (a column batch is taken as it is) and
hands it to the columnar kernel, ``process_batch`` — whoever feeds the
operator: admission, a columnar or a per-tuple parent, ``Gigascope.emit``,
``process(record)``.  Everything that is *not* per-tuple — window close,
flush, checkpoint/restore, metric binding — is inherited, so the two
engines share one group table format (checkpoints are interchangeable)
and one window close.

Accounting parity is a hard invariant: every cost-model charge and
metric increment the tuple path makes per record, these operators make
as a batch delta — the conservation identities (docs/OBSERVABILITY.md)
and the cost-account totals come out byte-identical for the same input.

Group state is the tuple path's: one list of cells per group, laid out
by the plan's :class:`~repro.dsms.aggregates.Layout`.  Each batch is
factorized into group codes (iterated pairwise ``np.unique`` packing)
and per-group *folds* write batched deltas into those cells.  Folds
preserve exactness: integer folds use int64 partials converted back to
Python ints, and anything where batching could change the answer —
float sums (addition order), NaN extremes, object columns — drops to a
sequential per-row loop over the update the tuple path writes
(``Layout.updater``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsms.aggregates import BUILTINS, AggregateRegistry
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.functions import FunctionRegistry
from repro.dsms.operators.aggregation import AggregationOperator
from repro.dsms.operators.selection import SelectionOperator
from repro.dsms.parser.analyzer import AnalyzedQuery
from repro.dsms.vectorized.batch import RecordBatch
from repro.dsms.vectorized.compiler import (
    BatchCompiler,
    Env,
    UnsupportedExpression,
    as_column,
)
from repro.streams.records import Record
from repro.streams.schema import StreamSchema


def _py(value: Any) -> Any:
    """Unbox a numpy scalar to the Python value the tuple path carries."""
    return value.item() if isinstance(value, np.generic) else value


def _as_batch(schema: StreamSchema, run: Iterable[Record]) -> RecordBatch:
    """``run`` for a columnar kernel: a batch as it is (forwarded, not
    re-labelled), records wrapped under the operator's input schema —
    untyped, since that may be a query's output schema."""
    if type(run) is RecordBatch:
        return run
    if not isinstance(run, (list, tuple)):
        run = list(run)  # a generator has no length
    return RecordBatch.from_records(schema, run, typed=False)


class VectorizedSelectionOperator(SelectionOperator):
    """WHERE + SELECT evaluated one batch at a time."""

    execution_mode = "vectorized"

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "selection",
    ) -> None:
        super().__init__(analyzed, output_schema, scalars, cost_model, account)
        compiler = BatchCompiler(scalars)
        where = analyzed.ast.where
        self._where_fn = compiler.compile_predicate(where) if where is not None else None
        self._select_fns = [compiler.compile(item.expr) for item in analyzed.ast.select]
        self._charge = lambda op, count: self._cost.charge(self._account, op, count)

    def process_many(
        self, records: Iterable[Record], out: Optional[List[Record]] = None
    ) -> RecordBatch:
        """The output batch: a run's rows are emitted together or (an
        error) not at all, so ``out`` is left alone and no record is
        built for a row nobody reads row-wise."""
        return self.process_batch(_as_batch(self.analyzed.schema, records))

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        """The columnar kernel: one input batch to its output batch."""
        n = len(batch)
        if n == 0:
            return RecordBatch.empty(self.output_schema)
        self._cost.charge(self._account, "tuple_read", n)
        self.m_in.inc(n)
        if self._forwards:
            # The batch itself, not one relabelled with this query's
            # schema: columns stay typed by the stream, and what a child
            # converts lands in the batch its siblings share.
            self.m_rows_out.inc(n)
            return batch
        if self._where_fn is not None:
            self._cost.charge(self._account, "predicate_eval", n)
            mask = self._where_fn(Env(batch.column, n, self._charge))
            kept = int(np.count_nonzero(mask))
            if kept < n:
                self.m_filtered.inc(n - kept)
            if kept == 0:
                return RecordBatch.empty(self.output_schema)
            filtered = batch if kept == n else batch.take(mask)
        else:
            filtered = batch
            kept = n
        env = Env(filtered.column, kept, self._charge)
        columns = {
            attr.name: as_column(fn(env), kept)
            for attr, fn in zip(self.output_schema, self._select_fns)
        }
        self.m_rows_out.inc(kept)
        return RecordBatch(self.output_schema, columns=columns, length=kept)


# ---------------------------------------------------------------------------
# Group factorization
# ---------------------------------------------------------------------------


def _factorize(key_arrays: Sequence[Any], n: int) -> Tuple[Any, List[Tuple[Any, ...]]]:
    """Map each row to a dense group code, groups in first-seen order.

    Returns ``(codes, keys)`` where ``codes[i]`` indexes ``keys`` and
    ``keys`` holds Python-scalar tuples identical to the tuple path's
    group-table keys.  Multi-column keys are packed pairwise with
    ``np.unique`` recompression, which keeps intermediate codes below
    ``n**2`` (no overflow) regardless of column count.
    """
    if not key_arrays:
        return np.zeros(n, dtype=np.int64), [()]
    for col in key_arrays:
        if not isinstance(col, np.ndarray) or col.dtype == object:
            return _factorize_sequential(key_arrays, n)
        if col.dtype.kind == "f" and np.isnan(col).any():
            # np.unique collapses NaNs; dict keys do not.  Keep the
            # tuple path's (degenerate) semantics via the dict.
            return _factorize_sequential(key_arrays, n)
    combined: Optional[Any] = None
    for col in key_arrays:
        uniques, inverse = np.unique(col, return_inverse=True)
        inverse = inverse.reshape(-1)
        if combined is None:
            combined = inverse
        else:
            combined = combined * len(uniques) + inverse
            _, combined = np.unique(combined, return_inverse=True)
            combined = combined.reshape(-1)
    assert combined is not None
    _, first_idx, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[order] = np.arange(len(first_idx), dtype=np.int64)
    codes = rank[inverse]
    first_rows = first_idx[order]
    key_lists = [col[first_rows].tolist() for col in key_arrays]
    keys = list(zip(*key_lists))
    return codes, keys


def _factorize_sequential(
    key_arrays: Sequence[Any], n: int
) -> Tuple[Any, List[Tuple[Any, ...]]]:
    columns = [
        col.tolist() if isinstance(col, np.ndarray) else list(col)
        for col in key_arrays
    ]
    table: Dict[Tuple[Any, ...], int] = {}
    keys: List[Tuple[Any, ...]] = []
    codes = np.empty(n, dtype=np.int64)
    for i, key in enumerate(zip(*columns)):
        code = table.get(key)
        if code is None:
            code = len(keys)
            table[key] = code
            keys.append(key)
        codes[i] = code
    return codes, keys


# ---------------------------------------------------------------------------
# Per-group aggregate folds
# ---------------------------------------------------------------------------
#
# Each fold applies one batch of (code, value) updates to the cells of
# one aggregate, at ``cell`` in each group's list, through the tuple
# path's ``update`` (``Layout.updater``) — or, where that cannot take a
# batched delta (count, avg), into the cells directly.  Values handed to
# a group are always Python scalars, so finalized values (and
# checkpoints) are indistinguishable from the tuple path's.

Group = List[Any]


def _sequential(groups: List[Group], update: Callable[..., None], codes: Any, values: Any) -> None:
    code_list = codes.tolist()
    if isinstance(values, np.ndarray):
        value_list = values.tolist()
    elif isinstance(values, (list, tuple)):
        value_list = list(values)
    else:
        value_list = [values] * len(code_list)
    for code, value in zip(code_list, value_list):
        update(groups[code], value)


def _int_values(values: Any) -> Optional[Any]:
    """values as an exact int64 array, or None if that could lie."""
    if not isinstance(values, np.ndarray):
        return None
    if values.dtype.kind in "iu":
        return values
    if values.dtype == np.bool_:
        return values.astype(np.int64)
    return None


def _fold_sum(groups, cell, update, codes, values, n_groups):
    ints = _int_values(values)
    if ints is None:
        if isinstance(values, (int,)) and not isinstance(values, bool):
            counts = np.bincount(codes, minlength=n_groups)
            for g, count in enumerate(counts.tolist()):
                update(groups[g], values * count)
            return
        _sequential(groups, update, codes, values)  # float order / objects
        return
    part = np.zeros(n_groups, dtype=np.int64)
    np.add.at(part, codes, ints)
    for g, delta in enumerate(part.tolist()):
        update(groups[g], delta)


def _fold_count(groups, cell, update, codes, values, n_groups):
    counts = np.bincount(codes, minlength=n_groups)
    for g, count in enumerate(counts.tolist()):
        groups[g][cell] += count


def _fold_avg(groups, cell, update, codes, values, n_groups):
    counts = np.bincount(codes, minlength=n_groups)
    ints = _int_values(values)
    if ints is None:
        _sequential(groups, update, codes, values)
        return
    part = np.zeros(n_groups, dtype=np.int64)
    np.add.at(part, codes, ints)
    for g, (delta, count) in enumerate(zip(part.tolist(), counts.tolist())):
        group = groups[g]
        group[cell] += delta  # the total, then the count
        group[cell + 1] += count


def _fold_extreme(ufunc_at, sentinel_for):
    def fold(groups, cell, update, codes, values, n_groups):
        if not isinstance(values, np.ndarray):
            for g in range(n_groups):
                update(groups[g], values)
            return
        if values.dtype.kind not in "iuf" or (
            values.dtype.kind == "f" and np.isnan(values).any()
        ):
            # Python's comparison chain keeps the first NaN it saw;
            # numpy's min/max propagate NaN differently.  Stay exact.
            _sequential(groups, update, codes, values)
            return
        part = np.full(n_groups, sentinel_for(values.dtype), dtype=values.dtype)
        ufunc_at(part, codes, values)
        for g, extreme in enumerate(part.tolist()):
            update(groups[g], extreme)

    return fold


def _min_sentinel(dtype):
    return np.inf if dtype.kind == "f" else np.iinfo(dtype).max


def _max_sentinel(dtype):
    return -np.inf if dtype.kind == "f" else np.iinfo(dtype).min


_fold_min = _fold_extreme(np.minimum.at, _min_sentinel)
_fold_max = _fold_extreme(np.maximum.at, _max_sentinel)


def _fold_first(groups, cell, update, codes, values, n_groups):
    present, first_idx = np.unique(codes, return_index=True)
    if isinstance(values, np.ndarray):
        for g, idx in zip(present.tolist(), first_idx.tolist()):
            update(groups[g], _py(values[idx]))
    else:
        for g in present.tolist():
            update(groups[g], values)


def _fold_last(groups, cell, update, codes, values, n_groups):
    present, rev_idx = np.unique(codes[::-1], return_index=True)
    last_idx = len(codes) - 1 - rev_idx
    if isinstance(values, np.ndarray):
        for g, idx in zip(present.tolist(), last_idx.tolist()):
            update(groups[g], _py(values[idx]))
    else:
        for g in present.tolist():
            update(groups[g], values)


def _fold_count_distinct(groups, cell, update, codes, values, n_groups):
    if not isinstance(values, np.ndarray):
        for g in np.unique(codes).tolist():
            update(groups[g], values)
        return
    if values.dtype == object or (
        values.dtype.kind == "f" and np.isnan(values).any()
    ):
        # Sets distinguish NaN objects; np.unique would merge them.
        _sequential(groups, update, codes, values)
        return
    uniques, value_codes = np.unique(values, return_inverse=True)
    value_codes = value_codes.reshape(-1)
    pairs, first = np.unique(codes * len(uniques) + value_codes, return_index=True)
    unique_values = uniques.tolist()
    width = len(uniques)
    # in arrival order, as the tuple path inserts: a set pickles in that order
    for pair in pairs[np.argsort(first)].tolist():
        update(groups[pair // width], unique_values[pair % width])


#: The built-in aggregates' batched folds.  An aggregate resolving to any
#: other registration (a UDAF) forces the whole operator back to the
#: tuple path.
FOLDS: Dict[Any, Callable[..., None]] = {
    BUILTINS[name]: fold
    for name, fold in (
        ("sum", _fold_sum), ("count", _fold_count), ("avg", _fold_avg), ("min", _fold_min),
        ("max", _fold_max), ("first", _fold_first), ("last", _fold_last),
        ("count_distinct", _fold_count_distinct),
    )
}


class VectorizedAggregationOperator(AggregationOperator):
    """Windowed GROUP BY evaluated one batch at a time.

    A batch is first segmented at window boundaries (any change in the
    ordered group-by values, computed pre-WHERE, closes the window —
    identical to the tuple path's per-record check; a segment whose
    window id is late or incomparable is counted and dropped whole,
    ``Operator._late``), then each segment is filtered, factorized into
    group codes, and folded into the group table.  Window close is the
    inherited one: HAVING and SELECT run per group over the table both
    engines share, so a plan falls back to the tuple path only for what
    its per-tuple clauses — GROUP BY, WHERE, aggregate arguments —
    cannot express.
    """

    execution_mode = "vectorized"

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        aggregates: AggregateRegistry,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "aggregation",
    ) -> None:
        super().__init__(
            analyzed, output_schema, scalars, aggregates, cost_model, account
        )
        compiler = BatchCompiler(scalars)
        self._gb_fns = [compiler.compile(item.expr) for item in analyzed.group_by]
        where = analyzed.ast.where
        self._where_fn = compiler.compile_predicate(where) if where is not None else None
        self._arg_fns: List[Optional[Callable[[Env], Any]]] = []
        self._folds: List[Callable[..., None]] = []
        layout = self._layout
        for slot, node in enumerate(analyzed.aggregates):
            fold = FOLDS.get(layout.kinds[slot])
            if fold is None:
                raise UnsupportedExpression(
                    f"aggregate {node.name!r} resolves to"
                    f" {getattr(layout.factories[slot], '__name__', 'a UDAF')},"
                    " which has no batched fold"
                )
            self._folds.append(fold)
            arg = node.args[0] if node.args else None
            self._arg_fns.append(compiler.compile(arg) if arg is not None else None)
        self._new_group = layout.maker()
        self._updates = [layout.updater(slot) for slot in range(len(analyzed.aggregates))]
        self._charge = lambda op, count: self._cost.charge(self._account, op, count)

    # -- batch path ----------------------------------------------------------

    def _row_env(self, batch: RecordBatch, gb_arrays: List[Any], length: int) -> Env:
        """Row env where group-by names shadow stream columns, exactly
        like the tuple path's ``expr.bind_tuple``."""
        gb_index = self._gb_index

        def column(name: str) -> Any:
            idx = gb_index.get(name)
            if idx is not None:
                return gb_arrays[idx]
            return batch.column(name)

        return Env(column, length, self._charge)

    def process_many(
        self, records: Iterable[Record], out: Optional[List[Record]] = None
    ) -> List[Record]:
        return self.process_batch(_as_batch(self.analyzed.schema, records), out)

    def process_batch(
        self, batch: RecordBatch, out: Optional[List[Record]] = None
    ) -> List[Record]:
        """The columnar kernel.  The rows of each window the batch
        closes go into ``out`` as it closes: they outlive an error in a
        later segment."""
        if out is None:
            out = []
        n = len(batch)
        if n == 0:
            return out
        env = Env(batch.column, n, self._charge)
        gb_arrays = [as_column(fn(env), n) for fn in self._gb_fns]
        window_arrays = [gb_arrays[i] for i in self._ordered_indices]

        # Window segmentation happens pre-WHERE: any tuple whose ordered
        # group-by values differ from the previous tuple's closes the
        # window, whether or not WHERE admits it — unless its window id is
        # late or incomparable: that segment is dropped before WHERE.
        if window_arrays and n > 1:
            change = np.zeros(n, dtype=np.bool_)
            for col in window_arrays:
                change[1:] |= np.asarray(col[1:] != col[:-1], dtype=np.bool_)
            bounds = [0] + np.flatnonzero(change).tolist() + [n]
        else:
            bounds = [0, n]
        segments, current, kept = [], self._current_window, 0
        for start, stop in zip(bounds, bounds[1:]):
            window = tuple(_py(col[start]) for col in window_arrays)
            if window != current:
                if self._late(window, current, stop - start) is not None:
                    continue
                current = window
            segments.append((window, start, stop))
            kept += stop - start

        # WHERE evaluates once over the rows kept (group-by names
        # shadowing included); segments slice the mask.
        mask = None
        if self._where_fn is not None and kept:
            self._cost.charge(self._account, "predicate_eval", kept)
            if kept == n:
                mask = self._where_fn(self._row_env(batch, gb_arrays, n))
            else:
                rows = np.zeros(n, dtype=np.bool_)
                for _, start, stop in segments:
                    rows[start:stop] = True
                mask = np.zeros(n, dtype=np.bool_)
                mask[rows] = self._where_fn(
                    self._row_env(batch.take(rows), [col[rows] for col in gb_arrays], kept)
                )

        self._cost.charge(self._account, "tuple_read", n)
        self._cost.charge(self._account, "hash_probe", n)
        self.m_in.inc(n)

        for window, start, stop in segments:
            if window != self._current_window:
                if self._current_window is not None:
                    out.extend(self._emit_window())
                self._current_window = window
                self.obs_trace.emit(
                    "window_open", query=self.obs_query, window=list(window)
                )
            self._process_segment(batch, gb_arrays, mask, start, stop)
        return out

    def _process_segment(
        self,
        batch: RecordBatch,
        gb_arrays: List[Any],
        mask: Optional[Any],
        start: int,
        stop: int,
    ) -> None:
        seg_n = stop - start
        if mask is not None:
            seg_mask = mask[start:stop]
            admitted = int(np.count_nonzero(seg_mask))
            if admitted < seg_n:
                self.m_filtered.inc(seg_n - admitted)
            if admitted == 0:
                return
        else:
            seg_mask = None
            admitted = seg_n
        self.m_admitted.inc(admitted)

        # Aggregate arguments see the admitted rows of this segment as
        # lazy views over the parent batch's columns (group-by names
        # shadow stream columns, as everywhere) — no segment batch, no
        # records-backing copy.
        if seg_mask is None or admitted == seg_n:
            seg_gb = [col[start:stop] for col in gb_arrays]

            def base_column(name: str) -> Any:
                return batch.column(name)[start:stop]

        else:
            seg_gb = [col[start:stop][seg_mask] for col in gb_arrays]

            def base_column(name: str) -> Any:
                return batch.column(name)[start:stop][seg_mask]

        codes, keys = _factorize(seg_gb, admitted)
        groups: List[Group] = []
        for key in keys:
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = self._new_group()
                self._cost.charge(self._account, "hash_insert")
                self.m_groups_created.inc()
            groups.append(group)

        if self.analyzed.aggregates:
            gb_index = self._gb_index

            def column(name: str) -> Any:
                idx = gb_index.get(name)
                if idx is not None:
                    return seg_gb[idx]
                return base_column(name)

            env = Env(column, admitted, self._charge)
            starts = self._layout.starts
            for cell, arg_fn, fold, update in zip(starts, self._arg_fns, self._folds, self._updates):
                values = arg_fn(env) if arg_fn is not None else 1
                fold(groups, cell, update, codes, values, len(keys))
            self._cost.charge(
                self._account,
                "aggregate_update",
                admitted * len(self.analyzed.aggregates),
            )
