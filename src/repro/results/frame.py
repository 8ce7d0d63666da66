"""The columnar result store: typed columns, append-only rows, aggregation.

Every experiment in the library — campaigns, scenario suites, grid
sweeps, adversarial batteries — used to terminate in its own ad-hoc result
shape.  :class:`ResultFrame` replaces that zoo with one columnar store:

* **typed columns** — a frame is created against a tuple of
  :class:`Column` specs (name + kind); appends validate and coerce every
  value, so a frame can be persisted and reloaded without guessing types;
* **append-only rows** — rows are only ever added, never mutated, which is
  what makes JSONL persistence (:mod:`repro.results.store`) and resumable
  campaigns sound: a stored prefix of a run is always a valid frame;
* **relational helpers** — ``where`` / ``group_by`` / ``aggregate`` /
  ``pivot`` cover the reshaping the reporting layer needs (scaling tables:
  rows = family/size, columns = ``t``) without any external dependency.

Values are stored column-major (one list per column), so column reads and
aggregations touch only the data they need, and a frame's memory footprint
is a flat ``O(rows x columns)`` of scalars — no per-row dict overhead.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: Column kinds understood by the frame.  ``json`` columns hold arbitrary
#: JSON-encodable values (used for encoded fault-set node lists).
COLUMN_KINDS = ("int", "float", "str", "bool", "json")


@dataclasses.dataclass(frozen=True)
class Column:
    """One typed column of a :class:`ResultFrame`.

    Every column is nullable: ``None`` marks "not applicable for this row"
    (e.g. ``bound`` on an exact-diameter row), which is what lets one schema
    cover exact campaigns, bounded decisions and suite metadata at once.
    """

    name: str
    kind: str = "json"

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ValueError(
                f"column {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {COLUMN_KINDS}"
            )

    def coerce(self, value: object) -> object:
        """Validate/coerce one value for this column (``None`` passes through)."""
        if value is None:
            return None
        try:
            if self.kind == "int":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError
                return value
            if self.kind == "float":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError
                return float(value)
            if self.kind == "str":
                if not isinstance(value, str):
                    raise TypeError
                return value
            if self.kind == "bool":
                if not isinstance(value, bool):
                    raise TypeError
                return value
            return value  # "json": anything the persistence layer can encode
        except TypeError:
            raise TypeError(
                f"column {self.name!r} expects {self.kind}, got "
                f"{value!r} ({type(value).__name__})"
            ) from None


def _value_sort_key(value: object) -> Tuple[bool, str, object]:
    """Total order over heterogeneous cell values (``None`` last).

    Python refuses ``int < str``, so a pivoted column holding, say, integer
    ``t`` values alongside strategy names used to crash the sort.  Values
    are ordered by type class first — all numbers share one class so
    ``1 < 2.5 < 3`` keeps numeric order — then by value within the class.
    """
    if value is None:
        return (True, "", 0)
    if isinstance(value, bool):
        return (False, "bool", value)
    if isinstance(value, (int, float)):
        return (False, "number", value)
    if isinstance(value, str):
        return (False, "str", value)
    return (False, type(value).__name__, repr(value))


def _composite_sort_key(value: object) -> Tuple:
    """Sort key for pivot column values (tuples sort element-wise)."""
    if isinstance(value, tuple):
        return tuple(_value_sort_key(item) for item in value)
    return (_value_sort_key(value),)


#: Named aggregation functions accepted by :meth:`ResultFrame.aggregate`.
AGGREGATIONS: Dict[str, Callable[[Sequence], object]] = {
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
    "sum": lambda values: sum(values) if values else None,
    "mean": lambda values: (sum(values) / len(values)) if values else None,
    "count": len,
    "first": lambda values: values[0] if values else None,
    "last": lambda values: values[-1] if values else None,
}


class ResultFrame:
    """An append-only columnar table of experiment results.

    The frame is the single result store every producer emits into (see
    :data:`repro.results.records.RESULT_COLUMNS` for the shared experiment
    schema); the legacy result dataclasses are thin views reconstructed from
    its rows via their ``from_record`` classmethods.
    """

    __slots__ = ("_columns", "_by_name", "_data")

    def __init__(self, columns: Sequence[Column]) -> None:
        if not columns:
            raise ValueError("a ResultFrame needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        self._columns: Tuple[Column, ...] = tuple(columns)
        self._by_name: Dict[str, Column] = {c.name: c for c in self._columns}
        self._data: Dict[str, List[object]] = {name: [] for name in names}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> Tuple[Column, ...]:
        return self._columns

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    def __len__(self) -> int:
        return len(self._data[self._columns[0].name])

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<ResultFrame rows={len(self)} columns={len(self._columns)}>"

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: Mapping[str, object]) -> int:
        """Append one row (a mapping of column name to value); return its index.

        Unknown keys are an error (the schema is the contract between
        producers and the persistence/reporting layers); missing columns are
        filled with ``None``.
        """
        unknown = set(record) - set(self._by_name)
        if unknown:
            raise ValueError(
                f"record has columns {sorted(unknown)} not in the frame "
                f"schema {list(self._by_name)}"
            )
        coerced = {
            name: column.coerce(record.get(name))
            for name, column in self._by_name.items()
        }
        for name, value in coerced.items():
            self._data[name].append(value)
        return len(self) - 1

    def extend(self, records: Iterable[Mapping[str, object]]) -> None:
        """Append every record of an iterable."""
        for record in records:
            self.append(record)

    # ------------------------------------------------------------------
    # Row/column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> Tuple[object, ...]:
        """Return one column's values as a tuple."""
        if name not in self._data:
            raise KeyError(f"no column {name!r}; columns: {list(self._data)}")
        return tuple(self._data[name])

    def row(self, index: int) -> Dict[str, object]:
        """Return one row as a dict (column order preserved)."""
        return {name: self._data[name][index] for name in self._data}

    def rows(self) -> List[Dict[str, object]]:
        """Return every row as a dict, in append order."""
        return [self.row(index) for index in range(len(self))]

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.rows())

    # ------------------------------------------------------------------
    # Relational helpers
    # ------------------------------------------------------------------
    def where(
        self,
        predicate: Optional[Callable[[Dict[str, object]], bool]] = None,
        **equals: object,
    ) -> "ResultFrame":
        """Return a new frame keeping rows that match.

        ``equals`` keyword filters require exact column equality;
        ``predicate`` (called with the row dict) covers everything else.
        Both may be combined.
        """
        for key in equals:
            if key not in self._by_name:
                raise KeyError(f"no column {key!r}")
        selected = ResultFrame(self._columns)
        for index in range(len(self)):
            row = self.row(index)
            if any(row[key] != value for key, value in equals.items()):
                continue
            if predicate is not None and not predicate(row):
                continue
            selected.append(row)
        return selected

    def distinct(self, *names: str) -> List[Tuple[object, ...]]:
        """Return the distinct value tuples of the named columns, in first-seen order."""
        seen: Dict[Tuple[object, ...], None] = {}
        for index in range(len(self)):
            key = tuple(self._data[name][index] for name in names)
            seen.setdefault(key, None)
        return list(seen)

    def group_by(self, *names: str) -> List[Tuple[Tuple[object, ...], "ResultFrame"]]:
        """Partition the frame by the named columns (groups in first-seen order)."""
        groups: Dict[Tuple[object, ...], ResultFrame] = {}
        for index in range(len(self)):
            key = tuple(self._data[name][index] for name in names)
            group = groups.get(key)
            if group is None:
                group = groups[key] = ResultFrame(self._columns)
            group.append(self.row(index))
        return list(groups.items())

    def aggregate(
        self,
        by: Sequence[str],
        **outputs: Tuple[str, Union[str, Callable[[Sequence], object]]],
    ) -> List[Dict[str, object]]:
        """Group by ``by`` and fold columns; returns one dict per group.

        Each output is ``name=(column, fn)`` where ``fn`` is a callable over
        the group's non-``None`` values or one of the named aggregations
        (``min`` / ``max`` / ``sum`` / ``mean`` / ``count`` / ``first`` /
        ``last``).

        >>> frame.aggregate(["family", "t"], worst=("max_diam", "max"))
        """
        resolved: Dict[str, Tuple[str, Callable[[Sequence], object]]] = {}
        for name, (column, fn) in outputs.items():
            if column not in self._by_name:
                raise KeyError(f"no column {column!r}")
            resolved[name] = (column, self._resolve_aggregation(fn))
        results: List[Dict[str, object]] = []
        for key, group in self.group_by(*by):
            row: Dict[str, object] = dict(zip(by, key))
            for name, (column, fn) in resolved.items():
                values = [value for value in group.column(column) if value is not None]
                row[name] = fn(values)
            results.append(row)
        return results

    def _resolve_aggregation(
        self, fn: Union[str, Callable[[Sequence], object]]
    ) -> Callable[[Sequence], object]:
        """Resolve an aggregation name (or pass a callable through) —
        shared by :meth:`aggregate` and :meth:`pivot`."""
        if isinstance(fn, str):
            if fn not in AGGREGATIONS:
                raise ValueError(
                    f"unknown aggregation {fn!r}; available: {sorted(AGGREGATIONS)}"
                )
            return AGGREGATIONS[fn]
        return fn

    def pivot(
        self,
        index: Sequence[str],
        column: Union[str, Sequence[str]],
        value: str,
        fn: Union[
            str,
            Callable[[Sequence], object],
            Sequence[Union[str, Callable[[Sequence], object]]],
        ] = "max",
    ) -> Tuple[List[Dict[str, object]], List[object]]:
        """Cross-tabulate: one output row per distinct ``index`` tuple, one
        output column per distinct ``column`` value, cells folded with ``fn``.

        ``column`` may name one column or a sequence of them — a sequence
        produces one output column per distinct value *tuple* (the shape of
        strategy-comparison tables, whose column groups are
        ``(strategy, t)``).  ``fn`` may likewise be one aggregation or a
        sequence; a sequence folds every cell into a tuple with one entry
        per aggregation (e.g. ``("mean", "max")`` for mean-and-worst
        cells).

        Returns ``(rows, column_values)`` where each row dict maps the index
        columns to their values and each column value (scalar or tuple) to
        its aggregated cell (``None`` for empty cells).  Column values are
        emitted in sorted order (``None`` last) under a total order that
        tolerates mixed value types — ints and strategy strings may share a
        pivoted column without crashing the sort.
        """
        multi_fn = isinstance(fn, (list, tuple))
        fns = [self._resolve_aggregation(f) for f in fn] if multi_fn else [
            self._resolve_aggregation(fn)
        ]
        columns = [column] if isinstance(column, str) else list(column)
        if not columns:
            raise ValueError("pivot needs at least one column to spread over")
        for name in columns:
            if name not in self._by_name:
                raise KeyError(f"no column {name!r}")
        composite = not isinstance(column, str)
        column_values = sorted(
            set(self.distinct(*columns))
            if composite
            else {v for v in self.column(column)},
            key=_composite_sort_key,
        )
        rows: List[Dict[str, object]] = []
        for key, group in self.group_by(*index):
            row: Dict[str, object] = dict(zip(index, key))
            for column_value in column_values:
                match = (
                    dict(zip(columns, column_value))
                    if composite
                    else {column: column_value}
                )
                cell = group.where(**match)
                values = [v for v in cell.column(value) if v is not None]
                if not values:
                    row[column_value] = None
                elif multi_fn:
                    row[column_value] = tuple(f(values) for f in fns)
                else:
                    row[column_value] = fns[0](values)
            rows.append(row)
        return rows, column_values

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, columns: Sequence[Column], records: Iterable[Mapping[str, object]]
    ) -> "ResultFrame":
        """Build a frame from an iterable of records."""
        frame = cls(columns)
        frame.extend(records)
        return frame
