"""Unified columnar result store for every experiment layer.

* :class:`~repro.results.frame.ResultFrame` — typed columns, append-only
  rows, group-by / aggregate / pivot helpers;
* :data:`~repro.results.records.RESULT_COLUMNS` — the shared experiment
  record schema that campaign views, scenario suites and experiment
  runners all emit into (the legacy result dataclasses are thin views
  reconstructed from these records);
* :class:`~repro.results.store.ResultStore` — JSONL persistence with a run
  manifest and truncated-write tolerance, the substrate of resumable grid
  campaigns (``repro grid --resume``) and stored reporting
  (``repro report``).
"""

from repro.results.frame import AGGREGATIONS, COLUMN_KINDS, Column, ResultFrame
from repro.results.records import (
    RECORD_KINDS,
    RESULT_COLUMNS,
    STATUS_DISPOSITIONS,
    decode_fault_set,
    effective_strategy,
    encode_fault_set,
    result_frame,
    scenario_family,
    scenario_strategy,
    view_from_record,
)
from repro.results.store import (
    FSYNC_ENV,
    FSYNC_POLICIES,
    STORE_FORMAT_VERSION,
    ResultStore,
    ResultStoreError,
    merge_result_stores,
)

__all__ = [
    "AGGREGATIONS",
    "COLUMN_KINDS",
    "Column",
    "FSYNC_ENV",
    "FSYNC_POLICIES",
    "RECORD_KINDS",
    "RESULT_COLUMNS",
    "STATUS_DISPOSITIONS",
    "ResultFrame",
    "ResultStore",
    "ResultStoreError",
    "STORE_FORMAT_VERSION",
    "decode_fault_set",
    "effective_strategy",
    "encode_fault_set",
    "merge_result_stores",
    "result_frame",
    "scenario_family",
    "scenario_strategy",
    "view_from_record",
]
