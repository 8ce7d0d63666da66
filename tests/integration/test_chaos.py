"""Chaos-injection integration tests: crash a sweep, prove nothing changed.

The supervision layer's whole claim is that fault recovery is *invisible in
the results*: a sweep that loses a worker, hits a poisoned task, wedges on
a hang or tears a store write must end with byte-identical store contents
to an undisturbed run.  These tests drive :func:`run_scenario_suite`,
:class:`~repro.faults.engine.CampaignEngine` and the ``repro grid`` /
``repro campaign`` CLI under ``REPRO_CHAOS`` injections (see
:mod:`repro.runtime.chaos`) and compare results byte for byte against a
golden run.

The once-only ledger (``REPRO_CHAOS_LEDGER``) makes transient faults
expressible — kill one worker, then let the retry succeed.  Injections
without a ledger are permanent faults and exercise the quarantine path:
the campaign becomes a ``disposition="failed"`` status row instead of
aborting the sweep.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import render_scaling_report
from repro.core import kernel_routing
from repro.faults import CampaignEngine
from repro.faults.simulation import CampaignStatus
from repro.graphs import generators
from repro.results import ResultStore
from repro.runtime import CHAOS_ENV, LEDGER_ENV, SupervisorPolicy
from repro.scenarios import run_scenario_suite, suite_manifest

REPO_ROOT = Path(__file__).resolve().parents[2]

SCENARIOS = [
    "cycle:n=12/kernel/t=1/sizes:1,2",
    "hypercube:d=3/kernel/t=1/sizes:1",
]
SAMPLES = 6
SEED = 3
CHUNK = 4
MANIFEST = suite_manifest(SCENARIOS, SAMPLES, SEED, None, CHUNK)

#: Fast-retry policy so injected failures do not spend real wall-clock.
FAST = SupervisorPolicy(backoff_base=0.001, backoff_max=0.002)


def _run_suite(store_path, *, workers=1, policy=FAST, skipped=None):
    store_path = Path(store_path)
    if store_path.exists():
        store = ResultStore.open(str(store_path), MANIFEST)
    else:
        store = ResultStore.create(str(store_path), MANIFEST)
    try:
        rows = run_scenario_suite(
            SCENARIOS,
            samples=SAMPLES,
            seed=SEED,
            chunk_size=CHUNK,
            workers=workers,
            store=store,
            policy=policy,
            skipped=skipped,
        )
    finally:
        store.close()
    return rows


def _cli(tmp_path, *argv, chaos=None, ledger=None):
    """Run ``python -m repro ARGV`` in ``tmp_path`` with only the given chaos."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in (CHAOS_ENV, LEDGER_ENV)
    }
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if chaos:
        env[CHAOS_ENV] = chaos
    if ledger:
        env[LEDGER_ENV] = str(ledger)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Bytes and records of an undisturbed run (chaos env forced clean)."""
    saved = {
        key: os.environ.pop(key)
        for key in (CHAOS_ENV, LEDGER_ENV)
        if key in os.environ
    }
    try:
        path = tmp_path_factory.mktemp("golden") / "golden.jsonl"
        rows = _run_suite(path, workers=2)
        return path.read_bytes(), [row.record() for row in rows]
    finally:
        os.environ.update(saved)


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    directory = tmp_path / "ledger"
    directory.mkdir()
    monkeypatch.setenv(LEDGER_ENV, str(directory))
    return directory


class TestTransientFaults:
    """Once-only injections: the retry recomputes, nothing differs."""

    def test_poisoned_task_inprocess_retries_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "task:fail")
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=1)
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]

    def test_poisoned_task_pooled_retries_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "task:fail")
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=2)
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]

    def test_killed_worker_rebuilds_pool_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "task:kill")
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=2)
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]

    def test_hung_worker_times_out_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "task:hang")
        policy = SupervisorPolicy(
            task_timeout=1.0, backoff_base=0.001, backoff_max=0.002
        )
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=2, policy=policy)
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]


class TestBuildFaults:
    """Construction runs as supervised build tasks: the same recovery."""

    @pytest.mark.parametrize("action", ["fail", "kill", "hang"])
    def test_transient_build_fault_recovers_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden, action
    ):
        # The task timeout covers builds: a wedged build is abandoned and
        # rebuilt on a fresh pool.
        policy = SupervisorPolicy(
            task_timeout=1.0, backoff_base=0.001, backoff_max=0.002
        )
        monkeypatch.setenv(CHAOS_ENV, f"build:{action}")
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=2, policy=policy)
        assert len(list(ledger.iterdir())) == 1  # the injection did fire
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]

    def test_poisoned_build_inprocess_retries_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "build:fail")
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=1)
        assert len(list(ledger.iterdir())) == 1
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]

    def test_permanent_build_failure_quarantines_one_scenario(self, tmp_path):
        grid = "hypercube:d=3..4/kernel/t=1/sizes:1-2"
        args = ["--samples", "6", "--seed", "3", "--workers", "2"]
        clean = _cli(tmp_path, "grid", grid, *args, "--store", "clean.jsonl")
        assert clean.returncode == 0, clean.stderr
        # No ledger: every attempt to build hypercube:d=4 is poisoned.
        chaotic = _cli(
            tmp_path,
            "grid",
            grid,
            *args,
            "--retries",
            "1",
            "--store",
            "chaos.jsonl",
            chaos="build:fail:hypercube:d=4",
        )
        assert chaotic.returncode != 0
        assert "campaign failed (quarantined): hypercube:d=4" in chaotic.stdout

        def records(name):
            lines = (tmp_path / name).read_text().splitlines()[1:]
            return {
                entry["key"]: entry["record"]
                for entry in map(json.loads, lines)
            }

        clean_rows, chaos_rows = records("clean.jsonl"), records("chaos.jsonl")
        assert set(chaos_rows) == set(clean_rows)
        failed = {
            key for key, row in chaos_rows.items()
            if row["disposition"] == "failed"
        }
        assert failed == {key for key in clean_rows if "d=4" in key}
        for key, row in chaos_rows.items():
            if key not in failed:
                assert row == clean_rows[key]
                continue
            assert "injected failure" in row["reason"]
            assert row["scheme"] is None and row["fingerprint"] is None
            assert (row["n"], row["m"]) == (16, 32)

    def test_strict_build_failure_raises(self, tmp_path, monkeypatch):
        from repro.runtime import TaskFailedError

        monkeypatch.setenv(CHAOS_ENV, "build:fail:hypercube")
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        with pytest.raises(TaskFailedError):
            _run_suite(
                tmp_path / "store.jsonl",
                workers=2,
                policy=SupervisorPolicy(max_retries=0, strict=True),
            )

    def test_resume_completes_partially_stored_build_failure(
        self, tmp_path, monkeypatch
    ):
        # The cycle scenario's build always fails: both of its campaign
        # keys get failed rows (fingerprint None) ahead of the other rows.
        monkeypatch.setenv(CHAOS_ENV, "build:fail:cycle")
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=2)
        full_bytes = path.read_bytes()
        assert [row.campaign.disposition for row in rows[:2]] == ["failed"] * 2

        # Crash after the first failed row; resume with chaos cleared.  The
        # stored ruling is honoured (no rebuild, no fingerprint mismatch)
        # and the missing failed row is completed in place.
        lines = full_bytes.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]))
        monkeypatch.delenv(CHAOS_ENV)
        resumed = _run_suite(path, workers=2)
        assert path.read_bytes() == full_bytes
        assert [row.record() for row in resumed] == [
            row.record() for row in rows
        ]


class TestEngineFaults:
    """Engine campaigns share the suite's crash recovery."""

    ARGS = [
        "campaign", "--graph", "circulant:24,1,2", "--sizes", "1,2",
        "--samples", "64", "--seed", "7", "--workers", "2",
    ]

    @staticmethod
    def _rows(workers):
        graph = generators.circulant_graph(14, [1, 2])
        routing = kernel_routing(graph).routing
        with CampaignEngine(graph, routing, workers=workers, policy=FAST) as engine:
            rows = engine.sweep_fault_sizes([1, 2], samples=20, seed=5, bound=3)
            return [row.record() for row in rows]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_poisoned_shard_retries_byte_identical(
        self, monkeypatch, ledger, workers
    ):
        clean = self._rows(workers)
        monkeypatch.setenv(CHAOS_ENV, "task:fail")
        assert self._rows(workers) == clean
        assert len(list(ledger.iterdir())) == 1  # the injection did fire

    def test_killed_worker_campaign_stdout_byte_identical(self, tmp_path):
        clean = _cli(tmp_path, *self.ARGS)
        assert clean.returncode == 0, clean.stderr
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        killed = _cli(tmp_path, *self.ARGS, chaos="task:kill", ledger=ledger)
        assert killed.returncode == 0, killed.stderr
        assert len(list(ledger.iterdir())) == 1  # a worker really died
        assert killed.stdout == clean.stdout


class TestQuarantine:
    """Permanent injections: the campaign fails as a row, not the sweep."""

    def test_always_failing_campaign_quarantines_and_resumes(
        self, tmp_path, monkeypatch
    ):
        # No ledger: every hypercube shard is poisoned on every attempt.
        monkeypatch.setenv(CHAOS_ENV, "task:fail:hypercube")
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        path = tmp_path / "store.jsonl"
        rows = _run_suite(
            path,
            workers=2,
            policy=SupervisorPolicy(
                max_retries=1, backoff_base=0.001, backoff_max=0.002
            ),
        )
        assert len(rows) == 3
        failed = [
            row for row in rows if isinstance(row.campaign, CampaignStatus)
        ]
        assert len(failed) == 1
        assert failed[0].scenario.startswith("hypercube")
        assert failed[0].campaign.disposition == "failed"
        assert "injected failure" in failed[0].campaign.reason
        # The scenario itself built fine; the row keeps its provenance.
        assert failed[0].fingerprint is not None
        first_bytes = path.read_bytes()
        first_records = [row.record() for row in rows]

        # The stored report distinguishes "failed" from "not swept".
        loaded = ResultStore.load(str(path))
        report = render_scaling_report(loaded.frame, loaded.run)
        assert "failed" in report
        assert "(1 failed)" in report

        # Resume with chaos cleared: failed rows are never silently
        # retried — everything rehydrates and the store does not change.
        monkeypatch.delenv(CHAOS_ENV)
        resumed = _run_suite(path, workers=1)
        assert [row.record() for row in resumed] == first_records
        assert path.read_bytes() == first_bytes

    def test_strict_restores_fail_fast(self, tmp_path, monkeypatch):
        from repro.runtime import TaskFailedError

        monkeypatch.setenv(CHAOS_ENV, "task:fail:hypercube")
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        path = tmp_path / "store.jsonl"
        with pytest.raises(TaskFailedError):
            _run_suite(
                path,
                workers=1,
                policy=SupervisorPolicy(
                    max_retries=0,
                    strict=True,
                    backoff_base=0.001,
                    backoff_max=0.002,
                ),
            )


class TestTornStoreWrites:
    """A writer killed mid-append: salvage + resume ends byte-identical."""

    GRID = "cycle:n=12/kernel/t=1/sizes:1-2"
    ARGS = ["--samples", "6", "--chunk-size", "4", "--seed", "3"]

    def test_torn_append_salvage_resume_byte_identical(self, tmp_path):
        golden = _cli(
            tmp_path, "grid", self.GRID, *self.ARGS, "--store", "golden.jsonl"
        )
        assert golden.returncode == 0, golden.stderr

        # The injected writer tears its first append and dies (exit 23).
        torn = _cli(
            tmp_path,
            "grid",
            self.GRID,
            *self.ARGS,
            "--store",
            "chaos.jsonl",
            chaos="append:torn",
        )
        assert torn.returncode == 23
        chaos_store = tmp_path / "chaos.jsonl"
        golden_bytes = (tmp_path / "golden.jsonl").read_bytes()
        assert chaos_store.read_bytes() != golden_bytes

        # Explicit salvage quarantines the torn tail...
        salvage = _cli(tmp_path, "salvage", "chaos.jsonl")
        assert salvage.returncode == 0, salvage.stderr
        assert "quarantined" in salvage.stdout
        sidecar = tmp_path / "chaos.jsonl.quarantine"
        assert sidecar.exists()
        assert sidecar.read_bytes().strip()

        # ...and the resumed sweep finishes with the golden bytes exactly.
        resumed = _cli(
            tmp_path,
            "grid",
            self.GRID,
            *self.ARGS,
            "--store",
            "chaos.jsonl",
            "--resume",
        )
        assert resumed.returncode == 0, resumed.stderr
        assert chaos_store.read_bytes() == golden_bytes

    def test_resume_alone_salvages_torn_store(self, tmp_path):
        golden = _cli(
            tmp_path, "grid", self.GRID, *self.ARGS, "--store", "golden.jsonl"
        )
        assert golden.returncode == 0, golden.stderr
        torn = _cli(
            tmp_path,
            "grid",
            self.GRID,
            *self.ARGS,
            "--store",
            "chaos.jsonl",
            chaos="append:torn",
        )
        assert torn.returncode == 23
        # No explicit salvage: --resume quarantines the tail itself.
        resumed = _cli(
            tmp_path,
            "grid",
            self.GRID,
            *self.ARGS,
            "--store",
            "chaos.jsonl",
            "--resume",
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "chaos.jsonl").read_bytes() == (
            tmp_path / "golden.jsonl"
        ).read_bytes()
        assert (tmp_path / "chaos.jsonl.quarantine").exists()


class TestInapplicableAnnotations:
    """Dropped scenarios are recorded and annotated, and resume cleanly."""

    def test_grid_records_inapplicable_and_report_annotates(self, tmp_path):
        saved = {
            key: os.environ.pop(key)
            for key in (CHAOS_ENV, LEDGER_ENV)
            if key in os.environ
        }
        try:
            # circular does not apply to hypercubes of this size: with a
            # strategy axis the combination drops and records status rows.
            scenarios = [
                "hypercube:d=3/kernel/t=1/sizes:1",
                "hypercube:d=3/circular/t=1/sizes:1",
            ]
            manifest = suite_manifest(scenarios, SAMPLES, SEED, None, CHUNK)
            path = tmp_path / "store.jsonl"
            store = ResultStore.create(str(path), manifest)
            skipped = []
            try:
                rows = run_scenario_suite(
                    scenarios,
                    samples=SAMPLES,
                    seed=SEED,
                    chunk_size=CHUNK,
                    store=store,
                    skip_inapplicable=True,
                    skipped=skipped,
                    policy=FAST,
                )
            finally:
                store.close()
            assert len(skipped) == 1
            assert len(rows) == 1  # the dropped scenario returns no rows
            first_bytes = path.read_bytes()

            loaded = ResultStore.load(str(path))
            assert len(loaded) == 2  # campaign row + inapplicable status row
            report = render_scaling_report(loaded.frame, loaded.run)
            assert "n/a" in report
            assert "(1 not applicable)" in report

            # Resume honours the stored drop without rebuilding: same rows,
            # same bytes, same skipped notice.
            store = ResultStore.open(str(path), manifest)
            resumed_skipped = []
            try:
                resumed = run_scenario_suite(
                    scenarios,
                    samples=SAMPLES,
                    seed=SEED,
                    chunk_size=CHUNK,
                    store=store,
                    skip_inapplicable=True,
                    skipped=resumed_skipped,
                    policy=FAST,
                )
            finally:
                store.close()
            assert len(resumed) == 1
            assert len(resumed_skipped) == 1
            assert [row.record() for row in resumed] == [
                row.record() for row in rows
            ]
            assert path.read_bytes() == first_bytes
        finally:
            os.environ.update(saved)
