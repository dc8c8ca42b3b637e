"""Unit tests for :mod:`repro.pipeline`."""

from __future__ import annotations

import pytest

from repro.core.config import SelectionConfig
from repro.exceptions import BackendError
from repro.pipeline import STAGES, Pipeline
from repro.workloads import small_example, three_point_dft_paper


def test_run_records_all_stage_timings():
    pipe = Pipeline(5, 4, config=SelectionConfig(span_limit=1))
    result = pipe.run(three_point_dft_paper())
    assert tuple(result.timings) == STAGES
    assert all(s >= 0.0 for s in result.timings.values())
    assert result.backend == "fused"
    assert result.total_seconds() == sum(result.timings.values())
    assert result.length == result.schedule.length


def test_run_with_prebuilt_catalog_skips_catalog_stage():
    pipe = Pipeline(5, 4, config=SelectionConfig(span_limit=1))
    catalog = pipe.selector.build_catalog(three_point_dft_paper())
    result = pipe.run(three_point_dft_paper(), catalog=catalog)
    assert "catalog" not in result.timings
    assert result.catalog is catalog


def test_collect_metrics_flag():
    pipe = Pipeline(
        5, 4, config=SelectionConfig(span_limit=1), collect_metrics=False
    )
    result = pipe.run(three_point_dft_paper())
    assert result.metrics == {}
    assert "metrics" not in result.timings

    on = Pipeline(5, 4, config=SelectionConfig(span_limit=1))
    result = on.run(three_point_dft_paper())
    assert result.metrics["length"] == result.schedule.length
    assert result.metrics["lower_bound"] >= 1


def test_injected_timer_is_used():
    ticks = iter(range(100))
    pipe = Pipeline(
        5,
        4,
        config=SelectionConfig(span_limit=1),
        timer=lambda: float(next(ticks)),
    )
    result = pipe.run(three_point_dft_paper())
    # each stage sees two consecutive integer ticks → exactly 1.0 apart
    assert all(s == 1.0 for s in result.timings.values())


def test_pipeline_unknown_backend_raises_at_construction():
    with pytest.raises(BackendError, match="unknown execution backend"):
        Pipeline(5, 4, backend="warp-drive")


def test_pipeline_custom_priority_fn_runs_on_fused_backend():
    from repro.core.variants import linear_size

    # Custom priorities cannot use the incremental selection cache; the
    # fused backend transparently routes them to the reference loop.
    pipe = Pipeline(2, 2, priority_fn=linear_size, backend="fused")
    ref = Pipeline(2, 2, priority_fn=linear_size, backend="serial")
    got, want = pipe.run(small_example()), ref.run(small_example())
    assert got.selection.library == want.selection.library
    assert got.schedule.cycles == want.schedule.cycles


def test_pipeline_f1_priority():
    pipe = Pipeline(5, 4, config=SelectionConfig(span_limit=1), priority="f1")
    result = pipe.run(three_point_dft_paper())
    result.schedule.verify()  # raises on an invalid schedule
    assert result.length >= result.metrics["lower_bound"]


def test_pipeline_store_antichains_routes_catalog_to_serial():
    # Only the serial classifier can materialize raw antichains; the
    # catalog stage must route there even on fused/process backends.
    cfg = SelectionConfig(span_limit=1, store_antichains=True)
    for backend in ("fused", "process"):
        result = Pipeline(5, 4, config=cfg, backend=backend, jobs=2).run(
            three_point_dft_paper()
        )
        assert result.catalog.antichains  # raw antichains really stored
        assert result.backend == backend


def test_pipeline_config_property():
    cfg = SelectionConfig(span_limit=2)
    pipe = Pipeline(5, 4, config=cfg)
    assert pipe.config is cfg
    assert Pipeline(5, 4).config == SelectionConfig()


def test_pipeline_rejects_jobs_with_backend_instance():
    # jobs= used to be silently dropped when a backend instance was passed;
    # it must now raise (the instance's worker count is fixed at construction).
    from repro.exec import SerialBackend

    with pytest.raises(BackendError, match="cannot be combined"):
        Pipeline(5, 4, backend=SerialBackend(), jobs=4)
