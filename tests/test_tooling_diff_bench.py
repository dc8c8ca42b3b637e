"""Tests for the CI bench-diff gate (``scripts/diff_bench.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "diff_bench",
    Path(__file__).resolve().parent.parent / "scripts" / "diff_bench.py",
)
diff_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_bench)


def _report(stages):
    return {
        "benchmark": "engine_speedup",
        "stages": [
            {
                "workload": w,
                "stage": s,
                "reference_s": 1.0,
                "fast_s": 1.0 / speedup,
                "speedup": speedup,
            }
            for w, s, speedup in stages
        ],
    }


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return path


def test_ok_without_baseline(tmp_path, capsys):
    new = _write(
        tmp_path, "new.json",
        _report([("FFT-8", "enumeration+classify", 5.0)]),
    )
    assert diff_bench.main([str(new)]) == 0
    assert "no baseline" in capsys.readouterr().out


def test_floor_violation_fails(tmp_path, capsys):
    new = _write(
        tmp_path, "new.json",
        _report([("FFT-8", "enumeration+classify", 1.4)]),
    )
    assert diff_bench.main([str(new)]) == 1
    assert "below the 2.0x floor" in capsys.readouterr().err


def test_stage_regression_against_baseline_fails(tmp_path, capsys):
    old = _write(
        tmp_path, "old.json",
        _report([
            ("FFT-8", "enumeration+classify", 6.0),
            ("FFT-8", "scheduling", 4.0),
        ]),
    )
    new = _write(
        tmp_path, "new.json",
        _report([
            ("FFT-8", "enumeration+classify", 5.5),
            ("FFT-8", "scheduling", 1.5),  # < 50% of 4.0x
        ]),
    )
    assert diff_bench.main([str(new), "--baseline", str(old)]) == 1
    err = capsys.readouterr().err
    assert "FFT-8/scheduling" in err and "regressed" in err


def test_mild_noise_passes(tmp_path):
    old = _write(
        tmp_path, "old.json",
        _report([("FFT-8", "enumeration+classify", 6.0)]),
    )
    new = _write(
        tmp_path, "new.json",
        _report([("FFT-8", "enumeration+classify", 4.0)]),  # > 50% of 6.0
    )
    assert diff_bench.main([str(new), "--baseline", str(old)]) == 0


def test_new_and_dropped_stages_never_fail(tmp_path, capsys):
    old = _write(
        tmp_path, "old.json",
        _report([("FFT-8", "selection", 3.0)]),
    )
    new = _write(
        tmp_path, "new.json",
        _report([("FFT-64", "selection", 3.0)]),
    )
    assert diff_bench.main([str(new), "--baseline", str(old)]) == 0
    out = capsys.readouterr().out
    assert "new stage" in out and "dropped" in out


def test_sub10ms_stages_excluded_from_relative_diff(tmp_path, capsys):
    # Sub-10ms stages flip their ratio on a single scheduler hiccup;
    # the relative compare must not gate timer noise.
    def _micro(speedup):
        report = _report([("FFT-8", "selection", speedup)])
        row = report["stages"][0]
        row["reference_s"] = 0.001 * speedup
        row["fast_s"] = 0.001
        return report

    old = _write(tmp_path, "old.json", _micro(1.3))
    new = _write(tmp_path, "new.json", _micro(0.2))
    assert diff_bench.main([str(new), "--baseline", str(old)]) == 0
    assert "timer-noise bound" in capsys.readouterr().out


def test_missing_baseline_path_is_skipped(tmp_path):
    new = _write(
        tmp_path, "new.json",
        _report([("FFT-8", "enumeration+classify", 5.0)]),
    )
    assert diff_bench.main(
        [str(new), "--baseline", str(tmp_path / "nope.json")]
    ) == 0
