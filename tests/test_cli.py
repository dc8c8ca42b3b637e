"""Unit tests for :mod:`repro.cli`."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestTables:
    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6])
    def test_table_commands_succeed(self, number, capsys):
        assert main(["table", str(number)]) == 0
        out = capsys.readouterr().out
        assert f"Table {number}" in out

    def test_table1_contains_levels(self, capsys):
        main(["table", "1"])
        out = capsys.readouterr().out
        assert "b3" in out and "height" in out

    def test_table2_contains_trace(self, capsys):
        main(["table", "2"])
        out = capsys.readouterr().out
        assert "aabcc" in out and "a19" in out

    def test_table7_fast_settings(self, capsys):
        assert main(["table", "7", "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "3dft" in out and "5dft" in out and "Selected" in out

    def test_invalid_table_number(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "9"])


class TestSelect:
    def test_select_3dft(self, capsys):
        assert main(["select", "3dft", "--pdef", "3"]) == 0
        out = capsys.readouterr().out
        assert "selected patterns" in out
        assert out.count("\n  ") >= 1

    def test_unknown_workload_is_clean_error(self, capsys):
        assert main(["select", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "unknown workload" in err

    def test_variant_flag(self, capsys):
        assert main(["select", "3dft", "--pdef", "2",
                     "--variant", "linear_size"]) == 0
        out = capsys.readouterr().out
        assert "variant=linear_size" in out

    def test_unknown_variant_is_clean_error(self, capsys):
        assert main(["select", "3dft", "--variant", "nope"]) == 1
        assert "unknown priority variant" in capsys.readouterr().err


class TestSchedule:
    def test_schedule_3dft(self, capsys):
        rc = main(["schedule", "3dft", "--patterns", "aabcc,aaacc"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total clock cycles: 7" in out

    def test_deadlock_is_clean_error(self, capsys):
        rc = main(["schedule", "3dft", "--patterns", "aabbb"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestPipeline:
    def test_pipeline_3dft(self, capsys):
        assert main(["pipeline", "3dft", "--pdef", "4", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "pipeline '3dft'" in out
        assert "cycles:" in out and "stage timings" in out
        assert "catalog" in out and "schedule" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "3dft"],
            ["schedule", "3dft", "--patterns", "aabbc,abc"],
            ["pipeline", "3dft"],
            ["serve"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_jobs_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--claim-batch", "7"],
            ["--shard-timeout", "0.5"],
            ["--shard-retries", "0"],
            ["--no-failover"],
            ["--shards", "2"],
        ],
    )
    def test_removed_shard_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "3dft", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_backends_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["backends"])
        assert exc.value.code == 2
        assert "invalid choice: 'backends'" in capsys.readouterr().err


class TestCompile:
    def test_compile_program(self, tmp_path, capsys):
        src = tmp_path / "prog.txt"
        src.write_text("t = a*b + c\ny = t - d\n")
        assert main(["compile", str(src), "--pdef", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_compile_with_mac_fusion(self, tmp_path, capsys):
        src = tmp_path / "prog.txt"
        src.write_text("y = a*b + c\n")
        assert main(["compile", str(src), "--pdef", "1", "--fuse-mac"]) == 0


class TestCacheGc:
    def _fill(self, tmp_path):
        from repro.service import JobRequest, SchedulerService

        with SchedulerService(cache_dir=tmp_path) as service:
            service.submit(JobRequest(capacity=5, pdef=4, workload="3dft"))

    def test_gc_prunes_to_budget(self, tmp_path, capsys):
        self._fill(tmp_path)
        assert main(["cache-gc", str(tmp_path), "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and "keeping 0 bytes" in out
        assert not list(tmp_path.rglob("*.json"))

    def test_gc_dry_run_keeps_files(self, tmp_path, capsys):
        self._fill(tmp_path)
        before = sorted(tmp_path.rglob("*.json"))
        assert main(
            ["cache-gc", str(tmp_path), "--max-bytes", "0", "--dry-run"]
        ) == 0
        assert "would remove" in capsys.readouterr().out
        assert sorted(tmp_path.rglob("*.json")) == before

    def test_gc_accepts_size_suffixes(self, tmp_path, capsys):
        self._fill(tmp_path)
        assert main(["cache-gc", str(tmp_path), "--max-bytes", "1G"]) == 0
        assert "removed 0 files" in capsys.readouterr().out

    def test_gc_bad_size_is_clean_error(self, tmp_path, capsys):
        assert main(["cache-gc", str(tmp_path), "--max-bytes", "lots"]) == 1
        assert "cannot parse byte size" in capsys.readouterr().err

    def test_gc_missing_dir_is_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["cache-gc", str(missing), "--max-bytes", "1M"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_parse_bytes_forms(self):
        from repro.cli import _parse_bytes

        assert _parse_bytes("123") == 123
        assert _parse_bytes("4K") == 4096
        assert _parse_bytes("1.5M") == int(1.5 * (1 << 20))
        assert _parse_bytes("2g") == 2 << 30
        assert _parse_bytes("64MiB") == 64 << 20


class TestMisc:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "3dft" in out and "5dft" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_full_tables_command(self, capsys):
        assert main(["tables", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 8):
            assert f"Table {n}" in out
