"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main


class TestGenerateAndStats:
    def test_generate_mbone_map(self, tmp_path, capsys):
        out = tmp_path / "m.map"
        assert main(["generate-map", "--nodes", "100", "--seed", "3",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_doar_map(self, tmp_path, capsys):
        out = tmp_path / "d.map"
        assert main(["generate-map", "--kind", "doar", "--nodes", "50",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_map_stats(self, tmp_path, capsys):
        out = tmp_path / "m.map"
        main(["generate-map", "--nodes", "100", "--out", str(out)])
        capsys.readouterr()
        assert main(["map-stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "nodes:" in text
        assert "threshold census:" in text


class TestAnalysisCommands:
    def test_analyze_birthday(self, capsys):
        assert main(["analyze", "birthday", "--space", "10000",
                     "--allocations", "118"]) == 0
        out = capsys.readouterr().out
        assert "P(clash" in out
        assert "= 0.49" in out or "= 0.50" in out

    def test_analyze_eq1(self, capsys):
        assert main(["analyze", "eq1", "--space", "8192",
                     "--i-fraction", "0.001"]) == 0
        assert "2061" in capsys.readouterr().out

    def test_analyze_responders(self, capsys):
        assert main(["analyze", "responders", "--sites", "1600",
                     "--buckets", "32"]) == 0
        out = capsys.readouterr().out
        assert "uniform=50.00" in out
        assert "exponential=1.443" in out


class TestSimulationCommands:
    def test_hopcount(self, capsys):
        assert main(["hopcount", "--nodes", "100", "--seed", "3",
                     "--ttls", "15", "127"]) == 0
        out = capsys.readouterr().out
        assert "Intercontinental" in out
        assert "Local" in out

    def test_hopcount_from_map(self, tmp_path, capsys):
        out_file = tmp_path / "m.map"
        main(["generate-map", "--nodes", "100", "--out",
              str(out_file)])
        capsys.readouterr()
        assert main(["hopcount", "--map", str(out_file)]) == 0
        assert "ttl" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5", "--nodes", "100", "--sizes", "100",
                     "--trials", "1", "--algorithms", "random",
                     "ipr7"]) == 0
        out = capsys.readouterr().out
        assert "ipr7" in out
        assert "random" in out
        assert "ds4" in out

    def test_steady_state(self, capsys):
        assert main(["steady-state", "--nodes", "100", "--algorithm",
                     "ipr7", "--spaces", "100", "--trials", "3"]) == 0
        assert "allocations@0.5" in capsys.readouterr().out

    def test_request_response(self, capsys):
        assert main(["request-response", "--sites", "150", "--d2",
                     "1.6", "--trials", "3"]) == 0
        assert "mean responses" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_reproduce_report(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["reproduce", "--nodes", "150", "--out",
                     str(out)]) == 0
        text = capsys.readouterr().out
        assert "16,488" in text
        assert "fig. 5" in text
        assert out.read_text().startswith("repro — compact")


class TestParallelSweeps:
    def test_fig5_jobs_table_matches_serial(self, capsys):
        argv = ["fig5", "--nodes", "40", "--sizes", "60",
                "--trials", "1", "--algorithms", "random"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "random" in serial

    def test_steady_jobs_table_matches_serial(self, capsys):
        argv = ["steady-state", "--nodes", "40", "--algorithm",
                "random", "--spaces", "60", "--trials", "1"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_a_raising_cell_fails_the_map(self):
        # No retry: the worker's exception reaches the caller.
        from repro.experiments.pool import ordered_map

        with pytest.raises(ValueError, match="'x'"):
            ordered_map(int, ["1", "x", "3"], 2)

    @pytest.mark.parametrize("argv", [
        ["fig5", "--jobs", "0"],
        ["steady-state", "--jobs", "-4"],
        ["scenario", "fuzz", "--jobs", "0"],
    ], ids=["fig5", "steady-state", "scenario-fuzz"])
    def test_jobs_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("tool, args", [
    ("lint", ["src", "--select", "unseeded-rng", "--seed", "7"]),
    ("modelcheck", ["smoke", "--max-states", "10", "--seed", "3"]),
    ("scenario", ["fuzz", "--shrink-budget", "4", "--seed", "0x1"]),
])
def test_tool_arguments_pass_through_unchanged(monkeypatch, tool, args):
    received = []

    def fake_main(argv):
        received.append(argv)
        return 0

    monkeypatch.setattr(f"repro.{tool}.cli.main", fake_main)
    assert main([tool, *args]) == 0
    assert received == [args]
