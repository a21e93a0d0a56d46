"""CLI behavior: golden outputs, overrides, exit codes, reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from specdec import ParetoPoint, cli

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "specdec", *args], capture_output=True, text=True
    )


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "command,config,golden",
        [
            ("exact", "exact_config.json", "exact_out.csv"),
            ("simulate", "simulate_config.json", "simulate_out.csv"),
            ("batch-scan", "batch_scan_config.json", "batch_scan_out.csv"),
            ("pareto", "pareto_config.json", "pareto_out.csv"),
        ],
    )
    def test_csv_matches_golden(self, command, config, golden):
        proc = run_cli(command, "--config", str(GOLDEN / config))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_text()

    def test_json_matches_golden(self):
        proc = run_cli(
            "exact", "--config", str(GOLDEN / "exact_config.json"), "--format", "json"
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "exact_out.json").read_text()


class TestOutputHandling:
    def test_out_file_equals_stdout(self, tmp_path):
        config = str(GOLDEN / "pareto_config.json")
        proc = run_cli("pareto", "--config", config)
        out_file = tmp_path / "pareto.csv"
        written = run_cli("pareto", "--config", config, "--out", str(out_file))
        assert written.returncode == 0
        assert written.stdout == ""
        assert out_file.read_text() == proc.stdout

    def test_json_format_parses_and_agrees_with_csv(self):
        config = str(GOLDEN / "exact_config.json")
        doc = json.loads(run_cli("exact", "--config", config, "--format", "json").stdout)
        csv_rows = run_cli("exact", "--config", config).stdout.splitlines()
        cells = dict(zip(csv_rows[2].split(","), csv_rows[3].split(",")))
        assert doc["command"] == "exact"
        assert doc["results"]["expected_rejections_sd"] == float(
            cells["expected_rejections_sd"]
        )
        assert doc["results"]["batch_total"] == float(cells["batch_total"])

    def test_repeated_invocations_are_byte_identical(self):
        config = str(GOLDEN / "simulate_config.json")
        first = run_cli("simulate", "--config", config)
        second = run_cli("simulate", "--config", config)
        assert first.stdout == second.stdout
        assert first.stdout.startswith("# specdec simulate\n")

    def test_seed_override_changes_output_and_header(self):
        config = str(GOLDEN / "simulate_config.json")
        base = run_cli("simulate", "--config", config)
        overridden = run_cli("simulate", "--config", config, "--seed", "77")
        assert overridden.returncode == 0
        assert '"seed":77' in overridden.stdout.splitlines()[1]
        assert overridden.stdout != base.stdout

    def test_runs_override_changes_checkpoint_count(self):
        config = str(GOLDEN / "simulate_config.json")
        overridden = run_cli("simulate", "--config", config, "--runs", "120")
        rows = [line for line in overridden.stdout.splitlines() if not line.startswith("#")]
        assert rows[0] == "checkpoint,mean,stderr,exact,rel_dev"
        assert [r.split(",")[0] for r in rows[1:]] == ["100", "120"]

    def test_batch_scan_ends_with_limit_row(self):
        proc = run_cli("batch-scan", "--config", str(GOLDEN / "batch_scan_config.json"))
        last = proc.stdout.splitlines()[-1]
        assert last.startswith("limit,")
        assert last.endswith(",,")


class TestConfigErrors:
    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        proc = run_cli("exact", "--config", str(path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "'pair'" in proc.stderr

    def test_unreadable_config(self):
        proc = run_cli("exact", "--config", "/nonexistent/config.json")
        assert proc.returncode == 2
        assert "cannot read config" in proc.stderr

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("exact", "--config", str(path))
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        proc = run_cli("exact", "--config", str(path))
        assert proc.returncode == 2

    def test_bad_field_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "pair": {"generator": "random", "seed": 1, "vocab_size": 2, "horizon": 2},
                    "batch_sizes": [0],
                    "runs": 10,
                    "seed": 0,
                }
            )
        )
        proc = run_cli("batch-scan", "--config", str(path))
        assert proc.returncode == 2
        assert "batch_sizes" in proc.stderr

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize(
        "command,key",
        [("simulate", "runs"), ("simulate", "seed"), ("exact", "batch_size"),
         ("batch-scan", "batch_sizes"), ("exact", "pair.seed"), ("exact", "pair.vocab_size")],
    )
    def test_non_integer_values_rejected(self, tmp_path, capsys, command, key, value):
        config = {
            "pair": {"generator": "random", "seed": 1, "vocab_size": 2, "horizon": 2},
            "runs": 10,
            "seed": 0,
        }
        if key.startswith("pair."):
            config["pair"][key[len("pair."):]] = value
        else:
            config[key] = [value] if key == "batch_sizes" else value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "integer" in err

    def test_unknown_subcommand(self):
        proc = run_cli("explain", "--config", "x.json")
        assert proc.returncode == 2

    def test_missing_config_flag(self):
        proc = run_cli("exact")
        assert proc.returncode == 2

    def test_pareto_needs_dists_or_pair(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pareto": {"eps_grid": [0.0]}}))
        proc = run_cli("pareto", "--config", str(path))
        assert proc.returncode == 2
        assert '"p"/"q"' in proc.stderr


class TestGuardViolations:
    def test_pareto_identity_guard(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pareto": {"p": [0.7, 0.3], "q": [0.4, 0.6]}}))
        monkeypatch.setattr(
            cli, "pareto_front", lambda p, q, grid: [ParetoPoint(0.0, 0.5, 0.5)]
        )
        code = cli.main(["pareto", "--config", str(path)])
        assert code == 3

    def test_batch_scan_monotonicity_guard(self, tmp_path, monkeypatch, capsys):
        from specdec import BatchScanRow

        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "pair": {"generator": "random", "seed": 1, "vocab_size": 2, "horizon": 2},
                    "batch_sizes": [1, 2],
                    "runs": 5,
                    "seed": 0,
                }
            )
        )
        rigged = [
            BatchScanRow(1, 0.4, 0.4, 0.0),
            BatchScanRow(2, 0.9, 0.9, 0.0),
            BatchScanRow(None, 0.1, None, None),
        ]
        monkeypatch.setattr(cli, "batch_scan", lambda *a, **k: rigged)
        code = cli.main(["batch-scan", "--config", str(path)])
        assert code == 3
        assert "increased along the scan" in capsys.readouterr().err
