"""CLI behavior: golden outputs, overrides, exit codes, reproducibility."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import Dist, ParetoPoint, cli, exact, random_model_pair, tv_distance

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

    @pytest.mark.parametrize(
        "command,config,golden",
        [
            ("exact", "exact_config.json", "exact_out.json"),
            ("simulate", "simulate_config.json", "simulate_out.json"),
            ("batch-scan", "batch_scan_config.json", "batch_scan_out.json"),
            ("pareto", "pareto_config.json", "pareto_out.json"),
        ],
    )
    def test_json_matches_golden(self, command, config, golden):
        proc = run_cli(command, "--config", str(GOLDEN / config), "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_text()


class TestExactJob:
    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_one_walk_per_job(self, tmp_path, capsys, monkeypatch, batch_size):
        walks = []
        markov_terms = exact._markov_terms

        def counted(*args, **kwargs):
            walks.append(args)
            return markov_terms(*args, **kwargs)

        monkeypatch.setattr(exact, "_markov_terms", counted)
        config = json.loads((GOLDEN / "exact_config.json").read_text())
        if batch_size is None:
            del config["batch_size"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        outputs = []
        for fmt in ("csv", "json"):
            walks.clear()
            assert cli.main(["exact", "--config", str(path), "--format", fmt]) == 0
            assert len(walks) == 1
            outputs.append(capsys.readouterr().out)
        if batch_size is not None:
            assert outputs == [(GOLDEN / f"exact_out.{fmt}").read_text() for fmt in ("csv", "json")]


class TestParetoJob:
    def test_pair_rows_are_read_as_the_model_holds_them(self):
        # Dist(row) divides a model row by its total again, which changes the
        # last bit of some rows of this pair and so, at some (step, state), tv.
        descriptor = {"generator": "random", "seed": 10, "vocab_size": 7, "horizon": 50}
        pair = random_model_pair(7, 50, seed=10)
        moved = [
            (step, state)
            for step in range(1, 51)
            for state in range(7)
            if tv_distance(*(Dist(m.step(step, (state,))) for m in (pair.p, pair.q)))
            != tv_distance(pair.p.step(step, (state,)), pair.q.step(step, (state,)))
        ]
        assert moved
        for step, state in moved[:5]:
            config = {"pair": descriptor, "step": step, "state": state, "eps_grid": [0.0, 0.5]}
            results, columns, rows = cli.cmd_pareto({"pareto": config})
            tv = tv_distance(pair.p.step(step, (state,)), pair.q.step(step, (state,)))
            tv_column = columns.index("tv")
            assert [result["tv"] for result in results] == [tv, tv]
            assert [row[tv_column] for row in rows] == [tv, tv]


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

    @pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
    def test_unwritable_out(self, tmp_path, capsys, target):
        # A missing parent directory, or a path that names a directory.
        out = tmp_path / "missing" / "out.csv" if target == "missing-dir" else tmp_path
        config = str(GOLDEN / "exact_config.json")
        assert cli.main(["exact", "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("specdec: cannot write output: ")
        assert str(out) in captured.err and captured.out == ""

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

    @pytest.mark.parametrize("algorithm", ["sd", "autoregressive"])
    def test_simulate_refuses_a_batch_size_its_algorithm_ignores(self, tmp_path, capsys,
                                                                 algorithm):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**VALID_CONFIGS["simulate"], "algorithm": algorithm}))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"specdec: config error: {algorithm} runs need batch_size 1\n")

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        built = []

        class Counted(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=Counted))
        cli._parser.cache_clear()
        try:
            errors = []
            for _ in range(2):
                with pytest.raises(SystemExit) as exit_info:
                    cli.main(["explain", "--config", "x.json"])
                errors.append((exit_info.value.code, capsys.readouterr().err))
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(VALID_CONFIGS["pareto"]))
            assert cli.main(["pareto", "--config", str(path)]) == 0
        finally:
            cli._parser.cache_clear()
        assert built.count("specdec") == 1
        assert errors[0] == errors[1]
        assert errors[0][0] == 2 and "invalid choice: 'explain'" in errors[0][1]

    def test_unknown_subcommand(self):
        proc = run_cli("explain", "--config", "x.json")
        assert proc.returncode == 2

    def test_missing_config_flag(self):
        proc = run_cli("exact")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "grid",
        [[float("nan")], [0.1, float("inf")], [True, "0.5"], [0.5, "0.5"], [False], [10**400],
         [0.5, -0.25]],
    )
    def test_pareto_eps_grid_must_be_finite_numbers(self, tmp_path, capsys, grid):
        path = tmp_path / "cfg.json"
        config = {"pareto": {"p": [0.7, 0.3], "q": [0.4, 0.6], "eps_grid": grid}}
        path.write_text(json.dumps(config))
        assert cli.main(["pareto", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("specdec: config error:")
        assert "pareto.eps_grid" in err

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


# -- config fuzzing ------------------------------------------------------

GOOD_PAIR = {"generator": "random", "seed": 1, "vocab_size": 2, "horizon": 2}
GOOD_MODEL = {"vocab_size": 2, "horizon": 1, "prompt": [0.5, 0.5],
              "steps": [[[0.9, 0.1], [0.2, 0.8]]]}
EXPLICIT_PAIR = {"p": GOOD_MODEL, "q": {**GOOD_MODEL, "steps": [[[0.3, 0.7], [0.6, 0.4]]]}}
VALID_CONFIGS = {
    "exact": {"pair": GOOD_PAIR, "batch_size": 2},
    "exact-explicit": {"pair": EXPLICIT_PAIR},
    "simulate": {"pair": GOOD_PAIR, "algorithm": "batch", "batch_size": 2, "runs": 4,
                 "seed": 0, "checkpoint_every": 2},
    "batch-scan": {"pair": GOOD_PAIR, "batch_sizes": [1, 2], "runs": 4, "seed": 0},
    "pareto": {"pareto": {"p": [0.7, 0.3], "q": [0.4, 0.6], "eps_grid": [0.0, 0.5]}},
    "pareto-pair": {"pareto": {"pair": GOOD_PAIR, "step": 1, "state": 0, "eps_grid": [0.2]}},
}
DELETE = object()

scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
containers = st.one_of(st.lists(scalars, max_size=3),
                       st.dictionaries(st.text(max_size=3), scalars, max_size=3))
not_int = st.one_of(st.booleans(), st.text(max_size=4), containers,
                    st.floats().filter(lambda x: not x.is_integer()))
not_real = st.one_of(st.none(), st.booleans(), st.text(max_size=4), containers,
                     st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
not_list = st.one_of(scalars, st.dictionaries(st.text(max_size=3), scalars, max_size=3))
not_object = st.one_of(scalars, st.lists(scalars, max_size=3))


def bad_int(minimum: int):
    return not_int | st.integers(max_value=minimum - 1)


def with_bad_entry(good: list, bad):
    """``good`` with one entry replaced by a draw from ``bad``."""
    return st.tuples(st.integers(0, len(good) - 1), bad).map(
        lambda drawn: [drawn[1] if i == drawn[0] else v for i, v in enumerate(good)])


def bad_list(good: list, bad_entry):
    return st.one_of(not_list, st.just([]), with_bad_entry(good, bad_entry))


def bad_dist(good: list):
    """Never a distribution of ``good``'s length: wrong type, length, sign or total."""
    return st.one_of(
        bad_list(good, not_real),
        st.lists(st.floats(0, 1), min_size=len(good) + 1, max_size=len(good) + 2)
        .map(lambda row: [x / (sum(row) or 1) for x in row]),
        with_bad_entry(good, st.floats(max_value=-1e-6)),
        st.just([2 * x for x in good]),
    )


PAIR_FIELDS = {
    ("pair",): not_object,
    ("pair", "generator"): st.one_of(st.text(max_size=6).filter(lambda s: s != "random"),
                                     st.integers(), containers),
    ("pair", "seed"): bad_int(0) | st.just(DELETE),
    ("pair", "vocab_size"): bad_int(1) | st.just(DELETE),
    ("pair", "horizon"): bad_int(1) | st.just(DELETE),
}
EXPLICIT_FIELDS = {
    ("pair", "p"): not_object | st.just(DELETE),
    ("pair", "q", "prompt"): bad_dist([0.5, 0.5]) | st.just(DELETE),
    ("pair", "p", "steps"): st.one_of(
        st.just(DELETE), bad_list(GOOD_MODEL["steps"], not_list),
        st.just([[[0.9, 0.1]]]), st.just([[[0.9, "0.1"], [0.2, 0.8]]]),
        st.just([[[1.9, 0.1], [0.2, 0.8]]]), st.just(GOOD_MODEL["steps"] * 2),
        st.lists(bad_dist([0.9, 0.1]), min_size=2, max_size=2).map(lambda rows: [rows])),
    ("pair", "q", "vocab_size"): bad_int(1) | st.integers(3, 10**6),
    ("pair", "p", "horizon"): bad_int(1) | st.integers(2, 10**6),
}
FIELDS = {
    "exact": {**PAIR_FIELDS, ("batch_size",): bad_int(1), ("pair",): not_object | st.just(DELETE)},
    "exact-explicit": EXPLICIT_FIELDS,
    "simulate": {
        **PAIR_FIELDS,
        ("algorithm",): st.one_of(
            st.text(max_size=8).filter(lambda s: s != "batch"),
            st.sampled_from(["sd", "generic", "autoregressive"]),
            st.none(), st.integers(), containers),
        ("runs",): bad_int(1) | st.just(DELETE) | st.none(),
        ("seed",): bad_int(0) | st.just(DELETE) | st.none(),
        ("batch_size",): bad_int(1) | st.none(),
        ("checkpoint_every",): bad_int(1) | st.none(),
    },
    "batch-scan": {
        **PAIR_FIELDS,
        ("batch_sizes",): bad_list([1, 2], bad_int(1)),
        ("runs",): bad_int(1) | st.just(DELETE),
        ("seed",): bad_int(0) | st.just(DELETE),
    },
    "pareto": {
        ("pareto",): not_object | st.just(DELETE),
        ("pareto", "eps_grid"): bad_list([0.0, 0.5], not_real | st.floats(max_value=-1e-6)),
        ("pareto", "p"): bad_dist([0.7, 0.3]) | st.just(DELETE),
        ("pareto", "q"): bad_dist([0.4, 0.6]),
    },
    "pareto-pair": {
        **{("pareto", *path): bad for path, bad in PAIR_FIELDS.items()},
        ("pareto", "pair"): not_object | st.just(EXPLICIT_PAIR | {"q": "x"}),
        ("pareto", "step"): bad_int(1) | st.integers(3, 10**9) | st.just(DELETE),
        ("pareto", "state"): bad_int(0) | st.integers(2, 10**9) | st.just(DELETE),
    },
}


def subcommand(name: str) -> str:
    """The subcommand a VALID_CONFIGS entry is for: its name up to a variant suffix."""
    return name if name == "batch-scan" else name.split("-")[0]


def corrupted(config: dict, path: tuple, value) -> dict:
    config = json.loads(json.dumps(config))
    *parents, key = path
    node = config
    for parent in parents:
        node = node[parent]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return config


@st.composite
def malformed_configs(draw):
    """(subcommand, config text): a valid config with one field made invalid, or a bad root."""
    name = draw(st.sampled_from(sorted(VALID_CONFIGS)))
    command = subcommand(name)
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return command, json.dumps(draw(not_object))
    if choice == 1:
        return command, draw(st.sampled_from(["", "{", "{'runs': 1}", "[1,", "nul"]))
    fields = FIELDS[name]
    path = draw(st.sampled_from(sorted(fields)))
    return command, json.dumps(corrupted(VALID_CONFIGS[name], path, draw(fields[path])))


@pytest.mark.parametrize("name", sorted(VALID_CONFIGS))
def test_fuzzer_base_configs_are_valid(name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(VALID_CONFIGS[name]))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([subcommand(name), "--config", str(path)]) == 0


@given(malformed_configs())
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
def test_malformed_configs_exit_2_with_a_message(case):
    command, text = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(text)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(path)])
    assert code == 2, (command, text, stdout.getvalue())
    assert stderr.getvalue().startswith("specdec: config error: ")
    assert stdout.getvalue() == ""
