"""Command line interface: parsing, precedence, formats and exit codes."""

import io
import json

import numpy as np
import pytest

from spreadmux import cli
from spreadmux.cli import main
from spreadmux.experiments import ScenarioConfig, run_experiment

TINY_SIM = [
    "simulate", "--kind", "loss",
    "--n-registers", "5", "--users", "2", "--trials", "2",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "spreadmux" in capsys.readouterr().out


class TestCodesCommand:
    def test_csv_output(self, capsys):
        code, out, err = run_cli(capsys, ["codes", "--n-registers", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# spreadmux ")
        assert "# length: 31" in lines
        assert "# balance: -1" in lines
        assert "index,chip" in lines
        chips = [int(ln.split(",")[1]) for ln in lines[7:]]
        assert len(chips) == 31
        assert set(chips) == {-1, 1}

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, ["codes", "--n-registers", "4", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] == 15
        assert payload["balance"] == -1
        assert len(payload["chips"]) == 15

    def test_shift_recorded(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["codes", "--n-registers", "4", "--shift", "3", "--format", "json"],
        )
        assert json.loads(out)["shift"] == 3

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "code.csv"
        code, out, _ = run_cli(
            capsys, ["codes", "--n-registers", "4", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert "index,chip" in target.read_text()

    def test_bad_taps_exit_config(self, capsys):
        code, _, err = run_cli(
            capsys, ["codes", "--n-registers", "5", "--taps", "5,0"]
        )
        assert code == 2
        assert "spreadmux: error: config:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["codes", "--n-registers", "5", "--taps", "5,x"],
            ["simulate", "--kind", "loss", "--n-registers", "5,x"],
            ["simulate", "--kind", "loss", "--users", "2,x"],
        ],
        ids=["taps", "n_registers", "users"],
    )
    def test_bad_integer_list_exits_usage(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"spreadmux: error: usage: expected comma-separated integers, "
            f"got {argv[-1]!r}\n"
        )

    def test_non_primitive_taps_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["codes", "--n-registers", "4", "--taps", "4,2"]
        )
        assert code == 2
        assert "not primitive" in err


class TestValidateCommand:
    def test_small_range_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["validate", "--min-registers", "2", "--max-registers", "6"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines == [f"ok n={n} length={2**n - 1}" for n in range(2, 7)]

    def test_register_count_without_taps_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, ["validate", "--max-registers", "17"])
        assert code == 2
        assert out == ""  # rejected before any family is validated
        assert "spreadmux: error: config:" in err and "17" in err

    def test_empty_range_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["validate", "--min-registers", "6", "--max-registers", "3"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith(
            "spreadmux: error: config: --min-registers 6 exceeds --max-registers 3"
        )
        assert err.count("\n") == 1


class TestSimulateCommand:
    def test_csv_report(self, capsys):
        code, out, _ = run_cli(capsys, TINY_SIM)
        assert code == 0
        assert "# kind: loss" in out
        assert "S,N,mean,stderr,trials" in out
        assert out.splitlines()[-1].startswith("31,2,")

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, TINY_SIM + ["--format", "json"])
        payload = json.loads(out)
        assert payload["kind"] == "loss"
        assert payload["config"]["n_registers"] == [5]

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, TINY_SIM)
        _, second, _ = run_cli(capsys, TINY_SIM)
        assert first == second

    def test_seed_flag_changes_output(self, capsys):
        _, first, _ = run_cli(capsys, TINY_SIM + ["--seed", "1"])
        _, second, _ = run_cli(capsys, TINY_SIM + ["--seed", "2"])
        assert first != second

    def test_bad_flag_value_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["simulate", "--kind", "loss", "--n-registers", "abc"]
        )
        assert code == 2
        assert "error" in err

    def test_register_count_without_taps_rejected_before_any_cell(self, capsys):
        code, out, err = run_cli(
            capsys, ["simulate", "--kind", "loss", "--n-registers", "8,17"]
        )
        assert code == 2
        assert out == ""
        assert "built-in taps" in err

    def test_transition_longer_than_a_chip_rejected_before_any_cell(self, capsys):
        # 0.01 fits a chip of n = 5 (1/31) but not of n = 8 (1/255)
        code, out, err = run_cli(
            capsys,
            ["simulate", "--kind", "loss", "--n-registers", "5,8", "--users", "2",
             "--trials", "1", "--transition-time", "0.01"],
        )
        assert code == 2
        assert out == ""
        assert "spreadmux: error: config: transition_time" in err

    @pytest.mark.parametrize(
        "extra,field",
        [
            (["--transition-time", "nan"], "transition_time"),
            (["--seed", "-1"], "rng_seed"),
            (["--samples-per-chip", "100000000"], "grid of 3100000000 samples"),
        ],
        ids=["nan_transition", "negative_seed", "huge_grid"],
    )
    def test_bad_value_rejected_before_any_cell(self, capsys, monkeypatch, extra, field):
        def refuse(config):
            raise AssertionError("a cell ran before the configuration was checked")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        code, out, err = run_cli(capsys, TINY_SIM + extra)
        assert code == 2
        assert out == ""
        assert err.startswith(f"spreadmux: error: config: {field}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, samples",
        [
            # 2 waveform and 8000 packet rows of a 992 000-sample grid
            (["simulate", "--kind", "crosstalk", "--n-registers", "5", "--users", "2",
              "--trials", "1", "--bits-per-user", "8000"], 8002 * 992_000),
            # 16000 waveform rows and one packet row of a 65 532-sample grid
            (["simulate", "--kind", "loss", "--n-registers", "14", "--users", "16000",
              "--trials", "1"], 16001 * 65_532),
            # 2 waveform and 700 packet rows of a 1 430 800-sample grid
            (["traces", "--n-registers", "9", "--users", "2", "--bits-per-user", "700"],
             702 * 1_430_800),
        ],
        ids=["packet_rows", "waveform_rows", "trace"],
    )
    def test_oversized_plan_rejected_before_any_cell(
        self, capsys, monkeypatch, argv, samples
    ):
        def refuse(config):
            raise AssertionError("a cell ran before the configuration was checked")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"spreadmux: error: config: plan of {samples} samples")
        assert err.count("\n") == 1

    def test_one_sample_per_chip_rejected_before_any_cell(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["simulate", "--kind", "loss", "--n-registers", "5,8", "--users", "2",
             "--trials", "1", "--samples-per-chip", "1"],
        )
        assert code == 2
        assert out == ""
        assert "spreadmux: error: config: samples_per_chip" in err

    def test_more_users_than_codes_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["simulate", "--kind", "fidelity", "--n-registers", "3", "--users", "10"],
        )
        assert code == 2
        assert out == ""
        assert "at most 6 users" in err

    def test_invalid_scenario_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["simulate", "--kind", "loss", "--trials", "0"]
        )
        assert code == 2
        assert "spreadmux: error: config:" in err


class TestConfigFile:
    def test_file_supplies_fields(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"n_registers": [5], "users": [2], "trials": 2, "rng_seed": 7}
            )
        )
        code, out, _ = run_cli(
            capsys, ["simulate", "--kind", "loss", "--config", str(cfg)]
        )
        assert code == 0
        assert "# seed: 7" in out

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_registers": [5], "users": [2], "trials": 2}))
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--kind", "loss", "--config", str(cfg), "--seed", "42"],
        )
        assert "# seed: 42" in out

    def test_unknown_field_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"banana": 1}))
        code, _, err = run_cli(
            capsys, ["simulate", "--kind", "loss", "--config", str(cfg)]
        )
        assert code == 2
        assert "unknown fields" in err

    def test_kind_mismatch_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kind": "crosstalk"}))
        code, _, err = run_cli(
            capsys, ["simulate", "--kind", "loss", "--config", str(cfg)]
        )
        assert code == 2
        assert "kind" in err

    def test_scalar_for_a_list_field_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_registers": 8}))
        code, out, err = run_cli(
            capsys, ["simulate", "--kind", "loss", "--config", str(cfg)]
        )
        assert code == 2
        assert out == ""
        assert "spreadmux: error: config:" in err

    @pytest.mark.parametrize(
        "payload,field,value",
        [
            ({"n_registers": "89", "users": "23"}, "n_registers", "'89'"),
            ({"n_registers": 8}, "n_registers", "8"),
            ({"n_registers": [5], "users": "2"}, "users", "'2'"),
        ],
    )
    def test_list_field_error_names_field_and_value(
        self, capsys, tmp_path, payload, field, value
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, ["simulate", "--kind", "loss", "--config", str(cfg)]
        )
        assert code == 2
        assert out == ""
        expected = f"{field} must be a list of integers, got {value}"
        assert err == f"spreadmux: error: config: {expected}\n"

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["simulate", "--kind", "loss", "--config", str(tmp_path / "nope.json")],
        )
        assert code == 2
        assert "cannot read" in err


class TestTablesCommand:
    def test_writes_one_file_per_kind(self, capsys, tmp_path):
        # overriding the grid keeps the preset machinery but stays fast
        code, _, _ = run_cli(
            capsys,
            [
                "tables", "--which", "loss", "--out-dir", str(tmp_path),
                "--n-registers", "5", "--users", "2", "--trials", "2",
            ],
        )
        assert code == 0
        text = (tmp_path / "loss.csv").read_text()
        assert "# kind: loss" in text

    def test_stdout_when_no_dir(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "tables", "--which", "fidelity",
                "--n-registers", "5", "--users", "2", "--trials", "2",
            ],
        )
        assert code == 0
        assert "# kind: fidelity" in out


class TestTracesCommand:
    TINY = [
        "traces", "--n-registers", "5", "--users", "2", "--bits-per-user", "3",
    ]

    def test_csv_structure(self, capsys):
        code, out, _ = run_cli(capsys, self.TINY)
        assert code == 0
        lines = out.splitlines()
        assert "receiver,bin,sent_bit,detected" in lines
        words = [ln for ln in lines if ln.startswith("# word user=")]
        assert len(words) == 2
        data = [ln for ln in lines if ln[0].isdigit()]
        assert len(data) == 2 * 3  # users x bits

    def test_several_grid_entries_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, ["traces", "--n-registers", "6,8", "--users", "3,4"]
        )
        assert code == 2
        assert out == ""
        assert "spreadmux: error: config:" in err

    def test_density_file(self, capsys, tmp_path):
        density = tmp_path / "density.csv"
        code, _, _ = run_cli(capsys, self.TINY + ["--density", str(density)])
        assert code == 0
        lines = density.read_text().splitlines()
        assert "time,receiver_1,receiver_2" in lines
        result = run_experiment(
            ScenarioConfig(kind="trace", n_registers=(5,), users=(2,), bits_per_user=3)
        )
        columns = [result.grid.times] + [result.densities[uid] for uid in (1, 2)]
        expected = [",".join(f"{v:.10g}" for v in row) for row in zip(*columns)]
        assert lines[lines.index("time,receiver_1,receiver_2") + 1:] == expected


class TestOutputPaths:
    @pytest.fixture
    def no_cells(self, monkeypatch):
        def refuse(config):
            raise AssertionError("a cell ran before the output path was checked")

        monkeypatch.setattr(cli, "run_experiment", refuse)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (TINY_SIM + ["--out"], "--out"),
            (TestTracesCommand.TINY + ["--out"], "--out"),
            (TestTracesCommand.TINY + ["--density"], "--density"),
            (["codes", "--n-registers", "5", "--out"], "--out"),
        ],
    )
    def test_missing_directory_rejected_before_any_cell(
        self, capsys, tmp_path, no_cells, argv, flag
    ):
        path = tmp_path / "missing" / "file.csv"
        code, out, err = run_cli(capsys, argv + [str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"spreadmux: error: usage: {flag} {path}:")
        assert err.count("\n") == 1

    def test_overlong_directory_name_is_one_usage_line(self, capsys, tmp_path, no_cells):
        path = tmp_path / ("x" * 300) / "file.csv"
        code, out, err = run_cli(capsys, TINY_SIM + ["--out", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"spreadmux: error: usage: --out {path}:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (TINY_SIM + ["--out"], "--out"),
            (TestTracesCommand.TINY + ["--out"], "--out"),
            (TestTracesCommand.TINY + ["--density"], "--density"),
            (["codes", "--n-registers", "5", "--out"], "--out"),
        ],
    )
    def test_existing_directory_rejected_before_any_cell(
        self, capsys, tmp_path, no_cells, argv, flag
    ):
        code, out, err = run_cli(capsys, argv + [str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err == f"spreadmux: error: usage: {flag} {tmp_path}: is a directory\n"

    @pytest.mark.parametrize("flag", ["--out", "--density"])
    def test_write_failure_is_one_runtime_line(self, capsys, tmp_path, flag):
        # the name is too long for the file system, so opening it fails
        path = tmp_path / ("x" * 300)
        argv = TestTracesCommand.TINY + [flag, str(path)]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith(f"spreadmux: error: runtime: cannot write {path}:")
        assert err.count("\n") == 1

    def test_tables_creates_its_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "a" / "b"
        code, _, _ = run_cli(
            capsys,
            [
                "tables", "--which", "loss", "--out-dir", str(out_dir),
                "--n-registers", "5", "--users", "2", "--trials", "2",
            ],
        )
        assert code == 0
        assert (out_dir / "loss.csv").is_file()


class TestDensityWriter:
    def test_bytes_match_savetxt_across_blocks(self, tmp_path):
        result = run_experiment(
            ScenarioConfig(kind="trace", n_registers=(9,), users=(3,), bits_per_user=5)
        )
        rows = result.grid.n_samples
        assert rows > 2 * cli._DENSITY_BLOCK_ROWS
        assert rows % cli._DENSITY_BLOCK_ROWS != 0
        header = result.config.header_lines(kind="trace_density") + [
            "time,receiver_1,receiver_2,receiver_3"
        ]
        table = np.column_stack(
            [result.grid.times] + [result.densities[uid] for uid in (1, 2, 3)]
        )
        buf = io.StringIO()
        np.savetxt(
            buf, table, fmt="%.10g", delimiter=",", header="\n".join(header),
            comments="",
        )
        path = tmp_path / "density.csv"
        cli._write_density(path, result)
        assert path.read_bytes() == buf.getvalue().encode()
