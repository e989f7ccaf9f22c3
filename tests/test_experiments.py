"""Scenario configs, Monte Carlo runners and report serialisation.

Runner tests use deliberately tiny grids (S = 31, few trials) so the whole
module stays fast; statistical agreement with published-scale settings lives
in test_acceptance.py.
"""

import json

import numpy as np
import pytest

from spreadmux.experiments import (
    DEFAULT_SIGMA_FILT,
    MetricsReport,
    REPRODUCTION_SETTINGS,
    ReportCell,
    ScenarioConfig,
    TraceResult,
    reproduction_config,
    run_crosstalk,
    run_experiment,
    run_fidelity,
    run_loss,
    run_trace,
)

TINY = dict(n_registers=(5,), users=(2,), trials=3)


class TestScenarioConfig:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioConfig(kind="throughput")

    def test_grids_normalised_to_int_tuples(self):
        cfg = ScenarioConfig(kind="loss", n_registers=[8.0, 10], users=[5])
        assert cfg.n_registers == (8, 10)
        assert cfg.users == (5,)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_registers", "89"),
            ("users", "23"),
            ("n_registers", 8),
            ("users", [2.5]),
            ("n_registers", [True]),
            ("users", ["2"]),
        ],
    )
    def test_list_fields_take_integers_only(self, field, value):
        message = f"{field} must be a list of integers"
        with pytest.raises(ValueError, match=message) as info:
            ScenarioConfig(kind="loss", **{field: value})
        assert repr(value) in str(info.value)

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScenarioConfig(kind="loss", n_registers=())

    @pytest.mark.parametrize("field", ["n_registers", "users"])
    def test_trace_takes_one_grid_entry(self, field):
        grid = {"n_registers": (6,), "users": (3,)}
        grid[field] += (4,) if field == "users" else (8,)
        with pytest.raises(ValueError, match="one register count"):
            ScenarioConfig(kind="trace", **grid)

    @pytest.mark.parametrize("n", [1, 17])
    def test_register_count_needs_built_in_taps(self, n):
        with pytest.raises(ValueError, match="built-in taps"):
            ScenarioConfig(kind="loss", n_registers=(8, n))

    def test_users_must_fit_shortest_code_family(self):
        ScenarioConfig(kind="fidelity", n_registers=(3, 8), users=(6,))
        with pytest.raises(ValueError, match="at most 6 users"):
            ScenarioConfig(kind="fidelity", n_registers=(3, 8), users=(2, 7))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("users", (0,)),
            ("trials", 0),
            ("bits_per_user", 0),
            ("sigma_filt", -1.0),
            ("transition_time", -0.1),
            ("transition_time", float("nan")),
            ("rng_seed", -1),
            ("rng_seed", 1.5),
        ],
    )
    def test_scalar_validation(self, field, value):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="loss", **{field: value})

    @pytest.mark.parametrize(
        "kind, extra, bins",
        [
            ("loss", {}, 1),
            ("fidelity", {}, 2),
            ("crosstalk", {"bits_per_user": 6}, 6),
            ("trace", {"bits_per_user": 3}, 3),
        ],
    )
    def test_bins_per_word_per_kind(self, kind, extra, bins):
        assert ScenarioConfig(kind=kind, **extra).bins_per_word == bins

    @pytest.mark.parametrize(
        "kind, largest_ok",
        [
            # 2**23 samples on one grid over the n=15 code's 32767 chips
            ("loss", {"samples_per_chip": 256}),
            ("fidelity", {"samples_per_chip": 128}),
            # 2**26 samples over the plan's 5 waveform and b packet rows, each
            # of b bins: (5 + b) * b * 32767 * 4 passes at b = 20, not at 21
            ("crosstalk", {"bits_per_user": 20}),
            ("trace", {"bits_per_user": 20}),
        ],
    )
    def test_grid_size_bounded(self, kind, largest_ok):
        ScenarioConfig(kind=kind, n_registers=(15,), users=(5,), **largest_ok)
        ((field, value),) = largest_ok.items()
        bound = "grid" if field == "samples_per_chip" else "plan"
        with pytest.raises(ValueError, match=f"{bound} of .* samples"):
            ScenarioConfig(kind=kind, n_registers=(15,), users=(5,), **{field: value + 1})

    def test_default_trials_per_kind(self):
        assert ScenarioConfig(kind="loss").resolved_trials == 50
        assert ScenarioConfig(kind="crosstalk").resolved_trials == 32
        assert ScenarioConfig(kind="fidelity").resolved_trials == 64
        assert ScenarioConfig(kind="trace").resolved_trials == 1
        assert ScenarioConfig(kind="loss", trials=7).resolved_trials == 7

    def test_hash_stable_and_sensitive(self):
        a = ScenarioConfig(kind="loss", **TINY)
        b = ScenarioConfig(kind="loss", **TINY)
        c = ScenarioConfig(kind="loss", n_registers=(5,), users=(2,), trials=4)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_as_dict_is_json_ready(self):
        cfg = ScenarioConfig(kind="loss")
        blob = json.dumps(cfg.as_dict(), sort_keys=True)
        assert json.loads(blob)["kind"] == "loss"


class TestFactories:
    def test_kind_specific_defaults(self):
        assert ScenarioConfig(kind="fidelity").n_registers == (8, 10, 12)
        assert ScenarioConfig(kind="trace").n_registers == (15,)
        assert ScenarioConfig(kind="trace").users == (5,)

    def test_reproduction_presets(self):
        cfg = reproduction_config("loss")
        assert cfg.n_registers == (8, 10, 12, 14)
        assert cfg.sigma_filt == REPRODUCTION_SETTINGS["sigma_filt"]
        xt = reproduction_config("crosstalk")
        assert xt.n_registers == (8, 10, 12)
        assert xt.empty_drop_first is True
        assert reproduction_config("crosstalk", full=True).n_registers == (
            8, 10, 12, 14,
        )
        assert reproduction_config("fidelity").users == (5, 20, 50)

    def test_reproduction_overrides(self):
        cfg = reproduction_config("loss", trials=5)
        assert cfg.trials == 5

    def test_reproduction_unknown_kind(self):
        with pytest.raises(ValueError, match="preset"):
            reproduction_config("trace")


class TestRunLoss:
    def test_report_layout(self):
        report = run_loss(ScenarioConfig(kind="loss", **TINY))
        assert isinstance(report, MetricsReport)
        assert report.metric == "loss_probability"
        assert len(report.cells) == 1
        cell = report.cell(5, 2)
        assert cell.spreading == 31
        assert cell.trials == 3
        assert 0.0 <= cell.mean <= 1.0
        assert cell.stderr >= 0.0

    def test_single_user_is_deterministic_floor(self):
        # no foreign stages: every trial returns the matched double
        # reflection loss, so the spread collapses
        report = run_loss(
            ScenarioConfig(kind="loss", n_registers=(10,), users=(1,), trials=2)
        )
        cell = report.cell(10, 1)
        assert cell.stderr == pytest.approx(0.0, abs=1e-15)
        assert cell.mean == pytest.approx(0.037374, abs=5e-6)

    def test_seed_changes_values(self):
        kwargs = dict(kind="loss", n_registers=(5,), users=(3,), trials=8)
        a = run_loss(ScenarioConfig(**kwargs))
        b = run_loss(ScenarioConfig(**kwargs, rng_seed=999))
        assert a.cell(5, 3).mean != b.cell(5, 3).mean


class TestRunCrosstalk:
    def test_metric_name_tracks_normalisation(self):
        per_bin = run_crosstalk(
            ScenarioConfig(kind="crosstalk", **TINY, bits_per_user=2)
        )
        per_word = run_crosstalk(
            ScenarioConfig(
                kind="crosstalk", **TINY, bits_per_user=2, crosstalk_per_bin=False
            )
        )
        assert per_bin.metric == "crosstalk_probability_per_bin"
        assert per_word.metric == "crosstalk_probability_word"
        ratio = per_word.cell(5, 2).mean / per_bin.cell(5, 2).mean
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_values_non_negative(self):
        report = run_crosstalk(
            ScenarioConfig(kind="crosstalk", **TINY, bits_per_user=2)
        )
        assert report.cell(5, 2).mean >= 0.0

    def test_drop_order_convention_changes_result(self):
        # enough trials that some draw an empty receiver behind other drops,
        # where the two orderings genuinely differ
        kwargs = dict(
            kind="crosstalk", n_registers=(5,), users=(4,), trials=8, bits_per_user=2
        )
        fifo = run_crosstalk(ScenarioConfig(**kwargs))
        first = run_crosstalk(ScenarioConfig(**kwargs, empty_drop_first=True))
        assert fifo.cell(5, 4).mean != first.cell(5, 4).mean


class TestRunFidelity:
    def test_one_cell_per_state(self):
        report = run_fidelity(
            ScenarioConfig(kind="fidelity", n_registers=(5,), users=(2,), trials=2)
        )
        labels = {c.label for c in report.cells}
        assert labels == {"zero", "one", "plus", "minus"}
        assert report.metric == "one_minus_fidelity"
        for cell in report.cells:
            assert 0.0 <= cell.mean <= 1.0

    def test_label_lookup(self):
        report = run_fidelity(
            ScenarioConfig(kind="fidelity", n_registers=(5,), users=(2,), trials=2)
        )
        assert report.cell(5, 2, "plus").label == "plus"
        with pytest.raises(KeyError):
            report.cell(5, 2)


class TestRunTrace:
    def test_structure(self):
        result = run_trace(
            ScenarioConfig(kind="trace", n_registers=(5,), users=(3,), bits_per_user=4)
        )
        assert isinstance(result, TraceResult)
        assert result.users == (1, 2, 3)
        assert set(result.bits) == {1, 2, 3}
        for uid in result.users:
            assert len(result.bits[uid]) == 4
            assert result.densities[uid].shape == (result.grid.n_samples,)
            assert result.detections[uid].shape == (4,)

    def test_detections_track_sent_bits(self):
        result = run_trace(
            ScenarioConfig(kind="trace", n_registers=(8,), users=(2,), bits_per_user=4)
        )
        for uid in result.users:
            for bit, det in zip(result.bits[uid], result.detections[uid]):
                if bit:
                    assert det > 0.5  # own photon dominates the bin
                else:
                    assert det < 0.3  # only foreign spill can land here


class TestRunExperiment:
    def test_dispatch(self):
        report = run_experiment(ScenarioConfig(kind="loss", **TINY))
        assert isinstance(report, MetricsReport)
        result = run_experiment(
            ScenarioConfig(kind="trace", n_registers=(5,), users=(2,), bits_per_user=2)
        )
        assert isinstance(result, TraceResult)


class TestDeterminism:
    def test_loss_reports_byte_identical(self):
        cfg = ScenarioConfig(kind="loss", n_registers=(5,), users=(3,), trials=5)
        a = run_loss(cfg)
        b = run_loss(cfg)
        assert a.to_csv_text() == b.to_csv_text()
        assert a.to_json_text() == b.to_json_text()

    def test_cell_order_independent_of_execution(self):
        # trial generators hang off (seed, kind, cell, trial), so narrowing
        # the grid must not change the values inside a cell
        wide = run_loss(
            ScenarioConfig(kind="loss", n_registers=(4, 5), users=(2, 3), trials=3)
        )
        narrow = run_loss(
            ScenarioConfig(kind="loss", n_registers=(5,), users=(3,), trials=3)
        )
        assert wide.cell(5, 3).mean == narrow.cell(5, 3).mean


class TestReportSerialisation:
    @pytest.fixture
    def report(self):
        return run_loss(
            ScenarioConfig(kind="loss", n_registers=(5,), users=(2, 3), trials=2)
        )

    def test_csv_layout(self, report):
        lines = report.to_csv_text().splitlines()
        assert lines[0].startswith("# spreadmux ")
        assert "# kind: loss" in lines
        assert f"# seed: {report.config.rng_seed}" in lines
        assert lines[5] == "S,N,mean,stderr,trials"
        rows = [ln.split(",") for ln in lines[6:]]
        assert [r[:2] for r in rows] == [["31", "2"], ["31", "3"]]

    def test_labelled_csv_has_state_column(self):
        report = run_fidelity(
            ScenarioConfig(kind="fidelity", n_registers=(5,), users=(2,), trials=2)
        )
        lines = report.to_csv_text().splitlines()
        assert "S,N,state,mean,stderr,trials" in lines
        assert any(",plus," in ln for ln in lines)

    def test_json_payload(self, report):
        payload = json.loads(report.to_json_text())
        assert payload["artifact"]["name"] == "spreadmux"
        assert payload["kind"] == "loss"
        assert payload["config_hash"] == report.config.config_hash()
        assert len(payload["cells"]) == 2

    def test_cell_lookup_missing(self, report):
        with pytest.raises(KeyError, match="no cell"):
            report.cell(9, 9)
