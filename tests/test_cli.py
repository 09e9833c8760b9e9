"""The command-line front end, run in-process through margbayes.cli.main."""
import json

import pytest

from margbayes import cli

MODELS = [
    {"schema_version": 1, "name": "stochastic_order", "logits": "global",
     "constraints": [{"kind": "stochastic_order", "direction": "ge"}]},
    {"schema_version": 1, "name": "saturated", "logits": "local", "constraints": []},
]
TP2 = {"schema_version": 1, "name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]}


def write_manifest(tmp_path, **extra):
    manifest = {"dataset": "father_son", "models": MODELS,
                "settings": {"n_draws": 4000, "pilot_n": 2000},
                "replicates": 2, "seed": 3, **extra}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def run(capsys, *argv):
    rc = cli.main([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    return rc, (json.loads(out) if rc == 0 else None), err


def test_bf_is_sensitivity_over_one_concentration(tmp_path, capsys):
    path = write_manifest(tmp_path)
    rc, bf, _ = run(capsys, "bf", path)
    assert rc == 0
    rc, sens, _ = run(capsys, "sensitivity", path, "--concentrations", "1")
    assert rc == 0
    assert bf["command"] == "bf" and sens["command"] == "sensitivity"
    assert bf["prior_concentration"] == 1.0 and sens["concentrations"] == [1.0]
    assert sens["sweeps"] == [{"concentration": 1.0, "results": bf["results"]}]
    assert sens["results"] == [dict(r, model=f"{r['model']} @k=1.0") for r in bf["results"]]
    assert [r["model"] for r in bf["results"]] == ["stochastic_order", "saturated"]


def test_sensitivity_sweeps_each_concentration(tmp_path, capsys):
    rc, sens, _ = run(capsys, "sensitivity", write_manifest(tmp_path),
                      "--concentrations", "1", "2")
    assert rc == 0
    assert [sw["concentration"] for sw in sens["sweeps"]] == [1.0, 2.0]
    assert len(sens["results"]) == 4
    assert sens["results"][-1]["model"] == "saturated @k=2.0"


def test_reference_adds_vs_reference(tmp_path, capsys):
    path = write_manifest(tmp_path)
    rc, plain, _ = run(capsys, "bf", path)
    assert rc == 0 and plain["reference"] is None
    assert all("vs_reference" not in r for r in plain["results"])
    rc, ref, _ = run(capsys, "bf", path, "--reference", "saturated")
    assert rc == 0 and ref["reference"] == "saturated"
    by_name = {r["model"]: r for r in ref["results"]}
    assert by_name["saturated"]["vs_reference"] == 0.0
    assert by_name["stochastic_order"]["vs_reference"] == \
        by_name["stochastic_order"]["log_bf"] - by_name["saturated"]["log_bf"]
    # the reference only adds a column; the estimates are those of a plain run
    assert [{k: v for k, v in r.items() if k != "vs_reference"} for r in ref["results"]] \
        == plain["results"]


def test_unknown_reference_is_an_input_error(tmp_path, capsys):
    rc, _, err = run(capsys, "bf", write_manifest(tmp_path), "--reference", "nope")
    assert rc == 1 and "input error" in err and "nope" in err


@pytest.mark.parametrize("extra,needle", [
    ({"epsilon_schedule": {"shrink": 0.5}}, "'shrink'"),
    ({"epsilon_schedule": {"epsilon_start": [0.1, 0.2]}}, "'epsilon_start'"),
    ({"epsilon_schedule": {"max_stages": 2.5}}, "'max_stages'"),
    ({"epsilon_schedule": {"b": 1.5}}, "epsilon_schedule: shrink factor b"),
    ({"epsilon_schedule": [0.1]}, "epsilon_schedule must be an object"),
    ({"settings": {"alpha_grid": 5}}, "'alpha_grid'"),
    ({"settings": {"n_draws": [4000]}}, "'n_draws'"),
    ({"settings": {"no_such_setting": 1}}, "'no_such_setting'"),
    ({"settings": [4000]}, "settings must be an object"),
])
def test_bad_manifest_is_an_input_error(tmp_path, capsys, extra, needle):
    rc, _, err = run(capsys, "bf", write_manifest(tmp_path, **extra))
    assert rc == 1
    assert err.startswith("input error") and needle in err


@pytest.mark.parametrize("extra,needle", [
    ({"settings": {"n_draws": 0}}, "n_draws must be a whole number >= 1, got 0"),
    ({"settings": {"pilot_n": 0}}, "pilot_n must be a whole number >= 1, got 0"),
    ({"settings": {"chunk": -1}}, "chunk must be a whole number >= 1, got -1"),
    ({"replicates": 0}, "replicates must be a whole number >= 1, got 0"),
    ({"replicates": 1.5}, "replicates must be a whole number >= 1, got 1.5"),
    ({"settings": {"n_draws": 2.5}}, "setting 'n_draws' must be a single int, got 2.5"),
    ({"settings": {"pilot_n": True}}, "setting 'pilot_n' must be a single int, got True"),
    ({"settings": {"ess_floor": "50"}}, "setting 'ess_floor' must be a single float, got '50'"),
    ({"prior": 2}, "prior must be an object, got 2"),
    ({"prior": {"concentration": 0}}, "prior concentration must be a positive number, got 0"),
    ({"prior": {"concentration": "1"}}, "prior concentration must be a positive number, got '1'"),
    ({"settings": {"log_base": "2"}}, "log_base must be one of 10, e, got '2'"),
    ({"settings": {"log_base": 2}}, "setting 'log_base' must be a single str, got 2"),
    ({"settings": {"log_base": "ln"}}, "log_base must be one of 10, e, got 'ln'"),
])
def test_bad_run_size_or_prior_in_manifest_is_an_input_error(tmp_path, capsys, extra, needle):
    rc, _, err = run(capsys, "bf", write_manifest(tmp_path, **extra))
    assert rc == 1
    assert err.startswith("input error") and needle in err


@pytest.mark.parametrize("flags,needle", [
    (("--draws", "0"), "n_draws must be a whole number >= 1, got 0"),
    (("--draws", "-5"), "n_draws must be a whole number >= 1, got -5"),
    (("--pilot", "0"), "pilot_n must be a whole number >= 1, got 0"),
    (("--replicates", "0"), "replicates must be a whole number >= 1, got 0"),
])
def test_bad_run_size_flag_is_an_input_error(tmp_path, capsys, flags, needle):
    rc, _, err = run(capsys, "bf", write_manifest(tmp_path), *flags)
    assert rc == 1
    assert err.startswith("input error") and needle in err


def test_bad_sweep_concentration_is_an_input_error(tmp_path, capsys):
    rc, _, err = run(capsys, "sensitivity", write_manifest(tmp_path), "--concentrations", "1", "0")
    assert rc == 1
    assert err.startswith("input error") and "got 0.0" in err


@pytest.mark.parametrize("flags,needle", [
    (("--draws", "0"), "draws must be a whole number >= 1, got 0"),
    (("--draws", "-5"), "draws must be a whole number >= 1, got -5"),
    (("--concentration", "0"), "prior concentration must be a positive number, got 0.0"),
])
def test_bad_posterior_run_is_an_input_error(tmp_path, capsys, flags, needle):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODELS[1]))
    rc, _, err = run(capsys, "posterior", "father_son", str(model), *flags)
    assert rc == 1
    assert err.startswith("input error") and needle in err


@pytest.mark.parametrize("extra,needle", [
    # a factor <= 1 never grows the tuner's grid extension, which then
    # never ends once no grid probe qualifies
    ({"tune_extend_factor": 1}, "tune_extend_factor must be a finite number > 1, got 1.0"),
    ({"tune_extend_factor": 0.5}, "tune_extend_factor must be a finite number > 1, got 0.5"),
    ({"tune_extend_factor": "2"}, "setting 'tune_extend_factor' must be a single float, got '2'"),
    ({"tune_extend_factor": float("nan")}, "tune_extend_factor must be a finite number > 1"),
    ({"tune_extend_max_multiplier": 0}, "tune_extend_max_multiplier must be a finite number > 0"),
    ({"tune_extend_max_multiplier": float("inf")},
     "tune_extend_max_multiplier must be a finite number > 0, got inf"),
    ({"alpha_grid": []}, "alpha_grid must be a non-empty list of finite numbers > 0, got ()"),
    ({"alpha_grid": [1, 0]}, "alpha_grid must be a non-empty list of finite numbers > 0"),
    ({"margin_ladder": [0.5, -1]}, "margin_ladder must be a list of finite numbers >= 0"),
    ({"margin_ladder": [float("inf")]}, "margin_ladder must be a list of finite numbers >= 0"),
    ({"tune_accept_min": 1.5}, "tune_accept_min must be a number in [0, 1], got 1.5"),
    ({"tune_accept_min": -0.1}, "tune_accept_min must be a number in [0, 1], got -0.1"),
    ({"ess_floor": -1}, "ess_floor must be a number >= 0, got -1.0"),
    ({"max_retunes": -1}, "max_retunes must be a whole number >= 0, got -1"),
    # a negative smoothing ran the centring fits to their cap, past a minute
    ({"smoothing": -5}, "smoothing must be a finite number >= 0, got -5.0"),
    ({"smoothing": float("nan")}, "smoothing must be a finite number >= 0, got nan"),
    ({"prior_margin": float("nan")}, "prior_margin must be a finite number >= 0, got nan"),
    ({"prior_margin": -1}, "prior_margin must be a finite number >= 0, got -1.0"),
    # a NaN threshold sent every side down the importance route
    ({"direct_threshold": float("nan")},
     "direct_threshold must be a finite number >= 0, got nan"),
    ({"direct_threshold": -0.5}, "direct_threshold must be a finite number >= 0, got -0.5"),
    ({"direct_threshold": float("inf")},
     "direct_threshold must be a finite number >= 0, got inf"),
])
def test_bad_tuning_setting_is_an_input_error(tmp_path, capsys, extra, needle):
    rc, _, err = run(capsys, "bf", write_manifest(tmp_path, settings={
        "n_draws": 4000, "pilot_n": 2000, **extra}))
    assert rc == 1
    assert err.startswith("input error") and needle in err


def test_tuning_settings_at_their_bounds_run(tmp_path, capsys):
    rc, _, _ = run(capsys, "bf", write_manifest(tmp_path, settings={
        "n_draws": 4000, "pilot_n": 2000, "tune_accept_min": 0, "ess_floor": 0,
        "max_retunes": 0, "margin_ladder": [], "smoothing": 0, "prior_margin": 0,
        "direct_threshold": 0}))
    assert rc == 0


@pytest.mark.parametrize("value", ["-5", "nan", "inf"])
def test_bad_fit_smoothing_is_an_input_error(tmp_path, capsys, value):
    # at -5 the fit ran 43 s to its iteration cap and exited 0
    model = tmp_path / "tp2.json"
    model.write_text(json.dumps(TP2))
    rc = cli.main(["fit", "father_son", str(model), "--smoothing", value])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("input error") and "smoothing must be a finite number >= 0" in err


def test_replicate_warnings_reach_the_report(tmp_path, capsys):
    # father_son TP2 at 30k draws: the tuned importance weights leave an ESS
    # of a few draws per side, which the JSON and the text report both name
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "dataset": "father_son", "models": [TP2], "replicates": 1, "seed": 1,
        "settings": {"n_draws": 30_000, "pilot_n": 20_000}}))
    rc = cli.main(["bf", str(manifest), "--format", "text", "--out", str(tmp_path)])
    text = capsys.readouterr().out
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    [rep] = report["results"][0]["estimate"]["components"]["replicates"]
    assert "level 1: ESS under 50 on prior/posterior side" in rep["warnings"]
    assert "warning: tp2 replicate 1: level 1: ESS under 50 on prior/posterior side" \
        in text.splitlines()
