"""The command-line front end, run in-process through margbayes.cli.main."""
import json

import pytest

from margbayes import cli, engine

MODELS = [
    {"schema_version": 1, "name": "stochastic_order", "logits": "global",
     "constraints": [{"kind": "stochastic_order", "direction": "ge"}]},
    {"schema_version": 1, "name": "saturated", "logits": "local", "constraints": []},
]
TP2 = {"schema_version": 1, "name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]}
PQD = {"schema_version": 1, "name": "pqd", "logits": "global", "constraints": [{"kind": "pqd"}]}


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


def test_sensitivity_defaults_to_the_prior_concentration(tmp_path, capsys):
    # without concentrations, sensitivity sweeps the manifest's prior
    # concentration, as bf runs at it; it used to sweep [1.0]
    path = write_manifest(tmp_path, prior={"concentration": 2})
    rc, bf, _ = run(capsys, "bf", path)
    assert rc == 0 and bf["prior_concentration"] == 2.0
    rc, sens, _ = run(capsys, "sensitivity", path)
    assert rc == 0 and sens["concentrations"] == [2.0]
    assert sens["sweeps"] == [{"concentration": 2.0, "results": bf["results"]}]


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


def test_repeated_model_name_is_an_input_error(tmp_path, capsys):
    # results were keyed by name, so both rows named "m" took the last
    # one's estimate as theirs in vs_reference
    le = {"kind": "stochastic_order", "direction": "le"}
    models = [dict(MODELS[0], name="m"), dict(MODELS[0], name="m", constraints=[le]),
              dict(MODELS[1], name="sat")]
    rc, _, err = run(capsys, "bf", write_manifest(tmp_path, models=models), "--reference", "sat")
    assert rc == 1
    assert err.startswith("input error") and "model name 'm' is used more than once" in err


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
    ({"epsilon_schedule": {"epsilon_start": float("inf")}}, "epsilon_start must be finite"),
    ({"epsilon_schedule": {"epsilon_start": float("nan")}}, "epsilon_start must be finite"),
    ({"epsilon_schedule": {"stop_tol": -0.1}}, "stop_tol must be finite and >= 0"),
    ({"epsilon_schedule": {"stop_tol": float("inf")}}, "stop_tol must be finite and >= 0"),
    ({"epsilon_schedule": {"stop_tol": float("nan")}}, "stop_tol must be finite and >= 0"),
    ({"models": [dict(TP2, constraints=[{"kind": "logit_trend"}])]},
     "constraint 'logit_trend': missing a required argument: 'direction'"),
    ({"models": [dict(TP2, constraints=[{"kind": "independence", "foo": 1}])]},
     "constraint 'independence': got an unexpected keyword argument 'foo'"),
    ({"models": [dict(TP2, constraints=[{"kind": "independence", "epsilon": float("nan")}])]},
     "tolerances must be finite and strictly positive"),
    ({"models": [dict(TP2, constraints=[{"kind": "independence", "epsilon": float("inf")}])]},
     "tolerances must be finite and strictly positive"),
    # a malformed model spec or manifest ended in a traceback
    ({"models": [dict(TP2, constraints=["tp2"])]}, "constraints must be a list of objects"),
    ({"models": [dict(TP2, constraints="tp2")]}, "constraints must be a list of objects"),
    ({"models": [dict(TP2, constraints=[{"kind": ["tp2"]}])]},
     "each with a string 'kind', got [{'kind': ['tp2']}]"),
    ({"models": [dict(TP2, constraints=[{"direction": "ge"}])]},
     "each with a string 'kind', got [{'direction': 'ge'}]"),
    ({"models": [5]}, "a model spec must be an object, got 5"),
    ({"models": [dict(TP2, logits=5)]}, "logits must be a string or a list of strings, got 5"),
    ({"models": "tp2.json"}, "models must be a list, got 'tp2.json'"),
    ({"models": [dict(TP2, name=["tp2"])]}, "name must be a string, got ['tp2']"),
    (["father_son"], "a manifest must be an object, got ['father_son']"),
    # a seed, dataset or reference of the wrong type ended in a traceback,
    # or was truncated to a whole number
    ({"seed": [1]}, "seed must be a whole number >= 0, got [1]"),
    ({"seed": 1.5}, "seed must be a whole number >= 0, got 1.5"),
    ({"seed": True}, "seed must be a whole number >= 0, got True"),
    ({"seed": -3}, "seed must be a whole number >= 0, got -3"),
    ({"dataset": 5}, "dataset must be a string, got 5"),
    ({"reference": ["x"]}, "reference must be a string, got ['x']"),
    # a dataset naming the manifest's folder ended in IsADirectoryError
    ({"dataset": ""}, "dataset '' names a folder, not a fixture or a table file"),
    ({"dataset": "."}, "dataset '.' names a folder, not a fixture or a table file"),
    # an epsilon_schedule that is empty but not an object ran the default
    ({"epsilon_schedule": []}, "epsilon_schedule must be an object, got []"),
    ({"epsilon_schedule": 0}, "epsilon_schedule must be an object, got 0"),
    ({"epsilon_schedule": False}, "epsilon_schedule must be an object, got False"),
    ({"epsilon_schedule": ""}, "epsilon_schedule must be an object, got ''"),
    # an empty sweep printed no result and exited 0
    ({"concentrations": []}, "concentrations must be a non-empty list, got []"),
    ({"concentrations": 1}, "concentrations must be a non-empty list, got 1"),
    # an unknown logit type is the link's error
    ({"models": [dict(TP2, logits="probit")]}, "unknown logit type 'probit'"),
])
def test_bad_manifest_is_an_input_error(tmp_path, capsys, extra, needle):
    if isinstance(extra, dict):
        path = write_manifest(tmp_path, **extra)
    else:                                # the whole manifest
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(extra))
    # only sensitivity reads the manifest's concentrations
    command = "sensitivity" if "concentrations" in extra else "bf"
    rc, _, err = run(capsys, command, str(path))
    assert rc == 1
    assert err.startswith("input error") and needle in err


@pytest.mark.parametrize("extra,needle", [
    ({"settings": {"n_draws": 0}}, "n_draws must be a whole number >= 1, got 0"),
    ({"settings": {"pilot_n": 0}}, "pilot_n must be a whole number >= 1, got 0"),
    ({"settings": {"chunk": -1}}, "unknown setting 'chunk'"),
    ({"replicates": 0}, "replicates must be a whole number >= 1, got 0"),
    ({"replicates": 1.5}, "replicates must be a whole number >= 1, got 1.5"),
    ({"settings": {"n_draws": 2.5}}, "setting 'n_draws' must be a single int, got 2.5"),
    ({"settings": {"pilot_n": True}}, "setting 'pilot_n' must be a single int, got True"),
    ({"settings": {"ess_floor": "50"}}, "unknown setting 'ess_floor'"),
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
    (("--seed", "-1"), "seed must be a whole number >= 0, got -1"),
])
def test_bad_run_size_flag_is_an_input_error(tmp_path, capsys, flags, needle):
    rc, _, err = run(capsys, "bf", write_manifest(tmp_path), *flags)
    assert rc == 1
    assert err.startswith("input error") and needle in err


def test_label_does_not_depend_on_the_log_base(tmp_path, capsys):
    # father_son stochastic order at seed 3: log10 BF 0.64 ("substantial")
    # is ln BF 1.48, which was labelled "strong" when printed in base e
    path = write_manifest(tmp_path, models=MODELS[:1],
                          settings={"n_draws": 20_000, "pilot_n": 2000})
    labels = {}
    for base in ("10", "e"):
        rc, report, _ = run(capsys, "bf", path, "--log-base", base)
        assert rc == 0
        [row] = report["results"]
        assert cli.main(["bf", path, "--log-base", base, "--format", "csv"]) == 0
        header, line = capsys.readouterr().out.splitlines()
        csv_label = dict(zip(header.split(","), line.split(",")))["label"]
        assert cli.main(["bf", path, "--log-base", base, "--format", "text"]) == 0
        text = capsys.readouterr().out
        labels[base] = (row["label"], csv_label, f"[{row['label']}]" in text)
    assert 0.5 <= row["log10_bf"] < 1.0
    assert labels["10"] == labels["e"] == ("substantial", "substantial", True)


def test_bad_sweep_concentration_is_an_input_error(tmp_path, capsys):
    rc, _, err = run(capsys, "sensitivity", write_manifest(tmp_path), "--concentrations", "1", "0")
    assert rc == 1
    assert err.startswith("input error") and "got 0.0" in err


@pytest.mark.parametrize("flags,needle", [
    (("--draws", "0"), "draws must be a whole number >= 1, got 0"),
    (("--draws", "-5"), "draws must be a whole number >= 1, got -5"),
    (("--concentration", "0"), "prior concentration must be a positive number, got 0.0"),
    (("--seed", "-1"), "seed must be a whole number >= 0, got -1"),
])
def test_bad_posterior_run_is_an_input_error(tmp_path, capsys, flags, needle):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODELS[1]))
    rc, _, err = run(capsys, "posterior", "father_son", str(model), *flags)
    assert rc == 1
    assert err.startswith("input error") and needle in err


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_non_finite_model_tolerance_is_an_input_error(tmp_path, capsys, eps):
    # posterior reads the model's own tolerance, which bf would override
    model = tmp_path / "model.json"
    model.write_text(json.dumps(dict(MODELS[1], constraints=[
        {"kind": "independence", "epsilon": eps}])))
    rc, _, err = run(capsys, "posterior", "father_son", str(model), "--draws", "100")
    assert rc == 1
    assert err.startswith("input error") and "finite and strictly positive" in err


@pytest.mark.parametrize("extra,needle", [
    # the routing threshold, the tuner's grid and extension, the ESS floor,
    # the margin ladder, the retune cap and the centring fits' smoothing
    # are fixed in the engine: a manifest that sets one, to any value, is
    # refused. The values are those each key once refused as out of its
    # range.
    ({"tune_extend_factor": 1}, "unknown setting 'tune_extend_factor'"),
    ({"tune_extend_factor": 0.5}, "unknown setting 'tune_extend_factor'"),
    ({"tune_extend_factor": "2"}, "unknown setting 'tune_extend_factor'"),
    ({"tune_extend_factor": float("nan")}, "unknown setting 'tune_extend_factor'"),
    ({"tune_extend_max_multiplier": 0}, "unknown setting 'tune_extend_max_multiplier'"),
    ({"tune_extend_max_multiplier": float("inf")},
     "unknown setting 'tune_extend_max_multiplier'"),
    ({"alpha_grid": []}, "unknown setting 'alpha_grid'"),
    ({"alpha_grid": [1, 0]}, "unknown setting 'alpha_grid'"),
    ({"margin_ladder": [0.5, -1]}, "unknown setting 'margin_ladder'"),
    ({"margin_ladder": [float("inf")]}, "unknown setting 'margin_ladder'"),
    ({"tune_accept_min": 1.5}, "unknown setting 'tune_accept_min'"),
    ({"tune_accept_min": -0.1}, "unknown setting 'tune_accept_min'"),
    ({"ess_floor": -1}, "unknown setting 'ess_floor'"),
    ({"max_retunes": -1}, "unknown setting 'max_retunes'"),
    ({"smoothing": -5}, "unknown setting 'smoothing'"),
    ({"smoothing": float("nan")}, "unknown setting 'smoothing'"),
    ({"prior_margin": float("nan")}, "unknown setting 'prior_margin'"),
    ({"prior_margin": -1}, "unknown setting 'prior_margin'"),
    ({"direct_threshold": float("nan")}, "unknown setting 'direct_threshold'"),
    ({"direct_threshold": -0.5}, "unknown setting 'direct_threshold'"),
    ({"direct_threshold": float("inf")}, "unknown setting 'direct_threshold'"),
])
def test_bad_tuning_setting_is_an_input_error(tmp_path, capsys, extra, needle):
    rc, _, err = run(capsys, "bf", write_manifest(tmp_path, settings={
        "n_draws": 4000, "pilot_n": 2000, **extra}))
    assert rc == 1
    assert err.startswith("input error") and needle in err


@pytest.mark.parametrize("value", ["-5", "nan", "inf"])
def test_bad_fit_smoothing_is_an_input_error(tmp_path, capsys, value):
    # at -5 the fit ran 43 s to its iteration cap and exited 0
    model = tmp_path / "tp2.json"
    model.write_text(json.dumps(TP2))
    rc = cli.main(["fit", "father_son", str(model), "--smoothing", value])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("input error") and "smoothing must be a finite number >= 0" in err


def test_replicate_warnings_reach_the_report(tmp_path, capsys, monkeypatch):
    # father_son PQD at 30k draws, the prior side tuned and the posterior
    # direct, against an ESS floor that no side reaches: the JSON and the
    # text report both name the warning
    monkeypatch.setattr(engine, "_ESS_FLOOR", 1e9)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "dataset": "father_son", "models": [PQD], "replicates": 1, "seed": 1,
        "settings": {"n_draws": 30_000, "pilot_n": 20_000}}))
    rc = cli.main(["bf", str(manifest), "--format", "text", "--out", str(tmp_path)])
    text = capsys.readouterr().out
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"][0]["route"] == "importance/direct"
    [rep] = report["results"][0]["estimate"]["components"]["replicates"]
    assert "level 1: ESS under 1e+09 on prior/posterior side" in rep["warnings"]
    assert "warning: pqd replicate 1: level 1: ESS under 1e+09 on prior/posterior side" \
        in text.splitlines()


@pytest.mark.parametrize("kind,params", [("marginal_trend", {}),
                                         ("logit_trend", {"direction": "increasing"}),
                                         ("margins_equal_across_strata", {})])
def test_out_of_range_variable_is_an_input_error(tmp_path, capsys, kind, params):
    # marginal_trend ended in a bare IndexError traceback, the others in an
    # error that named no entry
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"schema_version": 1, "name": kind, "logits": "local",
                                 "constraints": [{"kind": kind, "variables": [5], **params}]}))
    rc = cli.main(["fit", "alzheimer", str(model)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("input error") and "variables entry 5" in err and "q = 2" in err
