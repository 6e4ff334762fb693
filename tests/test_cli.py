import json
import os

import pytest

from ginv import analysis, cli


def run_cli(argv):
    return cli.main(argv)


def read_result(path):
    with open(path) as fh:
        return json.load(fh)


def test_run_purity_experiment(tmp_path):
    out = tmp_path / "purity.json"
    code = run_cli(
        [
            "run",
            "--experiment", "purity",
            "--n", "2",
            "--b", "0.5",
            "--samples", "100",
            "--seed", "7",
            "--output", str(out),
        ]
    )
    assert code == 0
    result = read_result(out)
    assert result["schema"] == 1
    assert result["classification"]["accuracy"] == 1.0
    assert result["config"]["experiment"] == "purity"
    assert "wall_time_s" in result


# A small config of every experiment, for the byte-identity contract.
SMALL_CONFIGS = {
    "purity": ["--n", "1", "--samples", "40"],
    "time_reversal_states": ["--n", "1", "--samples", "10", "--mc-samples", "50"],
    "time_reversal_dynamics": [
        "--n", "1", "--samples", "10", "--mc-samples", "50", "--shots", "20",
    ],
    "entanglement": ["--n", "2", "--samples", "10"],
    "graph": ["--samples", "4", "--iterations", "3"],
    "commutant": ["--d", "2", "--k", "2", "--trials", "3"],
    "concentration": ["--n-max", "2", "--samples", "50"],
    "ancilla": ["--n", "1", "--samples", "3"],
}


@pytest.mark.parametrize("experiment", sorted(cli.SCHEMAS))
def test_run_determinism_excluding_wall_time(tmp_path, experiment):
    args = ["run", "--experiment", experiment, "--seed", "3", *SMALL_CONFIGS[experiment]]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--output", str(out_a)]) == 0
    assert run_cli(args + ["--output", str(out_b)]) == 0
    a, b = read_result(out_a), read_result(out_b)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_commutant_symmetric(tmp_path):
    out = tmp_path / "comm.json"
    code = run_cli(
        [
            "run",
            "--experiment", "commutant",
            "--group", "symmetric",
            "--n", "3",
            "--k", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    result = read_result(out)
    assert result["dimension"] == 20
    assert result["gap_ratio"] is None or result["gap_ratio"] > 1e3


def test_run_time_reversal_dynamics(tmp_path):
    out = tmp_path / "dyn.json"
    code = run_cli(
        [
            "run",
            "--experiment", "time_reversal_dynamics",
            "--n", "2",
            "--samples", "60",
            "--mc-samples", "2000",
            "--seed", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    result = read_result(out)
    assert result["classification"]["accuracy"] == 1.0
    moments = result["moments"]
    assert abs(moments["empirical_mean"] - moments["analytic_mean"]) < 4 * moments["stderr"]


def test_run_ancilla(tmp_path):
    out = tmp_path / "anc.json"
    assert run_cli(["run", "--experiment", "ancilla", "--n", "1", "--output", str(out)]) == 0
    result = read_result(out)
    assert result["conjugation_deviation"] < 1e-10
    assert result["max_purity_deviation"] < 1e-10


def test_run_graph_experiment(tmp_path):
    out = tmp_path / "graph.json"
    code = run_cli(
        [
            "run",
            "--experiment", "graph",
            "--samples", "30",
            "--iterations", "40",
            "--seed", "2",
            "--output", str(out),
        ]
    )
    assert code == 0
    result = read_result(out)
    assert result["gap"] > 0.05
    assert result["test_accuracy"] == 1.0


def test_unknown_experiment_is_config_error(tmp_path, capsys):
    code = run_cli(["run", "--experiment", "purity", "--measure", "nope"])
    assert code == 2  # measure is not a purity field
    assert "unknown config fields" in capsys.readouterr().err


def test_unknown_field_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "purity", "bogus": 1}))
    code = run_cli(["run", "--config", str(cfg)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "purity",
                "n": 1,
                "b": 0.6,
                "samples": 20,
                "seed": 5,
                "output": str(out),
            }
        )
    )
    assert run_cli(["run", "--config", str(cfg), "--samples", "30"]) == 0
    result = read_result(out)
    assert result["config"]["samples"] == 30  # flag wins
    assert result["config"]["b"] == 0.6


def test_runtime_error_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = run_cli(
        [
            "run",
            "--experiment", "entanglement",
            "--n", "1",  # no entangled states on one qubit: bisection fails
            "--output", str(out),
        ]
    )
    assert code == 3
    assert not out.exists()
    assert "runtime error" in capsys.readouterr().err


def test_report_classification_formats(tmp_path, capsys):
    out = tmp_path / "purity.json"
    run_cli(
        ["run", "--experiment", "purity", "--n", "1", "--samples", "20", "--output", str(out)]
    )
    assert run_cli(["report", str(out), "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert "| true 1 |" in md and "accuracy" in md
    assert run_cli(["report", str(out), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.startswith("metric,value")


def test_report_concentration_csv_and_idempotence(tmp_path):
    out = tmp_path / "conc.json"
    run_cli(
        [
            "run",
            "--experiment", "concentration",
            "--n-min", "1",
            "--n-max", "2",
            "--samples", "300",
            "--output", str(out),
        ]
    )
    rep_a = tmp_path / "a.csv"
    rep_b = tmp_path / "b.csv"
    assert run_cli(["report", str(out), "--format", "csv", "--output", str(rep_a)]) == 0
    assert run_cli(["report", str(out), "--format", "csv", "--output", str(rep_b)]) == 0
    assert rep_a.read_bytes() == rep_b.read_bytes()
    lines = rep_a.read_text().strip().splitlines()
    assert lines[0] == "n,empirical_var,analytic_var"
    assert len(lines) == 3


def test_report_missing_file_is_config_error(tmp_path, capsys):
    code = run_cli(["report", str(tmp_path / "missing.json")])
    assert code == 2


def test_malformed_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["run", "--config", str(bad)]) == 2
    assert run_cli(["report", str(bad)]) == 2


def test_graph_preset_validation(capsys):
    code = run_cli(["run", "--experiment", "graph", "--g0", "heptagon"])
    assert code == 2
    assert "preset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "g0,reason",
    [
        ('{"n": 3, "edges": [[0, 5]]}', "edge (0,5) out of range"),
        ('{"n": 3, "edges": [[1, 1]]}', "self-loop at node 1"),
    ],
)
def test_malformed_inline_graph_is_config_error(tmp_path, capsys, g0, reason):
    out = tmp_path / "g.json"
    code = run_cli(["run", "--experiment", "graph", "--g0", g0, "-o", str(out)])
    assert code == 2
    assert not out.exists()
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment,flag,value",
    [
        ("time_reversal_dynamics", "--eps", "nan"),
        ("purity", "--b", "nan"),
        ("graph", "--t", "inf"),
    ],
)
def test_non_finite_float_flag_is_config_error(tmp_path, capsys, experiment, flag, value):
    out = tmp_path / "r.json"
    assert run_cli(["run", "--experiment", experiment, flag, value, "-o", str(out)]) == 2
    assert not out.exists()
    assert "expected a finite number" in capsys.readouterr().err


def test_write_result_refuses_non_finite_floats(tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(ValueError):
        cli.write_result({"value": float("nan")}, out)
    assert os.listdir(tmp_path) == []


def test_all_experiments_complete_at_defaults(tmp_path):
    # every experiment must finish its default desk-scale config in < 120 s
    import time

    for experiment in sorted(cli.SCHEMAS):
        out = tmp_path / f"{experiment}.json"
        start = time.perf_counter()
        code = run_cli(["run", "--experiment", experiment, "--output", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0, experiment
        assert elapsed < 120.0, (experiment, elapsed)
        result = read_result(out)
        assert result["schema"] == 1
        assert result["config"]["experiment"] == experiment


def test_run_flags_cover_every_schema_field():
    fields = {"seed": int, "shots": int}
    for schema in cli.SCHEMAS.values():
        for name, (typ, _) in schema.items():
            assert fields.setdefault(name, typ) is typ, name
    assert {"mc_samples", "n_min", "learning_rate"} <= set(fields)
    samples = {int: ("3", 3), float: ("0.25", 0.25), str: ("x", "x")}
    parser = cli.build_parser()
    for name, typ in fields.items():
        text, value = samples[typ]
        args = parser.parse_args(["run", "--" + name.replace("_", "-"), text])
        parsed = getattr(args, name)
        assert type(parsed) is typ and parsed == value, name


def test_absent_class_with_midpoint_rule_is_an_error(tmp_path, capsys):
    out = tmp_path / "one.json"
    code = run_cli(["run", "--experiment", "purity", "--samples", "1", "-o", str(out)])
    assert code == 3
    assert "label 0 is absent" in capsys.readouterr().err
    assert not out.exists()


def test_time_reversal_states_bell_observable(tmp_path):
    out = tmp_path / "trs.json"
    code = run_cli(
        [
            "run",
            "--experiment", "time_reversal_states",
            "--n", "2",
            "--observable", "bell",
            "--samples", "60",
            "--mc-samples", "2000",
            "--seed", "4",
            "--output", str(out),
        ]
    )
    assert code == 0
    result = read_result(out)
    assert result["threshold"]["c"] == 0.25  # 1/d at n=2
    assert result["classification"]["accuracy"] == 1.0
    assert result["moments"]["analytic_mean"] == 0.1  # 2/(d(d+1))


def test_graph_inline_json(tmp_path):
    out = tmp_path / "g.json"
    g0 = json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]})
    code = run_cli(
        [
            "run",
            "--experiment", "graph",
            "--g0", g0,
            "--g1", "path3",
            "--samples", "10",
            "--iterations", "30",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert read_result(out)["test_accuracy"] == 1.0


def test_entanglement_experiment(tmp_path):
    out = tmp_path / "ent.json"
    code = run_cli(
        [
            "run",
            "--experiment", "entanglement",
            "--n", "2",
            "--b", "0.4",
            "--measure", "meyer_wallach",
            "--samples", "40",
            "--output", str(out),
        ]
    )
    assert code == 0
    result = read_result(out)
    assert result["classification"]["accuracy"] == 1.0
    assert result["max_oracle_deviation"] < 1e-9


def test_commutant_n_must_agree_with_d(tmp_path, capsys):
    for group in ("unitary", "orthogonal"):
        out = tmp_path / f"{group}.json"
        args = ["run", "--experiment", "commutant", "--group", group, "--k", "1"]
        assert run_cli(args + ["--n", "3", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--n 3" in err and "d = 4" in err and "--d 8" in err
        assert not out.exists()
        # the default d = 4 agrees with n = 2, and --d 8 with n = 3
        assert run_cli(args + ["--n", "2", "-o", str(out)]) == 0
        assert read_result(out)["dimension"] == 1
        assert run_cli(args + ["--n", "3", "--d", "8", "-o", str(out)]) == 0
        assert read_result(out)["config"]["d"] == 8


@pytest.mark.parametrize(
    "fields",
    [
        {"d": 16, "k": 2},
        {"k": 4},
        {"group": "orthogonal", "n": 3, "d": None, "k": 3},
        {"group": "local_unitary", "n": 4, "k": 2},
        {"group": "symmetric", "n": 7, "k": 1},
        {"group": "symmetric", "n": 13, "k": 1},
        {"k": 10**12},
    ],
)
def test_commutant_over_the_cap_is_config_error(tmp_path, capsys, fields):
    config = {"experiment": "commutant", **fields}
    # refused while validating, before any sampler builds an element
    with pytest.raises(cli.ConfigError, match="exceeds 64"):
        cli.validate_config(config)
    path, out = tmp_path / "config.json", tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", "--config", str(path), "-o", str(out)]) == 2
    assert "exceeds 64" in capsys.readouterr().err
    assert not out.exists()
    # one step down is at or under the cap
    smaller = dict(config, k=1) if config["k"] > 1 else dict(config, n=6)
    cli.validate_config(smaller)


@pytest.mark.parametrize("n_min,n_max", [(3, 2), (0, 2), (-1, -1)])
def test_empty_concentration_sweep_is_config_error(tmp_path, capsys, n_min, n_max):
    out = tmp_path / "conc.json"
    code = run_cli(
        [
            "run",
            "--experiment", "concentration",
            "--n-min", str(n_min),
            "--n-max", str(n_max),
            "--samples", "10",
            "-o", str(out),
        ]
    )
    assert code == 2
    assert "n_min" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value",
    [
        ("n", 2.7),
        ("n", True),
        ("seed", 1.5),
        ("seed", True),
        ("shots", 2.5),
        ("shots", False),
        ("b", True),
        ("b", False),
        # json.dumps writes NaN and Infinity, which json.load reads back
        ("b", float("nan")),
        ("b", float("inf")),
        ("b", "nan"),
        ("b", "-Infinity"),
    ],
)
def test_int_fields_refuse_truncation(tmp_path, capsys, field, value):
    with pytest.raises(cli.ConfigError, match=f"field {field}"):
        cli.validate_config({"experiment": "purity", field: value})
    config, out = tmp_path / "config.json", tmp_path / "r.json"
    config.write_text(json.dumps({"experiment": "purity", field: value}))
    assert run_cli(["run", "--config", str(config), "-o", str(out)]) == 2
    assert not out.exists()
    assert f"field {field}" in capsys.readouterr().err
    assert cli.validate_config({"experiment": "purity", field: 2.0})[field] == 2


@pytest.mark.parametrize("family", ["conventional_odd_y", "enhanced_bell"])
def test_report_concentration_csv_has_one_writer(tmp_path, capsys, family):
    out = tmp_path / "conc.json"
    args = ["run", "--experiment", "concentration", "--family", family]
    args += ["--n-max", "2", "--samples", "300", "-o", str(out)]
    assert run_cli(args) == 0
    capsys.readouterr()
    assert run_cli(["report", str(out), "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text == analysis.concentration_to_csv(read_result(out)["concentration"])
    assert "\r" not in text and text.count("\n") == 3


@pytest.mark.parametrize(
    "experiment,field",
    [("purity", "n"), ("purity", "b"), ("concentration", "samples"), ("commutant", "k")],
)
def test_null_field_is_config_error(tmp_path, capsys, experiment, field):
    with pytest.raises(cli.ConfigError, match=f"field {field}: expected a value, got null"):
        cli.validate_config({"experiment": experiment, field: None})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, field: None}))
    assert run_cli(["run", "--config", str(config), "-o", str(tmp_path / "r.json")]) == 2
    assert f"field {field}" in capsys.readouterr().err


def test_null_is_kept_where_it_means_something():
    assert cli.validate_config({"experiment": "time_reversal_states", "eps": None})["eps"] is None
    config = cli.validate_config({"experiment": "commutant", "n": 2, "d": None})
    assert (config["n"], config["d"]) == (2, None)


def test_single_n_concentration_reports_no_slope(tmp_path, capsys):
    out = tmp_path / "conc.json"
    args = ["run", "--experiment", "concentration", "--n-min", "2", "--n-max", "2"]
    assert run_cli(args + ["--samples", "50", "-o", str(out)]) == 0
    assert read_result(out)["concentration"]["slope"] is None
    capsys.readouterr()
    assert run_cli(["report", str(out), "--format", "md"]) == 0
    assert "log2 slope: none" in capsys.readouterr().out


# Small companions of each field at its minimum, so every case runs fast;
# one qubit has no entangled state of measure 0.5, but measure 0 exists.
SMALL = {
    "purity": {"samples": 4},
    "time_reversal_states": {"samples": 4, "mc_samples": 10},
    "time_reversal_dynamics": {"samples": 4, "mc_samples": 10},
    "entanglement": {"samples": 4, "b": 0.0},
    "graph": {"samples": 4, "iterations": 2},
    "commutant": {"trials": 2},
    "concentration": {"n_max": 2, "samples": 50},
    "ancilla": {"samples": 2},
}

# The smallest count each field runs with; one less divided by zero, failed
# inside the library or (ancilla samples) reported a vacuous deviation.
MINIMUM_CASES = [
    ("purity", "n", 1),
    ("time_reversal_states", "n", 1),
    ("time_reversal_states", "samples", 1),
    ("time_reversal_states", "mc_samples", 2),
    ("time_reversal_dynamics", "n", 1),
    ("time_reversal_dynamics", "samples", 1),
    ("time_reversal_dynamics", "mc_samples", 2),
    ("entanglement", "n", 1),
    ("graph", "samples", 1),
    ("graph", "iterations", 1),
    ("commutant", "n", 1),
    ("commutant", "d", 1),
    ("commutant", "k", 1),
    ("commutant", "trials", 1),
    ("concentration", "n_min", 1),
    ("concentration", "samples", 2),
    ("ancilla", "n", 1),
    ("ancilla", "samples", 1),
]


def test_minimum_cases_cover_the_table():
    table = {(e, f): low for e, fields in cli.MINIMUMS.items() for f, low in fields.items()}
    assert table == {(e, f): low for e, f, low in MINIMUM_CASES}


@pytest.mark.parametrize("experiment,field,low", MINIMUM_CASES)
def test_counts_below_minimum_are_config_errors(tmp_path, capsys, experiment, field, low):
    config = {"experiment": experiment, **SMALL[experiment], field: low}
    if (experiment, field) == ("commutant", "n"):
        config["d"] = None
    path, out = tmp_path / "config.json", tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", "--config", str(path), "-o", str(out)]) == 0
    assert read_result(out)["config"][field] == low
    out.unlink()
    config[field] = low - 1
    with pytest.raises(cli.ConfigError, match=f"field {field}: must be >= {low}"):
        cli.validate_config(config)
    path.write_text(json.dumps(config))
    assert run_cli(["run", "--config", str(path), "-o", str(out)]) == 2
    assert f"field {field}" in capsys.readouterr().err
    assert not out.exists()
