import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ginv
from ginv import cli, observables


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
    # an exact orbit count over the 8^2 index pairs: no cutoff, no gap
    assert (result["gap_ratio"], result["cutoff"], result["ambiguous"]) == (None, None, False)
    assert result["start_dimension"] == 64


@pytest.mark.parametrize("preset", [None, "2"])
def test_blas_threads_default_to_one(preset):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in names}
    env["PYTHONPATH"] = str(Path(ginv.__file__).parents[1])
    if preset is not None:
        env.update(dict.fromkeys(names, preset))
    # the variables must be set before numpy loads its BLAS
    probe = ("import sys, os, ginv; assert 'numpy' not in sys.modules; "
             "print(*(os.environ[name] for name in sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", probe, *names], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == [preset or "1"] * 2


# The two commutant caps whose rounding-level null singular values once set
# gap_ratio, and the run that draws the most unitaries at its defaults.
THREAD_PROBES = [
    {"experiment": "commutant", "group": "unitary", "d": 2, "k": 4},
    {"experiment": "commutant", "group": "orthogonal", "d": 4, "k": 3},
    {"experiment": "time_reversal_dynamics"},
]


def test_results_do_not_depend_on_the_blas_thread_count():
    # one fresh interpreter per thread count, since the variables act only
    # before numpy loads its BLAS; every result field but wall_time_s must agree
    probe = ("import json, sys; from ginv import cli\n"
             "for config in json.loads(sys.argv[1]):\n"
             "    result = cli.run(config); result.pop('wall_time_s')\n"
             "    print(json.dumps(result, sort_keys=True))")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(ginv.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", probe, json.dumps(THREAD_PROBES)],
                              env=env, capture_output=True, text=True, check=True)
        runs.append([json.loads(line) for line in done.stdout.splitlines()])
    assert len(runs[0]) == len(THREAD_PROBES)
    assert runs[0] == runs[1]


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


def test_runtime_error_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    def fail(config, rng):
        raise RuntimeError("the runner failed")

    monkeypatch.setitem(cli.RUNNERS, "purity", fail)
    out = tmp_path / "never.json"
    assert run_cli(["run", "--experiment", "purity", "--output", str(out)]) == 3
    assert os.listdir(tmp_path) == []
    err = capsys.readouterr().err
    assert "runtime error: RuntimeError: the runner failed" in err


@pytest.mark.parametrize(
    "args,attainable",
    [
        (["--n", "1"], "[0, 0]"),  # no entangled states on one qubit
        (["--measure", "concentratable"], "[0, 0.375]"),
        (["--measure", "concentratable", "--n", "4"], "[0, 0.4375]"),
        (["--measure", "ntangle"], "[1, 1]"),
        # decreasing from the product end, printed [min, max]
        (["--measure", "ntangle", "--n", "4"], "[0.9375, 1]"),
    ],
)
def test_unattainable_entanglement_target_is_config_error(tmp_path, capsys, args, attainable):
    out = tmp_path / "never.json"
    code = run_cli(["run", "--experiment", "entanglement", *args, "--output", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"target measure 0.5 outside attainable range {attainable}" in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["--b", "1"], "1.0 outside [1/4, 1)"),
        (["--b", "0.2"], "0.2 outside [1/4, 1)"),
        (["--n", "3", "--b", "0.1"], "0.1 outside [1/8, 1)"),
    ],
)
def test_unattainable_purity_target_is_config_error(tmp_path, capsys, args, message):
    out = tmp_path / "never.json"
    code = run_cli(["run", "--experiment", "purity", *args, "--output", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err and f"target purity {message}" in err


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


def test_report_of_a_directory_is_config_error(tmp_path, capsys):
    assert run_cli(["report", str(tmp_path)]) == 2
    assert "config error: cannot read result file" in capsys.readouterr().err


def test_config_that_is_a_directory_is_config_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["run", "--config", str(tmp_path), "-o", str(out)]) == 2
    assert "config error: cannot read config file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "report"])
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_bad_output_path_is_config_error_before_any_work(
    tmp_path, capsys, monkeypatch, command, where
):
    result = tmp_path / "r.json"
    assert run_cli(["run", "--experiment", "ancilla", "-o", str(result)]) == 0
    output = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    work = []
    monkeypatch.setattr(cli, "run", lambda raw: work.append(raw))
    monkeypatch.setattr(cli, "_read_json", lambda *args: work.append(args))
    args = ["run", "--experiment", "purity"] if command == "run" else ["report", str(result)]
    capsys.readouterr()
    assert run_cli(args + ["-o", str(output)]) == 2
    err = capsys.readouterr().err
    message = f"output {output} is a directory or its parent directory is missing"
    assert err == f"config error: {message}\n"
    assert work == [] and sorted(os.listdir(tmp_path)) == ["r.json"]


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
        ('{"n": 3, "edges": [[0, 1.5], [1, 2], [0, 2]]}', "must be integers"),
        ('{"n": 3.5, "edges": [[0, 1]]}', "must be integers"),
        ('{"n": 3, "edges": [[0, true]]}', "must be integers"),
    ],
)
def test_malformed_inline_graph_is_config_error(tmp_path, capsys, g0, reason):
    out = tmp_path / "g.json"
    code = run_cli(["run", "--experiment", "graph", "--g0", g0, "-o", str(out)])
    assert code == 2
    assert not out.exists()
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "g0,g1,reason",
    [
        ("cycle4", "cycle4", "isomorphic"),
        ('{"n": 3, "edges": [[0, 2], [2, 1]]}', "path3", "isomorphic"),
        # brute force cannot decide n = 9
        ('{"n": 9, "edges": [[0, 1]]}', '{"n": 9, "edges": [[0, 1], [1, 2]]}', "n <= 8"),
    ],
)
def test_undistinguishable_reference_graphs_refused_before_training(
    tmp_path, capsys, monkeypatch, g0, g1, reason
):
    trained = []
    monkeypatch.setattr(cli, "optimize", lambda *args: trained.append(args))
    out = tmp_path / "g.json"
    code = run_cli(["run", "--experiment", "graph", "--g0", g0, "--g1", g1, "-o", str(out)])
    assert code == 2
    assert not out.exists()
    assert trained == []
    assert reason in capsys.readouterr().err


def test_undistinguishing_time_refused_before_training(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "optimize", lambda *args: trained.append(args))
    out = tmp_path / "g.json"
    args = ["run", "--experiment", "graph", "--t", "0", "--iterations", "200"]
    assert run_cli(args + ["-o", str(out)]) == 2
    assert not out.exists()
    assert trained == []
    assert "does not distinguish the reference graphs" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["1e308", "-1e308"])
def test_overflowing_time_refused_before_any_state(tmp_path, capsys, monkeypatch, t):
    # t (|E| + n) bounds t ||H||; past the float range the states would be NaN
    evolved = []
    monkeypatch.setattr(cli.datasets, "expm_hermitian", lambda *args: evolved.append(args))
    out = tmp_path / "g.json"
    assert run_cli(["run", "--experiment", "graph", f"--t={t}", "-o", str(out)]) == 2
    assert not out.exists()
    assert evolved == []
    assert "evolution time t=" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["0", "-0.5"])
def test_nonpositive_learning_rate_refused_before_the_dataset(tmp_path, capsys, monkeypatch, rate):
    built = []
    monkeypatch.setattr(cli.datasets, "graph_dataset", lambda *args: built.append(args))
    out = tmp_path / "g.json"
    assert run_cli(["run", "--experiment", "graph", "--learning-rate", rate, "-o", str(out)]) == 2
    assert not out.exists()
    assert built == []
    err = capsys.readouterr().err
    assert "config error" in err and "learning_rate must be > 0" in err


@pytest.mark.parametrize(
    "experiment,field",
    [
        ("concentration", "family"),
        ("time_reversal_states", "observable"),
        ("entanglement", "measure"),
        ("commutant", "group"),
    ],
)
def test_unknown_choice_is_refused_before_any_work(tmp_path, capsys, monkeypatch, experiment, field):
    # refused by validate_config, before a runner draws or samples anything
    ran = []
    monkeypatch.setitem(cli.RUNNERS, experiment, lambda *args: ran.append(args))
    out = tmp_path / "r.json"
    flag = "--" + field.replace("_", "-")
    assert run_cli(["run", "--experiment", experiment, flag, "foo", "-o", str(out)]) == 2
    assert not out.exists()
    assert ran == []
    assert f"field {field}: expected one of" in capsys.readouterr().err


@pytest.mark.parametrize("measure", ["impurity", "ntangle"])
def test_entanglement_oracle_reads_the_dataset_stack_itself(monkeypatch, measure):
    # the oracle check scores the dataset's own input stack, not a copy
    made, seen = [], []
    generate, oracle = cli.datasets.entanglement_dataset, observables.ENTANGLEMENT_MEASURES[measure]
    monkeypatch.setattr(cli.datasets, "entanglement_dataset",
                        lambda *args: made.append(generate(*args)) or made[-1])
    monkeypatch.setitem(observables.ENTANGLEMENT_MEASURES, measure,
                        lambda rho: seen.append(rho) or oracle(rho))
    cli.run({"experiment": "entanglement", "measure": measure, "n": 2, "b": 0.8,
             "samples": 6})
    # the dataset values the two ends of its path, the check the whole stack
    stacks = [rho for rho in seen if rho.ndim == 3]
    assert len(made) == 1 and len(stacks) == 1
    assert stacks[0] is made[0].inputs


@pytest.mark.parametrize("experiment", ["graph", "commutant", "concentration", "ancilla"])
def test_shots_is_unknown_where_nothing_reads_it(tmp_path, capsys, experiment):
    out = tmp_path / "r.json"
    assert run_cli(["run", "--experiment", experiment, "--shots", "5", "-o", str(out)]) == 2
    assert not out.exists()
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["symmetric", "local_unitary"])
def test_qubit_groups_record_d_as_two_to_the_n(tmp_path, capsys, group):
    out = tmp_path / "comm.json"
    args = ["run", "--experiment", "commutant", "--group", group, "--n", "3", "--k", "1"]
    assert run_cli(args + ["-o", str(out)]) == 0
    assert read_result(out)["config"]["d"] == 8
    out.unlink()
    # an explicit d must agree with n, as for U(d) and O(d)
    assert run_cli(args + ["--d", "8", "-o", str(out)]) == 0
    assert read_result(out)["config"]["d"] == 8
    out.unlink()
    assert run_cli(args + ["--d", "4", "-o", str(out)]) == 2
    assert "--n 3 means d = 8, but d = 4" in capsys.readouterr().err
    assert not out.exists()
    config = {"experiment": "commutant", "group": group, "n": 3, "d": None}
    assert cli.validate_config(config)["d"] == 8


@pytest.mark.parametrize("experiment", sorted(cli.SCHEMAS))
@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_every_result_can_be_reported(tmp_path, capsys, experiment, fmt):
    out = tmp_path / "r.json"
    args = ["run", "--experiment", experiment, *SMALL_CONFIGS[experiment], "-o", str(out)]
    assert run_cli(args) == 0
    capsys.readouterr()
    assert run_cli(["report", str(out), "--format", fmt]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        "3",
        '{"dimension": 4}',
        '{"schema": 1, "classification": {}}',
        '{"schema": 1, "concentration": {"rows": [{"n": 1}]}}',
        '{"schema": 1, "concentration": 5}',
    ],
)
def test_report_refuses_files_that_are_not_results(tmp_path, capsys, text):
    path, out = tmp_path / "r.json", tmp_path / "report.txt"
    path.write_text(text)
    for fmt in ("csv", "md"):
        assert run_cli(["report", str(path), "--format", fmt, "-o", str(out)]) == 2
        assert "config error: result file is not a ginv result" in capsys.readouterr().err
        assert not out.exists()


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
    fields = {"seed": int}
    for schema in cli.SCHEMAS.values():
        for name, (typ, default, minimum) in schema.items():
            assert fields.setdefault(name, typ) is typ, name
    assert {"mc_samples", "n_min", "learning_rate", "shots"} <= set(fields)
    samples = {int: ("3", 3), float: ("0.25", 0.25), str: ("x", "x")}
    parser = cli.build_parser()
    for name, typ in fields.items():
        text, value = samples[typ]
        args = parser.parse_args(["run", "--" + name.replace("_", "-"), text])
        parsed = getattr(args, name)
        assert type(parsed) is typ and parsed == value, name


# A target each entanglement measure attains at n = 2.
ATTAINABLE = {"impurity": 0.5, "meyer_wallach": 0.5, "concentratable": 0.2, "ntangle": 0.9}


def _shot_runs():
    """Every experiment that takes shots, once per name its choice field takes."""
    for experiment in sorted(e for e, schema in cli.SCHEMAS.items() if "shots" in schema):
        fields = [f for e, f in cli.CHOICES if e == experiment]
        if not fields:
            yield experiment, None
        for field in fields:
            yield from ((experiment, choice) for choice in sorted(cli.CHOICES[experiment, field]))


@pytest.mark.parametrize("experiment,choice", list(_shot_runs()))
def test_every_shot_experiment_runs_with_every_choice(tmp_path, experiment, choice):
    # every observable these runs measure is an H1 swap polynomial or has
    # two levels, so no choice is refused
    out = tmp_path / "r.json"
    args = ["run", "--experiment", experiment, "--n", "2", "--samples", "20", "--shots", "50"]
    if experiment == "entanglement":
        args += ["--measure", choice, "--b", str(ATTAINABLE[choice])]
    elif choice is not None:
        args += ["--observable", choice]
    if "mc_samples" in cli.SCHEMAS[experiment]:
        args += ["--mc-samples", "20"]
    assert run_cli(args + ["-o", str(out)]) == 0
    assert read_result(out)["config"]["shots"] == 50


def test_absent_class_with_midpoint_rule_is_an_error(tmp_path, capsys, monkeypatch):
    # one item leaves a class absent: refused before the dataset is drawn
    drawn = []
    out = tmp_path / "one.json"
    for experiment in ("purity", "entanglement"):
        monkeypatch.setattr(cli.datasets, f"{experiment}_dataset",
                            lambda *args: drawn.append(args))
        code = run_cli(["run", "--experiment", experiment, "--samples", "1", "-o", str(out)])
        assert code == 2
        assert "field samples: must be >= 2, got 1" in capsys.readouterr().err
    assert drawn == [] and not out.exists()


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


@pytest.mark.parametrize("shots", [0, 200])
@pytest.mark.parametrize("n", [1, 3])
def test_time_reversal_states_bell_class_means_match_theory(n, shots):
    # label 1, real states: <Phi|psi psi> = |psi^T psi|^2 / d = 1/d exactly;
    # label 0, Haar states: the twirl of the Bell projector, mean 2/(d(d+1))
    config = {"experiment": "time_reversal_states", "observable": "bell", "n": n,
              "shots": shots, "mc_samples": 50}
    rep = cli.run(config)["classification"]
    values, labels, d = np.array(rep["values"]), np.array(rep["labels"]), 2**n
    x0, x1 = values[labels == 0], values[labels == 1]
    assert abs(x0.mean() - 2 / (d * (d + 1))) < 4 * x0.std(ddof=1) / np.sqrt(len(x0))
    if shots == 0:
        np.testing.assert_allclose(x1, 1 / d, rtol=0, atol=1e-12)
    else:
        assert abs(x1.mean() - 1 / d) < 4 * x1.std(ddof=1) / np.sqrt(len(x1))


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
        # --n alone gives d = 2**n, as for the qubit groups
        assert run_cli(args + ["--n", "3", "-o", str(out)]) == 0
        assert (read_result(out)["config"]["d"], read_result(out)["dimension"]) == (8, 1)
        assert run_cli(args + ["--n", "3", "--d", "8", "-o", str(out)]) == 0
        assert read_result(out)["config"]["d"] == 8
        out.unlink()
        assert run_cli(args + ["--n", "3", "--d", "4", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{group} group: --n 3 means d = 8, but d = 4; pass --d 8" in err
        assert not out.exists()


@pytest.mark.parametrize("group", sorted(cli.SAMPLERS))
def test_commutant_null_d_is_derived(tmp_path, capsys, group):
    config = {"experiment": "commutant", "group": group, "d": None}
    assert cli.validate_config(dict(config, n=2))["d"] == 4
    if cli.SAMPLERS[group][1] == "d":
        assert cli.validate_config(config)["d"] == 4
        return
    with pytest.raises(cli.ConfigError, match=f"{group} group needs --n"):
        cli.validate_config(config)
    out = tmp_path / "r.json"
    assert run_cli(["run", "--experiment", "commutant", "--group", group, "-o", str(out)]) == 2
    assert f"config error: {group} group needs --n" in capsys.readouterr().err
    assert not out.exists()


def test_one_commutant_trial_is_config_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["run", "--experiment", "commutant", "--trials", "1", "-o", str(out)]) == 2
    assert "field trials: must be >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_orthogonal_draws_of_det_one_only_are_flagged(tmp_path):
    # at seed 2 both O(4) elements have det +1: they find SO(4)'s commutant,
    # dimension 4 for k = 2, where O(4)'s is 3
    out = tmp_path / "r.json"
    args = ["run", "--experiment", "commutant", "--group", "orthogonal", "--k", "2"]
    with pytest.warns(RuntimeWarning, match=r"SO\(4\)"):
        assert run_cli(args + ["--trials", "2", "--seed", "2", "-o", str(out)]) == 0
    assert (read_result(out)["dimension"], read_result(out)["ambiguous"]) == (4, True)
    assert run_cli(args + ["--trials", "2", "--seed", "0", "-o", str(out)]) == 0
    assert (read_result(out)["dimension"], read_result(out)["ambiguous"]) == (3, False)


@pytest.mark.parametrize(
    "fields",
    [
        {"d": 16, "k": 2},
        {"k": 4},
        {"group": "orthogonal", "n": 3, "d": None, "k": 3},
        {"group": "local_unitary", "n": 4, "k": 2},
        # the symmetric group's cap is d^(2k) <= 2^20 pair-index entries
        {"group": "symmetric", "n": 11, "k": 1},
        {"group": "symmetric", "n": 6, "k": 2},
        {"k": 10**12},
        {"group": "symmetric", "n": 4, "k": 3},
        # 2^n itself is past the cap: refused by n, and written 2^n, since
        # 2^20000 has more decimal digits than Python will print
        {"group": "symmetric", "n": 20000, "k": 1},
        {"group": "unitary", "n": 20000},
        {"group": "local_unitary", "n": 5000},
    ],
)
def test_commutant_over_the_cap_is_config_error(tmp_path, capsys, fields):
    config = {"experiment": "commutant", **fields}
    symmetric = config.get("group") == "symmetric"
    huge = config.get("n", 0) > 20
    if huge:
        power = 2 * config.get("k", 2) if symmetric else config.get("k", 2)
        message = f"= (2^{config['n']})^{power} exceeds"
    elif symmetric:
        message = f"d^(2k) = {2 ** config['n']}^{2 * config['k']} exceeds 1048576"
    else:
        message = "exceeds 64"
    # refused while validating, before any sampler builds an element
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.validate_config(config)
    path, out = tmp_path / "config.json", tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", "--config", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err) < 200
    assert not out.exists()
    if huge:
        return
    # one step down is at or under the cap: S_10 k=1, S_5 k=2, S_3 k=3
    if symmetric:
        smaller = dict(config, n=config["n"] - 1)
    else:
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


@pytest.mark.parametrize("seed", [-1, -5])
def test_negative_seed_is_config_error_before_any_work(tmp_path, capsys, monkeypatch, seed):
    with pytest.raises(cli.ConfigError, match="field seed: must be >= 0"):
        cli.validate_config({"experiment": "purity", "seed": seed})
    built = []
    monkeypatch.setattr(cli.datasets, "purity_dataset", lambda *args: built.append(args))
    out = tmp_path / "r.json"
    args = ["run", "--experiment", "purity", "--seed", str(seed), "-o", str(out)]
    assert run_cli(args) == 2
    assert f"field seed: must be >= 0, got {seed}" in capsys.readouterr().err
    assert built == [] and not out.exists()
    assert cli.validate_config({"experiment": "purity", "seed": 0})["seed"] == 0


@pytest.mark.parametrize("family", ["conventional_odd_y", "enhanced_bell"])
def test_report_concentration_csv_has_one_writer(tmp_path, capsys, family):
    out = tmp_path / "conc.json"
    args = ["run", "--experiment", "concentration", "--family", family]
    args += ["--n-max", "2", "--samples", "300", "-o", str(out)]
    assert run_cli(args) == 0
    capsys.readouterr()
    assert run_cli(["report", str(out), "--format", "csv"]) == 0
    text = capsys.readouterr().out
    # the text csv.writer makes of the rows: repr of each float, "" for null
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["n", "empirical_var", "analytic_var"])
    for row in read_result(out)["concentration"]["rows"]:
        av = row["analytic_var"]
        writer.writerow([row["n"], repr(row["empirical_var"]), "" if av is None else repr(av)])
    assert text == expected.getvalue()
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
    # a null commutant d is derived, not kept
    config = cli.validate_config({"experiment": "commutant", "n": 2, "d": None})
    assert (config["n"], config["d"]) == (2, 4)


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

# The smallest value each field runs with; one less divided by zero, failed
# inside the library, (purity and entanglement samples) left a class absent,
# (ancilla samples) reported a vacuous deviation or (eps) left no item that
# could be labelled 1.
MINIMUM_CASES = [
    ("purity", "n", 1),
    ("purity", "samples", 2),
    ("time_reversal_states", "n", 1),
    ("time_reversal_states", "samples", 1),
    ("time_reversal_states", "mc_samples", 2),
    ("time_reversal_dynamics", "n", 1),
    ("time_reversal_dynamics", "samples", 1),
    ("time_reversal_dynamics", "mc_samples", 2),
    ("entanglement", "n", 1),
    ("entanglement", "samples", 2),
    ("graph", "samples", 1),
    ("graph", "iterations", 1),
    ("commutant", "n", 1),
    ("commutant", "d", 1),
    ("commutant", "k", 1),
    ("commutant", "trials", 2),
    ("concentration", "n_min", 1),
    ("concentration", "samples", 2),
    ("ancilla", "n", 1),
    ("ancilla", "samples", 1),
    ("purity", "shots", 0),
    ("time_reversal_states", "shots", 0),
    ("time_reversal_dynamics", "shots", 0),
    ("entanglement", "shots", 0),
    ("time_reversal_states", "eps", 0),
    ("time_reversal_dynamics", "eps", 0),
]


def test_minimum_cases_cover_the_table():
    table = {
        (e, f): low
        for e, fields in cli.SCHEMAS.items()
        for f, (_, _, low) in fields.items()
        if low is not None
    }
    assert table == {(e, f): low for e, f, low in MINIMUM_CASES}


@pytest.mark.parametrize("experiment,field,low", MINIMUM_CASES)
def test_counts_below_minimum_are_config_errors(tmp_path, capsys, experiment, field, low):
    config = {"experiment": experiment, **SMALL[experiment], field: low}
    path, out = tmp_path / "config.json", tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", "--config", str(path), "-o", str(out)]) == 0
    assert read_result(out)["config"][field] == low
    out.unlink()
    for below in (low - 1, low - 4):
        config[field] = below
        with pytest.raises(cli.ConfigError, match=f"field {field}: must be >= {low}"):
            cli.validate_config(config)
        path.write_text(json.dumps(config))
        assert run_cli(["run", "--config", str(path), "-o", str(out)]) == 2
        assert f"field {field}: must be >= {low}" in capsys.readouterr().err
        assert not out.exists()
