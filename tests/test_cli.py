import json
import math

import numpy as np
import pytest

from spikesr.cli import main


@pytest.fixture
def pair_samples_file(tmp_path):
    path = tmp_path / "samples.json"
    path.write_text(
        json.dumps(
            {
                "values": [[2, 0], [-1, 0], [-1, 0], [2, 0]],
                "noise_bound": 0.0,
                "actual_noise": 0.0,
            }
        )
    )
    return path


def test_recover_pair(pair_samples_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["recover", "-i", str(pair_samples_file), "-d", "2", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    np.testing.assert_allclose(report["nodes"], [-1 / 3, 1 / 3], atol=1e-9)
    assert report["L"] == 2
    assert report["config"]["seed"] is None


def test_recover_single_spike(tmp_path):
    values = [[math.cos(2 * math.pi * 0.2 * k), math.sin(2 * math.pi * 0.2 * k)] for k in range(8)]
    src = tmp_path / "one.json"
    src.write_text(json.dumps({"values": values}))
    out = tmp_path / "out.json"
    assert main(["recover", "-i", str(src), "-d", "1", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["nodes"][0] == pytest.approx(0.2, abs=1e-10)
    assert report["amplitudes"][0][0] == pytest.approx(1.0, abs=1e-10)


def test_recover_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["recover", "-i", str(bad), "-d", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_recover_estimator_failure_exits_3(tmp_path, capsys):
    # constant samples are single-spike data: rank deficient at order 3
    src = tmp_path / "flat.json"
    src.write_text(json.dumps({"values": [[1, 0]] * 8}))
    assert main(["recover", "-i", str(src), "-d", "3"]) == 3


def test_recover_bad_pencil_exits_2(pair_samples_file, capsys):
    assert main(["recover", "-i", str(pair_samples_file), "-d", "2", "--pencil", "1"]) == 2
    assert "pencil parameter must lie in [2, 2]" in capsys.readouterr().err


def test_recover_non_finite_samples_exit_2(tmp_path, capsys):
    src = tmp_path / "nan.json"
    src.write_text('{"values": [[2, 0], [-1, 0], [NaN, 0], [2, 0], [-1, 0], [-1, 0]]}')
    assert main(["recover", "-i", str(src), "-d", "2"]) == 2
    assert "samples must be finite" in capsys.readouterr().err


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.startswith("spikesr ")


def test_experiment_amplification_csv(tmp_path, capsys):
    out = tmp_path / "amp.csv"
    rc = main(
        [
            "experiment", "--kind", "amplification", "-p", "2", "-d", "3",
            "--trials", "30", "--seed", "1", "-o", str(out),
            "--eps-range", "1e-8,1e-4",
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "cluster node slope" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# timestamp:")
    assert lines[1].startswith("# config:")
    assert lines[2].startswith("scheme,p,d,h,N")
    assert len(lines) == 3 + 30 * 3


def test_experiment_output_reproducible_modulo_timestamp(tmp_path):
    out = tmp_path / "run.csv"
    outs = []
    for _ in range(2):
        main(
            [
                "experiment", "--kind", "amplification", "-p", "2", "-d", "3",
                "--trials", "10", "--seed", "7", "-o", str(out),
            ]
        )
        outs.append(
            "\n".join(
                l for l in out.read_text().splitlines() if not l.startswith("# timestamp")
            )
        )
    assert outs[0] == outs[1]


def test_experiment_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=amplification\np=2\nd=3\ntrials=10\nseed=3\neps_range=1e-8,1e-4\n")
    out1 = tmp_path / "c1.csv"
    assert main(["experiment", "--config", str(cfg), "-o", str(out1)]) == 0
    # flag overrides the config file's trial count
    out2 = tmp_path / "c2.csv"
    assert main(["experiment", "--config", str(cfg), "--trials", "5", "-o", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 3 + 5 * 3
    assert len(out1.read_text().splitlines()) == 3 + 10 * 3


def test_experiment_json_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "phase", "p": 2, "d": 4, "trials": 200, "seed": 1}))
    out = tmp_path / "phase.csv"
    assert main(["experiment", "--config", str(cfg), "-o", str(out)]) == 0


def test_experiment_phase_degenerate_exits_4(capsys):
    rc = main(
        [
            "experiment", "--kind", "phase", "-p", "2", "-d", "3",
            "--trials", "20", "--seed", "0", "--eps-range", "1e-12,1e-11",
            "--h-range", "5e-2,6e-2",
        ]
    )
    assert rc == 4


def test_experiment_single_trial(tmp_path, capsys):
    out = tmp_path / "one.csv"
    rc = main(
        [
            "experiment", "--kind", "amplification", "-p", "2", "-d", "3",
            "--trials", "1", "--seed", "0", "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 + 3  # one record block of d rows
    assert "insufficient data" in capsys.readouterr().out


def test_experiment_jsonl_format(tmp_path):
    out = tmp_path / "amp.jsonl"
    rc = main(
        [
            "experiment", "--kind", "amplification", "-p", "2", "-d", "3",
            "--trials", "4", "--seed", "2", "-o", str(out), "--format", "jsonl",
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4 * 3
    assert "config" in json.loads(lines[0])


def test_worstcase_identity_at_zero_epsilon(tmp_path):
    train = {"amplitudes": [[1, 0], [-1, 0]], "nodes": [-0.005, 0.005]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    out = tmp_path / "report.json"
    rc = main(
        ["worstcase", "-i", str(src), "-p", "2", "--epsilon", "0", "-o", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["perturbed"]["nodes"] == train["nodes"]
    assert report["moment_match_error"] == 0.0


def test_worstcase_epsilon_too_large_exits_3(tmp_path):
    train = {"amplitudes": [[1, 0], [-1, 0]], "nodes": [-0.005, 0.005]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    rc = main(["worstcase", "-i", str(src), "-p", "2", "--epsilon", "0.1"])
    assert rc == 3


def test_decimation_full_interval_for_pure_cluster(tmp_path):
    train = {"amplitudes": [[1, 0], [-1, 0]], "nodes": [0.0, 0.01]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    out = tmp_path / "dec.json"
    rc = main(
        ["decimation", "-i", str(src), "-p", "2", "--omega", "100", "-o", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    np.testing.assert_allclose(
        report["admissible"]["intervals"], [[100 / 6, 100 / 3]], rtol=1e-12
    )
    assert "bounds" in report and "delta" in report["bounds"]


def test_decimation_clustered_signal_report(tmp_path):
    from spikesr.signal import make_clustered_nodes, standard_cluster_geometry

    nodes = make_clustered_nodes(standard_cluster_geometry(2, 3, 0.001)) / (2 * math.pi)
    train = {"amplitudes": [[1, 0]] * 3, "nodes": list(nodes)}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    out = tmp_path / "dec.json"
    rc = main(["decimation", "-i", str(src), "-p", "2", "--omega", "200", "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["admissible"]["intervals"]) >= 1
    lo, hi = 200 / 10, 200 / 5
    rate = report["sample_rate"]
    assert lo <= rate <= hi
    # post-hoc check of the sampled rate
    z = np.exp(2j * np.pi * rate * nodes)
    from spikesr.decimation import angular_distance

    for j in range(3):
        for k in range(j + 1, 3):
            if j < 2 and k < 2:
                continue
            assert angular_distance(z[j], z[k]) >= 1.0 / 9.0


def test_decimation_near_coincident_nodes_exit_3(tmp_path, capsys):
    train = {"amplitudes": [[1, 0]] * 4, "nodes": [0.0, 1e-13, 0.3, 0.6]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    assert main(["decimation", "-i", str(src), "-p", "2", "--omega", "10"]) == 3
    assert "near-coincident" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--omega", "nan"], "omega must be finite"),
        (["--omega", "200", "--alpha", "4"], "angular threshold"),
    ],
)
def test_decimation_bad_parameters_exit_2(tmp_path, capsys, flags, message):
    from spikesr.signal import make_clustered_nodes, standard_cluster_geometry

    nodes = make_clustered_nodes(standard_cluster_geometry(2, 3, 0.001)) / (2 * math.pi)
    src = tmp_path / "train.json"
    src.write_text(json.dumps({"amplitudes": [[1, 0]] * 3, "nodes": list(nodes)}))
    assert main(["decimation", "-i", str(src), "-p", "2", *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", "0"], "need at least one trial"),
        (["--h-range", "0,0.1"], "range bounds must be positive and ordered"),
    ],
)
@pytest.mark.parametrize("kind", ["amplification", "phase"])
def test_experiment_bad_sweep_input_exits_2(tmp_path, capsys, kind, flags, message):
    out = tmp_path / "x.csv"
    argv = ["experiment", "--kind", kind, "-p", "2", "-d", "3", "-o", str(out), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad experiment input") and message in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_worstcase_non_finite_epsilon_exits_2(tmp_path, capsys, epsilon):
    train = {"amplitudes": [[1, 0], [-1, 0], [1, 0], [-1, 0]], "nodes": [0.0, 0.01, 0.3, 0.6]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    assert main(["worstcase", "-i", str(src), "-p", "2", "--epsilon", epsilon]) == 2
    assert "epsilon must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["recover", "worstcase", "decimation"])
def test_seed_only_on_experiment(pair_samples_file, capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "-i", str(pair_samples_file), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_reports_without_randomness_write_null_seed(tmp_path):
    train = {"amplitudes": [[1, 0], [-1, 0], [1, 0]], "nodes": [0.0, 0.01, 0.3]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    for argv in (
        ["worstcase", "-i", str(src), "-p", "2", "--epsilon", "1e-9"],
        ["decimation", "-i", str(src), "-p", "2", "--omega", "100"],
    ):
        out = tmp_path / "report.json"
        assert main([*argv, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] is None
