import json
import math

import numpy as np
import pytest

from spikesr import cli, experiments
from spikesr.cli import build_parser, main
from spikesr.errors import DegenerateFitError, RankDeficiencyError
from spikesr.experiments import CSV_HEADER, PhaseBoundaryFit


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


def test_recover_has_no_pencil_option(pair_samples_file, capsys):
    # the estimator runs at its one pencil parameter, ceil(N/2)
    with pytest.raises(SystemExit) as excinfo:
        main(["recover", "-i", str(pair_samples_file), "-d", "2", "--pencil", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --pencil 2" in capsys.readouterr().err


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
    assert lines[0].startswith("# timestamp: ")
    assert lines[1].startswith("# config: ")
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
    cfg.write_text(
        "--kind=amplification\n-p=2\n-d=3\n--trials=10\n--seed=3\n--eps-range=1e-8,1e-4\n"
    )
    out1 = tmp_path / "c1.csv"
    assert main(["experiment", "--config", str(cfg), "-o", str(out1)]) == 0
    # flag overrides the config file's trial count
    out2 = tmp_path / "c2.csv"
    assert main(["experiment", "--config", str(cfg), "--trials", "5", "-o", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 3 + 5 * 3
    assert len(out1.read_text().splitlines()) == 3 + 10 * 3


def test_experiment_phase_degenerate_exits_4(capsys):
    rc = main(
        [
            "experiment", "--kind", "phase", "-p", "2", "-d", "3",
            "--trials", "20", "--seed", "0", "--eps-range", "1e-12,1e-11",
            "--h-range", "5e-2,6e-2",
        ]
    )
    assert rc == 4


@pytest.mark.parametrize(
    "kind, node_index", [("amplification", None), ("phase", None), ("phase", 1)]
)
def test_experiment_counts_failed_trials_by_kind(capsys, kind, node_index):
    # At p=3, d=5 under S2 some worst-case constructions are rejected, so the
    # trial measured no eps0, and some estimates fail after eps0 was measured.
    argv = ["experiment", "--kind", kind, "-p", "3", "-d", "5", "--scheme", "S2",
            "--trials", "60", "--seed", "1", "--h-range", "0.1,0.5"]
    if node_index is not None:
        argv += ["--node-index", str(node_index)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()

    ranges = (
        experiments.DEFAULT_PHASE_RANGES if kind == "phase"
        else experiments.DEFAULT_AMPLIFICATION_RANGES
    )
    records = experiments.amplification_sweep(
        3, 5, (0.1, 0.5), ranges["n_range"], ranges["eps_range"], 60, "S2", 1
    )
    failed = [rec for rec in records if rec.failure is not None]
    construction = sum(math.isnan(rec.epsilon0) for rec in failed)
    estimator = len(failed) - construction
    scored = sum(
        not (rec.all_success() if node_index is None else rec.successes[node_index - 1])
        for rec in records
        if rec.failure is None
    )
    assert min(construction, estimator, scored) > 0
    assert lines[-1] == (
        f"failed trials: {construction} construction, {estimator} estimator, "
        f"{scored} scored, of 60"
    )
    if kind == "phase":
        assert f"failures {construction + estimator + scored})" in lines[0]


def _assert_fits_no_slope(tmp_path, capsys, kind, h_range):
    """An experiment whose trials all sit at N = 64 and an extent in h_range
    spans less than 0.1 decade of srf: phase exits 4 and writes no file,
    amplification prints no slope and writes every record."""
    out = tmp_path / "run.csv"
    trials = {"amplification": "60", "phase": "200"}[kind]
    argv = ["experiment", "--kind", kind, "-p", "2", "-d", "3", "--trials", trials,
            "--h-range", h_range, "--n-range", "64,64", "--seed", "1", "-o", str(out)]
    if kind == "phase":
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "error: degenerate fit: the trials span less than 0.1 decade of srf\n"
        )
        assert not out.exists()
        return
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(
        f"{label}: insufficient data: the {n} usable points in class {cls!r} "
        "span less than 0.1 decade of srf\n"
        for label, n, cls in (
            ("cluster node slope", 120, "cluster"),
            ("cluster amplitude slope", 120, "cluster"),
            ("non-cluster node slope", 60, "noncluster"),
            ("non-cluster amplitude slope", 60, "noncluster"),
        )
    ) + "failed trials: 0 construction, 0 estimator, 0 scored, of 60\n"
    assert len(out.read_text().splitlines()) == 3 + 60 * 3


@pytest.mark.parametrize("kind", ["amplification", "phase"])
def test_experiment_at_one_srf_fits_no_slope(tmp_path, capsys, kind):
    # one extent and one sample count give every trial the same srf
    _assert_fits_no_slope(tmp_path, capsys, kind, "0.02,0.02")


@pytest.mark.parametrize("kind", ["amplification", "phase"])
def test_experiment_at_a_nearly_constant_srf_fits_no_slope(tmp_path, capsys, kind):
    # extents a factor 1 + 5e-9 apart once fitted a cluster node slope of +1.3e8
    _assert_fits_no_slope(tmp_path, capsys, kind, "0.02,0.0200000001")


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


def _sweep_config(text):
    """The config held by a sweep file's "# config:" line."""
    line = text.splitlines()[1]
    assert line.startswith("# config: ")
    return json.loads(line.removeprefix("# config: "))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_experiment_overflowing_factors_are_empty_in_csv(tmp_path, capsys):
    # A subnormal measured noise overflows some factors; their cells are
    # left empty, never written as inf, and no overflow warning is raised.
    out = tmp_path / "amp.csv"
    argv = ["experiment", "--kind", "amplification", "-p", "2", "-d", "3", "--trials", "30",
            "--scheme", "S1", "--eps-range", "1e-323,1e-320", "-o", str(out)]
    assert main(argv) == 0
    header = CSV_HEADER.split(",")
    rows = [dict(zip(header, line.split(",")))
            for line in out.read_text().splitlines()[3:]]
    assert len(rows) == 30 * 3
    assert any(row["succ"] == "true" and row["Kx"] == "" for row in rows)
    assert not any("inf" in row.values() for row in rows)
    assert capsys.readouterr().err == ""


def test_experiment_frames_the_sweep_file(tmp_path, capsys, monkeypatch):
    # The framing rule: a timestamp and a config comment line, JSON keys
    # sorted, then the CSV.
    stamp = "2000-01-01T00:00:00+00:00"
    monkeypatch.setattr(cli, "_timestamp", lambda: stamp)
    out = tmp_path / "run.csv"
    ranges = ["--h-range", "5e-3,6e-2", "--n-range", "48,96", "--eps-range", "1e-8,1e-4"]
    assert main(["experiment", "--kind", "amplification", "-p", "2", "-d", "3",
                 "--trials", "2", "--seed", "4", *ranges, "-o", str(out)]) == 0
    config = {
        "subcommand": "experiment",
        "params": {
            "kind": "amplification", "p": 2, "d": 3, "trials": 2, "scheme": "S1",
            "h_range": [5e-3, 6e-2], "n_range": [48.0, 96.0],
            "eps_range": [1e-8, 1e-4], "node_index": None,
        },
        "seed": 4,
        "output": str(out),
    }
    head = f"# timestamp: {stamp}\n# config: {json.dumps(config, sort_keys=True)}\n"
    head += CSV_HEADER + "\n"
    text = out.read_text()
    assert text.startswith(head)
    assert len(text[len(head):].splitlines()) == 2 * 3


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


def test_worstcase_construction_fails_before_omega_is_checked(tmp_path, capsys):
    # the deviation grid is checked only once the construction has succeeded
    train = {"amplitudes": [[1, 0], [-1, 0]], "nodes": [-0.005, 0.005]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    argv = ["worstcase", "-i", str(src), "-p", "2", "--epsilon", "0.1", "--omega", "nan"]
    assert main(argv) == 3
    assert "epsilon too large" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["0", "1e-30", "1e-9"])
def test_worstcase_zero_cluster_amplitude_exits_2(tmp_path, capsys, epsilon):
    train = {"amplitudes": [[1, 0], [0, 0], [1, 0], [-1, 0]], "nodes": [0, 0.3, 0.301, 0.6]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    out = tmp_path / "report.json"
    argv = ["worstcase", "-i", str(src), "-p", "2", "--kappa", "2", "--epsilon", epsilon]
    assert main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: bad worstcase input: cluster amplitudes must be nonzero\n"
    )
    assert not out.exists()


def test_worstcase_displaced_cluster_breaking_the_node_order_exits_3(tmp_path, capsys):
    train = {"amplitudes": [[1, 0]] * 3, "nodes": [0, 0.01, 0.0100001]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    assert main(["worstcase", "-i", str(src), "-p", "2", "--epsilon", "1e-11"]) == 3
    assert "breaks the node ordering" in capsys.readouterr().err


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
    # post-hoc check of the sampled rate: the non-cluster node 3 keeps
    # angular distance 1/d^2 from both cluster nodes
    z = np.exp(2j * np.pi * rate * nodes)
    angles = np.abs(np.angle(np.divide.outer(z, z)))
    assert angles[2, :2].min() >= 1.0 / 9.0


def test_decimation_near_coincident_nodes_exit_3(tmp_path, capsys):
    train = {"amplitudes": [[1, 0]] * 4, "nodes": [0.0, 1e-13, 0.3, 0.6]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    assert main(["decimation", "-i", str(src), "-p", "2", "--omega", "10"]) == 3
    assert "near-coincident" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decimation_subnormal_noncluster_gap_exits_3_empty(tmp_path, capsys):
    # nodes 0 and 1e-310 lie outside one cluster and never separate, so no
    # rate is admissible; 1/1e-310 overflows, which must not hide the pair
    train = {"amplitudes": [[1, 0], [-1, 0], [1, 0]], "nodes": [0.0, 1e-310, 0.01]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    out = tmp_path / "rates.json"
    flags = ["-p", "2", "--kappa", "2", "--omega", "100", "-o", str(out)]
    assert main(["decimation", "-i", str(src), *flags]) == 3
    assert "empty admissible set" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "nodes, flags, message",
    [
        ([0, 0.3, 0.301, 0.6], ["--kappa", "4"], "kappa must index"),
        # about 1e301 sigma-set pieces of the pair 1e300 apart meet the rates
        ([-1e300, 0, 0.01], ["--kappa", "2"], "separation 1e+300"),
    ],
    ids=["kappa", "huge-gap"],
)
def test_decimation_input_error_writes_no_report(tmp_path, capsys, nodes, flags, message):
    amplitudes = [[(-1) ** j, 0] for j in range(len(nodes))]
    src = tmp_path / "train.json"
    src.write_text(json.dumps({"amplitudes": amplitudes, "nodes": nodes}))
    out = tmp_path / "rates.json"
    argv = ["decimation", "-i", str(src), "-p", "2", *flags, "--omega", "100", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad decimation input: ") and message in err
    assert not out.exists()


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
        (["--eps-range", "1e-9,inf"], "range bounds must be finite"),
        (["-p", "1"], "cluster size p must satisfy 2 <= p <= d"),
        (["-d", "1"], "cluster size p must satisfy 2 <= p <= d"),
        (["--h-range", "1e-3,3.2"], "cluster extent must be below pi"),
        (["--h-range", "1e-320,1e-320"], "h=1e-320 is too small for a finite srf"),
        # the cluster gap underflows to 0
        (["--h-range", "5e-324,1e-3"], "h=5e-324 is too small for a finite srf"),
        # every draw would be raised to 2d+2 = 8, so the range is refused
        (["--trials", "3", "--scheme", "S2", "--n-range", "5,5"],
         "n_range must reach 2 d + 2 = 8 samples; its upper bound rounds to 5"),
        (["--seed", "-1"], "base_seed must be a non-negative integer, not -1"),
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


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--h-range", "a,b"], None),
        ([], ["--h-range=1e-3,1e-2,1e-1"]),
    ],
)
def test_experiment_malformed_range_exits_2(tmp_path, capsys, flags, config):
    # a range is rejected the way any other bad flag value is
    argv = ["experiment", "--kind", "amplification", "-p", "2", "-d", "3", *flags]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "-o", str(out)])
    assert exit_.value.code == 2
    range_text = "a,b" if config is None else "1e-3,1e-2,1e-1"
    assert f"argument --h-range: bad range {range_text!r}: expected lo,hi" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["worstcase", "decimation"])
@pytest.mark.parametrize("flags", [["-p", "0"], ["-p", "1"]])
def test_geometry_with_fewer_than_two_cluster_nodes_exits_2(
    tmp_path, capsys, subcommand, flags
):
    train = {"amplitudes": [[1, 0], [-1, 0], [1, 0], [-1, 0]], "nodes": [0.0, 0.01, 0.3, 0.6]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    out = tmp_path / "r.json"
    level = {"worstcase": ["--epsilon", "1e-9"], "decimation": ["--omega", "200"]}[subcommand]
    assert main([subcommand, "-i", str(src), *flags, *level, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, level",
    [("worstcase", ["--epsilon", "1e-9"]), ("decimation", ["--omega", "200"])],
    ids=["worstcase", "decimation"],
)
def test_extent_flag_is_a_usage_error(tmp_path, capsys, subcommand, level):
    # a cluster's extent is the span of its nodes; no option sets it
    src = tmp_path / "train.json"
    src.write_text(json.dumps({"amplitudes": [[1, 0]] * 4, "nodes": [0.0, 0.3, 0.301, 0.6]}))
    out = tmp_path / "r.json"
    argv = [subcommand, "-i", str(src), "-p", "2", "--kappa", "2", *level]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--extent", "0.001", "-o", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --extent 0.001" in capsys.readouterr().err
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
    required = {
        "recover": ["-d", "2"],
        "worstcase": ["-p", "2", "--epsilon", "1e-9"],
        "decimation": ["-p", "2", "--omega", "100"],
    }[subcommand]
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "-i", str(pair_samples_file), *required, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("omega", ["nan", "inf", "-5", "0"])
def test_worstcase_bad_omega_exits_2(tmp_path, capsys, omega):
    train = {"amplitudes": [[1, 0], [-1, 0], [1, 0], [-1, 0]], "nodes": [0.0, 0.01, 0.3, 0.6]}
    src = tmp_path / "train.json"
    src.write_text(json.dumps(train))
    out = tmp_path / "report.json"
    argv = ["worstcase", "-i", str(src), "-p", "2", "--epsilon", "1e-9", "-o", str(out)]
    assert main([*argv, f"--omega={omega}"]) == 2
    assert "omega must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_worstcase_default_omega_that_overflows_exits_2(tmp_path, capsys):
    # 1/h overflows for h below about 5.6e-309: the message names h, not an
    # --omega that nobody set
    src = tmp_path / "train.json"
    src.write_text(json.dumps({"amplitudes": [[1, 0], [-1, 0], [1, 0]], "nodes": [0, 1e-310, 10]}))
    out = tmp_path / "report.json"
    argv = ["worstcase", "-i", str(src), "-p", "2", "--epsilon", "0", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: bad worstcase input: the default omega 1/h is not finite at cluster "
        "extent h = 1e-310; set --omega\n"
    )
    assert not out.exists()
    assert main([*argv, "--omega", "50"]) == 0


def test_experiment_config_format_checked(tmp_path, capsys):
    # sweep files have one format, and no option picks it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("--format=xml\n")
    out = tmp_path / "x.csv"
    argv = ["experiment", "--config", str(cfg), "--kind", "amplification",
            "-p", "2", "-d", "3", "--trials", "2", "-o", str(out)]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --format=xml" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_format_flag_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["experiment", "--kind", "amplification", "-p", "2", "-d", "3",
            "--trials", "2", "--format", "csv", "-o", str(out)]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, config_text",
    [
        (["--node-index", "2"], None),
        ([], "--node-index=7\n"),
        (["--node-index", "1"], "--kind=phase\n"),  # the flag's kind wins
    ],
)
def test_experiment_node_index_rejected_for_amplification(
    tmp_path, capsys, monkeypatch, flags, config_text
):
    def no_sweep(*_args):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(cli, "amplification_sweep", no_sweep)
    argv = ["experiment", "--kind", "amplification", "-p", "2", "-d", "3",
            "--trials", "2", *flags]
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    out = tmp_path / "x.csv"
    assert main([*argv, "-o", str(out)]) == 2
    assert "node_index applies only to --kind phase" in capsys.readouterr().err
    assert not out.exists()


def _no_trials(p, d, *_args):
    """A stub phase sweep: a Sweep of no trials and a fixed boundary."""
    trials = np.empty(0, experiments._trial_dtype(d))
    sweep = experiments.Sweep("S1", p, d, trials, np.empty(0, np.uint8), ())
    return sweep, PhaseBoundaryFit(-3.0, 0.0, 1, 1)


def test_experiment_node_index_reaches_phase_sweep(tmp_path, capsys, monkeypatch):
    seen = []

    def fake_sweep(*args):
        seen.append(args[8])
        return _no_trials(*args)

    monkeypatch.setattr(cli, "phase_transition_sweep", fake_sweep)
    out = tmp_path / "node.csv"
    argv = ["experiment", "--kind", "phase", "-p", "2", "-d", "3", "--node-index", "3",
            "-o", str(out)]
    assert main(argv) == 0
    assert seen == [3]
    assert _sweep_config(out.read_text())["params"]["node_index"] == 3


@pytest.mark.parametrize(
    "flag, value",
    [
        pytest.param("-p", "2.7", id="p-2.7"),
        pytest.param("-p", "True", id="p-True"),
        pytest.param("--trials", "2.5", id="trials-2.5"),
        pytest.param("--seed", "1.5", id="seed-1.5"),
        pytest.param("--node-index", "2.5", id="node_index-2.5"),
    ],
)
def test_experiment_config_value_its_flag_rejects_exits_2(tmp_path, capsys, flag, value):
    # argparse rejects the value as it rejects the flag: usage, message, exit 2
    config = {"--kind": "phase", "-p": "2", "-d": "3", "--trials": "2", flag: value}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{f}={v}\n" for f, v in config.items()))
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_:
        main(["experiment", "--config", str(cfg), "-o", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spikesr experiment")
    assert f"argument {flag}: invalid int value: {value!r}" in err
    assert not out.exists()


def test_experiment_config_value_is_checked_under_an_overriding_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("--kind=amplification\n-p=2.7\n-d=3\n--trials=2\n")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_:
        main(["experiment", "--config", str(cfg), "-p", "2", "-o", str(out)])
    assert exit_.value.code == 2
    assert "argument -p: invalid int value: '2.7'" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_config_range_with_a_negative_bound_reaches_the_sweep_check(
    tmp_path, capsys
):
    # "--eps-range -1,1" would read "-1,1" as an option; the config's token
    # carries its value after "=", so the sweep's own check rejects it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("--kind=amplification\n-p=2\n-d=3\n--eps-range=-1,1\n")
    out = tmp_path / "x.csv"
    assert main(["experiment", "--config", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad experiment input: range bounds must be positive and ordered\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["recover", "experiment", "worstcase", "decimation"])
def test_unwritable_output_exits_2(pair_samples_file, tmp_path, capsys, subcommand):
    train = tmp_path / "train.json"
    train.write_text(json.dumps({"amplitudes": [[1, 0], [-1, 0], [1, 0]], "nodes": [0.0, 0.01, 0.3]}))
    argv = {
        "recover": ["-i", str(pair_samples_file), "-d", "2"],
        "experiment": ["--kind", "amplification", "-p", "2", "-d", "3", "--trials", "1"],
        "worstcase": ["-i", str(train), "-p", "2", "--epsilon", "1e-9"],
        "decimation": ["-i", str(train), "-p", "2", "--omega", "100"],
    }[subcommand]
    out = tmp_path / "missing-dir" / "out.txt"
    assert main([subcommand, *argv, "-o", str(out)]) == 2
    assert "error: cannot write output file" in capsys.readouterr().err


def _one_value_per_option(tmp_path, samples_file):
    """One valid value for every option of every subcommand, keyed by the
    option's dest, as (flag, value); a range value is a [lo, hi] list."""
    train = tmp_path / "train.json"
    train.write_text(
        json.dumps({"amplitudes": [[1, 0], [-1, 0], [1, 0], [-1, 0]], "nodes": [0.0, 0.01, 0.3, 0.6]})
    )
    cluster = {
        "input": ("-i", str(train)),
        "p": ("-p", 2),
        "kappa": ("--kappa", 1),
    }
    return {
        "recover": {"input": ("-i", str(samples_file)), "order": ("-d", 2)},
        "experiment": {
            "seed": ("--seed", 5),
            "kind": ("--kind", "phase"),
            "p": ("-p", 2),
            "d": ("-d", 3),
            "trials": ("--trials", 7),
            "scheme": ("--scheme", "S2"),
            "h_range": ("--h-range", [1e-3, 2.5e-2]),
            "n_range": ("--n-range", [40, 60]),
            "eps_range": ("--eps-range", [1e-9, 1e-5]),
            "node_index": ("--node-index", 2),
        },
        "worstcase": {
            **cluster,
            "epsilon": ("--epsilon", 1e-9),
            "omega": ("--omega", 50.0),
            "grid_points": ("--grid-points", 101),
        },
        "decimation": {**cluster, "omega": ("--omega", 100.0), "alpha": ("--alpha", 0.05)},
    }


def _flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _declared_options(subcommand, argv):
    """The dests of the options that subcommand records in its config."""
    return [action.dest for action in build_parser().parse_args([subcommand, *argv]).options]


@pytest.mark.parametrize("subcommand", ["recover", "experiment", "worstcase", "decimation"])
def test_flag_and_config_values_embed_the_same_config(
    pair_samples_file, tmp_path, monkeypatch, subcommand
):
    monkeypatch.setattr(
        cli, "phase_transition_sweep", _no_trials
    )
    out = tmp_path / "out.txt"
    values = {
        "output": ("-o", str(out)),
        **_one_value_per_option(tmp_path, pair_samples_file)[subcommand],
    }
    argv = [tok for flag, value in values.values() for tok in (flag, _flag_text(value))]
    assert sorted(_declared_options(subcommand, argv)) == sorted(values)

    def embedded_config(argv):
        assert main([subcommand, *argv]) == 0
        text = out.read_text()
        out.unlink()
        if subcommand == "experiment":
            return _sweep_config(text)
        return json.loads(text)["config"]

    cfg = tmp_path / "run.cfg"
    for key, (flag, value) in values.items():
        others = [tok for k, (f, v) in values.items() if k != key for tok in (f, _flag_text(v))]
        cfg.write_text(f"{flag}={_flag_text(value)}\n")
        by_flag = embedded_config([*others, flag, _flag_text(value)])
        assert embedded_config([*others, "--config", str(cfg)]) == by_flag, key


@pytest.mark.parametrize("subcommand", ["recover", "experiment", "worstcase", "decimation"])
def test_recorded_params_are_the_declared_options(
    pair_samples_file, tmp_path, monkeypatch, subcommand
):
    monkeypatch.setattr(
        cli, "phase_transition_sweep", _no_trials
    )
    recorded = []
    run_config = cli._run_config

    def spy(args):
        recorded.append(run_config(args))
        return recorded[-1]

    monkeypatch.setattr(cli, "_run_config", spy)
    out = tmp_path / "out.txt"
    values = _one_value_per_option(tmp_path, pair_samples_file)[subcommand]
    argv = [tok for flag, value in values.values() for tok in (flag, _flag_text(value))]
    assert main([subcommand, *argv, "-o", str(out)]) == 0
    declared = _declared_options(subcommand, argv)
    expected = [key for key in declared if key not in ("output", "seed")]
    assert [list(config["params"]) for config in recorded] == [expected]
    if subcommand != "experiment":
        assert list(json.loads(out.read_text())["config"]["params"]) == expected


@pytest.mark.parametrize(
    "subcommand, config_text, token",
    [
        ("experiment", "--kind=amplification\n-p=2\n-d=3\n--trails=3\n--seed=1\n",
         "--trails=3"),
        ("worstcase", "--seed=1\n", "--seed=1"),
        ("worstcase", "--extent=0.01\n", "--extent=0.01"),
        ("decimation", "--extent=0.01\n", "--extent=0.01"),
    ],
    ids=["experiment-trails", "worstcase-seed", "worstcase-extent", "decimation-extent"],
)
def test_unknown_config_key_exits_2(
    tmp_path, capsys, monkeypatch, subcommand, config_text, token
):
    # a config token that names no option is an unrecognized argument
    def no_sweep(*_args):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(cli, "amplification_sweep", no_sweep)
    train = tmp_path / "train.json"
    train.write_text(json.dumps({"amplitudes": [[1, 0], [-1, 0], [1, 0]], "nodes": [0.0, 0.01, 0.3]}))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out.txt"
    argv = {
        "experiment": [],
        "worstcase": ["-i", str(train), "-p", "2", "--epsilon", "1e-9"],
        "decimation": ["-i", str(train), "-p", "2", "--omega", "100"],
    }[subcommand]
    with pytest.raises(SystemExit) as exit_:
        main([subcommand, *argv, "--config", str(cfg), "-o", str(out)])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {token}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", range(6))
def test_experiment_h_range_below_the_finite_srf_limit_exits_2_before_any_trial(
    tmp_path, capsys, monkeypatch, seed
):
    # only some draws from this range fall below the limit, so checking each
    # trial alone made the outcome hang on the seed
    calls = []
    monkeypatch.setattr(experiments, "single_experiment", lambda *args: calls.append(args))
    out = tmp_path / "x.csv"
    argv = ["experiment", "--kind", "amplification", "-p", "2", "-d", "3", "--trials", "5",
            "--h-range", "1e-322,1e-3", "--seed", str(seed), "-o", str(out)]
    assert main(argv) == 2
    assert "h=1e-322 is too small for a finite srf" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_experiment_output_checked_before_the_sweep(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "amplification_sweep", lambda *args: calls.append(args) or [])
    out = tmp_path / "missing-dir" / "x.csv"
    argv = ["experiment", "--kind", "amplification", "-p", "2", "-d", "3",
            "--trials", "1500", "-o", str(out)]
    assert main(argv) == 2
    assert "error: cannot write output file" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("earlier", [None, "earlier run\n"])
def test_experiment_failure_leaves_the_output_as_it_was(tmp_path, capsys, monkeypatch, earlier):
    def degenerate(*_args):
        raise DegenerateFitError("degenerate fit: all trials share one outcome")

    monkeypatch.setattr(cli, "phase_transition_sweep", degenerate)
    out = tmp_path / "x.csv"
    if earlier is not None:
        out.write_text(earlier)
    argv = ["experiment", "--kind", "phase", "-p", "2", "-d", "3", "-o", str(out)]
    assert main(argv) == 4
    assert "degenerate fit" in capsys.readouterr().err
    assert (out.read_text() if out.exists() else None) == earlier


@pytest.mark.parametrize("epsilon", ["0", "1e-9"])
def test_worstcase_single_grid_point_exits_2(tmp_path, capsys, epsilon):
    train = tmp_path / "train.json"
    train.write_text(json.dumps({"amplitudes": [[1, 0], [-1, 0], [1, 0]], "nodes": [0.0, 0.01, 0.3]}))
    out = tmp_path / "report.json"
    argv = ["worstcase", "-i", str(train), "-p", "2", "--epsilon", epsilon,
            "--grid-points", "1", "-o", str(out)]
    assert main(argv) == 2
    assert "need at least two grid points" in capsys.readouterr().err
    assert not out.exists()


LIBRARY_CALLS = [
    ("recover", "mp_recover"),
    ("experiment", "amplification_sweep"),
    ("worstcase", "worst_case_signal"),
    ("worstcase", "spectral_deviation"),
    ("decimation", "admissible_lambdas"),
    ("decimation", "gautschi_bounds"),
]
FAILURES = [
    (ValueError, 2),
    (MemoryError, 2),
    (RankDeficiencyError, 3),
    (np.linalg.LinAlgError, 3),
]


@pytest.mark.parametrize(
    "subcommand, call, error, code",
    [
        (subcommand, call, error, code)
        for subcommand, call in LIBRARY_CALLS
        for error, code in FAILURES
        + ([(DegenerateFitError, 4)] if subcommand == "experiment" else [])
    ],
)
def test_library_failures_map_to_exit_codes(
    pair_samples_file, tmp_path, capsys, monkeypatch, subcommand, call, error, code
):
    def failing(*_args):
        raise error("library failure")

    monkeypatch.setattr(cli, call, failing)
    train = tmp_path / "train.json"
    train.write_text(json.dumps({"amplitudes": [[1, 0], [-1, 0], [1, 0]], "nodes": [0.0, 0.01, 0.3]}))
    argv = {
        "recover": ["-i", str(pair_samples_file), "-d", "2"],
        "experiment": ["--kind", "amplification", "-p", "2", "-d", "3", "--trials", "1"],
        "worstcase": ["-i", str(train), "-p", "2", "--epsilon", "1e-9"],
        "decimation": ["-i", str(train), "-p", "2", "--omega", "100"],
    }[subcommand]
    out = tmp_path / "out.txt"
    assert main([subcommand, *argv, "-o", str(out)]) == code
    prefix = f"bad {subcommand} input: " if code == 2 else ""
    assert capsys.readouterr().err == f"error: {prefix}library failure\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, argv, flag",
    [
        ("experiment", ["-p", "2", "-d", "3"], "--kind"),
        ("experiment", ["--kind", "phase", "-d", "3"], "-p"),
        ("experiment", ["--kind", "phase", "-p", "2"], "-d"),
        ("recover", ["-d", "2"], "--input"),
        ("worstcase", ["-i", "train.json", "--epsilon", "1e-9"], "-p"),
        ("decimation", ["-i", "train.json", "-p", "2"], "--omega"),
    ],
)
def test_missing_required_option_is_named_by_its_flag(capsys, subcommand, argv, flag):
    with pytest.raises(SystemExit) as exit_:
        main([subcommand, *argv])
    assert exit_.value.code == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "nodes, flags, message",
    [
        # the non-cluster gap over the node span T rounds to 0 (eta)
        ([0, 5e-324, 10], ["-p", "2", "--kappa", "2"],
         "smallest non-cluster separation 5e-324 over the node span T = 10.0 rounds to 0"),
        # the cluster gap over the cluster extent h rounds to 0 (tau)
        ([0, 5e-324, 10], ["-p", "3"],
         "smallest cluster separation 5e-324 over the cluster extent h = 10.0 rounds to 0"),
    ],
    ids=["eta", "tau"],
)
@pytest.mark.parametrize(
    "subcommand, extra",
    [("worstcase", ["--epsilon", "1e-9"]), ("decimation", ["--omega", "0.1"])],
    ids=["worstcase", "decimation"],
)
def test_unresolvable_separation_is_named_and_exits_2(
    tmp_path, capsys, nodes, flags, message, subcommand, extra
):
    src = tmp_path / "train.json"
    src.write_text(json.dumps({"amplitudes": [[1, 0], [-1, 0], [1, 0]], "nodes": nodes}))
    out = tmp_path / "report.json"
    argv = [subcommand, "-i", str(src), *flags, *extra, "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: bad {subcommand} input: {message}\n"
    assert not out.exists()


_TRAIN4 = {"amplitudes": [[1, 0], [-1, 0], [1, 0], [-0.5, 0.5]], "nodes": [0, 0.3, 0.301, 0.6]}


def _train4_report(tmp_path, argv):
    src, out = tmp_path / "train.json", tmp_path / "report.json"
    src.write_text(json.dumps(_TRAIN4))
    assert main([argv[0], "-i", str(src), "-p", "2", "--kappa", "2", *argv[1:], "-o", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("omega_flags", [["--omega", "50"], []], ids=["omega", "no-omega"])
def test_worstcase_report_body(tmp_path, omega_flags):
    from spikesr.signal import SpikeTrain
    from spikesr.worstcase import spectral_deviation, worst_case_signal

    report = _train4_report(tmp_path, ["worstcase", "--epsilon", "1e-9", *omega_flags])
    diagnostics = [
        "moment_match_error",
        "last_moment_delta",
        "node_displacement",
        "amplitude_displacement",
        "spectral_deviation",
    ]
    assert list(report) == ["timestamp", "config", "perturbed", *diagnostics]
    train = SpikeTrain([complex(*pair) for pair in _TRAIN4["amplitudes"]], _TRAIN4["nodes"])
    expected = worst_case_signal(train, 2, 1e-9, 2)
    # without --omega the grid spans 1/h, h the cluster span 0.301 - 0.3
    omega = 50.0 if omega_flags else 1.0 / (train.nodes[2] - train.nodes[1])
    deviation = spectral_deviation(train, expected.perturbed, omega, 1001)
    assert report["config"]["params"]["omega"] == (50.0 if omega_flags else None)
    perturbed = report["perturbed"]
    assert list(perturbed) == ["amplitudes", "nodes"]
    assert perturbed["amplitudes"] == [
        [a.real, a.imag] for a in expected.perturbed.amplitudes.tolist()
    ]
    assert perturbed["nodes"] == expected.perturbed.nodes.tolist()
    assert perturbed["nodes"] != _TRAIN4["nodes"]
    for name in diagnostics[:-1]:
        assert repr(report[name]) == repr(getattr(expected, name))
    assert repr(report["spectral_deviation"]) == repr(deviation)


def test_decimation_report_body(tmp_path):
    from spikesr.decimation import admissible_lambdas, gautschi_bounds
    from spikesr.signal import ClusterGeometry

    report = _train4_report(tmp_path, ["decimation", "--omega", "1000"])
    assert list(report) == ["timestamp", "config", "admissible", "sample_rate", "bounds"]
    nodes = np.array(_TRAIN4["nodes"], dtype=float)
    admissible = admissible_lambdas(nodes, ClusterGeometry.from_nodes(nodes, 2, 2), 1000.0)
    intervals = report["admissible"]["intervals"]
    assert list(report["admissible"]) == ["intervals"]
    assert intervals == [list(pair) for pair in admissible.intervals]
    assert len(intervals) > 1 and intervals == sorted(intervals)
    assert all(lo < hi for lo, hi in intervals)
    widest = max(intervals, key=lambda ab: ab[1] - ab[0])
    assert report["sample_rate"] == 0.5 * (widest[0] + widest[1])
    bounds = gautschi_bounds(np.exp(2j * np.pi * report["sample_rate"] * nodes))
    arrays = [
        "delta",
        "gamma",
        "amplitude_row_bounds",
        "node_row_bounds",
        "empirical_amplitude_row_norms",
        "empirical_node_row_norms",
    ]
    assert list(report["bounds"]) == [*arrays, "condition_number"]
    for name in arrays:
        assert report["bounds"][name] == getattr(bounds, name).tolist()
    assert report["bounds"]["condition_number"] == bounds.condition_number


@pytest.mark.parametrize("subcommand", ["recover", "worstcase", "decimation"])
def test_report_without_output_goes_to_stdout(pair_samples_file, tmp_path, capsys, subcommand):
    train = tmp_path / "train.json"
    train.write_text(json.dumps(_TRAIN4))
    argv = {
        "recover": ["recover", "-i", str(pair_samples_file), "-d", "2"],
        "worstcase": ["worstcase", "-i", str(train), "-p", "2", "--kappa", "2",
                      "--epsilon", "1e-9"],
        "decimation": ["decimation", "-i", str(train), "-p", "2", "--kappa", "2",
                       "--omega", "1000"],
    }[subcommand]
    out = tmp_path / "report.json"
    assert main([*argv, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out.read_text())
    del printed["timestamp"], written["timestamp"]
    assert printed["config"].pop("output") is None
    assert written["config"].pop("output") == str(out)
    assert printed == written


def _config_error(tmp_path, capsys, text):
    """Exit code and stderr of an experiment run whose config file holds text
    (or that names a missing config file when text is None)."""
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code = main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "out.csv")])
    return code, capsys.readouterr().err, cfg


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    code, err, cfg = _config_error(tmp_path, capsys, None)
    assert code == 2
    assert err == (
        f"error: cannot read config file: [Errno 2] No such file or directory: {str(cfg)!r}\n"
    )


def test_config_file_cannot_set_config(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "amplification_sweep", lambda *args: pytest.fail("sweep ran"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"--kind=amplification\n-p=2\n-d=3\n--config={cfg}\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: a config file cannot set --config\n"


def test_config_file_that_is_not_text_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff--trials=2\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file: 'utf-8' codec can't decode byte 0xff")


_JSON_CONFIG = '{"kind": "amplification", "p": 2, "d": 3}'


@pytest.mark.parametrize(
    "text, line",
    [("--kind=amplification\np=2\n-d=3\n", "p=2"), (_JSON_CONFIG + "\n", _JSON_CONFIG)],
    ids=["key-value", "json"],
)
def test_config_line_that_is_not_a_flag_exits_2(tmp_path, capsys, monkeypatch, text, line):
    # a file in an older syntax is named by its line, not by a missing option
    monkeypatch.setattr(cli, "amplification_sweep", lambda *args: pytest.fail("sweep ran"))
    code, err, _ = _config_error(tmp_path, capsys, text)
    assert code == 2
    assert err == f"error: bad config line (expected a flag token): {line!r}\n"
    assert not (tmp_path / "out.csv").exists()


def test_config_skips_blank_and_comment_lines(tmp_path):
    plain = "--kind=amplification\n-p=2\n-d=3\n--trials=2\n--seed=3\n"
    commented = (
        "# sweep\n\n--kind=amplification\n   # indented comment\n-p=2\n\n  \n-d=3\n"
        "--trials=2\n--seed=3\n"
    )
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    texts = []
    for text in (plain, commented):
        cfg.write_text(text)
        assert main(["experiment", "--config", str(cfg), "-o", str(out)]) == 0
        texts.append(
            [l for l in out.read_text().splitlines() if not l.startswith("# timestamp")]
        )
    assert texts[0] == texts[1]
    config = json.loads(texts[0][0].removeprefix("# config: "))
    params = config["params"]
    assert (params["kind"], params["p"], params["d"], params["trials"], config["seed"]) == (
        "amplification", 2, 3, 2, 3,
    )



@pytest.mark.parametrize("subcommand", ["recover", "experiment", "worstcase", "decimation"])
def test_required_options_may_come_from_the_config_file(
    pair_samples_file, tmp_path, monkeypatch, subcommand
):
    monkeypatch.setattr(cli, "_timestamp", lambda: "2000-01-01T00:00:00+00:00")
    train = tmp_path / "train.json"
    amplitudes = [[1, 0], [-1, 0], [1, 0], [-1, 0]]
    train.write_text(json.dumps({"amplitudes": amplitudes, "nodes": [0.0, 0.01, 0.3, 0.6]}))
    required = {
        "recover": [("-i", pair_samples_file), ("-d", 2)],
        "experiment": [("--kind", "amplification"), ("-p", 2), ("-d", 3)],
        "worstcase": [("-i", train), ("-p", 2), ("--epsilon", 1e-9)],
        "decimation": [("-i", train), ("-p", 2), ("--omega", 100)],
    }[subcommand]
    extra = ["--trials", "2"] if subcommand == "experiment" else []
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.txt"
    cfg.write_text("".join(f"{flag}={value}\n" for flag, value in required))
    texts = []
    for argv in ([str(tok) for pair in required for tok in pair], ["--config", str(cfg)]):
        assert main([subcommand, *argv, *extra, "-o", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_config_option_without_a_path_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["experiment", "--kind", "amplification", "-p", "2", "-d", "3", "--config"])
    assert exit_.value.code == 2
    assert "argument --config: expected one argument" in capsys.readouterr().err


def test_config_path_may_follow_an_equals_sign(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_timestamp", lambda: "2000-01-01T00:00:00+00:00")
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg.write_text("--kind=amplification\n-p=2\n-d=3\n--trials=2\n")
    texts = []
    for argv in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert main(["experiment", *argv, "-o", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert _sweep_config(texts[0])["params"]["trials"] == 2
