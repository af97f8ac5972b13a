import io
import math

import numpy as np
import pytest

from spikesr import experiments
from spikesr.errors import DegenerateFitError, InsufficientDataError
from spikesr.experiments import (
    CSV_HEADER,
    DEFAULT_AMPLIFICATION_RANGES,
    DEFAULT_PHASE_RANGES,
    ExperimentRecord,
    amplification_sweep,
    fit_loglog_slope,
    phase_transition_sweep,
    single_experiment,
    write_records_csv,
    write_records_jsonl,
)
from spikesr.matrix_pencil import mp_recover
from spikesr.signal import make_clustered_nodes, standard_cluster_geometry


def test_single_experiment_exact_regime_all_succeed():
    record = single_experiment(2, 3, 0.05, 64, 1e-12, "S1", seed=4)
    assert record.failure is None
    assert all(record.successes)
    assert all(k is not None for k in record.kx)
    assert 0 < record.epsilon0 <= 1e-12 * (1 + 1e-12)
    assert record.srf == pytest.approx(2 * math.pi / (64 * 0.05))


def test_single_experiment_determinism():
    a = single_experiment(2, 3, 0.01, 48, 1e-6, "S1", seed=11)
    b = single_experiment(2, 3, 0.01, 48, 1e-6, "S1", seed=11)
    assert a == b
    c = single_experiment(2, 3, 0.01, 48, 1e-6, "S1", seed=12)
    assert c != a


def test_single_experiment_eps0_semantics():
    s1 = single_experiment(2, 3, 0.01, 48, 1e-4, "S1", seed=0)
    assert s1.epsilon0 <= 1e-4 * (1 + 1e-12)
    # S2 measures the actual spectral deviation of the worst-case signal,
    # which is unrelated to the requested moment perturbation size
    s2 = single_experiment(2, 3, 0.05, 48, 1e-9, "S2", seed=0)
    assert s2.failure is None
    assert s2.epsilon0 > 0
    assert s2.epsilon0 != pytest.approx(1e-9)


def test_single_experiment_s2_too_large_epsilon_fails_gracefully():
    record = single_experiment(2, 3, 0.001, 48, 1e-2, "S2", seed=0)
    assert record.failure is not None
    assert not any(record.successes)
    assert all(k is None for k in record.kx)


def test_single_experiment_node_classes():
    record = single_experiment(3, 5, 0.01, 64, 1e-10, "S1", seed=1)
    assert [record.node_class(j) for j in range(5)] == [
        "cluster", "cluster", "cluster", "noncluster", "noncluster",
    ]


def test_amplification_sweep_deterministic_and_sized():
    runs = [amplification_sweep(2, 3, (5e-3, 6e-2), (48, 96), (1e-10, 1e-4), 5, "S1", 3)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(runs[0]) == 5
    # trial records can be reproduced individually from their stored seed
    rec = runs[0][2]
    again = single_experiment(
        rec.p, rec.d, rec.h, rec.n_samples, rec.epsilon_requested, rec.scheme, rec.seed
    )
    assert again == rec


def _reference_scores(x, amps, est_nodes, est_amps, n_samples, eps0):
    """The former per-node scoring loop of single_experiment, kept as a reference."""

    def circular(a, b):
        frac = (a - b) % 1.0
        return min(frac, 1.0 - frac)

    d = len(x)
    errors, successes, kx, ka = [], [], [], []
    for j in range(d):
        dist_to_true = [circular(est_nodes[j], x[l]) for l in range(d)]
        e_j = min(dist_to_true)
        own_gap = min(abs(x[l] - x[j]) for l in range(d) if l != j)
        ok = e_j < own_gap / 3.0
        errors.append(float(e_j))
        successes.append(bool(ok))
        if ok and eps0 > 0:
            nearest = int(np.argmin(dist_to_true))
            kx.append(float(circular(x[j], est_nodes[nearest]) * n_samples / eps0))
            ka.append(float(abs(amps[j] - est_amps[nearest]) / eps0))
        else:
            kx.append(None)
            ka.append(None)
    return tuple(errors), tuple(successes), tuple(kx), tuple(ka)


@pytest.mark.parametrize("ranges", [DEFAULT_AMPLIFICATION_RANGES, DEFAULT_PHASE_RANGES])
@pytest.mark.parametrize("scheme", ["S1", "S2"])
@pytest.mark.parametrize("p", [2, 3])
def test_scoring_matches_reference_loop(monkeypatch, ranges, scheme, p):
    d = 4
    estimates = []

    def recording_recover(*args):
        result = mp_recover(*args)
        estimates.append(result.estimate)
        return result

    monkeypatch.setattr(experiments, "mp_recover", recording_recover)
    records = amplification_sweep(
        p, d, **ranges, trials=100, scheme=scheme, base_seed=p
    )
    scored = [rec for rec in records if rec.failure is None]
    assert len(scored) == len(estimates) > 0
    amps = experiments._scheme_amplitudes(scheme, d)
    for rec, est in zip(scored, estimates):
        x = make_clustered_nodes(standard_cluster_geometry(p, d, rec.h)) / (2 * math.pi)
        expected = _reference_scores(
            x, amps, est.nodes, est.amplitudes, rec.n_samples, rec.epsilon0
        )
        assert (rec.node_errors, rec.successes, rec.kx, rec.ka) == expected
        assert all(type(e) is float for e in rec.node_errors)
        assert all(type(ok) is bool for ok in rec.successes)
        assert all(v is None or type(v) is float for v in rec.kx + rec.ka)


def _planted_record(srf, kx, ka):
    return ExperimentRecord(
        scheme="S1",
        p=2,
        d=3,
        h=0.01,
        n_samples=64,
        epsilon_requested=1e-6,
        epsilon0=1e-6,
        srf=srf,
        seed=0,
        node_errors=(0.0, 0.0, 0.0),
        successes=(True, True, True),
        kx=(kx, kx, 1.0),
        ka=(ka, ka, 1.0),
    )


def test_fit_loglog_slope_planted_square():
    records = [_planted_record(srf, srf**2, srf**3) for srf in np.geomspace(1, 100, 12)]
    fit = fit_loglog_slope(records, "kx", "cluster")
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.residual_std == pytest.approx(0.0, abs=1e-9)


def test_fit_loglog_slope_planted_cubic_with_intercept():
    records = [_planted_record(srf, srf**2, 7 * srf**3) for srf in np.geomspace(1, 100, 12)]
    fit = fit_loglog_slope(records, "ka", "cluster")
    assert fit.slope == pytest.approx(3.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log10(7.0), abs=1e-9)


def test_fit_loglog_slope_insufficient_data():
    records = [_planted_record(srf, srf**2, srf**3) for srf in (1.0, 2.0)]
    with pytest.raises(InsufficientDataError):
        fit_loglog_slope(records, "kx", "cluster")
    with pytest.raises(ValueError):
        fit_loglog_slope(records, "kz", "cluster")


def test_success_rate_monotone_in_noise():
    h, n = 0.01, 48
    rates = []
    for eps in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1):
        outcomes = [
            single_experiment(2, 3, h, n, eps, "S1", seed=s).all_success()
            for s in range(30)
        ]
        rates.append(np.mean(outcomes))
    inversions = sum(1 for a, b in zip(rates, rates[1:]) if b > a + 1e-9)
    assert inversions <= 1


def test_phase_transition_requires_mixed_outcomes():
    with pytest.raises(DegenerateFitError):
        phase_transition_sweep(
            2, 3, (5e-2, 6e-2), (48, 96), (1e-12, 1e-11), 40, "S1", 0
        )


def test_phase_transition_boundary_sanity():
    records, fit = phase_transition_sweep(
        2, 4, (2e-3, 1e-1), (32, 128), (1e-12, 1.0), 400, "S1", 1
    )
    assert len(records) == 400
    assert fit.n_success + fit.n_failure == 400
    assert -4.5 < fit.slope < -1.5


def test_phase_transition_single_node_selector():
    records, fit = phase_transition_sweep(
        2, 8, (2e-3, 1e-1), (32, 128), (1e-2, 10.0), 300, "S1", 1, node_index=6
    )
    assert -1.5 < fit.slope < 1.5
    with pytest.raises(ValueError):
        phase_transition_sweep(
            2, 8, (2e-3, 1e-1), (32, 128), (1e-2, 10.0), 50, "S1", 1, node_index=9
        )


def test_csv_writer_schema_and_determinism():
    records = amplification_sweep(2, 3, (5e-3, 6e-2), (48, 96), (1e-8, 1e-4), 3, "S1", 5)
    buf = io.StringIO()
    write_records_csv(records, buf, {"trials": 3, "timestamp": "T0"})
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "# timestamp: T0"
    assert lines[1].startswith("# config: ")
    assert lines[2] == CSV_HEADER
    assert len(lines) == 3 + 3 * 3  # one row per node per record
    # byte-identical modulo the timestamp line
    buf2 = io.StringIO()
    write_records_csv(records, buf2, {"trials": 3, "timestamp": "T1"})
    strip = lambda s: "\n".join(l for l in s.splitlines() if not l.startswith("# timestamp"))
    assert strip(text) == strip(buf2.getvalue())


def test_csv_failure_rows_have_empty_factors():
    record = single_experiment(2, 3, 0.001, 48, 1e-2, "S2", seed=0)
    assert record.failure is not None
    buf = io.StringIO()
    write_records_csv([record], buf)
    row = buf.getvalue().splitlines()[1].split(",")
    header = CSV_HEADER.split(",")
    assert row[header.index("succ")] == "false"
    assert row[header.index("Kx")] == ""
    assert row[header.index("Ka")] == ""


def test_jsonl_writer_round_trips_fields():
    import json

    records = amplification_sweep(2, 3, (5e-3, 6e-2), (48, 96), (1e-8, 1e-4), 2, "S1", 5)
    buf = io.StringIO()
    write_records_jsonl(records, buf, {"trials": 2})
    lines = buf.getvalue().splitlines()
    assert json.loads(lines[0]) == {"config": {"trials": 2}}
    payload = json.loads(lines[1])
    assert set(payload) == set(CSV_HEADER.split(","))
    assert payload["node_index"] == 1
