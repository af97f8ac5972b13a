import copy
import dataclasses
import io
import math
import pickle
from types import SimpleNamespace

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


@pytest.mark.parametrize("scheme, h", [("S1", 0.01), ("S2", 0.05)])
def test_estimator_samples_carry_the_recorded_eps0(monkeypatch, scheme, h):
    # both schemes hand the estimator samples whose actual_noise is epsilon0
    seen = []

    def recording_recover(samples, d):
        seen.append(samples)
        return mp_recover(samples, d)

    monkeypatch.setattr(experiments, "mp_recover", recording_recover)
    record = single_experiment(2, 3, h, 48, 1e-9, scheme, seed=0)
    assert record.failure is None and len(seen) == 1
    assert seen[0].actual_noise == record.epsilon0 > 0


def test_single_experiment_s2_too_large_epsilon_fails_gracefully():
    record = single_experiment(2, 3, 0.001, 48, 1e-2, "S2", seed=0)
    assert record.failure is not None
    assert not any(record.successes)
    assert all(k is None for k in record.kx)


def test_single_experiment_rejects_an_extent_too_small_for_a_finite_srf():
    with pytest.raises(ValueError, match=r"h=1e-320 is too small for a finite srf"):
        single_experiment(2, 3, 1e-320, 48, 1e-9, "S1", seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_factors_are_missing():
    # a subnormal measured noise overflows some factors of successful nodes
    records = amplification_sweep(
        2, 3, (5e-3, 6e-2), (48, 96), (1e-323, 1e-320), 30, "S1", 0
    )
    factors = [v for rec in records for v in rec.kx + rec.ka]
    assert all(v is None or math.isfinite(v) for v in factors)
    assert any(
        ok and kx is None
        for rec in records
        for ok, kx in zip(rec.successes, rec.kx)
    )


def _failed_sweep():
    """An S2 sweep (p=3, d=5) holding both construction and estimator
    failures."""
    return amplification_sweep(
        3, 5, **DEFAULT_AMPLIFICATION_RANGES, trials=60, scheme="S2", base_seed=1
    )


def test_failed_trials_share_their_per_node_tuples():
    failed = [rec for rec in _failed_sweep() if rec.failure is not None]
    # a failed construction leaves eps0 NaN; a failed estimate measured it
    construction = [rec for rec in failed if math.isnan(rec.epsilon0)]
    assert 0 < len(construction) < len(failed)
    first = failed[0]
    assert len(first.node_errors) == 5 and all(map(math.isnan, first.node_errors))
    assert first.successes == (False,) * 5
    assert first.kx == (None,) * 5
    for rec in failed:
        assert rec.node_errors is first.node_errors
        assert rec.successes is first.successes
        assert rec.kx is first.kx
        assert rec.ka is rec.kx


def test_records_are_slotted_and_frozen():
    for rec in _failed_sweep()[:10]:
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.seed = 1
        # A name that is no field cannot be set either.  The frozen
        # __setattr__ of a slotted dataclass raises TypeError for it, not
        # FrozenInstanceError, on CPython 3.11 at least.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            rec.extra = 1


def test_records_copy_replace_and_pickle():
    records = _failed_sweep()
    assert {rec.failure is None for rec in records} == {True, False}
    for rec in records:
        for clone in (copy.copy(rec), copy.deepcopy(rec)):
            assert clone == rec and not hasattr(clone, "__dict__")
        # unpickling builds new NaN objects, which compare unequal
        assert repr(pickle.loads(pickle.dumps(rec))) == repr(rec)
        moved = dataclasses.replace(rec, seed=rec.seed + 1)
        assert moved != rec and not hasattr(moved, "__dict__")
        assert dataclasses.replace(moved, seed=rec.seed) == rec


def test_records_equal_a_rebuild_with_fresh_tuples():
    # equality never rests on the shared tuples being the same objects
    for rec in _failed_sweep():
        fresh = dataclasses.replace(
            rec,
            **{
                name: tuple(list(getattr(rec, name)))
                for name in ("node_errors", "successes", "kx", "ka")
            },
        )
        assert fresh.node_errors is not rec.node_errors
        assert fresh == rec


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
    """Per-true-node scoring loop: true node l is scored by its nearest
    estimate, and Kx/Ka compare true node l with that estimate."""

    def circular(a, b):
        frac = (a - b) % 1.0
        return min(frac, 1.0 - frac)

    d = len(x)
    errors, successes, kx, ka = [], [], [], []
    for l in range(d):
        dist_to_est = [circular(est_nodes[j], x[l]) for j in range(d)]
        e_l = min(dist_to_est)
        own_gap = min(abs(x[m] - x[l]) for m in range(d) if m != l)
        ok = e_l < own_gap / 3.0
        errors.append(float(e_l))
        successes.append(bool(ok))
        if ok and eps0 > 0:
            nearest = int(np.argmin(dist_to_est))
            kx.append(float(circular(x[l], est_nodes[nearest]) * n_samples / eps0))
            ka.append(float(abs(amps[l] - est_amps[nearest]) / eps0))
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


_BUILT = dict(p=2, d=3, h=0.05, n_samples=64)


def _built_true_nodes():
    geometry = standard_cluster_geometry(_BUILT["p"], _BUILT["d"], _BUILT["h"])
    return make_clustered_nodes(geometry) / (2 * math.pi)


def _experiment_with_estimate(monkeypatch, offsets, order):
    """single_experiment (p=2, d=3, S1) whose estimator returns the true nodes
    shifted by offsets, listed in the given order, with exact amplitudes."""
    amps = experiments._scheme_amplitudes("S1", _BUILT["d"])
    nodes = (_built_true_nodes() + offsets)[order]
    est = SimpleNamespace(estimate=SimpleNamespace(nodes=nodes, amplitudes=amps[order]))
    monkeypatch.setattr(experiments, "mp_recover", lambda *args: est)
    return single_experiment(**_BUILT, epsilon=1e-6, scheme="S1", seed=5)


def test_scoring_finds_each_true_nodes_estimate_in_any_order(monkeypatch):
    # The estimates come back cyclically permuted: every true node still
    # finds its own estimate, and its factors use that estimate.
    offsets = np.array([1e-9, -2e-9, 3e-9])
    rec = _experiment_with_estimate(monkeypatch, offsets, [1, 2, 0])
    assert rec.successes == (True, True, True)
    np.testing.assert_allclose(rec.node_errors, np.abs(offsets), rtol=1e-6)
    np.testing.assert_allclose(
        rec.kx, np.abs(offsets) * rec.n_samples / rec.epsilon0, rtol=1e-6
    )
    assert rec.ka == (0.0, 0.0, 0.0)


def test_scoring_fails_a_true_node_left_without_an_estimate(monkeypatch):
    # Estimates 0 and 1 both sit on true node 0, so true node 1 has no
    # estimate within a third of its gap; scoring per estimate would have
    # passed all three nodes.
    x = _built_true_nodes()
    offsets = np.array([1e-9, x[0] - x[1] + 2e-9, 0.0])
    rec = _experiment_with_estimate(monkeypatch, offsets, [0, 1, 2])
    assert rec.successes == (True, False, True)
    assert rec.kx[1] is None and rec.ka[1] is None
    assert rec.node_errors[1] == pytest.approx(x[1] - x[0] - 1e-9, rel=1e-6)
    assert rec.kx[0] == pytest.approx(1e-9 * rec.n_samples / rec.epsilon0, rel=1e-6)
    assert rec.kx[2] == 0.0


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


def test_fit_loglog_slope_rejects_points_sharing_one_srf():
    # twelve points at one srf fix no slope, however many there are
    records = [_planted_record(5.0, 25.0, 125.0) for _ in range(12)]
    for quantity in ("kx", "ka"):
        with pytest.raises(
            InsufficientDataError,
            match=r"the 24 usable points .* span less than 0\.1 decade of srf",
        ):
            fit_loglog_slope(records, quantity, "cluster")


def test_fit_loglog_slope_needs_a_tenth_of_a_decade_of_srf():
    # a planted slope of 2 over just under 0.1 decade is refused; just over
    # it is fitted
    for span, fits in ((0.0999, False), (0.1001, True)):
        srfs = 10 ** np.linspace(0.5, 0.5 + span, 12)
        records = [_planted_record(srf, srf**2, srf**3) for srf in srfs]
        if fits:
            assert fit_loglog_slope(records, "kx", "cluster").slope == pytest.approx(2.0)
        else:
            with pytest.raises(InsufficientDataError, match="0.1 decade"):
                fit_loglog_slope(records, "kx", "cluster")


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


def test_phase_transition_rejects_trials_sharing_one_srf():
    # one extent and one sample count give every trial the same srf
    with pytest.raises(DegenerateFitError, match="span less than 0.1 decade of srf"):
        phase_transition_sweep(2, 3, (0.02, 0.02), (64, 64), (1e-12, 1.0), 200, "S1", 1)


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


@pytest.mark.parametrize("node_index", [0, 9])
def test_phase_transition_rejects_node_index_before_any_trial(monkeypatch, node_index):
    calls = []
    monkeypatch.setattr(experiments, "single_experiment", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="node_index must lie in 1..d"):
        phase_transition_sweep(
            2, 8, (2e-3, 1e-1), (32, 128), (1e-2, 10.0), 50, "S1", 1, node_index=node_index
        )
    assert calls == []


def test_csv_writer_schema_and_determinism():
    records = amplification_sweep(2, 3, (5e-3, 6e-2), (48, 96), (1e-8, 1e-4), 3, "S1", 5)
    buf = io.StringIO()
    write_records_csv(records, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 3  # one row per node per record
    buf2 = io.StringIO()
    write_records_csv(records, buf2)
    assert text == buf2.getvalue()


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
    write_records_jsonl(records, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2 * 3
    payload = json.loads(lines[0])
    assert set(payload) == set(CSV_HEADER.split(","))
    assert payload["node_index"] == 1


def _reference_rows(record):
    """The former per-row dicts of the CSV and JSONL writers."""
    return [
        {
            "scheme": record.scheme,
            "p": record.p,
            "d": record.d,
            "h": record.h,
            "N": record.n_samples,
            "eps_req": record.epsilon_requested,
            "eps0": record.epsilon0,
            "srf": record.srf,
            "node_index": j + 1,
            "node_class": record.node_class(j),
            "e": record.node_errors[j],
            "succ": record.successes[j],
            "Kx": record.kx[j],
            "Ka": record.ka[j],
            "seed": record.seed,
        }
        for j in range(record.d)
    ]


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_csv(records):
    """The former dict-based write_records_csv, kept as a reference."""
    import csv

    stream = io.StringIO()
    stream.write(CSV_HEADER + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    for record in records:
        for row in _reference_rows(record):
            writer.writerow([_reference_cell(row[key]) for key in CSV_HEADER.split(",")])
    return stream.getvalue()


def _reference_jsonl(records):
    import json

    lines = []
    for record in records:
        for row in _reference_rows(record):
            clean = {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in row.items()
            }
            lines.append(json.dumps(clean, sort_keys=True) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("scheme", ["S1", "S2"])
@pytest.mark.parametrize("p", [2, 3])
def test_writers_match_dict_based_reference(scheme, p):
    records = amplification_sweep(
        p, p + 2, **DEFAULT_PHASE_RANGES, trials=60, scheme=scheme, base_seed=p
    )
    records.append(
        ExperimentRecord(
            scheme="S,1", p=2, d=2, h=1e-3, n_samples=8, epsilon_requested=1e-9,
            epsilon0=math.inf, srf=-0.0, seed=3, node_errors=(0.5, math.nan),
            successes=(True, False), kx=(1.0, None), ka=(2.0, None),
        )
    )
    records.append(single_experiment(2, 3, 0.001, 48, 1e-2, "S2", seed=0))
    assert any(rec.failure is not None for rec in records)
    assert any(rec.failure is None for rec in records)
    buf = io.StringIO()
    write_records_csv(records, buf)
    assert buf.getvalue() == _reference_csv(records)
    buf = io.StringIO()
    write_records_jsonl(records, buf)
    assert buf.getvalue() == _reference_jsonl(records)


def _reference_sweep(p, d, h_range, n_range, eps_range, trials, scheme, base_seed):
    """The former amplification_sweep, which validated the ranges and took
    their logs on every draw, kept as a reference."""

    def log_uniform(rng, lo, hi):
        if not 0 < lo <= hi:
            raise ValueError("range bounds must be positive and ordered")
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    records = []
    for t in range(trials):
        rng = np.random.default_rng([base_seed, t])
        h = log_uniform(rng, *h_range)
        n = max(int(round(log_uniform(rng, *n_range))), 2 * d + 2)
        eps = log_uniform(rng, *eps_range)
        noise_seed = int(rng.integers(0, 2**63 - 1))
        records.append(single_experiment(p, d, h, n, eps, scheme, noise_seed))
    return records


@pytest.mark.parametrize("ranges", [DEFAULT_AMPLIFICATION_RANGES, DEFAULT_PHASE_RANGES])
@pytest.mark.parametrize("scheme", ["S1", "S2"])
def test_sweep_draws_match_per_draw_log_reference(ranges, scheme):
    args = (2, 4, ranges["h_range"], ranges["n_range"], ranges["eps_range"], 80, scheme, 9)
    records = amplification_sweep(*args)
    expected = _reference_sweep(*args)
    # repr is exact for floats and spells NaN the same on both sides
    assert [repr(rec) for rec in records] == [repr(rec) for rec in expected]
    if scheme == "S2":
        assert any(rec.failure is not None for rec in records)


@pytest.mark.parametrize(
    "ranges",
    [
        {"h_range": (0.0, 0.1)},
        {"n_range": (96, 48)},
        {"eps_range": (1e-9, math.nan)},
    ],
)
def test_sweep_rejects_bad_ranges(ranges):
    args = {**DEFAULT_AMPLIFICATION_RANGES, **ranges}
    with pytest.raises(ValueError, match="positive and ordered"):
        amplification_sweep(2, 4, **args, trials=3, scheme="S2", base_seed=0)


@pytest.mark.parametrize(
    "ranges",
    [
        {"h_range": (1e-3, math.inf)},
        {"n_range": (48, math.inf)},
        {"eps_range": (1e-9, math.inf)},
        {"eps_range": (math.inf, math.inf)},
    ],
)
def test_sweep_rejects_infinite_ranges_before_any_trial(monkeypatch, ranges):
    calls = []
    monkeypatch.setattr(experiments, "single_experiment", lambda *args: calls.append(args))
    args = {**DEFAULT_AMPLIFICATION_RANGES, **ranges}
    with pytest.raises(ValueError, match="range bounds must be finite"):
        amplification_sweep(2, 4, **args, trials=3, scheme="S1", base_seed=0)
    assert calls == []


@pytest.mark.parametrize("h_hi", [math.pi, 3.2])
@pytest.mark.parametrize("trials", [3, 300])
def test_sweep_rejects_h_range_at_or_above_pi_before_any_trial(monkeypatch, h_hi, trials):
    # a draw at or above pi used to fail mid-sweep, so the outcome hung on the seed
    calls = []
    monkeypatch.setattr(experiments, "single_experiment", lambda *args: calls.append(args))
    args = {**DEFAULT_AMPLIFICATION_RANGES, "h_range": (1e-3, h_hi)}
    with pytest.raises(ValueError, match="cluster extent must be below pi"):
        amplification_sweep(2, 3, **args, trials=trials, scheme="S1", base_seed=0)
    assert calls == []
