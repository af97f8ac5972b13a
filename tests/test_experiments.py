import copy
import dataclasses
import gc
import io
import math
import pickle
import re
import sys
import tracemalloc
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest

from spikesr import experiments, worstcase
from spikesr.errors import (
    DegenerateFitError,
    EigenFailureError,
    InsufficientDataError,
    SpikesrError,
)
from spikesr.experiments import (
    CSV_HEADER,
    DEFAULT_AMPLIFICATION_RANGES,
    DEFAULT_PHASE_RANGES,
    ExperimentRecord,
    Sweep,
    amplification_sweep,
    fit_loglog_slope,
    phase_transition_sweep,
    single_experiment,
    write_records_csv,
)
from spikesr.matrix_pencil import mp_recover
from spikesr.signal import SpikeTrain, make_clustered_nodes, standard_cluster_geometry


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


def _count_trial_calls(monkeypatch):
    """Counting wrappers on the names the traced bench patches; returns the
    counts and the worst-case constructions that raised."""
    counts = dict.fromkeys(
        ["sample_spectrum", "clean_spectrum", "worst_case_signal", "mp_recover", "prony_solve"], 0
    )
    rejected = []

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return inner(*args, **kwargs)
            except Exception:
                if name == "worst_case_signal":
                    rejected.append(args)
                raise

        monkeypatch.setattr(module, name, wrapper)

    for name in ["sample_spectrum", "clean_spectrum", "worst_case_signal", "mp_recover"]:
        counting(experiments, name)
    counting(worstcase, "prony_solve")
    return counts, rejected


@pytest.mark.parametrize("scheme", ["S1", "S2"])
def test_each_trial_calls_the_traced_stages_once(monkeypatch, scheme):
    counts, rejected = _count_trial_calls(monkeypatch)
    outcomes = set()
    for h in (5e-3, 2e-2, 6e-2):
        for eps in (1e-12, 1e-8, 1e-4):
            before, n_rejected = dict(counts), len(rejected)
            single_experiment(2, 4, h, 64, eps, scheme, seed=3)
            calls = {name: counts[name] - before[name] for name in counts}
            if scheme == "S1":
                want = {"sample_spectrum": 1, "mp_recover": 1}
            else:
                accepted = len(rejected) == n_rejected
                outcomes.add(accepted)
                want = {"worst_case_signal": 1, "prony_solve": 1}
                if accepted:
                    want.update(clean_spectrum=2, mp_recover=1)
            assert calls == {name: want.get(name, 0) for name in counts}, (h, eps)
    if scheme == "S2":
        assert outcomes == {True, False}


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
    # the amplitude factors of successful nodes overflow too, and are missing
    overflowing = [
        ka
        for rec, amplitude_errors in zip(records, records.amplitude_errors.tolist())
        for ok, a, ka in zip(rec.successes, amplitude_errors, rec.ka)
        if ok and a / rec.epsilon0 == math.inf
    ]
    assert len(overflowing) > 10
    assert overflowing == [None] * len(overflowing)


def _failed_sweep():
    """An S2 sweep (p=3, d=5) holding both construction and estimator
    failures."""
    return amplification_sweep(
        3, 5, **DEFAULT_AMPLIFICATION_RANGES, trials=60, scheme="S2", base_seed=1
    )


def test_failed_trials_read_nan_errors_and_missing_factors():
    sweep = _failed_sweep()
    failed = [rec for rec in sweep if rec.failure is not None]
    # a failed construction leaves eps0 NaN; a failed estimate measured it
    construction = [rec for rec in failed if math.isnan(rec.epsilon0)]
    assert 0 < len(construction) < len(failed)
    for rec in failed:
        assert len(rec.node_errors) == 5 and all(map(math.isnan, rec.node_errors))
        assert rec.successes == (False,) * 5
        assert rec.kx == rec.ka == (None,) * 5
    # the columns hold the same: all-false flags and NaN values
    failed_rows = sweep.failure_code != 0
    assert not sweep.successes[failed_rows].any()
    assert np.isnan(sweep.node_errors[failed_rows]).all()
    assert np.isnan(sweep.amplitude_errors[failed_rows]).all()


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="CPython's tuple free lists"
)
def test_trials_leave_no_tuples_behind():
    # The success flags and the factors a record reads back are per-trial
    # tuples; built from an unsized iterator, each freed one would park on
    # the free list of its size, which nothing here draws from again.  A
    # full collection empties those lists, so nothing here calls gc.collect().
    def run(seeds):
        scored = 0
        for seed in seeds:
            for d in range(3, 13):
                record = single_experiment(2, d, 0.05, 64, 1e-9, "S2", seed)
                record.kx, record.ka
                scored += record.failure is None
        return scored

    assert run([0]) == 10  # warm-up; every trial is scored
    before = sys.getallocatedblocks()
    run(range(1, 11))
    assert sys.getallocatedblocks() - before < 100


def test_records_are_slotted_and_frozen():
    for rec in list(_failed_sweep())[:10]:
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.seed = 1
        # nor a name that is no field
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.extra = 1
        for name in ("seed", "_sweep"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
        # a row equals only rows
        assert rec != object()


def test_records_copy_replace_and_pickle():
    records = _failed_sweep()
    assert {rec.failure is None for rec in records} == {True, False}
    for rec in records:
        # floats compare by their bytes, so a NaN epsilon0 compares equal too
        for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert clone == rec and hash(clone) == hash(rec)
            assert not hasattr(clone, "__dict__")
            # a row copies and pickles alone, as a one-trial Sweep
            assert len(clone._sweep) == 1
        # a row's dataclass fields are its Sweep and index alone, so a trial
        # field cannot be replaced on the row: replace it on its Sweep
        with pytest.raises(TypeError):
            dataclasses.replace(rec, seed=rec.seed + 1)
    assert len(pickle.dumps(records[0])) < len(pickle.dumps(records)) / 20


def test_records_equal_a_rebuild_with_fresh_tuples():
    # equality never rests on shared objects: a one-trial Sweep of what a
    # row reads back, in fresh tuples, gives an equal row
    for rec in _failed_sweep():
        names = ("scheme", "p", "d", "failure", *rec._sweep.trials.dtype.names)
        cells = {name: getattr(rec, name) for name in names}
        cells.update(
            successes=tuple(list(rec.successes)), node_errors=list(rec.node_errors),
            amplitude_errors=list(rec.amplitude_errors),
        )
        fresh = _row_of(cells)
        assert fresh._sweep is not rec._sweep
        assert fresh == rec and hash(fresh) == hash(rec)
        moved = _row_of({**cells, "seed": rec.seed + 1})
        assert moved != rec


def _row_cells():
    """The cells of a scored S1 trial by name, in fresh objects: a node
    error of 0.0, and NaN errors that are new float objects."""
    return {
        "scheme": "S1", "p": 2, "d": 3, "failure": None, "h": 0.03,
        "epsilon_requested": 1e-6, "epsilon0": 9e-7, "n_samples": 64, "seed": 5,
        "successes": (True, False, True), "node_errors": [0.0, float("nan"), 1e-9],
        "amplitude_errors": [2e-6, float("nan"), 3e-7],
    }


def _row_of(cells):
    """The _trial_row of cells by name, its trial in the order of the dtype."""
    trial = tuple([cells[name] for name in experiments._trial_dtype(cells["d"]).names])
    return experiments._trial_row(
        cells["scheme"], cells["p"], cells["d"], cells["failure"], trial
    )


# Each cell of _row_cells and a value that changes that one cell: one
# success flag, node error 0.0 to -0.0 and one amplitude error.
_CHANGED_CELLS = {
    "h": 0.031,
    "n_samples": 65,
    "epsilon_requested": 2e-6,
    "epsilon0": 8e-7,
    "seed": 6,
    "successes": (True, True, True),
    "failure": "eigen failure",
    "node_errors": [-0.0, math.nan, 1e-9],
    "amplitude_errors": [2e-6, math.nan, 4e-7],
    "scheme": "S2",
}


def test_rows_compare_by_every_cell_of_their_trial():
    row = _row_of(_row_cells())
    fresh = _row_of(_row_cells())
    assert fresh._sweep is not row._sweep
    assert fresh == row and hash(fresh) == hash(row)
    for name, value in _CHANGED_CELLS.items():
        changed = _row_of({**_row_cells(), name: value})
        assert changed != row and row != changed, name
    # two failed rows differ by their messages alone
    failed = [_row_of({**_row_cells(), "failure": text})
              for text in ("eigen failure", "rank failure")]
    assert failed[0] != failed[1]


def test_rows_with_seeds_near_2_63_compare_copy_write_and_fit_by_value():
    # the seeds at the top of the int64 field: the rows must compare, hash,
    # copy, write and fit by value
    trials = [
        (2, 4, 0.03, 64, 1e-6, "S1", 2**63 - 1),
        (2, 4, 0.03, 64, 1e-9, "S2", 2**62 + 5),
        (2, 4, 0.03, 64, 1e-9, "S2", 2**63 - 1),
    ]
    # enough scored trials over a decade of srf for every fit
    trials += [
        (2, 4, h, 64, 1e-6, scheme, 2**63 - 1 - k)
        for k, h in enumerate(np.geomspace(5e-3, 6e-2, 8).tolist())
        for scheme in ("S1", "S2")
    ]
    rows = [single_experiment(*trial) for trial in trials]
    for trial, row in zip(trials, rows):
        again = single_experiment(*trial)
        assert again._sweep is not row._sweep and again.seed == row.seed == trial[-1]
        assert again == row and hash(again) == hash(row)
        for clone in (copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
            assert clone == row and hash(clone) == hash(row)
        # an S2 trial draws nothing from its seed, so only the seed differs
        assert single_experiment(*trial[:-1], trial[-1] - 1) != row
    refs = [_reference_trial(*trial) for trial in trials]
    written = io.StringIO()
    write_records_csv(rows, written)
    assert written.getvalue() == _reference_csv(refs)
    for quantity in ("kx", "ka"):
        for node_class in ("cluster", "noncluster"):
            fit = fit_loglog_slope(rows, quantity, node_class)
            ref = _reference_fit(refs, quantity, node_class)
            assert _bits(dataclasses.astuple(fit)) == _bits(dataclasses.astuple(ref))


def _stored_srf(p, h, n_samples):
    """srf as single_experiment formerly computed and stored it."""
    gap = (h / (2.0 * math.pi)) / (p - 1)
    return 1.0 / (n_samples * gap)


def _stored_kx(rec):
    """kx as single_experiment formerly computed and stored it: the node
    factors of a scored trial whose measured noise is positive, else all
    None."""
    if rec.failure is not None or not rec.epsilon0 > 0:
        return (None,) * rec.d
    values = [e * rec.n_samples / rec.epsilon0 for e in rec.node_errors]
    return tuple(v if ok and math.isfinite(v) else None for v, ok in zip(values, rec.successes))


def _hex_cells(values):
    return [None if v is None else float.hex(v) for v in values]


def test_derived_srf_and_kx_are_the_formerly_stored_bits():
    records = [
        rec
        for p in (2, 3)
        for scheme in ("S1", "S2")
        for rec in amplification_sweep(
            p, p + 2, **DEFAULT_AMPLIFICATION_RANGES, trials=100, scheme=scheme, base_seed=1
        )
    ]
    # a noiseless trial measures eps0 == 0, and a subnormal eps0 overflows
    # some factors of successful nodes
    noiseless = single_experiment(2, 4, 0.05, 64, 0.0, "S1", seed=4)
    subnormal = amplification_sweep(
        3, 5, (5e-3, 6e-2), (48, 96), (1e-323, 1e-320), 30, "S1", 0
    )
    records += [noiseless, *subnormal]
    assert noiseless.epsilon0 == 0 and noiseless.all_success()
    assert any(rec.failure is not None and rec.epsilon0 > 0 for rec in records)
    assert any(rec.failure is not None and math.isnan(rec.epsilon0) for rec in records)
    assert any(
        ok and e * rec.n_samples / rec.epsilon0 == math.inf
        for rec in subnormal
        for e, ok in zip(rec.node_errors, rec.successes)
    )
    for rec in records:
        assert float.hex(rec.srf) == float.hex(_stored_srf(rec.p, rec.h, rec.n_samples))
        assert _hex_cells(rec.kx) == _hex_cells(_stored_kx(rec))


def test_records_take_no_srf_or_kx_argument():
    # the constructor takes a Sweep and a row index; every value, srf and
    # kx included, is a read-only property
    rec = single_experiment(2, 4, 0.03, 64, 1e-6, "S1", seed=5)
    assert ExperimentRecord(rec._sweep, 0) == rec
    assert "srf=" not in repr(rec) and "kx=" not in repr(rec)
    for name in ("srf", "kx", "h", "epsilon_requested", "epsilon0", "node_errors", "ka"):
        with pytest.raises(TypeError):
            ExperimentRecord(rec._sweep, 0, **{name: getattr(rec, name)})
        # as for any other name (test_records_are_slotted_and_frozen)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, getattr(rec, name))


@dataclasses.dataclass(frozen=True)
class _TupleRecord:
    """ExperimentRecord's former tuple layout, kept as a reference: every
    measured number is a field of its own, a missing factor is None, and
    srf and kx are computed as single_experiment formerly stored them."""

    scheme: str
    p: int
    d: int
    h: float
    n_samples: int
    epsilon_requested: float
    epsilon0: float
    seed: int
    node_errors: tuple
    successes: tuple
    ka: tuple
    failure: Optional[str] = None

    @property
    def srf(self):
        return _stored_srf(self.p, self.h, self.n_samples)

    @property
    def kx(self):
        return _stored_kx(self)

    def all_success(self):
        return all(self.successes)


def _reference_trial(p, d, h, n_samples, epsilon, scheme, seed):
    """The tuple-layout record of a trial: single_experiment's measure and
    estimate stages, scored by the per-true-node reference loop, with a
    factor that is not finite kept as missing."""
    x = make_clustered_nodes(standard_cluster_geometry(p, d, h)) / (2 * math.pi)
    amps = experiments._scheme_amplitudes(scheme, d)
    eps0 = math.nan
    try:
        samples = experiments._measure(
            SpikeTrain(amplitudes=amps, nodes=x), p, n_samples, epsilon, scheme, seed
        )
        eps0 = samples.actual_noise
        estimate = mp_recover(samples, d).estimate
    except SpikesrError as exc:
        return _TupleRecord(
            scheme, p, d, h, n_samples, epsilon, eps0, seed,
            (math.nan,) * d, (False,) * d, (None,) * d, str(exc),
        )
    # a subnormal eps0 overflows some factors, which are then missing
    with np.errstate(over="ignore"):
        errors, successes, _, ka = _reference_scores(
            x, amps, estimate.nodes, estimate.amplitudes, n_samples, eps0
        )
    ka = tuple(v if v is not None and math.isfinite(v) else None for v in ka)
    return _TupleRecord(scheme, p, d, h, n_samples, epsilon, eps0, seed, errors, successes, ka)


def _bits(value):
    """value with each float spelled by float.hex and each value paired with
    its type, so NaN, -0.0 and the number types compare exactly."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return type(value), value.hex() if isinstance(value, float) else value


_READ_BACK = (
    "scheme", "p", "d", "h", "n_samples", "epsilon_requested", "epsilon0", "seed",
    "node_errors", "successes", "ka", "kx", "srf", "failure",
)


def test_every_record_attribute_reads_back_the_trials_bits():
    trials = [
        # zero noise: eps0 is 0 and every factor is missing
        (2, 4, 0.05, 64, 0.0, "S1", 4),
        # seeds up to the top of the int64 field seed a trial, and are kept
        # as they are
        (2, 4, 0.03, 64, 1e-6, "S1", 2**63 - 1),
        (2, 4, 0.03, 64, 1e-9, "S2", 2**62 + 5),
        # a subnormal noise overflows some node factors
        *_reference_draws(3, 5, (5e-3, 6e-2), (48, 96), (1e-323, 1e-320), 20, "S1", 0),
    ]
    # failed nodes, and the construction failures (NaN eps0) and estimator
    # failures of _failed_sweep
    trials += _reference_draws(3, 5, **DEFAULT_PHASE_RANGES, trials=40, scheme="S1", base_seed=2)
    trials += _reference_draws(3, 5, **DEFAULT_AMPLIFICATION_RANGES, trials=60, scheme="S2", base_seed=1)
    refs = [_reference_trial(*trial) for trial in trials]
    assert any(ref.epsilon0 == 0 and ref.failure is None for ref in refs)
    assert any(ref.failure is not None and math.isnan(ref.epsilon0) for ref in refs)
    assert any(ref.failure is not None and ref.epsilon0 > 0 for ref in refs)
    assert any(ref.failure is None and None in ref.ka and any(ref.ka) for ref in refs)
    assert any(
        ok and e * ref.n_samples / ref.epsilon0 == math.inf
        for ref in refs
        if ref.epsilon0 > 0
        for e, ok in zip(ref.node_errors, ref.successes)
    )
    for trial, ref in zip(trials, refs):
        rec = single_experiment(*trial)
        for name in _READ_BACK:
            assert _bits(getattr(rec, name)) == _bits(getattr(ref, name)), (name, trial)
        assert rec.all_success() == ref.all_success()


def _reference_fit(records, quantity, node_class):
    """The former fit_loglog_slope's points, read from tuple-layout records
    and fitted by _ols_loglog; None where fit_loglog_slope raises
    InsufficientDataError."""
    xs, ys = [], []
    for rec in records:
        factors = getattr(rec, quantity)
        for value in factors[: rec.p] if node_class == "cluster" else factors[rec.p :]:
            if value is not None and value > 0 and math.isfinite(value):
                xs.append(rec.srf)
                ys.append(value)
    if len(xs) < 10 or math.log10(max(xs)) - math.log10(min(xs)) < 0.1:
        return None
    return experiments._ols_loglog(xs, ys)


@pytest.mark.parametrize(
    "scheme, ranges",
    [
        # an S1 trial raises nowhere in these ranges, but its nodes fail
        pytest.param("S1", DEFAULT_PHASE_RANGES, id="S1-phase"),
        pytest.param("S2", DEFAULT_PHASE_RANGES, id="S2-phase"),
        pytest.param("S2", DEFAULT_AMPLIFICATION_RANGES, id="S2-amp"),
    ],
)
def test_csv_and_fits_equal_the_tuple_layouts(scheme, ranges):
    args = (2, 4, ranges["h_range"], ranges["n_range"], ranges["eps_range"], 150, scheme, 6)
    records = amplification_sweep(*args)
    refs = [_reference_trial(*trial) for trial in _reference_draws(*args)]
    assert any(not ref.all_success() for ref in refs)
    if scheme == "S2":
        assert any(ref.failure is not None for ref in refs)
    buf = io.StringIO()
    write_records_csv(records, buf)
    assert buf.getvalue() == _reference_csv(refs)
    for quantity in ("kx", "ka"):
        for node_class in ("cluster", "noncluster"):
            try:
                fit = fit_loglog_slope(records, quantity, node_class)
            except InsufficientDataError:
                fit = None
            ref = _reference_fit(refs, quantity, node_class)
            assert _bits(fit and dataclasses.astuple(fit)) == _bits(
                ref and dataclasses.astuple(ref)
            ), (quantity, node_class)


def test_a_scored_record_holds_no_per_node_float_or_tuple():
    records = amplification_sweep(
        2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=20, scheme="S1", base_seed=3
    )
    scored = [rec for rec in records if rec.failure is None]
    assert scored
    for rec in scored:
        # a row refers to its Sweep and its index, and to nothing per node
        referents = gc.get_referents(rec)
        assert records in referents
        assert not [obj for obj in referents if isinstance(obj, (float, tuple, list))]


def test_failed_records_share_their_failure_text():
    sweep = _failed_sweep()
    failed = [rec for rec in sweep if rec.failure is not None]
    texts = {}
    for rec in failed:
        assert texts.setdefault(rec.failure, rec.failure) is rec.failure
    assert len(failed) > len(texts) > 1
    # the Sweep keeps each distinct message once, and a code per trial
    assert sweep.failure_messages == tuple(texts)
    assert sweep.failure_code.dtype == np.uint8
    assert sorted(set(sweep.failure_code.tolist())) == list(range(len(texts) + 1))


def test_single_experiment_node_classes():
    record = single_experiment(3, 5, 0.01, 64, 1e-10, "S1", seed=1)
    buf = io.StringIO()
    write_records_csv([record], buf)
    column = CSV_HEADER.split(",").index("node_class")
    assert [row.split(",")[column] for row in buf.getvalue().splitlines()[1:]] == [
        "cluster", "cluster", "cluster", "noncluster", "noncluster",
    ]


def test_amplification_sweep_deterministic_and_sized():
    runs = [amplification_sweep(2, 3, (5e-3, 6e-2), (48, 96), (1e-10, 1e-4), 5, "S1", 3)
            for _ in range(2)]
    assert list(runs[0]) == list(runs[1])
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
        diff = a - b
        return abs(diff - round(diff))

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


def test_circular_distance_is_symmetric_and_exact():
    dist = experiments._circular_distance
    x = 0.3
    a = x + 1e-9
    assert dist(a, x) == dist(x, a) == abs(a - x)
    # one ulp either side of x is one ulp away, not 0 below and rounded above
    below, above = np.nextafter(x, 0.0), np.nextafter(x, 1.0)
    assert dist(below, x) == dist(x, below) == x - below > 0
    assert dist(above, x) == dist(x, above) == above - x
    # the torus wraps
    assert dist(0.01, 0.99) == dist(0.99, 0.01) == pytest.approx(0.02, rel=1e-12)
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 1.0, 1000)
    v = u + rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-15, -3, 1000)
    assert np.array_equal(dist(u, v), dist(v, u))
    assert np.array_equal(dist(u, v), np.abs(u - v))


@pytest.mark.parametrize("scheme", ["S1", "S2"])
def test_node_factor_is_the_node_error_scaled_by_n_over_eps0(scheme):
    records = amplification_sweep(
        2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=60, scheme=scheme, base_seed=7
    )
    scored = [
        (kx, e * rec.n_samples / rec.epsilon0)
        for rec in records
        for e, ok, kx in zip(rec.node_errors, rec.successes, rec.kx)
        if ok
    ]
    assert len(scored) > 50
    assert all(kx == expected for kx, expected in scored)


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


def _planted_sweep(points):
    """A p=2, d=3 Sweep with one trial per (srf, kx, ka) point, whose srf
    and two cluster node and amplitude factors come within a few ulps of
    srf, kx and ka: the rows compute them from the planted extents, node
    errors and amplitude errors."""
    n_samples, eps0 = 64, 1e-6
    srf, kx, ka = np.array(points, dtype=float).reshape(-1, 3).T
    count = len(srf)
    trials = np.zeros(count, experiments._trial_dtype(3))
    trials["h"] = 2 * math.pi / (n_samples * srf)
    trials["epsilon_requested"] = 1e-6
    trials["epsilon0"] = eps0
    trials["n_samples"] = n_samples
    trials["successes"] = True
    trials["node_errors"] = np.column_stack([kx, kx, np.ones(count)]) * eps0 / n_samples
    trials["amplitude_errors"] = np.column_stack([ka, ka, np.ones(count)]) * eps0
    return experiments.Sweep("S1", 2, 3, trials, np.zeros(count, np.uint8), ())


def test_fit_loglog_slope_planted_square():
    records = _planted_sweep([(srf, srf**2, srf**3) for srf in np.geomspace(1, 100, 12)])
    fit = fit_loglog_slope(records, "kx", "cluster")
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.residual_std == pytest.approx(0.0, abs=1e-9)


def test_fit_loglog_slope_planted_cubic_with_intercept():
    records = _planted_sweep([(srf, srf**2, 7 * srf**3) for srf in np.geomspace(1, 100, 12)])
    fit = fit_loglog_slope(records, "ka", "cluster")
    assert fit.slope == pytest.approx(3.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log10(7.0), abs=1e-9)


def test_fit_loglog_slope_insufficient_data():
    records = _planted_sweep([(srf, srf**2, srf**3) for srf in (1.0, 2.0)])
    with pytest.raises(InsufficientDataError):
        fit_loglog_slope(records, "kx", "cluster")
    with pytest.raises(ValueError):
        fit_loglog_slope(records, "kz", "cluster")
    with pytest.raises(ValueError, match="^node_class must be 'cluster' or 'noncluster'$"):
        fit_loglog_slope(records, "kx", "both")


def test_fit_loglog_slope_rejects_points_sharing_one_srf():
    # twelve points at one srf fix no slope, however many there are
    records = _planted_sweep([(5.0, 25.0, 125.0)] * 12)
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
        records = _planted_sweep([(srf, srf**2, srf**3) for srf in srfs])
        if fits:
            assert fit_loglog_slope(records, "kx", "cluster").slope == pytest.approx(2.0)
        else:
            with pytest.raises(InsufficientDataError, match="0.1 decade"):
                fit_loglog_slope(records, "kx", "cluster")


def _reference_ols_loglog(xs, ys):
    """The former _ols_loglog, an lstsq solve on an n x 2 design matrix,
    kept as a reference."""
    lx = np.log10(np.asarray(xs, dtype=float))
    ly = np.log10(np.asarray(ys, dtype=float))
    n = len(lx)
    design = np.column_stack([lx, np.ones(n)])
    (slope, intercept), res, *_ = np.linalg.lstsq(design, ly, rcond=None)
    predicted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    resid_std = math.sqrt(ss_res / (n - 2)) if n > 2 else 0.0
    return experiments.SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        residual_std=resid_std,
        count=n,
    )


def _fit_points(records, quantity, node_class):
    """The (srf, factor) points fit_loglog_slope fits."""
    xs, ys = [], []
    for rec in records:
        for j, value in enumerate(getattr(rec, quantity)):
            in_class = "cluster" if j < rec.p else "noncluster"
            if in_class == node_class and value is not None and value > 0:
                xs.append(rec.srf)
                ys.append(value)
    return xs, ys


def _synthetic_points(count=15_000):
    """count (srf, factor) points about a slope-2 power law with
    log-normal scatter, over 1.5 decades of srf."""
    rng = np.random.default_rng(31)
    srf = 10 ** rng.uniform(0.0, 1.5, count)
    factor = 3.0 * srf**2 * 10 ** rng.normal(0.0, 0.4, count)
    return srf.tolist(), factor.tolist()


def _assert_fits_agree(fit, ref):
    assert fit.count == ref.count
    for name in ("slope", "intercept", "r_squared", "residual_std"):
        got, want = getattr(fit, name), getattr(ref, name)
        assert math.isclose(got, want, rel_tol=1e-12), (name, got, want)


@pytest.mark.parametrize("scheme", ["S1", "S2"])
def test_fit_loglog_slope_matches_the_lstsq_reference_on_a_sweep(scheme):
    records = amplification_sweep(
        2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=300, scheme=scheme, base_seed=5
    )
    fitted = 0
    for quantity in ("kx", "ka"):
        for node_class in ("cluster", "noncluster"):
            try:
                fit = fit_loglog_slope(records, quantity, node_class)
            except InsufficientDataError:
                continue
            ref = _reference_ols_loglog(*_fit_points(records, quantity, node_class))
            _assert_fits_agree(fit, ref)
            fitted += 1
    assert fitted >= 2


def _take(sweep, trials):
    """A Sweep of the given trials of sweep, in the given order."""
    trials = np.asarray(trials, dtype=int)
    return experiments.Sweep(
        sweep.scheme, sweep.p, sweep.d, sweep.trials[trials], sweep.failure_code[trials],
        sweep.failure_messages,
    )


def _interleaved_rows(parts, run_length):
    """Rows of the Sweeps in parts, in runs of run_length consecutive rows
    taken from each Sweep in turn, with the position of each row in the
    concatenation of parts."""
    offsets = np.cumsum([0, *map(len, parts)])
    rows, order = [], []
    for start in range(0, max(map(len, parts)), run_length):
        for part, offset in zip(parts, offsets):
            for index in range(start, min(start + run_length, len(part))):
                rows.append(part[index])
                order.append(offset + index)
    return rows, order


@pytest.mark.parametrize("scheme", ["S1", "S2"])
def test_rows_pooled_from_several_sweeps_fit_and_write_as_one_sweep(scheme):
    sweep = amplification_sweep(
        2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=240, scheme=scheme, base_seed=11
    )
    parts = [_take(sweep, range(lo, hi)) for lo, hi in ((0, 70), (70, 150), (150, 240))]
    # the pooled rows in sweep order, as the bench pools its kept passes
    pooled = [row for part in parts for row in part]
    # runs of 7 rows from each part in turn, and single rows of the first two
    interleaved, order = _interleaved_rows(parts, 7)
    singles, single_order = _interleaved_rows(parts[:2], 1)
    # rows of one Sweep that skip, repeat and go back
    scattered = [*range(0, 240, 3), 5, 5, *range(239, 100, -7)]
    assert len(list(experiments._runs(interleaved))) > 30
    cases = (
        (pooled, range(240)),
        (interleaved, order),
        (singles, single_order),
        ([sweep[i] for i in scattered], scattered),
    )
    for rows, trials in cases:
        assert rows == list(_take(sweep, trials))
        reference = _take(sweep, trials)
        for quantity in ("kx", "ka"):
            for node_class in ("cluster", "noncluster"):
                fits = [
                    dataclasses.astuple(fit_loglog_slope(records, quantity, node_class))
                    for records in (rows, reference)
                ]
                assert _bits(fits[0]) == _bits(fits[1]), (quantity, node_class)
        written, expected = io.StringIO(), io.StringIO()
        write_records_csv(rows, written)
        write_records_csv(reference, expected)
        assert written.getvalue() == expected.getvalue()
    pooled_csv = io.StringIO()
    write_records_csv(pooled, pooled_csv)
    assert pooled_csv.getvalue() == _reference_csv(list(sweep))


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="CPython's object sizes"
)
def test_kept_sweeps_and_pooled_rows_hold_few_bytes_per_trial():
    # tools/record_bytes.py measured about 110 B per trial held by kept
    # 500-trial Sweeps on CPython 3.11 (109 B of column data and the
    # Sweep's arrays and tables), and 72 B more per row pooled in a list (a
    # 48 B view, its index where above 256, and its list slot).  The
    # bounds allow 25% more; the former records held 230-263 B per trial.
    args = (2, 4, *DEFAULT_AMPLIFICATION_RANGES.values(), 500, "S2")
    amplification_sweep(*args[:5], 1, "S2", 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [amplification_sweep(*args, seed) for seed in (2, 3)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        pooled = [row for sweep in kept for row in sweep]
        held_pooled = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pooled) == 1000
    assert held / 1000 <= 1.25 * 115, held / 1000
    assert (held_pooled - held) / 1000 <= 1.25 * 72, (held_pooled - held) / 1000


def test_a_sweep_is_a_read_only_sequence_of_its_rows():
    sweep = amplification_sweep(
        2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=20, scheme="S2", base_seed=3
    )
    rows = list(sweep)
    assert len(sweep) == len(rows) == 20
    assert rows == [sweep[i] for i in range(20)]
    assert all(row._sweep is sweep for row in rows)
    assert sweep[-1] == rows[-1] and sweep[-1]._index == 19
    for index in (20, -21):
        with pytest.raises(IndexError):
            sweep[index]
    dtypes = {
        "h": np.float64, "epsilon_requested": np.float64, "epsilon0": np.float64,
        "n_samples": np.int64, "seed": np.int64, "failure_code": np.uint8,
        "successes": np.bool_, "node_errors": np.float64, "amplitude_errors": np.float64,
    }
    for name, dtype in dtypes.items():
        column = getattr(sweep, name)
        assert column.dtype == dtype and len(column) == 20, name
        assert column.shape[1:] == ((4,) if column.ndim == 2 else ())
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sweep.h = sweep.h.copy()
    # copies keep the columns read-only and the rows equal
    for clone in (copy.copy(sweep), copy.deepcopy(sweep), pickle.loads(pickle.dumps(sweep))):
        assert list(clone) == rows
        assert not any(getattr(clone, name).flags.writeable for name in dtypes)
    # a row reads the columns
    for i, row in enumerate(rows):
        assert row.seed == sweep.seed[i] and row.successes == tuple(sweep.successes[i])


def test_rows_read_each_trial_field_under_its_sweep_column_name():
    s1 = amplification_sweep(
        2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=5, scheme="S1", base_seed=3
    )
    s2 = _failed_sweep()
    scored = next(row for row in s1 if row.failure is None)
    failed = next(row for row in s2 if row.failure is not None)
    for row in (scored, failed):
        sweep = row._sweep
        for name in experiments._trial_dtype(row.d).names:
            cell = getattr(sweep, name)[row._index].tolist()
            expected = tuple(cell) if isinstance(cell, list) else cell
            value = getattr(row, name)
            # repr tells NaN and -0.0 apart, and a tuple from a scalar
            assert repr(value) == repr(expected), name
            cells = value if isinstance(value, tuple) else (value,)
            assert {type(v) for v in cells} <= {bool, int, float}, name
        # every name= that repr prints is an attribute of the row, in order
        names = re.findall(r"(?:\(|, )(\w+)=", repr(row))
        assert names == ["scheme", "p", "d", *sweep.trials.dtype.names, "failure"]
        cells = ", ".join(f"{name}={getattr(row, name)!r}" for name in names)
        assert repr(row) == f"ExperimentRecord({cells})"


def test_single_experiment_returns_the_row_of_a_one_trial_sweep():
    for args in ((2, 4, 0.03, 64, 1e-6, "S1", 5), (2, 3, 0.001, 48, 1e-2, "S2", 0)):
        rec = single_experiment(*args)
        assert isinstance(rec._sweep, Sweep) and len(rec._sweep) == 1
        assert rec._sweep.trials.dtype == experiments._trial_dtype(args[1])
        assert rec._sweep.trials.shape == rec._sweep.failure_code.shape == (1,)
        assert not rec._sweep.trials.flags.writeable
    assert rec.failure is not None and rec._sweep.failure_messages == (rec.failure,)


def test_a_sweep_keeps_more_than_255_distinct_failure_messages(monkeypatch):
    raised = []

    def failing_recover(samples, d):
        raised.append(f"eigen failure: number {len(raised)}")
        raise EigenFailureError(raised[-1])

    monkeypatch.setattr(experiments, "mp_recover", failing_recover)
    sweep = amplification_sweep(
        2, 3, **DEFAULT_AMPLIFICATION_RANGES, trials=300, scheme="S1", base_seed=0
    )
    assert sweep.failure_messages == tuple(raised) and len(raised) == 300
    assert sweep.failure_code.itemsize > 1 and not sweep.failure_code.flags.writeable
    assert [row.failure for row in sweep] == raised


def test_fit_loglog_slope_matches_the_lstsq_reference_on_15000_points():
    # a planted record carries each point on its two cluster nodes
    xs, ys = _synthetic_points(7_500)
    records = _planted_sweep(list(zip(xs, ys, ys)))
    fit = fit_loglog_slope(records, "kx", "cluster")
    _assert_fits_agree(fit, _reference_ols_loglog(*_fit_points(records, "kx", "cluster")))
    assert fit.count == 15_000 and fit.slope == pytest.approx(2.0, abs=0.03)


def test_slope_fit_allocates_at_most_60_percent_of_the_lstsq_reference():
    xs, ys = _synthetic_points()
    peaks = {}
    for name, fit in (
        ("fit", experiments._ols_loglog),
        ("reference", _reference_ols_loglog),
    ):
        fit(xs, ys)
        tracemalloc.start()
        try:
            fit(xs, ys)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["fit"] <= 0.6 * peaks["reference"], peaks


def test_logistic_boundary_without_a_noise_column_is_degenerate():
    # an all-zero log-eps column leaves its weight at exactly 0
    srf_column = np.linspace(0.0, 2.0, 20)
    features = np.column_stack([np.ones(20), srf_column, np.zeros(20)])
    outcomes = np.tile([1.0, 0.0], 10)
    with pytest.raises(
        DegenerateFitError, match="^degenerate fit: no dependence on the noise level$"
    ):
        experiments._logistic_boundary(features, outcomes)


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


def test_s2_phase_boundary_lies_in_criterion_4_window():
    _, fit = phase_transition_sweep(
        2, 3, **DEFAULT_PHASE_RANGES, trials=2000, scheme="S2", base_seed=1
    )
    assert -3.5 < fit.slope < -2.5


def test_phase_transition_single_node_selector():
    records, fit = phase_transition_sweep(
        2, 8, (2e-3, 1e-1), (32, 128), (1e-2, 10.0), 300, "S1", 1, node_index=6
    )
    assert -1.5 < fit.slope < 1.5


def _s2_log_eps(rec) -> float:
    """log10 of the leading-order spectral size of the requested S2 bump,
    eps (2 pi (N - 1))^(2p-1) / (2p-1)!."""
    order = 2 * rec.p - 1
    return math.log10(
        rec.epsilon_requested
        * (2 * math.pi * (rec.n_samples - 1)) ** order
        / math.factorial(order)
    )


def test_s2_phase_fit_takes_the_spectral_size_of_every_requested_eps(monkeypatch):
    fitted = []

    def recording_boundary(features, outcomes):
        fitted.append(features)
        return real_boundary(features, outcomes)

    real_boundary = experiments._logistic_boundary
    monkeypatch.setattr(experiments, "_logistic_boundary", recording_boundary)
    # a failed S2 construction measures no eps0, an accepted one does; both
    # fit the same unit
    records, _ = phase_transition_sweep(
        2, 3, **DEFAULT_PHASE_RANGES, trials=60, scheme="S2", base_seed=1
    )
    unmeasured = [math.isnan(rec.epsilon0) for rec in records]
    assert any(unmeasured) and not all(unmeasured)
    (features,) = fitted
    np.testing.assert_allclose(
        features[:, 2], [_s2_log_eps(rec) for rec in records], rtol=0, atol=1e-12
    )


def _reference_phase_fit(records, node_index):
    """The former list-based feature construction of phase_transition_sweep,
    kept as a reference."""
    outcomes = []
    rows = []
    for rec in records:
        if node_index is None:
            ok = rec.all_success()
        else:
            ok = bool(rec.successes[node_index - 1])
        if rec.scheme == "S2":
            order = 2 * rec.p - 1
            log_eps = (
                math.log10(rec.epsilon_requested)
                + order * math.log10(2.0 * math.pi * (rec.n_samples - 1))
                - math.log10(math.factorial(order))
            )
        else:
            eps_for_fit = rec.epsilon0
            if not math.isfinite(eps_for_fit) or eps_for_fit <= 0:
                eps_for_fit = rec.epsilon_requested
            log_eps = math.log10(eps_for_fit)
        outcomes.append(ok)
        rows.append((1.0, math.log10(rec.srf), log_eps))
    outcome_arr = np.array(outcomes, dtype=float)
    assert outcome_arr.min() != outcome_arr.max()
    log_srfs = [row[1] for row in rows]
    assert max(log_srfs) - min(log_srfs) >= 0.1
    return experiments._logistic_boundary(np.array(rows), outcome_arr)


@pytest.mark.parametrize("node_index", [None, 1, 4])
@pytest.mark.parametrize("scheme", ["S1", "S2"])
def test_phase_fit_is_the_list_based_fit_to_the_bit(scheme, node_index):
    # noise up to 10 also fails the non-cluster node 4
    ranges = {**DEFAULT_PHASE_RANGES, "eps_range": (1e-12, 10.0)}
    records, fit = phase_transition_sweep(
        2, 4, **ranges, trials=150, scheme=scheme, base_seed=3, node_index=node_index
    )
    if scheme == "S2":
        # worst-case failures measure no eps0; every S2 trial fits the
        # spectral size of its requested eps
        assert any(rec.failure is not None and math.isnan(rec.epsilon0) for rec in records)
    ref = _reference_phase_fit(records, node_index)
    assert (fit.n_success, fit.n_failure) == (ref.n_success, ref.n_failure)
    for name in ("slope", "intercept"):
        assert getattr(fit, name).hex() == getattr(ref, name).hex(), name


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


def _reference_rows(record):
    """The former per-row dicts of the CSV writer."""
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
            "node_class": "cluster" if j < record.p else "noncluster",
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


@pytest.mark.parametrize("scheme", ["S1", "S2"])
@pytest.mark.parametrize("p", [2, 3])
def test_writers_match_dict_based_reference(scheme, p):
    records = list(amplification_sweep(
        p, p + 2, **DEFAULT_PHASE_RANGES, trials=60, scheme=scheme, base_seed=p
    ))
    trial_row = experiments._trial_row
    for other in ("S1", "S2"):
        # an infinite eps0 turns the node error -0.0 into the factor -0.0
        records.append(
            trial_row(other, 2, 2, None, (1e-3, 1e-9, math.inf, 8, 3, (True, False),
                                          [-0.0, math.nan], [2.0, math.nan]))
        )
    records.append(single_experiment(2, 3, 0.001, 48, 1e-2, "S2", seed=0))
    # numpy scalars in the count and float cells, and signed zeros, NaN and
    # infinities in the float cells
    for count, real in ((np.int64, np.float64), (np.uint64, float)):
        for eps_req, eps0 in ((-0.0, 1e-9), (math.inf, math.nan), (math.nan, -0.0)):
            records.append(
                trial_row(
                    "S2", count(2), count(3), None,
                    (real(2e-2), real(eps_req), real(eps0), count(40), count(2**63 - 1),
                     (True, True, False), [1e-12, -0.0, math.inf], [math.inf, -0.0, math.nan]),
                )
            )
    assert any(rec.failure is not None for rec in records)
    assert any(rec.failure is None for rec in records)
    buf = io.StringIO()
    write_records_csv(records, buf)
    assert buf.getvalue() == _reference_csv(records)


@pytest.mark.parametrize("succeeded", [True, False])
def test_a_record_shorter_than_d_raises_before_its_rows_are_written(succeeded):
    if succeeded:
        row = single_experiment(2, 3, 0.02, 48, 1e-8, "S1", seed=1)
        assert row.all_success()
    else:
        row = single_experiment(2, 3, 0.001, 48, 1e-2, "S2", seed=0)
        assert row.failure is not None
    assert len(row.node_errors) == len(row.successes) == 3
    # a Sweep that claims d = 4 over 3 values per node column cannot be
    # built, so no short row reaches the CSV writer
    with pytest.raises(ValueError, match=r"^trials must be of the trial dtype of d=4$"):
        dataclasses.replace(row._sweep, d=4)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"scheme": "S3"}, r"^unknown scheme 'S3'; expected one of \('S1', 'S2'\)$"),
        ({"p": 1}, r"^cluster size p must satisfy 2 <= p <= d$"),
    ],
    ids=["scheme", "p"],
)
def test_a_sweep_is_checked_when_it_is_built(change, message):
    scored = single_experiment(2, 3, 0.02, 48, 1e-8, "S1", seed=1)
    failed = single_experiment(2, 3, 0.001, 48, 1e-2, "S2", seed=0)
    assert scored.all_success() and failed.failure is not None
    # an invalid Sweep cannot be built, so none reaches the CSV writer or
    # the fit
    for row in (scored, failed):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(row._sweep, **change)


def _as_numpy_scalars(record):
    """record rebuilt from its counts as np.int64 and its floats as
    np.float64."""
    return experiments._trial_row(
        record.scheme,
        *map(np.int64, (record.p, record.d)),
        record.failure,
        (
            *map(np.float64, (record.h, record.epsilon_requested, record.epsilon0)),
            *map(np.int64, (record.n_samples, record.seed)),
            tuple(map(np.bool_, record.successes)),
            list(map(np.float64, record.node_errors)),
            list(map(np.float64, record.amplitude_errors)),
        ),
    )


def test_numpy_scalar_cells_write_the_bytes_of_python_scalars():
    records = [
        single_experiment(2, 3, 0.02, 48, 1e-8, "S1", seed=1),
        single_experiment(2, 4, 0.02, 48, 1e-8, "S2", seed=2),
        single_experiment(2, 3, 0.001, 48, 1e-2, "S2", seed=0),
    ]
    assert any(rec.failure is None for rec in records)
    assert any(rec.failure is not None for rec in records)
    converted = [_as_numpy_scalars(rec) for rec in records]
    # a row reads its cells back as Python values
    assert type(converted[0].n_samples) is int
    assert type(converted[0].h) is float
    python, numpy_ = io.StringIO(), io.StringIO()
    write_records_csv(records, python)
    write_records_csv(converted, numpy_)
    assert numpy_.getvalue() == python.getvalue()


class _Discard:
    """A stream that drops what is written to it."""

    def write(self, text):
        pass


def test_writing_a_long_sweep_peaks_as_high_as_a_short_one():
    # the writer reads at most a block of trials of a run as Python lists at
    # a time, so its peak does not grow with the run's length
    sweep = amplification_sweep(
        2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=1000, scheme="S2", base_seed=4
    )
    peaks = []
    for records in (_take(sweep, range(250)), sweep):
        write_records_csv(records, _Discard())
        tracemalloc.start()
        try:
            write_records_csv(records, _Discard())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def _reference_draws(p, d, h_range, n_range, eps_range, trials, scheme, base_seed):
    """The single_experiment arguments of each trial, drawn as the former
    amplification_sweep drew them: validating the ranges and taking their
    logs on every draw.  Kept as a reference."""

    def log_uniform(rng, lo, hi):
        if not 0 < lo <= hi:
            raise ValueError("range bounds must be positive and ordered")
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    draws = []
    for t in range(trials):
        rng = np.random.default_rng([base_seed, t])
        h = log_uniform(rng, *h_range)
        n = max(int(round(log_uniform(rng, *n_range))), 2 * d + 2)
        eps = log_uniform(rng, *eps_range)
        noise_seed = int(rng.integers(0, 2**63 - 1))
        draws.append((p, d, h, n, eps, scheme, noise_seed))
    return draws


def _reference_sweep(*args):
    """The former amplification_sweep, one single_experiment per drawn trial."""
    return [single_experiment(*trial) for trial in _reference_draws(*args)]


@pytest.mark.parametrize("ranges", [DEFAULT_AMPLIFICATION_RANGES, DEFAULT_PHASE_RANGES])
@pytest.mark.parametrize(
    "scheme, trials",
    [
        pytest.param("S1", 80, id="S1"),
        pytest.param("S2", 80, id="S2"),
        # two whole draw blocks and one trial in a third
        pytest.param("S2", 2 * experiments._DRAW_BLOCK + 1, id="S2-blocks"),
    ],
)
def test_sweep_draws_match_per_draw_log_reference(ranges, scheme, trials):
    args = (2, 4, ranges["h_range"], ranges["n_range"], ranges["eps_range"], trials, scheme, 9)
    records = amplification_sweep(*args)
    expected = _reference_sweep(*args)
    # repr is exact for floats and spells NaN the same on both sides
    assert [repr(rec) for rec in records] == [repr(rec) for rec in expected]
    if scheme == "S2":
        assert any(rec.failure is not None for rec in records)


@pytest.mark.parametrize("trials", [3, 256, 257, 600])
def test_sweep_draws_each_block_before_its_first_trial(monkeypatch, trials):
    events = []
    real_rng, real_trial = np.random.default_rng, experiments.single_experiment

    def logging_rng(seed):
        events.append(("draw", seed[1]))
        return real_rng(seed)

    def logging_trial(*args):
        events.append(("trial", None))
        return real_trial(*args)

    monkeypatch.setattr(np.random, "default_rng", logging_rng)
    monkeypatch.setattr(experiments, "single_experiment", logging_trial)
    records = amplification_sweep(
        2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=trials, scheme="S2", base_seed=4
    )
    assert len(records) == trials
    block = experiments._DRAW_BLOCK
    expected = []
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        expected += [("draw", t) for t in range(start, stop)]
        expected += [("trial", None)] * (stop - start)
    assert events == expected


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


def test_sweep_rejects_an_n_range_below_2d_plus_2_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "single_experiment", lambda *args: calls.append(args))
    args = {**DEFAULT_AMPLIFICATION_RANGES, "n_range": (5, 7.4)}
    with pytest.raises(ValueError) as excinfo:
        amplification_sweep(2, 3, **args, trials=3, scheme="S2", base_seed=0)
    assert str(excinfo.value) == (
        "n_range must reach 2 d + 2 = 8 samples; its upper bound rounds to 7"
    )
    assert calls == []


_UNKNOWN_SCHEME = r"^unknown scheme '{}'; expected one of \('S1', 'S2'\)$"
_NEGATIVE_BASE_SEED = r"^base_seed must be a non-negative integer, not "
_NOT_INTEGER = r"^base_seed must be an integer, not "


@pytest.mark.parametrize(
    "scheme, base_seed, error, message",
    [
        pytest.param("S3", 0, ValueError, _UNKNOWN_SCHEME.format("S3"), id="scheme-S3"),
        pytest.param("s2", 0, ValueError, _UNKNOWN_SCHEME.format("s2"), id="scheme-s2"),
        pytest.param("S2", -1, ValueError, _NEGATIVE_BASE_SEED + "-1$", id="seed-minus-1"),
        pytest.param("S1", np.int64(-3), ValueError, _NEGATIVE_BASE_SEED, id="numpy-seed"),
        pytest.param("S1", 1.5, TypeError, _NOT_INTEGER + r"1\.5$", id="seed-1.5"),
        pytest.param("S2", "7", TypeError, _NOT_INTEGER + "'7'$", id="seed-str"),
    ],
)
def test_sweeps_reject_a_bad_scheme_or_base_seed_before_any_draw_or_trial(
    monkeypatch, scheme, base_seed, error, message
):
    calls, draws = [], []
    real_rng = np.random.default_rng

    def logging_rng(seed):
        draws.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", logging_rng)
    monkeypatch.setattr(experiments, "single_experiment", lambda *args: calls.append(args))
    for sweep in (amplification_sweep, phase_transition_sweep):
        with pytest.raises(error, match=message):
            sweep(
                2, 4, **DEFAULT_AMPLIFICATION_RANGES, trials=3, scheme=scheme,
                base_seed=base_seed,
            )
    assert calls == [] and draws == []


def test_sweep_raises_smaller_draws_of_a_wider_n_range_to_2d_plus_2():
    args = {**DEFAULT_AMPLIFICATION_RANGES, "n_range": (5, 9)}
    records = amplification_sweep(2, 3, **args, trials=40, scheme="S1", base_seed=0)
    counts = {rec.n_samples for rec in records}
    assert min(counts) == 8 and counts <= {8, 9}


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


_BELOW_PI = "cluster extent must be below pi"
_NOT_POSITIVE = "cluster extent h must satisfy 0 < h <= T"
_BAD_SIZE = "cluster size p must satisfy 2 <= p <= d"


@pytest.mark.parametrize(
    "p, d, h, message",
    [
        (2, 3, 0.0, _NOT_POSITIVE),
        (2, 3, -0.1, _NOT_POSITIVE),
        (2, 3, math.nan, _NOT_POSITIVE),
        (2, 3, math.pi, _BELOW_PI),
        (3, 5, 4.0, _BELOW_PI),
        (2, 3, math.inf, _BELOW_PI),
        (1, 3, 0.1, _BAD_SIZE),
        (4, 3, 0.1, _BAD_SIZE),
        # h / (p - 1) rounds to 0, so the cluster nodes coincide
        (3, 3, 5e-324, "layout parameters do not give strictly increasing nodes"),
    ],
)
def test_bad_layouts_raise_the_same_error_in_a_trial_and_in_the_layout(p, d, h, message):
    for build in (
        lambda: single_experiment(p, d, h, 64, 1e-9, "S1", 1),
        lambda: make_clustered_nodes(standard_cluster_geometry(p, d, h)),
    ):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == message


def test_a_layout_whose_cluster_rounds_together_on_the_torus_fails_the_trial():
    # the layout holds, but dividing by 2 pi rounds the second node to 0
    nodes = make_clustered_nodes(standard_cluster_geometry(2, 3, 5e-324))
    assert nodes.tolist()[:2] == [0.0, 5e-324]
    with pytest.raises(ValueError) as excinfo:
        single_experiment(2, 3, 5e-324, 64, 1e-9, "S1", 1)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == "nodes must be strictly increasing"


@pytest.mark.parametrize(
    "numpy_args",
    [
        (2, 4, np.float64(0.03), np.int64(64), np.float64(1e-6), "S1", np.int64(5)),
        (np.int64(2), np.int32(4), np.float32(0.03), 64, 1e-6, "S2", np.uint64(5)),
    ],
)
def test_numpy_scalar_inputs_give_the_python_scalar_record(numpy_args):
    python_args = tuple(a.item() if isinstance(a, np.generic) else a for a in numpy_args)
    record = single_experiment(*numpy_args)
    expected = single_experiment(*python_args)
    assert repr(record) == repr(expected)
    names = ["scheme", "p", "d", "n_samples", "successes", "failure", "seed"]
    for name in names + ["h", "epsilon_requested", "epsilon0", "node_errors", "ka", "kx"]:
        value, want = getattr(record, name), getattr(expected, name)
        assert type(value) is type(want), name
        if isinstance(want, tuple):
            assert list(map(type, value)) == list(map(type, want)), name
    got, want = io.StringIO(), io.StringIO()
    write_records_csv([record], got)
    write_records_csv([expected], want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("scheme", ["S1", "S2"])
def test_single_experiment_rejects_a_float_count(scheme):
    with pytest.raises(TypeError):
        single_experiment(2, 4, 0.03, 64.0, 1e-6, scheme, 5)


def _rejected(d, n_samples, scheme, message, seed=1):
    """A parameter set of the test below, with the id of its first four."""
    return pytest.param(
        d, n_samples, scheme, seed, message, id=f"{d}-{n_samples}-{scheme}-{message}"
    )


_NEGATIVE_SEED = "seed must be a non-negative integer"
_SEED_BOUND = "seed must be below 2**63"


@pytest.mark.parametrize(
    "d, n_samples, scheme, seed, message",
    [
        _rejected(4, 7, "S2", "need at least 2 d samples"),
        _rejected(3, 5, "S1", "need at least 2 d samples"),
        _rejected(3, 64, "S3", "unknown scheme 'S3'; expected one of ('S1', 'S2')"),
        _rejected(3, 64, "s1", "unknown scheme 's1'; expected one of ('S1', 'S2')"),
        # rejected before any work under both schemes: S1 would otherwise
        # fail only inside sample_spectrum, and S2 record the seed
        _rejected(3, 64, "S1", _NEGATIVE_SEED, seed=-5),
        _rejected(3, 64, "S2", _NEGATIVE_SEED, seed=-5),
        # the int64 seed field holds no larger seed
        _rejected(3, 64, "S1", _SEED_BOUND, seed=2**63),
        _rejected(3, 64, "S2", _SEED_BOUND, seed=2**63),
    ],
)
def test_single_experiment_rejects_few_samples_and_unknown_schemes(
    monkeypatch, d, n_samples, scheme, seed, message
):
    counts, _ = _count_trial_calls(monkeypatch)
    with pytest.raises(ValueError) as excinfo:
        single_experiment(2, d, 0.05, n_samples, 1e-9, scheme, seed)
    assert str(excinfo.value) == message
    assert not any(counts.values())
