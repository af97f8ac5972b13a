import numpy as np
import pytest

from spikesr import experiments
from spikesr.errors import EigenFailureError, RankDeficiencyError
from spikesr.matrix_pencil import (
    RecoveryResult,
    build_hankel,
    default_pencil_param,
    mp_recover,
)
from spikesr.signal import SpikeTrain, sample_spectrum, shift


def _circular(a, b):
    frac = (a - b) % 1.0
    return np.minimum(frac, 1.0 - frac)


def _reference_recover(samples, d, pencil_param=None, rank_tol=1e-13):
    """The former two-SVD estimator, kept as a reference.

    Each row-shifted Hankel block is reduced by its own rank-d truncated SVD,
    the upper block is projected onto the lower block's subspaces, and the
    eigenvalues of the reduced d x d pencil converge to 1/z_j.
    """
    values = samples.values
    n = len(values)
    L = default_pencil_param(n) if pencil_param is None else pencil_param
    hankel = build_hankel(values, L)
    u1, s1, v1h = np.linalg.svd(hankel[:-1], full_matrices=False)
    u2, s2, v2h = np.linalg.svd(hankel[1:], full_matrices=False)
    u1, s1, v1h = u1[:, :d], s1[:d], v1h[:d]
    u2, s2, v2h = u2[:, :d], s2[:d], v2h[:d]
    if s2[-1] < rank_tol * s2[0]:
        raise RankDeficiencyError("rank deficiency")
    reduced_upper = ((u2.conj().T @ u1) * s1) @ (v1h @ v2h.conj().T)
    try:
        eigs = np.linalg.eigvals(reduced_upper / s2[:, None])
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigen failure: {exc}") from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        z = 1.0 / eigs
    nodes = np.angle(z) / (2.0 * np.pi)
    order = np.argsort(nodes, kind="stable")
    nodes, z = nodes[order], z[order]
    if not np.all(np.isfinite(nodes)) or np.any(np.diff(nodes) <= 0):
        raise EigenFailureError("eigen failure: recovered nodes are not distinct")
    vand = np.exp(2j * np.pi * np.multiply.outer(np.arange(n), nodes))
    amps, *_ = np.linalg.lstsq(vand, values, rcond=None)
    return RecoveryResult(
        estimate=SpikeTrain(amplitudes=amps, nodes=nodes),
        pencil_param=L,
        singular_values=s2,
        eigenvalues=z,
    )


def test_build_hankel_examples():
    h = build_hankel(np.array([1, 2, 3, 4], dtype=complex), 1)
    np.testing.assert_array_equal(h, [[1, 2, 3], [2, 3, 4]])
    h = build_hankel(np.array([2, -1, -1, 2], dtype=complex), 2)
    np.testing.assert_array_equal(h, [[2, -1], [-1, -1], [-1, 2]])
    np.testing.assert_array_equal(h[1:], [[-1, -1], [-1, 2]])
    np.testing.assert_array_equal(h[:-1], [[2, -1], [-1, -1]])


def test_build_hankel_rejects_bad_pencil():
    values = np.arange(5, dtype=complex)
    with pytest.raises(ValueError):
        build_hankel(values, 0)
    with pytest.raises(ValueError):
        build_hankel(values, 5)


def test_default_pencil_param():
    assert default_pencil_param(7) == 4
    assert default_pencil_param(8) == 4
    assert default_pencil_param(3) == 2
    with pytest.raises(ValueError):
        default_pencil_param(2)


def test_recover_single_spike():
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.2])
    samples = sample_spectrum(train, 8, 0.0, 0)
    result = mp_recover(samples, 1, 4)
    assert result.estimate.nodes[0] == pytest.approx(0.2, abs=1e-10)
    assert result.estimate.amplitudes[0] == pytest.approx(1.0, abs=1e-10)
    assert result.pencil_param == 4
    assert len(result.singular_values) == 1


def test_recover_symmetric_pair_wraps_to_principal_range():
    train = SpikeTrain(amplitudes=[1.0, 1.0], nodes=[1 / 3, 2 / 3])
    samples = sample_spectrum(train, 4, 0.0, 0)
    result = mp_recover(samples, 2, 2)
    np.testing.assert_allclose(result.estimate.nodes, [-1 / 3, 1 / 3], atol=1e-10)
    np.testing.assert_allclose(result.estimate.amplitudes, [1, 1], atol=1e-9)


def test_recover_random_three_spikes():
    rng = np.random.default_rng(5)
    while True:
        nodes = np.sort(rng.uniform(-0.45, 0.45, 3))
        if np.min(np.diff(nodes)) >= 0.1:
            break
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    train = SpikeTrain(amplitudes=amps, nodes=nodes)
    result = mp_recover(sample_spectrum(train, 16, 0.0, 0), 3, 8)
    assert np.abs(result.estimate.nodes - nodes).max() < 1e-9
    assert np.abs(result.estimate.amplitudes - amps).max() < 1e-9


def test_exact_recovery_property():
    rng = np.random.default_rng(123)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2 * d + 2, 40))
        while True:
            nodes = np.sort(rng.uniform(-0.5, 0.5, d))
            gaps = _circular(np.roll(nodes, -1), nodes) if d > 1 else np.array([1.0])
            if gaps.min() >= 2.0 / n:
                break
        amps = rng.uniform(0.1, 3.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        train = SpikeTrain(amplitudes=amps, nodes=nodes)
        result = mp_recover(sample_spectrum(train, n, 0.0, 0), d)
        assert _circular(result.estimate.nodes, nodes).max() < 1e-8
        assert np.abs(result.estimate.amplitudes - amps).max() < 1e-8


def test_eigenvalue_moduli_near_unit_circle_at_small_noise():
    rng = np.random.default_rng(9)
    train = SpikeTrain(
        amplitudes=[1.0, 1.0 + 0.5j, -2.0], nodes=[-0.3, 0.05, 0.31]
    )
    for eps in (1e-8, 1e-6, 1e-4):
        samples = sample_spectrum(train, 32, eps, int(rng.integers(1 << 30)))
        hankel = build_hankel(samples, default_pencil_param(32))
        sigma_d = np.linalg.svd(hankel, compute_uv=False)[2]
        delta = samples.actual_noise / sigma_d
        result = mp_recover(samples, 3)
        moduli = np.abs(result.eigenvalues)
        assert np.all(moduli >= 1 - 10 * delta)
        assert np.all(moduli <= 1 + 10 * delta)


def test_recover_is_bit_reproducible():
    train = SpikeTrain(amplitudes=[1.0, -1.0], nodes=[0.1, 0.12])
    samples = sample_spectrum(train, 32, 1e-5, 3)
    a = mp_recover(samples, 2)
    b = mp_recover(samples, 2)
    np.testing.assert_array_equal(a.estimate.nodes, b.estimate.nodes)
    np.testing.assert_array_equal(a.estimate.amplitudes, b.estimate.amplitudes)


def test_recover_shift_equivariance():
    train = SpikeTrain(amplitudes=[1.0, 2.0], nodes=[-0.1, 0.2])
    alpha = 0.15
    base = mp_recover(sample_spectrum(train, 24, 0.0, 0), 2)
    moved = mp_recover(sample_spectrum(shift(train, alpha), 24, 0.0, 0), 2)
    expected = np.sort((base.estimate.nodes - alpha + 0.5) % 1.0 - 0.5)
    assert _circular(moved.estimate.nodes, expected).max() < 1e-8


def test_recover_rank_deficiency_signal():
    # single-spike data solved at order 3: the Hankel blocks have rank 1
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.2])
    samples = sample_spectrum(train, 16, 0.0, 0)
    with pytest.raises(RankDeficiencyError):
        mp_recover(samples, 3)
    with pytest.raises(RankDeficiencyError):
        _reference_recover(samples, 3)


def test_recover_validates_arguments():
    train = SpikeTrain(amplitudes=[1.0, 2.0], nodes=[0.1, 0.3])
    samples = sample_spectrum(train, 8, 0.0, 0)
    with pytest.raises(ValueError):
        mp_recover(samples, 2, 1)  # pencil below d
    with pytest.raises(ValueError):
        mp_recover(samples, 2, 7)  # pencil above N - d
    with pytest.raises(ValueError):
        mp_recover(sample_spectrum(train, 3, 0.0, 0), 2)  # too few samples


def test_result_json_schema():
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.25])
    result = mp_recover(sample_spectrum(train, 8, 0.0, 0), 1)
    obj = result.to_json_dict()
    assert set(obj) == {"nodes", "amplitudes", "L", "sigma"}
    assert obj["L"] == 4
    assert obj["nodes"][0] == pytest.approx(0.25, abs=1e-10)
    # one spike of unit amplitude: the Hankel matrix is the rank-one outer
    # product of two unit-modulus vectors of lengths L + 1 = 5 and N - L = 4
    assert obj["sigma"] == [pytest.approx(np.sqrt(20.0))]


def test_matches_reference_on_noiseless_separated_trains():
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2 * d + 2, 64))
        while True:
            nodes = np.sort(rng.uniform(-0.5, 0.5, d))
            gaps = _circular(np.roll(nodes, -1), nodes) if d > 1 else np.array([1.0])
            if gaps.min() >= 2.0 / n:
                break
        amps = rng.uniform(0.1, 3.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        samples = sample_spectrum(SpikeTrain(amplitudes=amps, nodes=nodes), n, 0.0, 0)
        new = mp_recover(samples, d)
        ref = _reference_recover(samples, d)
        assert _circular(new.estimate.nodes, ref.estimate.nodes).max() < 1e-9
        assert np.abs(new.estimate.amplitudes - ref.estimate.amplitudes).max() < 1e-9
        np.testing.assert_allclose(new.eigenvalues, ref.eigenvalues, atol=1e-9)


def _paired_records(monkeypatch, scheme, p, h, n, eps, seed):
    new = experiments.single_experiment(p, 4, h, n, eps, scheme, seed)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "mp_recover", _reference_recover)
        ref = experiments.single_experiment(p, 4, h, n, eps, scheme, seed)
    return new, ref


# S2 samples are the exact spectrum of the worst-case perturbed d-spike train,
# so both estimators solve the same noiseless problem and agree to roundoff.
# S1 samples carry random noise, and the two estimators then agree only to
# first order in the noise.  Their disagreement has a roundoff part, which
# atol absorbs, and a second-order part that reaches about 2e-2 of the node
# error at the grid's largest SRF^(2p-1) * eps; hence rtol 5e-2 for S1.
@pytest.mark.parametrize(
    "scheme, eps_values, rtol",
    [("S2", (1e-12, 1e-10, 1e-8, 1e-6, 1e-4), 1e-6), ("S1", (1e-10, 1e-8, 1e-6), 5e-2)],
)
@pytest.mark.parametrize("p", [2, 3])
def test_matches_reference_on_clustered_trials(monkeypatch, scheme, eps_values, rtol, p):
    for h in (0.05, 0.2):
        for n in (48, 96):
            for eps in eps_values:
                for seed in range(3):
                    new, ref = _paired_records(monkeypatch, scheme, p, h, n, eps, seed)
                    assert new.successes == ref.successes
                    assert (new.failure is None) == (ref.failure is None)
                    np.testing.assert_allclose(
                        new.node_errors, ref.node_errors, rtol=rtol, atol=1e-14
                    )
