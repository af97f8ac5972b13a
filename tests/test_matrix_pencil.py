import json

import numpy as np
import pytest

from spikesr import cli, experiments
from spikesr.errors import EigenFailureError, RankDeficiencyError
from spikesr.matrix_pencil import RecoveryResult, mp_recover
from spikesr.signal import SpectralSamples, SpikeTrain, sample_spectrum


def _circular(a, b):
    frac = (a - b) % 1.0
    return np.minimum(frac, 1.0 - frac)


def _reference_recover(samples, d, rank_tol=1e-13):
    """The former two-SVD estimator, kept as a reference.

    Each row-shifted Hankel block is reduced by its own rank-d truncated SVD,
    the upper block is projected onto the lower block's subspaces, and the
    eigenvalues of the reduced d x d pencil converge to 1/z_j.
    """
    values = samples.values
    n = len(values)
    L = -(-n // 2)
    hankel = values[np.add.outer(np.arange(L + 1), np.arange(n - L))]
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
    nodes = nodes[order]
    if not np.all(np.isfinite(nodes)) or np.any(np.diff(nodes) <= 0):
        raise EigenFailureError("eigen failure: recovered nodes are not distinct")
    vand = np.exp(2j * np.pi * np.multiply.outer(np.arange(n), nodes))
    amps, *_ = np.linalg.lstsq(vand, values, rcond=None)
    return RecoveryResult(
        estimate=SpikeTrain(amplitudes=amps, nodes=nodes),
        singular_values=s2,
    )


@pytest.mark.parametrize(
    "n, d, pencil",
    [(2, 1, 1), (3, 1, 2), (7, 2, 4), (8, 3, 4), (8, 4, 4)],
)
def test_default_pencil_is_ceil_half_n(n, d, pencil):
    # N = 2d is enough samples for d nodes, d = 1 included
    nodes = np.linspace(-0.3, 0.3, d)
    train = SpikeTrain(amplitudes=np.arange(1.0, d + 1), nodes=nodes)
    samples = sample_spectrum(train, n, 0.0, 0)
    result = mp_recover(samples, d)
    hankel = samples.values[np.add.outer(np.arange(pencil + 1), np.arange(n - pencil))]
    assert hankel.shape == (-(-n // 2) + 1, n // 2)
    sigma = np.linalg.svd(hankel, full_matrices=False)[1][:d]
    np.testing.assert_array_equal(result.singular_values, sigma)
    np.testing.assert_allclose(result.estimate.nodes, nodes, atol=1e-9)


def test_recover_single_spike():
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.2])
    samples = sample_spectrum(train, 8, 0.0, 0)
    result = mp_recover(samples, 1)
    assert result.estimate.nodes[0] == pytest.approx(0.2, abs=1e-10)
    assert result.estimate.amplitudes[0] == pytest.approx(1.0, abs=1e-10)
    assert len(result.singular_values) == 1


def test_recover_symmetric_pair_wraps_to_principal_range():
    train = SpikeTrain(amplitudes=[1.0, 1.0], nodes=[1 / 3, 2 / 3])
    samples = sample_spectrum(train, 4, 0.0, 0)
    result = mp_recover(samples, 2)
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
    result = mp_recover(sample_spectrum(train, 16, 0.0, 0), 3)
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
    moved_train = SpikeTrain(amplitudes=train.amplitudes, nodes=train.nodes - alpha)
    moved = mp_recover(sample_spectrum(moved_train, 24, 0.0, 0), 2)
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
        mp_recover(sample_spectrum(train, 3, 0.0, 0), 2)  # too few samples


def test_result_json_schema(tmp_path):
    # the recover report, which the CLI writes
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.25])
    samples = sample_spectrum(train, 8, 0.0, 0)
    src, out = tmp_path / "samples.json", tmp_path / "report.json"
    src.write_text(json.dumps({"values": [[v.real, v.imag] for v in samples.values.tolist()]}))
    assert cli.main(["recover", "-i", str(src), "-d", "1", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert list(obj) == ["timestamp", "config", "nodes", "amplitudes", "sigma"]
    result = mp_recover(samples, 1)
    assert obj["nodes"] == result.estimate.nodes.tolist()
    assert obj["amplitudes"] == [[a.real, a.imag] for a in result.estimate.amplitudes.tolist()]
    assert obj["nodes"][0] == pytest.approx(0.25, abs=1e-10)
    # one spike of unit amplitude: the Hankel matrix is the rank-one outer
    # product of two unit-modulus vectors of lengths ceil(N/2) + 1 = 5 and
    # floor(N/2) = 4
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


def test_coincident_recovered_nodes_raise_eigen_failure():
    # two damped exponentials on one ray: distinct eigenvalues, one angle
    k = np.arange(16)
    values = 0.9**k * np.exp(2j * np.pi * 0.1 * k) + 0.5**k * np.exp(2j * np.pi * 0.1 * k)
    with pytest.raises(EigenFailureError, match="recovered nodes are not distinct"):
        mp_recover(SpectralSamples(values, 0.0), 2)


def test_eigen_solver_failure_raises_eigen_failure(monkeypatch):
    def no_convergence(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    samples = sample_spectrum(SpikeTrain([1.0, -1.0], [0.1, 0.3]), 16, 0.0, 0)
    with pytest.raises(EigenFailureError, match="eigen failure: Eigenvalues did not converge"):
        mp_recover(samples, 2)


@pytest.mark.parametrize("d", [0, -2])
def test_recover_rejects_order_below_one(d):
    samples = sample_spectrum(SpikeTrain([1.0, -1.0], [0.1, 0.3]), 8, 0.0, 0)
    with pytest.raises(ValueError) as excinfo:
        mp_recover(samples, d)
    assert str(excinfo.value) == "model order d must be at least 1"


def _numpy_checks_recover(samples, d):
    """An earlier mp_recover, which tested its arrays with numpy reductions,
    kept as a reference for the scalar checks: (nodes, amplitudes, leading
    singular values), or the same exception with the same message."""
    values = samples.values
    n = len(values)
    if d < 1:
        raise ValueError("model order d must be at least 1")
    if n < 2 * d:
        raise ValueError(f"need at least 2 d = {2 * d} samples, got {n}")
    L = -(-n // 2)
    hankel = values[np.add.outer(np.arange(L + 1), np.arange(n - L))]
    u, sigma, _ = np.linalg.svd(hankel, full_matrices=False)
    u, sigma = u[:, :d], sigma[:d]
    if sigma[-1] < 1e-13 * sigma[0]:
        raise RankDeficiencyError(
            "rank deficiency: the Hankel matrix has fewer than d significant singular values"
        )
    try:
        psi, *_ = np.linalg.lstsq(u[:-1], u[1:], rcond=None)
        z = np.linalg.eigvals(psi)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigen failure: {exc}") from exc
    nodes = np.arctan2(z.imag, z.real) / (2.0 * np.pi)
    order = nodes.argsort(kind="stable")
    nodes = nodes[order]
    if not np.isfinite(nodes).all() or (nodes[1:] <= nodes[:-1]).any():
        raise EigenFailureError("eigen failure: recovered nodes are not distinct")
    vand = np.exp(2j * np.pi * np.multiply.outer(np.arange(n), nodes))
    amps, *_ = np.linalg.lstsq(vand, values, rcond=None)
    return nodes, amps, sigma


def _reference_inputs():
    """(samples, d) pairs that reach every branch of mp_recover."""
    pair = sample_spectrum(SpikeTrain([1.0, -1.0], [0.1, 0.3]), 8, 0.0, 0)
    k = np.arange(16)
    one_ray = 0.9**k * np.exp(2j * np.pi * 0.1 * k) + 0.5**k * np.exp(2j * np.pi * 0.1 * k)
    yield pair, 0  # order below one
    yield pair, 5  # too few samples
    yield sample_spectrum(SpikeTrain([1.0], [0.2]), 16, 0.0, 0), 3  # rank deficient
    yield SpectralSamples(one_ray, 0.0), 2  # coincident angles
    rng = np.random.default_rng(24)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2 * d, 64))
        nodes = np.sort(rng.uniform(-0.5, 0.5, d))
        if (nodes[1:] <= nodes[:-1]).any():
            continue
        amps = rng.uniform(0.1, 3.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        noise = 10.0 ** rng.uniform(-12, 0)
        yield sample_spectrum(SpikeTrain(amps, nodes), n, noise, int(rng.integers(99))), d
    # clustered S2 trials, where some nodes are missed
    for _ in range(60):
        h = 10.0 ** rng.uniform(-3, -1)
        n = int(rng.integers(48, 97))
        x = np.array([0.0, h, 0.3, 0.45])
        amps = (-1.0) ** np.arange(4)
        train = SpikeTrain(amps + 10.0 ** rng.uniform(-14, -2) * rng.normal(size=4), x)
        yield sample_spectrum(train, n, 0.0, 0), 4


def _assert_recover_matches_reference(samples, d):
    try:
        nodes, amps, sigma = _numpy_checks_recover(samples, d)
    except (ValueError, RankDeficiencyError, EigenFailureError) as exc:
        with pytest.raises(type(exc)) as excinfo:
            mp_recover(samples, d)
        assert str(excinfo.value) == str(exc)
        return str(exc)
    result = mp_recover(samples, d)
    assert np.array_equal(result.estimate.nodes, nodes)
    assert np.array_equal(result.estimate.amplitudes, amps)
    assert np.array_equal(result.singular_values, sigma)
    return "recovered"


def test_recover_matches_numpy_checks_reference_on_every_branch(monkeypatch):
    outcomes = {_assert_recover_matches_reference(*case) for case in _reference_inputs()}

    def no_convergence(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    pair = sample_spectrum(SpikeTrain([1.0, -1.0], [0.1, 0.3]), 16, 0.0, 0)
    outcomes.add(_assert_recover_matches_reference(pair, 2))
    assert outcomes == {
        "model order d must be at least 1",
        "need at least 2 d = 10 samples, got 8",
        "rank deficiency: the Hankel matrix has fewer than d significant singular values",
        "eigen failure: recovered nodes are not distinct",
        "eigen failure: Eigenvalues did not converge",
        "recovered",
    }
