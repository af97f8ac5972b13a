"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.
"""

import math
import time

import numpy as np

from spikesr.decimation import admissible_lambdas, gautschi_bounds, sigma_intervals
from spikesr.experiments import (
    DEFAULT_AMPLIFICATION_RANGES,
    DEFAULT_PHASE_RANGES,
    amplification_sweep,
    fit_loglog_slope,
    phase_transition_sweep,
)
from spikesr.matrix_pencil import mp_recover
from spikesr.prony import prony_map, prony_solve
from spikesr.signal import (
    ClusterGeometry,
    SpikeTrain,
    make_clustered_nodes,
    sample_spectrum,
    standard_cluster_geometry,
)
from spikesr.worstcase import (
    displacement_scaling_probe,
    spectral_deviation,
    worst_case_signal,
)

SEED = 1


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number}: {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _circular(a, b):
    frac = (np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(frac, 1.0 - frac)


def _random_well_separated_signal(rng):
    d = int(rng.integers(1, 6))
    n = int(rng.integers(2 * d + 2, 41))
    while True:
        nodes = np.sort(rng.uniform(-0.5, 0.5, d))
        if d == 1:
            break
        gaps = _circular(np.roll(nodes, -1), nodes)
        if gaps.min() >= 2.0 / n:
            break
    amps = rng.uniform(0.1, 3.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    return SpikeTrain(amplitudes=amps, nodes=nodes), n


def test_criterion_1_exact_recovery():
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    worst_prony = worst_pencil = 0.0
    for _ in range(200):
        train, n = _random_well_separated_signal(rng)
        d = train.d

        sol = prony_solve(prony_map(train.amplitudes, train.nodes, 2 * d), d)
        order = np.argsort(sol.nodes.real)
        node_err = np.abs(sol.nodes[order] - train.nodes).max()
        amp_err = np.abs(sol.amplitudes[order] - train.amplitudes).max()
        worst_prony = max(worst_prony, node_err, amp_err)

        result = mp_recover(sample_spectrum(train, n, 0.0, 0), d)
        node_err = _circular(result.estimate.nodes, train.nodes).max()
        amp_err = np.abs(result.estimate.amplitudes - train.amplitudes).max()
        worst_pencil = max(worst_pencil, node_err, amp_err)
    elapsed = time.monotonic() - start
    ok = worst_prony < 1e-8 and worst_pencil < 1e-8 and elapsed < 10.0
    _report(
        1,
        ok,
        f"200 signals, worst Prony error {worst_prony:.2e}, "
        f"worst Matrix Pencil error {worst_pencil:.2e}, {elapsed:.1f} s",
    )


def _amplification_run(scheme):
    return amplification_sweep(
        2,
        3,
        trials=500,
        scheme=scheme,
        base_seed=SEED,
        **DEFAULT_AMPLIFICATION_RANGES,
    )


def test_criterion_2_amplification_slopes_random_noise():
    start = time.monotonic()
    records = _amplification_run("S1")
    fits = {
        (q, c): fit_loglog_slope(records, q, c)
        for q in ("kx", "ka")
        for c in ("cluster", "noncluster")
    }
    elapsed = time.monotonic() - start
    ok = (
        1.7 <= fits[("kx", "cluster")].slope <= 2.3
        and 2.7 <= fits[("ka", "cluster")].slope <= 3.3
        and -0.3 <= fits[("kx", "noncluster")].slope <= 0.3
        and -0.3 <= fits[("ka", "noncluster")].slope <= 0.3
        and elapsed < 60.0
    )
    _report(
        2,
        ok,
        "S1 slopes: cluster node "
        f"{fits[('kx', 'cluster')].slope:+.2f} (want 2), cluster amplitude "
        f"{fits[('ka', 'cluster')].slope:+.2f} (want 3), non-cluster "
        f"{fits[('kx', 'noncluster')].slope:+.2f}/"
        f"{fits[('ka', 'noncluster')].slope:+.2f} (want 0), {elapsed:.1f} s",
    )


def test_criterion_3_worst_case_scheme_variance():
    s1 = _amplification_run("S1")
    s2 = _amplification_run("S2")
    fits1 = {q: fit_loglog_slope(s1, q, "cluster") for q in ("kx", "ka")}
    fits2 = {q: fit_loglog_slope(s2, q, "cluster") for q in ("kx", "ka")}
    windows = (
        1.7 <= fits2["kx"].slope <= 2.3 and 2.7 <= fits2["ka"].slope <= 3.3
    )
    tighter = (
        fits2["kx"].residual_std < fits1["kx"].residual_std
        and fits2["ka"].residual_std < fits1["ka"].residual_std
    )
    _report(
        3,
        windows and tighter,
        f"S2 cluster slopes {fits2['kx'].slope:+.2f}/{fits2['ka'].slope:+.2f}; "
        f"residual std S2 ({fits2['kx'].residual_std:.3f}, {fits2['ka'].residual_std:.3f}) "
        f"vs S1 ({fits1['kx'].residual_std:.3f}, {fits1['ka'].residual_std:.3f})",
    )


def test_criterion_4_phase_transition_slopes():
    start = time.monotonic()
    _, fit2 = phase_transition_sweep(
        2, 4, trials=2000, scheme="S1", base_seed=SEED, **DEFAULT_PHASE_RANGES
    )
    _, fit3 = phase_transition_sweep(
        3, 4, trials=2000, scheme="S1", base_seed=SEED, **DEFAULT_PHASE_RANGES
    )
    elapsed = time.monotonic() - start
    ok = (
        -3.5 <= fit2.slope <= -2.5
        and -5.5 <= fit3.slope <= -4.5
        and elapsed < 300.0
    )
    _report(
        4,
        ok,
        f"boundary slopes p=2: {fit2.slope:+.2f} (want -3), "
        f"p=3: {fit3.slope:+.2f} (want -5), {elapsed:.1f} s",
    )


def test_criterion_5_noncluster_threshold():
    _, fit = phase_transition_sweep(
        2,
        8,
        h_range=DEFAULT_PHASE_RANGES["h_range"],
        n_range=DEFAULT_PHASE_RANGES["n_range"],
        eps_range=(1e-2, 10.0),
        trials=2000,
        scheme="S1",
        base_seed=SEED,
        node_index=6,
    )
    ok = -0.5 <= fit.slope <= 0.5
    _report(
        5,
        ok,
        f"non-cluster node 6 boundary slope {fit.slope:+.2f} (want ~0), "
        f"{fit.n_success} successes / {fit.n_failure} failures",
    )


def test_criterion_6_worst_case_witness():
    # moment matching at machine precision relative to the moment scale
    h = 0.01
    train = SpikeTrain(amplitudes=[1.0, -1.0], nodes=[-h / 2, h / 2])
    eps = 1e-9
    report = worst_case_signal(train, 2, eps)
    g_scale = max(1.0, float(np.abs(prony_map(train.amplitudes, train.nodes, 4)).max()))
    moments_ok = (
        report.moment_match_error < 1e-8 * g_scale
        and abs(report.last_moment_delta - eps) < 1e-8 * eps
    )

    slopes_ok = True
    slope_text = []
    for p in (2, 3):
        h_values = np.geomspace(0.02 if p == 2 else 0.05, 0.4, 8)
        rows = displacement_scaling_probe(p, h_values)
        lsrf = np.log10([r[0] for r in rows])
        node_slope = np.polyfit(lsrf, np.log10([r[1] for r in rows]), 1)[0]
        amp_slope = np.polyfit(lsrf, np.log10([r[2] for r in rows]), 1)[0]
        slopes_ok = (
            slopes_ok
            and abs(node_slope - (2 * p - 2)) <= 0.3
            and abs(amp_slope - (2 * p - 1)) <= 0.3
        )
        slope_text.append(f"p={p}: {node_slope:.2f}/{amp_slope:.2f}")

    # spectral deviation linear in epsilon over three decades
    lin_train = SpikeTrain(amplitudes=[1.0, -1.0], nodes=[-0.025, 0.025])
    eps_values = np.geomspace(1e-9, 1e-6, 7)
    devs = [
        spectral_deviation(
            lin_train, worst_case_signal(lin_train, 2, e).perturbed, 5.0, 500
        )
        for e in eps_values
    ]
    lin_slope = np.polyfit(np.log10(eps_values), np.log10(devs), 1)[0]
    linear_ok = abs(lin_slope - 1.0) <= 0.05

    _report(
        6,
        moments_ok and slopes_ok and linear_ok,
        f"moment match {report.moment_match_error:.1e}, bump delta "
        f"{report.last_moment_delta:.3e} (eps {eps:.0e}); probe slopes "
        f"{', '.join(slope_text)} (want 2/3 and 4/5); deviation-vs-eps slope "
        f"{lin_slope:.3f}",
    )


def test_criterion_7_gautschi_dominance():
    rng = np.random.default_rng(SEED)
    done = 0
    worst_margin = -np.inf
    while done < 500:
        d = int(rng.integers(1, 6))
        z = rng.uniform(0.5, 2.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        if d > 1:
            gaps = np.abs(z[:, None] - z[None, :])[~np.eye(d, dtype=bool)]
            if gaps.min() < 0.05:
                continue
        rep = gautschi_bounds(z)
        margin = max(
            (rep.empirical_amplitude_row_norms - rep.amplitude_row_bounds).max(),
            (rep.empirical_node_row_norms - rep.node_row_bounds).max(),
        )
        worst_margin = max(worst_margin, margin)
        done += 1
    tol = 1e-9
    _report(
        7,
        worst_margin <= tol,
        f"500 node sets, worst (measured - bound) = {worst_margin:.2e}",
    )


def test_criterion_8_blowup_interval_sets():
    rng = np.random.default_rng(SEED)

    # component-count and length bounds, in the regime where the count window
    # applies (no double clipping at the interval ends)
    checked = 0
    counts_ok = True
    while checked < 1000:
        delta = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        alpha = rng.uniform(1e-3, math.pi * 0.999)
        a = rng.uniform(-10, 10)
        length = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
        if (length * delta) % 1.0 + alpha / math.pi >= 1.0:
            continue
        result = sigma_intervals(delta, alpha, (a, a + length))
        n = len(result)
        counts_ok = counts_ok and (
            math.floor(length * delta) <= n <= math.floor(length * delta) + 1
        )
        counts_ok = counts_ok and all(
            hi - lo <= alpha / (math.pi * delta) + 1e-9 for lo, hi in result
        )
        checked += 1

    # admissible sets: accepted rates satisfy both separation conditions,
    # rejected rates violate the non-cluster one
    verifier_ok = True
    for trial in range(5):
        p = int(rng.integers(2, 4))
        d = int(rng.integers(p + 1, p + 3))
        h_layout = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-2))))
        layout = standard_cluster_geometry(p, d, h_layout)
        nodes = make_clustered_nodes(layout) / (2 * math.pi)
        geometry = ClusterGeometry(
            p=p, d=d, h=h_layout / (2 * math.pi), T=1.0,
            tau=layout.tau, eta=layout.eta / 2.0, kappa=1,
        )
        omega = float(rng.uniform(50, 400))
        lam = admissible_lambdas(nodes, geometry, omega)
        lo, hi = omega / (2 * (2 * d - 1)), omega / (2 * d - 1)
        alpha = 1.0 / d**2
        # pairs j < k: both in the cluster, or at least one outside it
        upper = np.triu(np.ones((d, d), dtype=bool), 1)
        in_cluster = np.arange(d) < p
        both = np.logical_and.outer(in_cluster, in_cluster)
        cluster_pairs, noncluster_pairs = upper & both, upper & ~both

        accepted = rejected = 0
        while accepted < 200 or rejected < 200:
            rate = rng.uniform(lo, hi)
            z = np.exp(2j * np.pi * rate * nodes)
            angles = np.abs(np.angle(np.divide.outer(z, z)))
            min_non = angles[noncluster_pairs].min()
            min_cluster = angles[cluster_pairs].min()
            if lam.contains(rate) and accepted < 200:
                verifier_ok = verifier_ok and min_non >= alpha
                verifier_ok = verifier_ok and (
                    min_cluster >= 2 * np.pi * rate * geometry.tau * geometry.h - 1e-9
                )
                accepted += 1
            elif not lam.contains(rate) and rejected < 200:
                verifier_ok = verifier_ok and min_non <= alpha + 1e-6
                rejected += 1

    _report(
        8,
        counts_ok and verifier_ok,
        "1000 blowup interval instances within the count/length bounds; "
        "5 layouts x 200 accepted and 200 rejected rates verified",
    )
