import math
import re
import sys

import numpy as np
import pytest

from spikesr import decimation
from spikesr.decimation import (
    _gaps,
    _sigma_pieces,
    admissible_lambdas,
    gautschi_bounds,
    predicted_condition_numbers,
    sigma_intervals,
)
from spikesr.errors import EmptyAdmissibleSetError, NearCoincidentNodesError
from spikesr.signal import ClusterGeometry, make_clustered_nodes, standard_cluster_geometry


# ------------------------------------------------ pair-by-pair reference code
# The loop forms of the interval-set construction and the Gautschi bounds that
# the vectorised code in spikesr.decimation replaces.  Every step compares or
# copies the same floats, so the admissible sets must agree exactly.


def _reference_merge(pairs):
    merged = []
    for a, b in sorted(pairs):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _reference_sigma_pieces(delta, alpha, a, b):
    half_width = alpha / (2.0 * math.pi * delta)
    period = 1.0 / delta
    first = math.ceil((a - half_width) / period)
    last = math.floor((b + half_width) / period)
    pieces = []
    for ell in range(first, last + 1):
        center = ell * period
        lo, hi = max(center - half_width, a), min(center + half_width, b)
        if lo <= hi:
            pieces.append((lo, hi))
    return pieces


def _reference_admissible(nodes, geometry, omega, alpha, pad):
    """Intervals of the admissible set, or None when it is empty."""
    d = geometry.d
    lo, hi = omega / (2.0 * (2 * d - 1)), omega / (2 * d - 1)
    in_cluster = np.zeros(d, dtype=bool)
    in_cluster[geometry.cluster_slice] = True
    excluded = []
    for j in range(d):
        for k in range(j + 1, d):
            if in_cluster[j] and in_cluster[k]:
                continue
            sigma = _reference_merge(
                _reference_sigma_pieces(abs(nodes[k] - nodes[j]), alpha, lo, hi)
            )
            excluded = _reference_merge(excluded + sigma)
    padded = _reference_merge([(a - pad, b + pad) for a, b in excluded])
    inner = _reference_merge(
        [(max(a, lo), min(b, hi)) for a, b in padded if max(a, lo) <= min(b, hi)]
    )
    out, cursor = [], lo
    for a, b in inner:
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        out.append((cursor, hi))
    if not out and not padded:
        out.append((lo, hi))
    return tuple(_reference_merge(out)) or None


def _lexsort_merge(starts, ends):
    """The merge sorted by (start, end) with a two-key lexsort."""
    if starts.size == 0:
        return starts, ends
    order = np.lexsort((ends, starts))
    starts, reach = starts[order], np.maximum.accumulate(ends[order])
    breaks = np.flatnonzero(starts[1:] > reach[:-1])
    first = np.concatenate(([0], breaks + 1))
    last = np.append(breaks, starts.size - 1)
    return starts[first], reach[last]


# The set operations below work on interval sets given as tuples of sorted,
# disjoint (start, end) pairs, the form of IntervalSet.intervals.


def _endpoints(pairs):
    pairs = np.array(pairs, dtype=float).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _merged(starts, ends):
    """Components, as (start, end) pairs, of the ordered, NaN-free intervals
    [starts[i], ends[i]]."""
    starts, ends = _lexsort_merge(
        np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
    )
    return tuple(zip(starts.tolist(), ends.tolist()))


def _padded(pairs, pad):
    """Interval set pairs grown outward by pad (components may merge)."""
    starts, ends = _endpoints(pairs)
    return _merged(starts - pad, ends + pad)


def _intersect(pairs, lo, hi):
    """Intersection of interval set pairs with the closed interval [lo, hi]."""
    starts, ends = _endpoints(pairs)
    starts, ends = np.maximum(starts, lo), np.minimum(ends, hi)
    keep = starts <= ends
    return _merged(starts[keep], ends[keep])


def _complement_within(pairs, lo, hi):
    """Closure of [lo, hi] minus interval set pairs: the gaps of positive
    length before, between and after its components inside [lo, hi].
    Touching gaps merge, so a single-point component is bridged."""
    starts, ends = _endpoints(_intersect(pairs, lo, hi))
    gap_starts = np.concatenate(([lo], ends))
    gap_ends = np.append(starts, hi)
    keep = gap_starts < gap_ends
    return _merged(gap_starts[keep], gap_ends[keep])


def _composed_admissible(nodes, geometry, omega, alpha, pad):
    """Admissible set as a chain of interval-set operations: merge the sigma
    pieces, pad and re-merge, then clip, re-merge and take the complement."""
    d = geometry.d
    lo, hi = omega / (2.0 * (2 * d - 1)), omega / (2 * d - 1)
    j, k = np.triu_indices(d, 1)
    in_cluster = np.zeros(d, dtype=bool)
    in_cluster[geometry.cluster_slice] = True
    seps = np.abs(nodes[k] - nodes[j])[~(in_cluster[j] & in_cluster[k])]
    excluded = _merged(*_sigma_pieces(seps, alpha, lo, hi))
    return _complement_within(_padded(excluded, pad), lo, hi)


def _reference_gautschi(z):
    w = np.atleast_1d(np.asarray(z, dtype=complex))
    d = len(w)
    gaps = np.abs(w[:, None] - w[None, :])
    delta = np.zeros(d)
    gamma = np.ones(d)
    for j in range(d):
        others = [l for l in range(d) if l != j]
        if others:
            delta[j] = float(np.sum(1.0 / gaps[j, others]))
            gamma[j] = float(np.prod((1.0 + np.abs(w[others])) / gaps[j, others]) ** 2)
    return delta, gamma


# ---------------------------------------------------------------- IntervalSet


def test_interval_set_merges_and_sorts():
    s = decimation._interval_set(
        *_lexsort_merge(np.array([3.0, 0.0, 0.5]), np.array([4.0, 1.0, 2.0]))
    )
    assert s.intervals == ((0, 2), (3, 4))
    assert sum(b - a for a, b in s) == pytest.approx(3.0)
    assert s.contains(1.5) and not s.contains(2.5)
    assert s.contains(0.0) and s.contains(4.0) and not s.contains(math.nan)
    assert len(s) == 2


def test_interval_set_complement_and_intersect():
    # the reference operations _composed_admissible is built from
    s = ((1, 2), (4, 5))
    assert _complement_within(s, 0, 6) == ((0, 1), (2, 4), (5, 6))
    assert _intersect(s, 1.5, 4.5) == ((1.5, 2), (4, 4.5))
    assert _complement_within((), 0, 1) == ((0, 1),)
    assert _padded(s, 1.0) == ((0, 6),)


def test_complement_within_bridges_a_single_point():
    assert _complement_within(((1, 1),), 0, 2) == ((0, 2),)
    assert _complement_within(((0, 0), (2, 2)), 0, 2) == ((0, 2),)


def test_merge_by_start_matches_lexsort_with_tied_starts():
    # _gaps sorts by start alone with an unstable sort, so tied starts may
    # come out in any order; the gaps must not depend on that order, which
    # every shuffled and the reversed order of the same pieces checks against
    # the gaps between the components of a merge sorted by (start, end).
    rng = np.random.default_rng(17)
    for size in (1, 2, 5, 40, 300):
        for _ in range(20):
            # few distinct starts, so most of them are tied; some pieces are points
            starts = rng.integers(0, max(2, size // 4), size).astype(float)
            ends = starts + rng.choice([0.0, 0.5, 1.0, 3.0], size)
            first, last = _lexsort_merge(starts, ends)
            expected = (np.append(-math.inf, last), np.append(first, math.inf))
            orders = [np.arange(size), np.arange(size)[::-1]]
            orders += [rng.permutation(size) for _ in range(3)]
            for order in orders:
                got = _gaps(starts[order], ends[order], -math.inf, math.inf)
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])


@pytest.mark.parametrize(
    "pieces, merged",
    [
        ([(5, 6), (1, 2), (3, 4)], ((1, 2), (3, 4), (5, 6))),  # unsorted
        ([(0, 10), (2, 3), (4, 12)], ((0, 12),)),  # nested, then overlapping
        ([(0, 1), (1, 2), (3, 4), (4, 4)], ((0, 2), (3, 4))),  # touching
        ([(1, 2), (1, 2), (1, 2)], ((1, 2),)),  # duplicates
        ([(3, 3), (1, 1), (1, 2)], ((1, 2), (3, 3))),  # degenerate
        ([(2, 5), (2, 3), (2, 4)], ((2, 5),)),  # shared start, unsorted ends
        ([], ()),
    ],
)
def test_interval_set_constructor_cases(pieces, merged):
    # the merge every interval set of the module is built by
    starts, ends = _endpoints(pieces)
    assert _merged(starts, ends) == merged
    assert _merged(starts[::-1], ends[::-1]) == merged
    s = decimation._interval_set(*_lexsort_merge(starts, ends))
    assert s.intervals == merged
    assert len(s) == len(merged)
    assert list(s) == list(merged)
    assert (len(s) == 0) == (not merged)


# ------------------------------------------------------------ sigma intervals


def test_sigma_intervals_examples():
    full = sigma_intervals(1.0, math.pi, (0.0, 1.0))
    assert full.intervals == ((0.0, 1.0),)

    halves = sigma_intervals(1.0, math.pi / 2, (0.0, 1.0))
    assert len(halves) == 2
    np.testing.assert_allclose(halves.intervals, [(0.0, 0.25), (0.75, 1.0)])

    parts = sigma_intervals(2.0, math.pi / 2, (0.0, 1.0))
    assert len(parts) in (2, 3)
    for a, b in parts:
        assert b - a <= (math.pi / 2) / (math.pi * 2.0) + 1e-12


def test_sigma_intervals_count_and_length_bounds():
    # regime where the count window floor(|I| delta) .. +1 genuinely applies:
    # the fractional part of |I| delta plus alpha/pi must stay below one,
    # otherwise an interval can clip partial components at both ends.
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 1000:
        delta = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        alpha = rng.uniform(1e-3, math.pi * 0.999)
        a = rng.uniform(-10, 10)
        length = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
        if (length * delta) % 1.0 + alpha / math.pi >= 1.0:
            continue
        result = sigma_intervals(delta, alpha, (a, a + length))
        n = len(result)
        assert math.floor(length * delta) <= n <= math.floor(length * delta) + 1
        for lo, hi in result:
            assert hi - lo <= alpha / (math.pi * delta) + 1e-9
        checked += 1


def test_sigma_intervals_membership_matches_direct_evaluation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        delta = rng.uniform(0.2, 5.0)
        alpha = rng.uniform(0.05, 3.0)
        interval = (0.0, rng.uniform(1.0, 8.0))
        sigma = sigma_intervals(delta, alpha, interval)
        for lam in rng.uniform(*interval, 20):
            ang = abs(np.angle(np.exp(2j * np.pi * lam * delta)))
            if ang < alpha - 1e-9:
                assert any(a - 1e-12 <= lam <= b + 1e-12 for a, b in sigma)
            elif ang > alpha + 1e-9:
                assert not any(a + 1e-12 <= lam <= b - 1e-12 for a, b in sigma)


def test_sigma_intervals_match_reference_loop():
    # alpha at pi, or just below it, makes neighbouring pieces touch or
    # nearly touch, so the sweep must join them as the reference merge does
    rng = np.random.default_rng(4)
    for alpha_draw in (None, math.pi, math.nextafter(math.pi, 0)):
        for _ in range(300):
            delta = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
            alpha = rng.uniform(1e-3, math.pi) if alpha_draw is None else alpha_draw
            a = rng.uniform(-10, 10)
            b = a + float(np.exp(rng.uniform(np.log(1e-3), np.log(20.0))))
            expected = tuple(_reference_merge(_reference_sigma_pieces(delta, alpha, a, b)))
            assert sigma_intervals(delta, alpha, (a, b)).intervals == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta", [1e-310, 5e-324, 2.0**-1021, 1e-308])
@pytest.mark.parametrize("alpha", [0.1, 1.0 / 9, math.pi])
def test_sigma_intervals_of_a_separation_whose_reciprocal_overflows(delta, alpha):
    # 1/delta overflows (or nearly does): the only piece meeting a moderate
    # range is the one about 0, whose half-width exceeds the range
    assert sigma_intervals(delta, alpha, (10, 20)).intervals == ((10.0, 20.0),)
    assert sigma_intervals(delta, alpha, (-20, 20)).intervals == ((-20.0, 20.0),)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigma_intervals_keep_a_finite_half_width_at_a_tiny_separation():
    # the period 1/delta overflows but the half-width does not: the piece
    # about 0 keeps its exact half-width, which ends inside the range
    delta, alpha = 1e-310, 1e-300
    half_width = alpha / (2.0 * math.pi * delta)
    assert 0.0 < half_width < 1e12
    assert sigma_intervals(delta, alpha, (0.0, 1e12)).intervals == ((0.0, half_width),)
    assert len(sigma_intervals(delta, alpha, (2 * half_width, 1e12))) == 0


def test_sigma_intervals_build_up_to_the_piece_cap(monkeypatch):
    # delta 1 has one piece about each integer
    monkeypatch.setattr(decimation, "_MAX_PIECES", 10)
    assert len(sigma_intervals(1.0, 0.1, (0, 9))) == 10
    with pytest.raises(ValueError, match="gives 11 sigma-set pieces on"):
        sigma_intervals(1.0, 0.1, (0, 10))


@pytest.mark.parametrize(
    "delta, alpha, interval",
    [
        (0.0, 1.0, (0, 1)),
        (math.nan, 1.0, (0, 1)),
        (math.inf, 1.0, (0, 1)),
        (1.0, 0.0, (0, 1)),
        (1.0, 4.0, (0, 1)),
        (1.0, math.nan, (0, 1)),
        (1.0, 1.0, (1, 0)),
        (1.0, 1.0, (0, math.nan)),
        (1.0, 1.0, (-math.inf, 0)),
        # about 10 delta pieces meet [10, 20]: more than the cap, more than
        # int64 holds, more than float64 counts
        (1e9, 0.1, (10, 20)),
        (1e300, 0.1, (10, 20)),
        (1e308, 0.1, (10, 20)),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigma_intervals_rejects_bad_input(delta, alpha, interval):
    with pytest.raises(ValueError):
        sigma_intervals(delta, alpha, interval)


# --------------------------------------------------------- admissible lambdas


def _normalized_cluster(p, d, h_layout):
    nodes = make_clustered_nodes(standard_cluster_geometry(p, d, h_layout)) / (2 * math.pi)
    return nodes, ClusterGeometry.from_nodes(nodes, p)


def test_admissible_full_interval_when_all_nodes_cluster():
    geometry = ClusterGeometry(p=2, d=2, h=0.01, T=1.0, tau=1.0, eta=0.01, kappa=1)
    lam = admissible_lambdas([0.0, 0.01], geometry, 100.0)
    assert lam.intervals == ((100.0 / 6.0, 100.0 / 3.0),)


@pytest.mark.parametrize("pad", [0.0, 1e-12])
def test_admissible_full_interval_when_no_sigma_piece_meets_the_range(pad, monkeypatch):
    monkeypatch.setattr(decimation, "_PAD", pad)
    # a non-cluster pair, but omega so small that no piece reaches the range
    nodes = np.array([0.0, 0.001, 0.3])
    geometry = ClusterGeometry(p=2, d=3, h=0.001, T=0.3, tau=1.0, eta=0.001 / 0.3, kappa=1)
    for omega in np.linspace(1.0, 5.0, 9):
        lo, hi = omega / 10, omega / 5
        starts, _ = _sigma_pieces(np.array([0.299, 0.3]), 1 / 9, lo, hi)
        assert starts.size == 0
        got = admissible_lambdas(nodes, geometry, omega)
        assert got.intervals == ((lo, hi),)


def test_admissible_set_verifier():
    nodes, geometry = _normalized_cluster(2, 3, 0.001)
    omega = 200.0
    lam = admissible_lambdas(nodes, geometry, omega)
    assert len(lam) > 0
    d = geometry.d
    lo, hi = omega / (2 * (2 * d - 1)), omega / (2 * d - 1)
    rng = np.random.default_rng(3)

    # pairs j < k: both in the cluster, or at least one outside it
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    in_cluster = np.zeros(d, dtype=bool)
    in_cluster[geometry.cluster_slice] = True
    both = np.logical_and.outer(in_cluster, in_cluster)
    cluster_pairs, noncluster_pairs = upper & both, upper & ~both

    def angles(rate):
        z = np.exp(2j * np.pi * rate * nodes)
        return np.abs(np.angle(np.divide.outer(z, z)))

    accepted = 0
    while accepted < 200:
        rate = rng.uniform(lo, hi)
        if lam.contains(rate):
            ang = angles(rate)
            assert ang[noncluster_pairs].min() >= 1.0 / d**2
            assert (
                ang[cluster_pairs].min()
                >= 2 * np.pi * rate * geometry.tau * geometry.h - 1e-9
            )
            accepted += 1

    rejected = 0
    while rejected < 200:
        rate = rng.uniform(lo, hi)
        if not lam.contains(rate):
            assert angles(rate)[noncluster_pairs].min() <= 1.0 / d**2 + 1e-6
            rejected += 1


def _torus_eta(p, d, h_layout):
    """Non-cluster separation bound of the normalized layout with T = 1: the
    layout's closed-form eta (relative to T = pi) halved.  It equals the
    eta * T that from_nodes derives from the nodes, which the tests below
    check bit for bit."""
    return standard_cluster_geometry(p, d, h_layout).eta / 2.0


def test_admissible_excluded_measure_bound():
    nodes, geometry = _normalized_cluster(2, 3, 0.0001)
    d, eta = geometry.d, _torus_eta(2, 3, 0.0001)
    assert geometry.eta * geometry.T == eta
    omega = 2 * (2 * d - 1) / eta  # range length exactly 1/eta
    lam = admissible_lambdas(nodes, geometry, omega)
    lo, hi = omega / (2 * (2 * d - 1)), omega / (2 * d - 1)
    assert hi - lo == pytest.approx(1.0 / eta)
    excluded = (hi - lo) - sum(b - a for a, b in lam)
    alpha = 1.0 / d**2
    assert excluded <= d**2 * alpha / (2 * eta) + 1e-6


def test_admissible_guaranteed_interval_length():
    nodes, geometry = _normalized_cluster(2, 4, 0.0001)
    d, eta = geometry.d, _torus_eta(2, 4, 0.0001)
    assert geometry.eta * geometry.T == eta
    omega = 2 * (2 * d - 1) / eta
    lam = admissible_lambdas(nodes, geometry, omega)
    widest = max(b - a for a, b in lam.intervals)
    assert widest >= 1.0 / (2 * d**2 * eta)


def test_admissible_empty_set_error():
    # an absurdly large angular threshold excludes the entire range
    nodes, geometry = _normalized_cluster(2, 3, 0.001)
    with pytest.raises(EmptyAdmissibleSetError):
        admissible_lambdas(nodes, geometry, 200.0, alpha=math.pi * 0.999)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tiny", [1e-200, 1e-310, 5e-324])
def test_admissible_empty_when_a_noncluster_pair_never_separates(tiny):
    # nodes 0 and tiny map to nearly one point at every rate in [10, 20],
    # whether or not 1/tiny overflows
    geometry = ClusterGeometry(p=2, d=3, h=0.01, T=1.0, tau=0.5, eta=0.01, kappa=2)
    assert len(_sigma_pieces(np.array([tiny]), 1.0 / 9, 10.0, 20.0)[0]) > 0
    with pytest.raises(EmptyAdmissibleSetError):
        admissible_lambdas([0.0, tiny, 0.01], geometry, 100.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_admissible_rejects_a_separation_with_too_many_pieces():
    # about 1e301 pieces of the pair 1e300 apart meet [10, 20]
    geometry = ClusterGeometry(p=2, d=3, h=0.01, T=1e300, tau=1, eta=1e-302, kappa=2)
    with pytest.raises(ValueError, match=r"separation 1e\+300 gives 1e\+301 sigma-set pieces"):
        admissible_lambdas([-1e300, 0, 0.01], geometry, 100)


def test_admissible_rejects_omega_outside_cluster_condition():
    nodes, geometry = _normalized_cluster(2, 3, 0.001)
    with pytest.raises(ValueError):
        admissible_lambdas(nodes, geometry, 1e9)


def _jittered_layout(rng, p, d, h):
    """Standard layout with cluster extent h, its non-cluster nodes moved by up
    to a tenth of their spacing."""
    nodes, geometry = _normalized_cluster(p, d, 2 * math.pi * h)
    spacing = (nodes[-1] - nodes[p - 1]) / (d - p) if d > p else 0.0
    nodes[p:] += rng.uniform(-0.1, 0.1, d - p) * spacing
    return nodes, geometry


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
def test_admissible_matches_pair_by_pair_reference(p, d, monkeypatch):
    rng = np.random.default_rng(100 * p + d)
    empty = 0
    for omega in np.geomspace(50.0, 8000.0, 5):
        h = rng.uniform(0.3, 0.9) * (2 * d - 1) / 2.0 / omega
        nodes, geometry = _jittered_layout(rng, p, d, h)
        alphas = [1.0 / d**2, math.exp(rng.uniform(math.log(1.0 / d**2), math.log(1.5))),
                  1.5, 0.999 * math.pi]
        for alpha in alphas:
            for pad in (0.0, 1e-12):
                monkeypatch.setattr(decimation, "_PAD", pad)
                expected = _reference_admissible(nodes, geometry, omega, alpha, pad)
                if expected is None:
                    empty += 1
                    with pytest.raises(EmptyAdmissibleSetError):
                        admissible_lambdas(nodes, geometry, omega, alpha)
                else:
                    got = admissible_lambdas(nodes, geometry, omega, alpha)
                    assert got.intervals == expected
    if d > p:
        assert empty > 0  # alpha = 0.999 pi excludes every rate


def _layout_at(rng, p, d, kappa, h):
    """Nodes in [0, 1) with a p-node cluster of extent h, evenly spaced, at
    1-based index kappa; the other nodes are about 1/d apart, jittered."""
    in_cluster = np.zeros(d, dtype=bool)
    in_cluster[kappa - 1 : kappa - 1 + p] = True
    steps = np.where(in_cluster, h / (p - 1), rng.uniform(0.9, 1.1, d) / d)
    steps[kappa - 1] = rng.uniform(0.9, 1.1) / d  # the step into the cluster
    nodes = np.cumsum(steps) - steps[0]
    geometry = ClusterGeometry(
        p=p, d=d, h=h, T=1.0, tau=1.0 / (p - 1), eta=0.5 / d, kappa=kappa
    )
    return nodes, geometry


def test_admissible_and_predicted_factors_follow_every_cluster_position():
    # Layouts that share d but differ in p or kappa run one after another, so a
    # per-layout table cached under a key missing p or kappa gets reused for
    # the wrong cluster and the comparison fails.
    rng = np.random.default_rng(31)
    layouts = [
        (d, p, kappa)
        for d in range(4, 9)
        for p in (2, 3)
        for kappa in sorted({1, 2, d - p + 1})
    ]
    compared = 0
    for omega in (60.0, 400.0, 2500.0):
        for d, p, kappa in layouts:
            h = rng.uniform(0.3, 0.9) * (2 * d - 1) / 2.0 / omega
            nodes, geometry = _layout_at(rng, p, d, kappa, h)
            for alpha in (1.0 / d**2, 1.5):
                expected = _reference_admissible(nodes, geometry, omega, alpha, 1e-12)
                if expected is None:
                    with pytest.raises(EmptyAdmissibleSetError):
                        admissible_lambdas(nodes, geometry, omega, alpha)
                else:
                    got = admissible_lambdas(nodes, geometry, omega, alpha)
                    assert got.intervals == expected, (d, p, kappa, omega, alpha)
                    compared += 1
            srf_gap = omega * geometry.tau * h
            cluster_factors = ((1.0 / omega) * srf_gap ** (-2 * p + 2), srf_gap ** (-2 * p + 1))
            assert predicted_condition_numbers(geometry, omega) == [
                cluster_factors if kappa - 1 <= j < kappa - 1 + p else (1.0 / omega, 1.0)
                for j in range(d)
            ]
    assert compared > len(layouts)


def test_admissible_matches_composed_set_operations_on_scan_geometry(monkeypatch):
    # The decimation scan's geometry: p=3, d=8, omega geometric in [50, 8000],
    # omega*h in (0.3, 0.9) (2d-1)/2 and alpha log-uniform in [1/d^2, 1.5].
    p, d = 3, 8
    rng = np.random.default_rng(2024)
    compared = empty = 0
    for omega in np.geomspace(50.0, 8000.0, 150):
        h = rng.uniform(0.3, 0.9) * (2 * d - 1) / 2.0 / omega
        nodes, geometry = _normalized_cluster(p, d, 2 * math.pi * h)
        alpha = math.exp(rng.uniform(math.log(1.0 / d**2), math.log(1.5)))
        for pad in (0.0, 1e-12):
            monkeypatch.setattr(decimation, "_PAD", pad)
            expected = _composed_admissible(nodes, geometry, omega, alpha, pad)
            compared += 1
            if len(expected) == 0:
                empty += 1
                with pytest.raises(EmptyAdmissibleSetError):
                    admissible_lambdas(nodes, geometry, omega, alpha)
            else:
                got = admissible_lambdas(nodes, geometry, omega, alpha)
                assert got.intervals == expected
    assert compared == 300 and 0 < empty < compared


def test_admissible_bridges_single_point_exclusions(monkeypatch):
    # alpha so small that every sigma piece rounds to a single point: with no
    # pad the gaps on either side of each point join into one.
    monkeypatch.setattr(decimation, "_PAD", 0.0)
    nodes, geometry = _normalized_cluster(2, 3, 0.001)
    omega = 200.0
    got = admissible_lambdas(nodes, geometry, omega, alpha=1e-300)
    assert got.intervals == ((omega / 10, omega / 5),)
    assert got.intervals == _composed_admissible(nodes, geometry, omega, 1e-300, 0.0)


def _padded_pieces(nodes, geometry, omega, alpha, pad):
    """Padded sigma-set pieces of the non-cluster pairs over the rate range."""
    d = geometry.d
    gaps = np.abs(np.subtract.outer(nodes, nodes))
    seps = gaps[decimation._noncluster_pairs(d, geometry.kappa, geometry.p)]
    starts, ends = _sigma_pieces(seps, alpha, omega / (2.0 * (2 * d - 1)), omega / (2 * d - 1))
    return starts - pad, ends + pad


def test_admissible_matches_reference_where_the_pad_is_below_the_float_spacing(monkeypatch):
    # At omega 2e5 and 5e5 the rates lie above 2e4, where adjacent floats are
    # more than 2e-12 apart, so a 1e-12 pad leaves a piece of width 0 a single
    # point.  Such a piece excludes no interval, and the gaps either side of
    # it must join.
    p, d = 2, 3
    single_points = 0
    for omega in (2e5, 5e5):
        h = 0.5 * (2 * d - 1) / (2.0 * omega)
        nodes, geometry = _normalized_cluster(p, d, 2 * math.pi * h)
        for alpha in (1e-300, 1e-9, 1.0 / 9):
            for pad in (0.0, 1e-12):
                monkeypatch.setattr(decimation, "_PAD", pad)
                starts, ends = _padded_pieces(nodes, geometry, omega, alpha, pad)
                single_points += np.count_nonzero(starts == ends)
                expected = _reference_admissible(nodes, geometry, omega, alpha, pad)
                got = admissible_lambdas(nodes, geometry, omega, alpha)
                assert got.intervals == expected, (omega, alpha, pad)
                if alpha == 1e-300:
                    assert got.intervals == ((omega / 10, omega / 5),)
    assert single_points == 2 * (10_000 + 25_000)


def test_admissible_matches_reference_with_tied_piece_starts(monkeypatch):
    # Separations 1/4 (three pairs), 1/2 and 3/4 are dyadic, so their pieces
    # start at bit-identical rates: of a run of tied starts only the first can
    # close a gap, whatever order the sort leaves the run in.
    nodes = np.array([0.0, 1 / 128, 1 / 4, 1 / 2, 3 / 4])
    geometry = ClusterGeometry.from_nodes(nodes, 2)
    tied = 0
    for omega in (100.0, 300.0, 570.0):
        for alpha in (1 / 25, 0.5, 1.5):
            for pad in (0.0, 1e-12):
                monkeypatch.setattr(decimation, "_PAD", pad)
                starts, _ = _padded_pieces(nodes, geometry, omega, alpha, pad)
                tied += starts.size - np.unique(starts).size
                expected = _reference_admissible(nodes, geometry, omega, alpha, pad)
                if expected is None:
                    with pytest.raises(EmptyAdmissibleSetError):
                        admissible_lambdas(nodes, geometry, omega, alpha)
                else:
                    got = admissible_lambdas(nodes, geometry, omega, alpha)
                    assert got.intervals == expected, (omega, alpha, pad)
    assert tied == 340


@pytest.mark.parametrize(
    "change, message",
    [
        ({"omega": math.nan}, "omega must be finite"),
        ({"omega": math.inf}, "omega must be finite"),
        ({"omega": 0.0}, "omega must be positive"),
        ({"omega": -5.0}, "omega must be positive"),
        ({"alpha": 4.0}, "angular threshold"),
        ({"alpha": 0.0}, "angular threshold"),
        ({"alpha": math.nan}, "angular threshold"),
        ({"alpha": math.inf}, "angular threshold"),
        # non-cluster separations whose sigma sets have more pieces in the
        # range than are built: too many, too many for int64, too many for
        # float64
        ({"node": (2, 1e7)}, "sigma-set pieces"),
        ({"node": (2, 1e300)}, "sigma-set pieces"),
        ({"node": (2, 1e308)}, "sigma-set pieces"),
        ({"node": (2, math.nan)}, "nodes must be finite"),
        ({"node": (2, math.inf)}, "nodes must be finite"),
        ({"node": (2, None)}, "node separation must be positive"),  # non-cluster pair
        ({"node": (1, None)}, "node separation must be positive"),  # cluster pair
    ],
)
def test_admissible_rejects_bad_input(change, message):
    nodes, geometry = _normalized_cluster(2, 3, 0.001)
    args = {"omega": 200.0, "alpha": None}
    args.update({k: v for k, v in change.items() if k != "node"})
    if "node" in change:
        index, value = change["node"]
        nodes[index] = nodes[index - 1] if value is None else value
    with pytest.raises(ValueError, match=message):
        admissible_lambdas(nodes, geometry, args["omega"], args["alpha"])


@pytest.mark.parametrize("count", [2, 4])
def test_admissible_rejects_node_count_other_than_d(count):
    nodes, geometry = _normalized_cluster(2, 3, 0.001)
    nodes = np.append(nodes, nodes[-1] + 0.1)[:count]
    with pytest.raises(ValueError, match="node count does not match the geometry"):
        admissible_lambdas(nodes, geometry, 200.0)


# ------------------------------------------------- confluent Vandermonde etc.


def test_confluent_vandermonde_examples():
    np.testing.assert_allclose(decimation._confluent(np.array([1.0 + 0j])), [[1, 0], [1, 1]])
    m = decimation._confluent(np.array([1.0, -1.0], dtype=complex))
    np.testing.assert_allclose(
        m,
        [
            [1, 1, 0, 0],
            [1, -1, 1, 1],
            [1, 1, 2, -2],
            [1, -1, 3, 3],
        ],
    )
    assert abs(np.linalg.det(m)) > 1e-9


def test_gautschi_bounds_pair_example():
    report = gautschi_bounds([1.0, -1.0])
    np.testing.assert_allclose(report.delta, [0.5, 0.5])
    np.testing.assert_allclose(report.gamma, [1.0, 1.0])
    np.testing.assert_allclose(report.amplitude_row_bounds, [3.0, 3.0])
    np.testing.assert_allclose(report.node_row_bounds, [2.0, 2.0])
    assert np.all(report.empirical_amplitude_row_norms <= report.amplitude_row_bounds)
    assert np.all(report.empirical_node_row_norms <= report.node_row_bounds)


def test_gautschi_bounds_single_node_conventions():
    report = gautschi_bounds([0.7 + 0.2j])
    assert report.delta[0] == 0.0
    assert report.gamma[0] == 1.0
    assert report.amplitude_row_bounds[0] == pytest.approx(1.0)
    assert report.node_row_bounds[0] == pytest.approx(1.0 + abs(0.7 + 0.2j))


def test_gautschi_bounds_match_reference_loop():
    # Summation order is unchanged; complex moduli may round differently in
    # the last place, so gamma and the bounds agree to a few ulps.
    rng = np.random.default_rng(18)
    for _ in range(500):
        d = int(rng.integers(1, 9))
        z = rng.uniform(0.5, 2.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        if d > 1 and np.abs(z[:, None] - z[None, :])[~np.eye(d, dtype=bool)].min() < 1e-3:
            continue
        delta, gamma = _reference_gautschi(z)
        report = gautschi_bounds(z)
        np.testing.assert_allclose(report.delta, delta, rtol=1e-14)
        np.testing.assert_allclose(report.gamma, gamma, rtol=1e-14)
        modulus = np.abs(z)
        np.testing.assert_allclose(
            report.amplitude_row_bounds, (1 + 2 * (1 + modulus) * delta) * gamma, rtol=1e-14
        )
        np.testing.assert_allclose(report.node_row_bounds, (1 + modulus) * gamma, rtol=1e-14)


def _two_table_confluent_vandermonde(z):
    """The former confluent Vandermonde: a second power table for the
    derivative block, joined to the plain block with hstack."""
    w = np.atleast_1d(np.asarray(z, dtype=complex))
    d = len(w)
    k = np.arange(2 * d)
    plain = np.power.outer(w, k).T
    deriv = k[:, None] * np.power.outer(w, np.maximum(k - 1, 0)).T
    deriv[0, :] = 0.0
    return np.hstack([plain, deriv])


def _eager_gautschi(z):
    """The former gautschi_bounds, which took the condition number eagerly;
    returns its seven fields in the report's order."""
    w = np.atleast_1d(np.asarray(z, dtype=complex))
    d = len(w)
    off = ~np.eye(d, dtype=bool)
    partner_gaps = np.abs(w[:, None] - w[None, :])[off].reshape(d, d - 1)
    modulus = np.abs(w)
    partner_moduli = np.broadcast_to(modulus, (d, d))[off].reshape(d, d - 1)
    delta = np.sum(1.0 / partner_gaps, axis=1)
    gamma = np.prod((1.0 + partner_moduli) / partner_gaps, axis=1) ** 2
    amp_bounds = (1.0 + 2.0 * (1.0 + modulus) * delta) * gamma
    node_bounds = (1.0 + modulus) * gamma
    matrix = _two_table_confluent_vandermonde(w)
    row_norms = np.abs(np.linalg.inv(matrix)).sum(axis=1)
    return (
        delta, gamma, amp_bounds, node_bounds, row_norms[:d], row_norms[d:],
        float(np.linalg.cond(matrix)),
    )


_REPORT_ARRAYS = (
    "delta",
    "gamma",
    "amplitude_row_bounds",
    "node_row_bounds",
    "empirical_amplitude_row_norms",
    "empirical_node_row_norms",
)


def _assert_matches_eager(z):
    w = np.atleast_1d(np.asarray(z, dtype=complex))
    assert decimation._confluent(w).tobytes() == _two_table_confluent_vandermonde(z).tobytes()
    *arrays, cond = _eager_gautschi(z)
    report = gautschi_bounds(z)
    for name, expected in zip(_REPORT_ARRAYS, arrays):
        got = getattr(report, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
    assert type(report.condition_number) is float
    assert report.condition_number == cond


@pytest.mark.parametrize("d", range(1, 9))
def test_gautschi_matches_eager_two_table_reference(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(40):
        z = rng.uniform(0.5, 2.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        _assert_matches_eager(z)
        _assert_matches_eager(np.exp(1j * np.sort(rng.uniform(0, 2 * np.pi, d))))
    # a node at the origin: 0**0 is 1 in both power tables
    _assert_matches_eager(np.concatenate(([0.0], np.exp(2j * np.pi * np.arange(1, d) / d))))


def test_gautschi_matches_eager_reference_on_scan_geometry():
    # Mapped nodes as the decimation scan builds them: p=3, d=8, the midpoint
    # of the widest admissible interval (of the whole range when it is empty).
    p, d = 3, 8
    rng = np.random.default_rng(2025)
    for omega in np.geomspace(50.0, 8000.0, 300):
        h = rng.uniform(0.3, 0.9) * (2 * d - 1) / 2.0 / omega
        nodes, geometry = _normalized_cluster(p, d, 2 * math.pi * h)
        alpha = math.exp(rng.uniform(math.log(1.0 / d**2), math.log(1.5)))
        try:
            intervals = admissible_lambdas(nodes, geometry, omega, alpha).intervals
        except EmptyAdmissibleSetError:
            intervals = ((omega / (2.0 * (2 * d - 1)), omega / (2 * d - 1)),)
        widest = max(intervals, key=lambda ab: ab[1] - ab[0])
        _assert_matches_eager(np.exp(2j * np.pi * 0.5 * (widest[0] + widest[1]) * nodes))


def test_gautschi_condition_number_computed_on_first_read(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counting_cond(*args, **kwargs):
        calls.append(args)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    z = np.exp(2j * np.pi * np.array([0.0, 0.01, 0.3, 0.6]))
    report = gautschi_bounds(z)
    assert calls == []
    first = report.condition_number
    assert report.condition_number == first and len(calls) == 1
    assert first == _eager_gautschi(z)[-1]
    assert not report._matrix.flags.writeable


def test_gautschi_report_equality_is_identity():
    z = np.exp(2j * np.pi * np.array([0.0, 0.01, 0.3]))
    report = gautschi_bounds(z)
    assert (report == report) is True
    assert (report == gautschi_bounds(z)) is False


def test_gautschi_dominance_property():
    rng = np.random.default_rng(17)
    done = 0
    while done < 500:
        d = int(rng.integers(1, 6))
        z = rng.uniform(0.5, 2.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        if d > 1:
            gaps = np.abs(z[:, None] - z[None, :])[~np.eye(d, dtype=bool)]
            if gaps.min() < 0.05:
                continue
        report = gautschi_bounds(z)
        tol = 1e-9 * max(1.0, report.amplitude_row_bounds.max())
        assert np.all(
            report.empirical_amplitude_row_norms <= report.amplitude_row_bounds + tol
        )
        assert np.all(
            report.empirical_node_row_norms <= report.node_row_bounds + tol
        )
        done += 1


def test_gautschi_rejects_near_coincident():
    with pytest.raises(NearCoincidentNodesError):
        gautschi_bounds([1.0, 1.0 + 1e-14])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
def test_gautschi_rejects_non_finite_nodes_before_any_solve(bad, monkeypatch):
    def no_solve(*_args):
        raise AssertionError("solve reached")

    monkeypatch.setattr(np.linalg, "inv", no_solve)
    for z in ([1.0, bad], [bad], [bad, 1j, -1.0]):
        with pytest.raises(ValueError, match="nodes must be finite"):
            gautschi_bounds(z)


@pytest.mark.parametrize("z", [[], [[1.0, 2.0], [3.0, 4.0]]])
def test_gautschi_rejects_empty_or_non_1d_nodes_before_any_work(z, monkeypatch):
    def untouched(*_args):
        raise AssertionError("per-d table reached")

    monkeypatch.setattr(decimation, "_partner_columns", untouched)
    monkeypatch.setattr(decimation, "_confluent_factors", untouched)
    with pytest.raises(ValueError, match="nodes z must be a non-empty 1-D array"):
        gautschi_bounds(z)


@pytest.mark.parametrize("z", [[], [[1.0, 2.0], [3.0, 4.0]]])
def test_confluent_vandermonde_rejects_empty_or_non_1d_nodes(z, monkeypatch):
    # gautschi_bounds is the one caller that builds the confluent matrix, and
    # it names the rejected shape before the matrix is reached
    def untouched(*_args):
        raise AssertionError("confluent matrix reached")

    monkeypatch.setattr(decimation, "_confluent", untouched)
    message = re.escape(f"non-empty 1-D array, got shape {np.shape(z)}")
    with pytest.raises(ValueError, match=message):
        gautschi_bounds(z)


def test_per_layout_tables_are_shared_read_only():
    # one array per layout serves every call, so no caller may write to it
    tables = (
        decimation._noncluster_pairs(6, 2, 3),
        decimation._partner_columns(5),
        *decimation._confluent_factors(4),
    )
    assert all(not table.flags.writeable for table in tables)
    assert decimation._partner_columns(5) is tables[1]


# --------------------------------------------------- predicted scaling shapes


def test_predicted_condition_numbers_examples():
    geometry = ClusterGeometry(p=2, d=3, h=0.01, T=1.0, tau=1.0, eta=0.2, kappa=1)
    omega = 10.0  # omega tau h = 0.1
    factors = predicted_condition_numbers(geometry, omega)
    node, amp = factors[0]
    assert node == pytest.approx(100.0 / omega)
    assert amp == pytest.approx(1000.0)
    node_out, amp_out = factors[2]
    assert node_out == pytest.approx(1.0 / omega)
    assert amp_out == pytest.approx(1.0)

    boundary = ClusterGeometry(p=2, d=3, h=0.1, T=1.0, tau=1.0, eta=0.2, kappa=1)
    factors = predicted_condition_numbers(boundary, 10.0)  # omega tau h = 1
    assert factors[0] == pytest.approx(factors[2])


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_predicted_condition_numbers_rejects_bad_omega(omega):
    geometry = ClusterGeometry(p=2, d=3, h=0.01, T=1.0, tau=1.0, eta=0.2, kappa=1)
    with pytest.raises(ValueError, match="omega must be finite and positive"):
        predicted_condition_numbers(geometry, omega)


@pytest.mark.parametrize(
    "p, h, T, omega",
    [
        (3, 1e-200, 1.0, 1e-100),  # a power overflows
        (3, 1e-200, 1.0, 5e-324),  # omega tau h underflows to 0
        (2, 1e9, 1e9, 1e-110),  # finite powers whose product overflows
    ],
)
def test_predicted_condition_numbers_rejects_a_tiny_omega_tau_h(p, h, T, omega):
    geometry = ClusterGeometry(p=p, d=5, h=h, T=T, tau=0.5, eta=0.2, kappa=1)
    with pytest.raises(ValueError, match="omega tau h"):
        predicted_condition_numbers(geometry, omega)


# ------------------------------------------------------ CPython tuple reuse


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="CPython's tuple free lists"
)
def test_interval_sets_leave_no_tuples_behind():
    # A tuple built from an unsized iterator starts at a guessed size and is
    # resized; once freed it parks on the free list of its final size, which
    # nothing here draws from again, so each call would keep a block.  A full
    # collection empties those lists, so nothing here calls gc.collect().
    p, d = 3, 8
    calls = [(sigma_intervals, (1.0, 0.1, (0.5, k + 0.5))) for k in range(1, 20)]
    for omega in np.geomspace(50.0, 400.0, 40).tolist():
        for alpha in (1.0 / d**2, 0.05, 0.2, 0.6):
            h = 0.6 * (2 * d - 1) / 2.0 / omega
            nodes, geometry = _normalized_cluster(p, d, 2 * math.pi * h)
            try:
                size = len(admissible_lambdas(nodes, geometry, omega, alpha))
            except EmptyAdmissibleSetError:
                continue
            if size < 20:
                calls.append((admissible_lambdas, (nodes, geometry, omega, alpha)))
    assert {len(f(*args)) for f, args in calls} == set(range(1, 20))

    def run():
        for _ in range(20):
            for f, args in calls:
                f(*args)

    run()  # warm-up
    before = sys.getallocatedblocks()
    run()
    assert sys.getallocatedblocks() - before < 100
