"""Tests of the benchmark's own code: each check rejects a planted wrong
answer, the generators are deterministic per seed, the tail percentile
keeps ten samples beyond it, and the calibration scaling and the
operation log do what the benchmark relies on.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import bench
import checks
import workloads as wl
from repro.core.samplers import EpsilonDFSSampler, EtaBFSSampler
from repro.graph.events import EventStream
from repro.graph.neighbor_finder import NeighborFinder
from repro.serve.dynamic_finder import DynamicNeighborFinder

SHAPE = wl.Shape(users=300, items=40, events=3000, hubs=True,
                 probe_rounds=3)


@pytest.fixture(scope="module")
def graph():
    raw = wl.history(SHAPE, seed=5)
    events = checks.Events(raw["src"], raw["dst"], raw["timestamps"])
    stream = EventStream(raw["src"], raw["dst"], raw["timestamps"],
                         int(raw["num_nodes"]))
    return events, stream, NeighborFinder(stream)


def hub(events):
    degree = np.bincount(np.concatenate([events.src, events.dst]))
    return int(np.argmax(degree))


# -- generators --------------------------------------------------------

def test_generators_are_deterministic_per_seed():
    a, b = wl.history(SHAPE, 1), wl.history(SHAPE, 1)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])
    assert not np.array_equal(a["dst"], wl.history(SHAPE, 2)["dst"])
    r1 = wl.serving_round(SHAPE, 1, 4)
    r2 = wl.serving_round(SHAPE, 1, 4)
    np.testing.assert_array_equal(r1.dst, r2.dst)
    for x, y in zip(r1.embed_nodes, r2.embed_nodes):
        np.testing.assert_array_equal(x, y)


def test_probe_groups_do_not_depend_on_the_seed():
    for seed in (1, 2):
        raw = wl.history(SHAPE, seed)
        users, writers, items = SHAPE.probe_group(1)
        mask = np.isin(raw["src"], SHAPE.probe_users)
        np.testing.assert_array_equal(raw["timestamps"][mask],
                                      np.repeat([1.0, 2.0], SHAPE.reserved))
        assert np.isin(users, raw["src"]).all()
        assert not np.isin(writers, raw["src"]).any()
        assert np.isin(items, raw["dst"]).all()


def test_serving_rounds_stay_in_time_order():
    rounds = [wl.serving_round(SHAPE, 3, i) for i in range(3)]
    last = wl.TIME_SPAN
    for rnd in rounds:
        assert rnd.ts[0] >= last and rnd.ts[-1] < rnd.query_t
        assert rnd.query_t < rnd.probe_ingest_t < rnd.probe_t
        last = rnd.probe_ingest_t


# -- (a) chi-square over eta-BFS draws -----------------------------------

@pytest.mark.parametrize("mode", ["chronological", "reverse"])
def test_chi2_accepts_sampler_and_rejects_uniform_draw(graph, mode):
    events, _, finder = graph
    root = hub(events)
    t = float(events.ts[-1]) + 1.0
    nodes, probs = checks.eta_node_probs(events, root, t, 0.2, mode)
    sampler = EtaBFSSampler(finder, eta=1, depth=1, probability=mode)
    rng = np.random.default_rng(0)
    drawn = sampler.sample_batch(np.full(4000, root), np.full(4000, t),
                                 rng=rng).nodes
    counts = checks.draw_counts(drawn, nodes)
    assert checks.chi2_pvalue(counts, probs) > checks.CHI2_MIN_P
    peers, _ = events.before(root, t)
    uniform = rng.choice(peers, size=4000)
    assert checks.chi2_pvalue(checks.draw_counts(uniform, nodes),
                              probs) < checks.CHI2_MIN_P


def test_draw_counts_rejects_a_non_neighbour():
    assert checks.draw_counts(np.array([1, 9]), np.array([1, 2, 3])) is None


# -- (b) reachability and fan-out ----------------------------------------

def test_reach_rejects_a_future_neighbour(graph):
    events, _, finder = graph
    k = len(events.ts) // 2
    root, t = int(events.src[k]), float(events.ts[k])
    row = EtaBFSSampler(finder, 3, 2).sample_batch(
        np.array([root]), np.array([t]), rng=np.random.default_rng(1)).row(0)
    assert checks.reach_violations(events, np.array([root]), np.array([t]),
                                   [row], depth=2, width=3) == []
    later = events.dst[k:][events.src[k:] == root]
    future = np.setdiff1d(later, events.peers_of(np.array([root]), t))
    assert len(future), "fixture has no future-only neighbour"
    planted = np.append(row, future[0])
    assert checks.reach_violations(events, np.array([root]), np.array([t]),
                                   [planted], depth=1, width=50)


def test_reach_rejects_a_row_over_the_fanout_bound(graph):
    events, _, _ = graph
    root = hub(events)
    t = float(events.ts[-1]) + 1.0
    peers = events.peers_of(np.array([root]), t)[:5]
    assert checks.reach_violations(events, np.array([root]), np.array([t]),
                                   [peers], depth=1, width=4)


# -- (c) eps-DFS first hop -----------------------------------------------

def test_eps_first_hop_matches_and_rejects_an_older_neighbour(graph):
    events, _, finder = graph
    root = hub(events)
    t = float(events.ts[len(events.ts) // 2])
    got = EpsilonDFSSampler(finder, 5, 1).sample_batch(
        np.array([root]), np.array([t])).row(0)
    assert checks.eps_mismatches(events, np.array([root]), np.array([t]),
                                 [got], 5) == []
    peers, _ = events.before(root, t)
    older = np.setdiff1d(peers[:-5], got)
    planted = np.append(got[:-1], older[0])
    assert checks.eps_mismatches(events, np.array([root]), np.array([t]),
                                 [planted], 5)
    # A depth-2 row starts with the same first hop and passes.
    deep = EpsilonDFSSampler(finder, 5, 2).sample_batch(
        np.array([root]), np.array([t])).row(0)
    assert len(deep) > len(got)
    assert checks.eps_mismatches(events, np.array([root]), np.array([t]),
                                 [deep], 5) == []
    swapped = deep.copy()
    swapped[[0, len(got)]] = swapped[[len(got), 0]]
    assert checks.eps_mismatches(events, np.array([root]), np.array([t]),
                                 [swapped], 5)


# -- (d) serving answers ---------------------------------------------------

def test_rows_accept_ulp_noise_and_reject_a_perturbed_row():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal((6, 16)).astype(np.float32)
    noisy = ref.copy()
    noisy[2, 3] = np.nextafter(noisy[2, 3], np.float32(10))
    assert not checks.rows_disagree(noisy, ref).any()
    bad = ref.copy()
    bad[4, 7] += 1e-3
    np.testing.assert_array_equal(checks.rows_disagree(bad, ref),
                                  [False] * 4 + [True, False])


def test_topk_rejects_wrong_scores_order_and_foreign_ids():
    rng = np.random.default_rng(1)
    catalog = np.arange(10, 30)
    rows = {i: rng.standard_normal(4).astype(np.float32) for i in catalog}
    src = rng.standard_normal(4).astype(np.float32)
    scores = {i: float(np.dot(rows[i], src)) for i in catalog}
    best = sorted(catalog, key=lambda i: -scores[i])[:3]
    good = np.array([scores[i] for i in best])
    ids = np.array(best)
    assert checks.topk_problems(ids, good, src, rows, catalog, 3) == []
    assert checks.topk_problems(ids, good + 0.1, src, rows, catalog, 3)
    assert checks.topk_problems(ids[::-1], good[::-1], src, rows, catalog, 3)
    foreign = ids.copy()
    foreign[1] = 99
    assert checks.topk_problems(foreign, good, src, rows, catalog, 3)
    assert checks.topk_problems(ids[:2], good[:2], src, rows, catalog, 3)


def test_recall_rejects_a_top_k_without_search():
    rng = np.random.default_rng(2)
    catalog = np.arange(100, 2100)
    exact = rng.standard_normal(len(catalog))
    best = catalog[np.argsort(-exact)[:10]]
    assert checks.recall_at_k(best, exact, catalog, 10) == 1.0
    # The best ten of a shortlist taken without a search.
    shortlist = catalog[:128]
    unsearched = shortlist[np.argsort(-exact[:128])[:10]]
    assert checks.recall_at_k(unsearched, exact, catalog,
                              10) < bench.SEARCH_GAIN * 128 / len(catalog)


def test_recall_counts_ties_as_hits():
    catalog = np.arange(6)
    exact = np.array([5.0, 4.0, 4.0, 4.0, 1.0, 0.0])
    assert checks.recall_at_k(np.array([0, 3]), exact, catalog, 2) == 1.0
    assert checks.recall_at_k(np.array([0, 4]), exact, catalog, 2) == 0.5


def test_neighbours_reject_a_stale_csr(graph):
    events, stream, _ = graph
    live = checks.Events([0, 1, 0], [SHAPE.first_item] * 3,
                         wl.TIME_SPAN + np.array([1.0, 2.0, 3.0]))
    everything = events.extend(live.src, live.dst, live.ts)
    finder = DynamicNeighborFinder(NeighborFinder(stream))
    finder.append(live.src[:2], live.dst[:2], live.ts[:2])
    nodes = np.array([0, SHAPE.first_item, 5])
    ts = np.full(3, wl.TIME_SPAN + 10.0)
    stale = checks.neighbour_mismatches(finder.before, everything, nodes, ts)
    assert len(stale) == 2
    finder.append(live.src[2:], live.dst[2:], live.ts[2:])
    assert checks.neighbour_mismatches(finder.before, everything, nodes,
                                       ts) == []


# -- latency summaries -----------------------------------------------------

@pytest.mark.parametrize("n", [11, 40, 41, 640, 4800])
def test_tail_keeps_ten_samples_beyond_it(n):
    samples = np.random.default_rng(n).permutation(n).astype(float)
    _, tail = checks.p50_and_tail(samples)
    assert int((samples > tail).sum()) == 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        checks.p50_and_tail(np.arange(10.0))


# -- the benchmark's own machinery ------------------------------------------

def test_calibration_scales_by_the_samples_around_a_phase():
    cal = bench.Calibration()
    cal.samples = [0.5, 0.25, 0.125]
    assert cal.factor(0, 1) == pytest.approx(cal.REFERENCE_S / 0.375)
    assert cal.factor(1, 2) == pytest.approx(cal.REFERENCE_S / 0.1875)
    cal.slices = [1.0 / cal.SLICE] * 3 + [2.0 / cal.SLICE] * 3
    assert cal.slice_factor(0, 3) == pytest.approx(cal.REFERENCE_S)
    assert cal.slice_factor(3, 6) == pytest.approx(cal.REFERENCE_S / 2)


def test_op_log_reads_back_every_op_in_order(tmp_path):
    log = bench.OpLog(str(tmp_path / "ops.pickle"))
    for i in range(5):
        log.append(("embed", np.arange(i), float(i), ValueError(i), False))
        if i % 2:
            log.flush()
    assert len(log) == 5
    for _ in range(2):
        ops = list(log)
        assert [op[2] for op in ops] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert isinstance(ops[3][3], ValueError)
    log.close()
