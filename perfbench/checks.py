"""Checks of the program's answers, computed from the raw event arrays.

Every reference here is plain numpy over ``(src, dst, ts)`` — the
time-sorted event arrays the benchmark generated — and never calls the
program.  Each function returns what it found wrong, so a caller (and
the tests in ``tests/``) can plant a wrong answer and see it rejected.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import chi2

# Rows of one request agree when every element is within this many
# float32 epsilons of the row's scale.  Embeddings are not bit-stable
# under a change of batch composition (BLAS picks other kernels for
# other row counts), which moves an element by one or two ulps; a stale
# or wrong row is off by orders of magnitude more.
ROW_ULPS = 64
CHI2_MIN_P = 1e-6


class Events:
    """Time-sorted raw events with before-``t`` prefix queries."""

    def __init__(self, src, dst, ts):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.ts = np.asarray(ts, dtype=np.float64)
        if np.any(np.diff(self.ts) < 0):
            raise ValueError("events must be sorted by time")

    def extend(self, src, dst, ts) -> "Events":
        return Events(np.concatenate([self.src, src]),
                      np.concatenate([self.dst, dst]),
                      np.concatenate([self.ts, ts]))

    def before(self, node: int, t: float):
        """``(peers, times)`` of ``node``'s events strictly before ``t``,
        in event order."""
        k = int(np.searchsorted(self.ts, t, side="left"))
        src, dst = self.src[:k], self.dst[:k]
        hit = (src == node) | (dst == node)
        peers = np.where(src[hit] == node, dst[hit], src[hit])
        return peers, self.ts[:k][hit]

    def peers_of(self, nodes: np.ndarray, t: float) -> np.ndarray:
        """Every node that shares an event before ``t`` with ``nodes``."""
        k = int(np.searchsorted(self.ts, t, side="left"))
        src, dst = self.src[:k], self.dst[:k]
        return np.union1d(dst[np.isin(src, nodes)], src[np.isin(dst, nodes)])


# ----------------------------------------------------------------------
# (a) η-BFS draws follow Eq. 7 / Eq. 8
# ----------------------------------------------------------------------

def eta_node_probs(events: Events, root: int, t: float, tau: float,
                   mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-neighbour probability of a one-hop, η = 1 draw (Eq. 6–8).

    Returns ``(nodes, probs)``; a neighbour met several times gets the
    sum of its events' probabilities.
    """
    peers, times = events.before(root, t)
    t_min = times.min()
    recency = (times - t_min) / (t - t_min)
    logits = recency / tau if mode == "chronological" \
        else (1.0 - recency) / tau
    weights = np.exp(logits - logits.max())
    nodes, inverse = np.unique(peers, return_inverse=True)
    probs = np.bincount(inverse, weights=weights) / weights.sum()
    return nodes, probs


def chi2_pvalue(observed: np.ndarray, probs: np.ndarray) -> float:
    """Pearson χ² p-value of ``observed`` counts against ``probs``.

    Categories are pooled, rarest first, until each pool expects at
    least five draws.
    """
    total = observed.sum()
    order = np.argsort(probs, kind="stable")
    exp_pools, obs_pools = [], []
    acc_e = acc_o = 0.0
    for i in order:
        acc_e += probs[i] * total
        acc_o += observed[i]
        if acc_e >= 5.0:
            exp_pools.append(acc_e)
            obs_pools.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e > 0 and exp_pools:
        exp_pools[-1] += acc_e
        obs_pools[-1] += acc_o
    if len(exp_pools) < 2:
        return 1.0
    e = np.asarray(exp_pools)
    o = np.asarray(obs_pools)
    stat = float(((o - e) ** 2 / e).sum())
    return float(chi2.sf(stat, len(e) - 1))


def draw_counts(drawn: np.ndarray, nodes: np.ndarray) -> np.ndarray | None:
    """Counts of ``drawn`` ids per entry of sorted ``nodes``; ``None``
    when a draw is not a neighbour at all."""
    pos = np.searchsorted(nodes, drawn)
    if np.any(pos >= len(nodes)) or np.any(nodes[np.minimum(
            pos, len(nodes) - 1)] != drawn):
        return None
    return np.bincount(pos, minlength=len(nodes)).astype(np.float64)


# ----------------------------------------------------------------------
# (b) sampled nodes are reachable before t, within the fan-out bound
# ----------------------------------------------------------------------

def reach_violations(events: Events, roots: np.ndarray, ts: np.ndarray,
                     rows: list[np.ndarray], depth: int,
                     width: int) -> list[str]:
    """Rows holding a node not reachable from its root through events
    strictly before the row's time within ``depth`` hops, or holding
    more nodes than ``width + width**2 + ... + width**depth``."""
    bound = sum(width ** h for h in range(1, depth + 1))
    problems = []
    for root, t, row in zip(roots.tolist(), ts.tolist(), rows):
        if len(row) > bound:
            problems.append(f"root {root} t={t}: {len(row)} nodes > {bound}")
            continue
        if len(row) == 0:
            continue
        reached = frontier = np.array([root], dtype=np.int64)
        for _ in range(depth):
            frontier = np.setdiff1d(events.peers_of(frontier, t), reached)
            reached = np.union1d(reached, frontier)
        stray = np.setdiff1d(row, reached)
        if len(stray):
            problems.append(f"root {root} t={t}: unreachable {stray[:5]}")
    return problems


# ----------------------------------------------------------------------
# (c) the ε-DFS first hop is the ε most recent neighbours before t
# ----------------------------------------------------------------------

def most_recent_first_hop(events: Events, root: int, t: float,
                          epsilon: int) -> np.ndarray:
    """Distinct peers of the ``epsilon`` latest events before ``t``, in
    chronological order of first appearance, root excluded."""
    peers, _ = events.before(root, t)
    recent = peers[-epsilon:] if epsilon else peers[:0]
    _, first = np.unique(recent, return_index=True)
    out = recent[np.sort(first)]
    return out[out != root]


def eps_mismatches(events: Events, roots: np.ndarray, ts: np.ndarray,
                   rows: list[np.ndarray], epsilon: int) -> list[str]:
    """Rows of an ε-DFS subgraph whose leading entries — the distinct
    first-hop picks — are not the ``epsilon`` most recent neighbours."""
    problems = []
    for root, t, row in zip(roots.tolist(), ts.tolist(), rows):
        want = most_recent_first_hop(events, root, t, epsilon)
        head = np.asarray(row)[:len(want)]
        if not np.array_equal(head, want):
            problems.append(f"root {root} t={t}: got {head[:5]}, "
                            f"want {want[:5]}")
    return problems


# ----------------------------------------------------------------------
# (d) serving answers against the cache-free replica
# ----------------------------------------------------------------------

def rows_disagree(served: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-row mask of rows that differ beyond ``ROW_ULPS`` float32
    epsilons of the row's scale."""
    served = np.asarray(served, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if served.shape != reference.shape:
        return np.ones(len(reference), dtype=bool)
    scale = np.maximum(np.abs(reference).max(axis=1), 1.0)
    tol = ROW_ULPS * float(np.finfo(np.float32).eps) * scale
    return np.abs(served - reference).max(axis=1) > tol


def topk_problems(ids: np.ndarray, scores: np.ndarray, src_row: np.ndarray,
                  rows: dict, catalog: np.ndarray, k: int) -> list[str]:
    """A top-k answer must be ``k`` distinct ``catalog`` ids, best first,
    whose scores equal the dot products of the reference ``rows``."""
    ids = np.asarray(ids)
    if len(ids) != k or len(np.unique(ids)) != k:
        return [f"expected {k} distinct ids, got {ids}"]
    missing = ids[~np.isin(ids, catalog)]
    if len(missing):
        return [f"ids outside the catalog: {missing[:5]}"]
    want = np.array([float(np.dot(rows[i].astype(np.float64),
                                  src_row.astype(np.float64)))
                     for i in ids.tolist()])
    tol = ROW_ULPS * float(np.finfo(np.float32).eps) \
        * max(1.0, float(np.abs(want).max()))
    if np.abs(np.asarray(scores, dtype=np.float64) - want).max() > tol:
        return [f"scores {scores} differ from dot products {want}"]
    if np.any(np.diff(scores) > tol):
        return ["scores not in descending order"]
    return []


def recall_at_k(ids: np.ndarray, exact_scores: np.ndarray,
                catalog: np.ndarray, k: int) -> float:
    """Share of served ids whose exact score reaches the exact k-th best
    (ties count as hits, so any valid top-k scores 1.0)."""
    kth = np.sort(exact_scores)[-k]
    score_of = dict(zip(catalog.tolist(), exact_scores.tolist()))
    tol = ROW_ULPS * float(np.finfo(np.float32).eps) * max(1.0, abs(kth))
    hits = sum(score_of.get(i, -np.inf) >= kth - tol for i in ids.tolist())
    return hits / k


def neighbour_mismatches(before, events: Events, nodes: np.ndarray,
                         ts: np.ndarray) -> list[str]:
    """``before(node, t) -> (peers, times, ...)`` must list exactly the
    raw events of ``node`` strictly before ``t``, in event order."""
    problems = []
    for node, t in zip(nodes.tolist(), ts.tolist()):
        got = before(node, t)
        peers, times = events.before(node, t)
        if not (np.array_equal(np.asarray(got[0]), peers)
                and np.array_equal(np.asarray(got[1]), times)):
            problems.append(f"node {node} t={t}: {len(got[0])} events, "
                            f"want {len(peers)}")
    return problems


# ----------------------------------------------------------------------
# latency summaries
# ----------------------------------------------------------------------

def tail_index(n: int) -> int:
    """Index into ``n`` sorted samples of the highest percentile that
    keeps at least ten samples beyond it."""
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return n - 11


def p50_and_tail(samples) -> tuple[float, float]:
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    return float(np.median(ordered)), float(ordered[tail_index(len(ordered))])
