"""Seeded inputs of the three workloads, made with numpy alone.

Nothing here imports the program: the streams are plain arrays, written
to disk in the ``load_npz`` layout (``src``, ``dst``, ``timestamps``,
``num_nodes``) so the program reads them through its public loader.

Node layout of every stream (bipartite, items after users), with
``R = PROBES * probe_rounds`` reserved ids per probe role::

    [0, users)                      seeded traffic users
    [users, users + R)              probe users    (never seeded)
    [users + R, users + 2R)         writer users   (never seeded)
    [U, U + items)                  seeded catalog items   (U = users + 2R)
    [U + items, U + items + R)      probe items    (never seeded)

Serving round ``r`` owns the ``r``-th group of ``PROBES`` probe users,
writers and items.  Their events do not depend on ``--seed`` and every
group's history is the same, so the stale-row probe of the serving loop
fails the same way in every round of every run (``README.md``, "The
kept fault").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROBES = 2                 # probe users (and writers, items) per round
ZIPF_A = 1.2               # item popularity exponent of the hub streams
TIME_SPAN = 1.0e6          # history timestamps lie in [0, TIME_SPAN)

# The request mix of one serving round.  No production trace exists for
# this program, so the mix follows the repository's own serving bench
# (``benchmarks/run_serve_bench.py``, "medium" scale): its live stream
# ingests 2000 events over 1000 time units in blocks of ``ingest_block``
# = 200, so a block covers 100 time units; its ``request_size`` is 64
# rows; its staleness pass re-reads a fixed set of ``staleness_probes``
# = 256 nodes after every block (here: 4 requests of 64 rows per block,
# drawn with repeats from 256 hot users); it issues ``topk_queries`` = 20
# top-k over its 10 blocks, 2 per block.
INGEST_BLOCK = 200         # events per traffic ingest block
ROUND_SPAN = 100.0         # event time one serving round covers
EMBEDS = 4                 # embed requests per round
EMBED_ROWS = 64            # nodes per embed request
TOPKS = 2                  # full-catalog top-k requests per round
HOT = 256                  # hot user set the embed and top-k requests use
# Within a round of ROUND_SPAN: traffic events in the first half, then the
# traffic query time, the probe ingest and the probe query time.
QUERY_AT, PROBE_INGEST_AT, PROBE_QUERY_AT = 0.5, 0.6, 0.7


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's graph."""

    users: int
    items: int
    events: int
    hubs: bool             # Zipf item popularity (True) or uniform (False)
    probe_rounds: int = 1  # serving rounds that get a probe group

    @property
    def reserved(self) -> int:
        return PROBES * self.probe_rounds

    @property
    def first_item(self) -> int:
        return self.users + 2 * self.reserved

    @property
    def num_nodes(self) -> int:
        return self.first_item + self.items + self.reserved

    @property
    def probe_users(self) -> np.ndarray:
        """Every probe user; round ``r`` owns ``[r*PROBES, (r+1)*PROBES)``."""
        return np.arange(self.users, self.users + self.reserved,
                         dtype=np.int64)

    @property
    def writers(self) -> np.ndarray:
        return self.probe_users + self.reserved

    @property
    def probe_items(self) -> np.ndarray:
        start = self.first_item + self.items
        return np.arange(start, start + self.reserved, dtype=np.int64)

    def probe_group(self, index: int) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        """``(users, writers, items)`` of serving round ``index``."""
        part = slice(index * PROBES, (index + 1) * PROBES)
        return (self.probe_users[part], self.writers[part],
                self.probe_items[part])


def _item_draw(shape: Shape, rng: np.random.Generator, size: int,
               popularity: np.ndarray | None) -> np.ndarray:
    if popularity is None:
        return rng.integers(0, shape.items, size)
    return rng.choice(shape.items, size=size, p=popularity)


def popularity(shape: Shape, seed: int) -> np.ndarray | None:
    """Item probabilities: Zipf(``ZIPF_A``) over a seeded rank order, or
    ``None`` for the flat (uniform) streams."""
    if not shape.hubs:
        return None
    rng = np.random.default_rng([seed, 1])
    weights = np.arange(1, shape.items + 1, dtype=np.float64) ** -ZIPF_A
    return weights[rng.permutation(shape.items)] / weights.sum()


def history(shape: Shape, seed: int) -> dict[str, np.ndarray]:
    """The pre-training stream: seeded traffic plus the fixed probe edges.

    Each probe user meets its probe item twice, at times 1 and 2; probe
    users, writers and items have no other history.
    """
    rng = np.random.default_rng([seed, 0])
    pop = popularity(shape, seed)
    src = rng.integers(0, shape.users, shape.events)
    dst = shape.first_item + _item_draw(shape, rng, shape.events, pop)
    ts = np.sort(rng.uniform(0.0, TIME_SPAN, shape.events))
    probe_ts = np.repeat(np.array([1.0, 2.0]), shape.reserved)
    src = np.concatenate([np.tile(shape.probe_users, 2), src])
    dst = np.concatenate([np.tile(shape.probe_items, 2), dst])
    ts = np.concatenate([probe_ts, ts])
    order = np.argsort(ts, kind="stable")
    return {"src": src[order], "dst": dst[order], "timestamps": ts[order],
            "num_nodes": np.array(shape.num_nodes)}


def save_stream(arrays: dict[str, np.ndarray], path: str) -> None:
    """Write ``arrays`` in the layout ``repro.graph.io.load_npz`` reads."""
    np.savez(path, **arrays)


@dataclass(frozen=True)
class Round:
    """The inputs of one serving round (time origin ``base``)."""

    base: float
    src: np.ndarray            # traffic ingest block
    dst: np.ndarray
    ts: np.ndarray
    embed_nodes: list          # one node array per embed request
    topk_src: np.ndarray       # one source per top-k request

    @property
    def query_t(self) -> float:
        return self.base + QUERY_AT * ROUND_SPAN

    @property
    def probe_ingest_t(self) -> float:
        return self.base + PROBE_INGEST_AT * ROUND_SPAN

    @property
    def probe_t(self) -> float:
        return self.base + PROBE_QUERY_AT * ROUND_SPAN


def hot_users(shape: Shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    return np.sort(rng.choice(shape.users, size=HOT, replace=False))


def serving_round(shape: Shape, seed: int, index: int) -> Round:
    """Round ``index`` of the live stream that follows the history.

    A pure function of ``(seed, index)``: a run that serves more rounds
    sees a longer prefix of the same stream.
    """
    rng = np.random.default_rng([seed, 3, index])
    base = TIME_SPAN + index * ROUND_SPAN
    hot = hot_users(shape, seed)
    src = rng.integers(0, shape.users, INGEST_BLOCK)
    dst = shape.first_item + _item_draw(shape, rng, INGEST_BLOCK,
                                        popularity(shape, seed))
    ts = np.sort(rng.uniform(base, base + QUERY_AT * ROUND_SPAN,
                             INGEST_BLOCK))
    embed_nodes = [rng.choice(hot, size=EMBED_ROWS) for _ in range(EMBEDS)]
    topk_src = rng.choice(hot, size=TOPKS)
    return Round(base, src, dst, ts, embed_nodes, topk_src)
