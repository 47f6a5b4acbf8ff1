"""The sharded data plane's intake loop: shard stages in a fixed order.

The flat data planes iterate every device once per protocol phase; the
sharded plane instead runs the input pipeline as per-shard stages over
an :class:`~repro.runtime.aggregator.AggregatorTree`. :func:`run_intake`
drives them serially, one stage across all shards before the next:

1. **churn** — re-sync each shard's liveness/malice snapshot with the
   network and derive its labelled RNG stream, in shard order;
2. **upload** — encode, encrypt and prove each shard's batch;
3. **verify** — ZKP-check each batch and sum it into leaf partials;
4. **aggregate** — ingest each leaf into the tree and journal the
   ``input/shard{i}`` checkpoint, in shard order;
5. **fold** — combine ready internal nodes first-in first-out, each
   fold queueing its parent once that parent's last child lands.

The order is part of the byte-stability contract: the RNG label
attestation, the journal's checkpoint sequence and the tree's step
commitments all follow it, so a resumed run replays it exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from . import shard as shard_stages
from .aggregator import AggregatorTree


def run_intake(
    shards: Sequence[shard_stages.DeviceShard],
    ctx: shard_stages.ShardContext,
    tree: AggregatorTree,
    churn: Callable,
    on_leaf: Callable,
) -> None:
    """Drain one sharded intake into ``tree``.

    ``churn(shard)`` re-syncs a shard and returns its RNG stream;
    ``on_leaf(result)`` runs after each leaf is ingested (journal
    checkpoint, counters). The stage functions are looked up on
    :mod:`~repro.runtime.shard` at call time.
    """
    streams = [churn(shard) for shard in shards]
    batches = [
        shard_stages.upload_shard(shard, ctx, stream)
        for shard, stream in zip(shards, streams)
    ]
    results = []
    for index, batch in enumerate(batches):
        batches[index] = None  # a verified shard's uploads are not needed again
        results.append(shard_stages.verify_shard(batch, ctx))
    ready = deque()
    for result in results:
        parent = tree.ingest_leaf(result)
        on_leaf(result)
        if parent:
            ready.append(parent)
    while ready:
        parent = tree.fold_node(*ready.popleft())
        if parent:
            ready.append(parent)
