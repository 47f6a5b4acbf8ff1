"""Device shards: struct-of-arrays batches for the sharded data plane.

A :class:`DeviceShard` holds one contiguous slice of the population as
numpy arrays (ids, raw values, liveness, malice) plus the label of the
RNG substream every value-relevant draw for that shard comes from. The
shard is the unit of everything in the sharded runtime: the intake loop
runs its stages per shard, journal checkpoints are per-shard,
fault-plan replay re-derives per-shard streams, and aggregation-tree
leaves ingest per-shard batches.

The heavy per-device costs of the flat planes and how the shard stages
remove them:

* **Encryption randomness.** Paillier encryption spends one ~2k-bit-op
  modular exponentiation per ciphertext drawing ``r^n mod n^2``. The
  sharded plane amortizes it with an :class:`ObfuscatorPool`: a small
  pool of precomputed pads ``h_i = r_i^n mod n^2`` (real obfuscators,
  drawn from a labelled stream) from which each device takes a random
  subset *product* — still a uniform-looking element of the subgroup of
  n-th residues, at the cost of a handful of modular multiplications
  instead of a full exponentiation. This is the classic precomputed-
  randomization trade (cf. batch-RSA / fast Schnorr preprocessing);
  DESIGN.md records it as a simulation-scale substitution alongside the
  HMAC sortition tags.
* **Draw scheduling.** Flat planes draw one obfuscator per *logical*
  slot to keep a global draw schedule; the sharded plane owns its
  per-shard streams outright, so it draws exactly one pad subset per
  *packed* ciphertext.
* **Encoding.** One-hot bin placement is drawn and encoded per shard
  with numpy, not per device in the interpreter loop.

Every stage function here is **pure per shard** — it reads its
arguments, draws only from the shard's own stream, and returns a value —
so one shard's results never depend on another's.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..crypto import paillier
from ..crypto.zkp import Statement, prove, verify as zkp_verify
from .aggregator import Upload, ciphertext_vector_digest
from .packing import SlotPacking


@dataclass
class DeviceShard:
    """One contiguous slice of the population, struct-of-arrays.

    ``online``/``malicious`` are snapshots taken by the ``churn`` stage
    immediately before the shard uploads, so population faults applied at
    phase boundaries are visible to the shard without per-device lookups.
    """

    shard_id: int
    device_ids: np.ndarray  # int64, shape (n,)
    values: np.ndarray  # int64, shape (n,) categorical or (n, width) numeric
    online: np.ndarray  # bool, shape (n,)
    malicious: np.ndarray  # bool, shape (n,)
    stream_label: str = ""

    def __len__(self) -> int:
        return len(self.device_ids)

    @property
    def online_count(self) -> int:
        return int(np.count_nonzero(self.online))


class ObfuscatorPool:
    """Precomputed Paillier encryption randomness, drawn by subset product.

    ``pool_size`` pads are real obfuscators ``r^n mod n^2`` with ``r``
    drawn from the given (labelled, seeded) stream. :meth:`draw` returns
    the product of ``subset_size`` pads sampled with replacement — a
    random n-th residue obtained with ``subset_size`` modular
    multiplications instead of one modular exponentiation. The pool is
    immutable after construction and shared by every shard of a run.
    """

    def __init__(
        self,
        public_key: paillier.PaillierPublicKey,
        rng: random.Random,
        pool_size: int = 64,
        subset_size: int = 8,
    ):
        if pool_size < 2 or subset_size < 1:
            raise ValueError("pool needs >= 2 pads and a positive subset size")
        self.public_key = public_key
        self.pool_size = pool_size
        self.subset_size = subset_size
        self._n2 = public_key.n_squared
        # One fixed-exponent modexp batch through the crypto backend: the
        # obfuscators are drawn first (preserving the stream's draw order)
        # and padded in bulk.
        obfuscators = [
            paillier.draw_obfuscator(public_key, rng) for _ in range(pool_size)
        ]
        self._pads: Tuple[int, ...] = tuple(
            paillier.precompute_pads(public_key, obfuscators)
        )

    def draw(self, rng: random.Random) -> int:
        """One fresh obfuscator: a random subset product of the pads."""
        n2 = self._n2
        pads = self._pads
        size = self.pool_size
        acc = pads[rng.randrange(size)]
        for _ in range(self.subset_size - 1):
            acc = acc * pads[rng.randrange(size)] % n2
        return acc


@dataclass(frozen=True)
class ShardContext:
    """Everything a shard stage needs beyond the shard itself.

    Immutable and shared (read-only) by every shard; the only mutable
    inputs to a stage are the shard and its own RNG stream.
    """

    public_key: paillier.PaillierPublicKey
    statement: Statement
    categories: int
    bins: int
    one_hot: bool
    width: int
    round_number: int
    packing: Optional[SlotPacking]
    pool: ObfuscatorPool


@dataclass
class ShardUploadBatch:
    """The ``upload`` stage's output: one shard's uploads, pre-verification."""

    shard_id: int
    uploads: List[Upload]
    submit_seconds: float


@dataclass
class ShardIntakeResult:
    """The ``verify`` stage's output: one aggregation-tree leaf's intake.

    ``partials`` are the per-packed-slot homomorphic sums over the
    accepted uploads (``None`` when every upload was rejected);
    ``leaf_digest`` commits to the accepted uploads in order.
    """

    shard_id: int
    partials: Optional[List[paillier.PaillierCiphertext]]
    accepted: int
    rejected: List[int]
    upload_digests: List[bytes]
    leaf_digest: bytes
    submit_seconds: float = 0.0
    verify_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    ciphertext_additions: int = 0
    uploads_received: int = 0


# ------------------------------------------------------------------ stages


def _encode_shard_vectors(
    shard: DeviceShard, ctx: ShardContext, rng: random.Random
) -> Tuple[np.ndarray, List[List[int]]]:
    """Per-device witness vectors for the shard's online devices.

    Returns ``(online_ids, vectors)``. One-hot bin placement consumes one
    ``randrange`` per online device from the shard stream (stable order:
    ascending device id), matching the flat planes' per-device draw shape
    so malformed/honest mixes stay reproducible.
    """
    online_idx = np.flatnonzero(shard.online)
    online_ids = shard.device_ids[online_idx]
    vectors: List[List[int]] = []
    if ctx.one_hot:
        values = shard.values[online_idx]
        categories = ctx.categories
        cats = np.mod(values, categories).astype(np.int64)
        if ctx.bins > 1:
            bin_draws = [rng.randrange(ctx.bins) for _ in range(len(online_idx))]
        else:
            bin_draws = [0] * len(online_idx)
        slots = np.asarray(bin_draws, dtype=np.int64) * categories + cats
        malicious = shard.malicious[online_idx]
        for pos in range(len(online_idx)):
            vector = [0] * ctx.width
            if malicious[pos]:
                # Malformed upload: claim membership in several categories.
                for slot in range(min(3, ctx.width)):
                    vector[slot] = 1
            else:
                vector[int(slots[pos])] = 1
            vectors.append(vector)
        return online_ids, vectors
    rows = shard.values[online_idx]
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    malicious = shard.malicious[online_idx]
    for pos in range(len(online_idx)):
        row = [int(v) for v in rows[pos][: ctx.width]]
        if len(row) < ctx.width:
            row = row + [0] * (ctx.width - len(row))
        if malicious[pos]:
            # Out-of-range value ("pretending the user is 1,000 years old").
            row[0] = 1000
        vectors.append(row)
    return online_ids, vectors


def upload_shard(
    shard: DeviceShard, ctx: ShardContext, rng: random.Random
) -> ShardUploadBatch:
    """The ``upload`` stage: encode, encrypt, and prove a whole shard.

    Each online device produces one :class:`Upload` — packed ciphertexts
    obfuscated via the pad pool (one subset-product per packed
    ciphertext), digest, and well-formedness proof — exactly the wire
    objects the flat planes produce, just built batch-at-a-time.
    """
    started = time.perf_counter()
    pk = ctx.public_key
    packing = ctx.packing
    pool = ctx.pool
    online_ids, vectors = _encode_shard_vectors(shard, ctx, rng)
    uploads: List[Upload] = []
    for pos, device_id in enumerate(online_ids):
        vector = vectors[pos]
        plaintexts = packing.pack(vector) if packing is not None else vector
        cts = [
            paillier.encrypt_with_pad(pk, value, pool.draw(rng))
            for value in plaintexts
        ]
        digest = ciphertext_vector_digest(cts)
        proof = prove(ctx.statement, vector, int(device_id), ctx.round_number, digest)
        uploads.append(Upload(int(device_id), cts, proof, vector))
    return ShardUploadBatch(
        shard.shard_id, uploads, time.perf_counter() - started
    )


def verify_shard(batch: ShardUploadBatch, ctx: ShardContext) -> ShardIntakeResult:
    """The ``verify`` + leaf-``aggregate`` stage: one tree leaf's intake.

    ZKP-checks every upload (identical accept/reject semantics to
    :meth:`AggregatorNode.verify_uploads`), folds the accepted ciphertext
    vectors into per-slot partial sums, and commits the shard batch under
    a leaf digest over the accepted upload digests in order.
    """
    started = time.perf_counter()
    accepted: List[Upload] = []
    rejected: List[int] = []
    for upload in batch.uploads:
        if upload.proof.ciphertext_digest != ciphertext_vector_digest(
            upload.ciphertexts
        ):
            rejected.append(upload.device_id)
            continue
        if not zkp_verify(upload.proof, upload.witness):
            rejected.append(upload.device_id)
            continue
        accepted.append(upload)
    verify_seconds = time.perf_counter() - started

    started = time.perf_counter()
    partials: Optional[List[paillier.PaillierCiphertext]] = None
    additions = 0
    if accepted:
        width = len(accepted[0].ciphertexts)
        partials = [
            paillier.sum_ciphertexts([u.ciphertexts[j] for u in accepted])
            for j in range(width)
        ]
        additions = (len(accepted) - 1) * width
    aggregate_seconds = time.perf_counter() - started

    upload_digests = [u.digest() for u in accepted]
    hasher = hashlib.sha256(b"shard-leaf")
    hasher.update(batch.shard_id.to_bytes(8, "big"))
    for dig in upload_digests:
        hasher.update(dig)
    return ShardIntakeResult(
        shard_id=batch.shard_id,
        partials=partials,
        accepted=len(accepted),
        rejected=rejected,
        upload_digests=upload_digests,
        leaf_digest=hasher.digest(),
        submit_seconds=batch.submit_seconds,
        verify_seconds=verify_seconds,
        aggregate_seconds=aggregate_seconds,
        ciphertext_additions=additions,
        uploads_received=len(batch.uploads),
    )


def build_shards(
    device_ids: Sequence[int],
    values: np.ndarray,
    online: np.ndarray,
    malicious: np.ndarray,
    shard_size: int,
    label_template: str = "sharded/upload/{}",
) -> List[DeviceShard]:
    """Slice a population's struct-of-arrays view into contiguous shards."""
    if shard_size < 1:
        raise ValueError("shard_size must be positive")
    ids = np.asarray(device_ids, dtype=np.int64)
    shards: List[DeviceShard] = []
    for shard_id, start in enumerate(range(0, len(ids), shard_size)):
        stop = start + shard_size
        shards.append(
            DeviceShard(
                shard_id=shard_id,
                device_ids=ids[start:stop],
                values=values[start:stop],
                online=np.asarray(online[start:stop], dtype=bool).copy(),
                malicious=np.asarray(malicious[start:stop], dtype=bool).copy(),
                stream_label=label_template.format(shard_id),
            )
        )
    return shards
