"""Consistent hashing for the fleet router.

Two pieces:

* :func:`rendezvous_rank` — highest-random-weight (rendezvous) hashing:
  every ``(key, member)`` pair gets a stable pseudo-random score and a
  key's preference order is the members sorted by that score.  Unlike a
  modulo scheme, removing one member only remaps the keys that ranked it
  first (each inherits its *second* choice, which is exactly the router's
  failover target), and a restarted replica gets its old keys back — the
  property that keeps per-replica LRU caches hot across restarts.
* :func:`request_affinity_key` — the routing key of one ``POST /cluster``
  body: the *content* fingerprint of its float64 matrix plus the config a
  replica would fit it with, decoded and merged by the replica's own
  functions, so every body that shares a replica's result-cache entry
  (a JSON body and a binary ``application/x-repro-matrix`` frame, a
  method alias, a restated default) shares that replica.

Everything here is pure and deterministic: no clocks, no randomness, no
state — the ring is recomputed per request from the live member list, so
membership changes (crash, restart, drain) take effect immediately.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.api.config import ClusteringConfig
from repro.cache.fingerprint import config_fingerprint, content_digest, matrix_fingerprint
from repro.serve.server import merged_request_config
from repro.serve.wire import decode_cluster_request


def _score(key: str, member: str) -> int:
    """The stable rendezvous weight of ``member`` for ``key``."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(member.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(key.encode("utf-8"))
    return int.from_bytes(digest.digest(), "big")


def rendezvous_rank(key: str, members: Sequence[str]) -> List[str]:
    """``members`` in preference order for ``key`` (highest score first).

    The first element is the key's home replica; the rest are its
    failover order.  Deterministic for a given ``(key, members)`` pair and
    stable under membership change: members that stay keep their relative
    order, so removing the home replica promotes the old second choice.
    """
    return sorted(set(members), key=lambda member: (_score(key, member), member), reverse=True)


def request_affinity_key(
    body: bytes, media_type: str = "", default_config: Optional[ClusteringConfig] = None
) -> str:
    """The consistent-hash routing key of one ``POST /cluster`` body.

    The body is decoded by the replica's own decoder,
    :func:`~repro.serve.wire.decode_cluster_request`, and its config
    overlay merged and normalised by the replica's own
    :func:`~repro.serve.server.merged_request_config` onto
    ``default_config`` (the fleet's default; ``ClusteringConfig()`` when
    omitted).  The key is the fingerprint of the float64 matrix plus the
    fields of that config that differ from the normalised default.  So any
    two bodies that share a replica's result-cache entry share a key: a
    JSON body and a ``<f8`` or ``<i8`` frame of one matrix, ``par-tdbht``
    and ``tmfg-dbht``, ``{}`` and ``{"prefix": 1}``.  A ``{}`` overlay
    keys alike under every default, so a caller that omits the default
    still predicts the router's placement of such bodies.  A body the
    replica refuses (its 400) keys on its raw bytes.  The key fingerprints
    the whole matrix, so call it off the event loop.
    """
    default = default_config if default_config is not None else ClusteringConfig()
    try:
        matrix, config_payload = decode_cluster_request(body, media_type)
        config = merged_request_config(default, config_payload).to_dict()
        base = merged_request_config(default, {}).to_dict()
    except ValueError:  # BadRequest is a ValueError
        digest = content_digest()
        digest.update(body)
        return "raw:" + digest.hexdigest()
    overlay = {name: value for name, value in config.items() if value != base[name]}
    return "content:" + matrix_fingerprint(matrix) + ":" + config_fingerprint(overlay)


def spread(keys: Sequence[str], members: Sequence[str]) -> Dict[str, int]:
    """How many of ``keys`` rank each member first (load-balance preview)."""
    counts = {member: 0 for member in members}
    for key in keys:
        ranked = rendezvous_rank(key, members)
        if ranked:
            counts[ranked[0]] += 1
    return counts
