"""Seeded input generation: every input derives from the workload seed.

Each operation draws from its own ``random.Random`` keyed by a SHA-256 of
``(seed, labels...)``, so op ``i`` of a run is the same on every host and
independent of how many ops came before it.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, Tuple

__all__ = [
    "derive",
    "distinct",
    "op_rng",
    "two_party_pair",
    "multi_party_sets",
    "weighted_choice",
]


def derive(seed: int, *labels: object) -> int:
    """A 63-bit integer derived from ``seed`` and ``labels``."""
    text = "perfbench|" + "|".join(str(part) for part in (seed,) + labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def op_rng(seed: int, *labels: object) -> random.Random:
    """The private generator of one operation."""
    return random.Random(derive(seed, *labels))


def distinct(rng: random.Random, universe: int, count: int) -> List[int]:
    """``count`` distinct elements of ``[universe)``, in draw order."""
    if count > universe:
        raise ValueError(f"cannot draw {count} distinct elements of [{universe})")
    seen = set()
    drawn = []
    draw = rng.randrange
    while len(drawn) < count:
        value = draw(universe)
        if value not in seen:
            seen.add(value)
            drawn.append(value)
    return drawn


def two_party_pair(
    rng: random.Random, universe: int, k: int, overlap: float
) -> Tuple[List[int], List[int]]:
    """Two ``k``-element sets sharing ``round(overlap * k)`` elements."""
    common = round(overlap * k)
    pool = distinct(rng, universe, 2 * k - common)
    return pool[:k], pool[:common] + pool[k:]


def multi_party_sets(
    rng: random.Random, players: int, universe: int, k: int, overlap: float
) -> List[List[int]]:
    """``players`` sets of ``k`` elements sharing a common core of
    ``round(overlap * k)`` elements; the rest are drawn independently."""
    common = round(overlap * k)
    pool = distinct(rng, universe, common + players * (k - common))
    core = pool[:common]
    return [
        core + pool[common + player * (k - common) : common + (player + 1) * (k - common)]
        for player in range(players)
    ]


def weighted_choice(rng: random.Random, weights: Sequence[Tuple[str, float]]) -> str:
    """One kind drawn from ``(kind, weight)`` pairs."""
    kinds = [kind for kind, _ in weights]
    return rng.choices(kinds, weights=[weight for _, weight in weights])[0]
