"""The one bounded-LRU loop behind the host's two cross-call memos, the
spatial-row memo and the streaming decision cache.  Both short-circuit
a pure function, so the policy changes cost, never an output.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Sequence, Tuple


def lru_fill(
    cache: "OrderedDict[Hashable, object]",
    keys: Sequence[Hashable],
    limit: int,
    compute: Callable[[List[int]], Sequence[object]],
) -> Tuple[list, int, int]:
    """Values for a whole batch of ``keys`` through a bounded LRU.

    Hits come from ``cache`` and move to its most-recent end.  One
    ``compute(missing)`` call gets the position of the first occurrence
    of each distinct missing key and returns their values in order;
    repeats share them.  New entries land at the most-recent end, and
    the coldest entry is evicted while the cache holds ``limit``.
    Returns ``(values, n_misses, n_evictions)``; every occurrence of a
    missing key counts as a miss.
    """
    values: list = [None] * len(keys)
    missing: List[int] = []
    first: Dict[Hashable, int] = {}  # missing key -> index into missing
    repeats: List[Tuple[int, int]] = []
    for i, key in enumerate(keys):
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            values[i] = value
        elif key in first:
            repeats.append((i, first[key]))
        else:
            first[key] = len(missing)
            missing.append(i)
    evictions = 0
    if missing:
        fresh = compute(missing)
        for i, value in zip(missing, fresh):
            while len(cache) >= limit:
                cache.popitem(last=False)
                evictions += 1
            cache[keys[i]] = value
            values[i] = value
        for i, j in repeats:
            values[i] = fresh[j]
    return values, len(missing) + len(repeats), evictions
