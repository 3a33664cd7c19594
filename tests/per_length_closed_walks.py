"""Per-length reference for the closed-walk enumerator, kept for the tests.

One depth-first search runs for every (length, base) pair, each walk is
copied as it grows, and each closed walk is keyed by the least of all its
rotations and reversals.  The library's enumerator makes one search per base
for every length at once and keys a walk by its rotations at the base only,
so its results must equal these, in the same order.
"""

from __future__ import annotations

from tautloop.complexes import bfs


def cycle_key(cycle: tuple) -> tuple:
    best = None
    for seq in (cycle, tuple(reversed(cycle))):
        for i in range(len(seq)):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return best


def closed_walks(nbrs, max_len: int, bases) -> list[tuple[tuple, tuple]]:
    """Cyclically non-backtracking closed walks through the bases, as
    (vertex cycle, word) pairs, one per class up to rotation and reversal,
    ordered by length, then base, then the order of ``nbrs``."""
    bases = tuple(bases)
    # a walk with d steps left must be within distance d of its base
    reach = {base: bfs(nbrs, base, max_len // 2) for base in bases}
    rank = {base: i for i, base in enumerate(bases)}
    seen: set[tuple] = set()
    out: list[tuple[tuple, tuple]] = []
    for length in range(3, max_len + 1):
        for k, base in enumerate(bases):
            dist = reach[base]

            def extend(path: tuple, w: tuple) -> None:
                steps_left = length - (len(path) - 1)
                here = path[-1]
                if steps_left == 0:
                    if here == base and path[1] != path[-2]:
                        key = cycle_key(path[:-1])
                        if key not in seen:
                            seen.add(key)
                            out.append((path[:-1], w))
                    return
                hit = dist.get(here)
                if hit is None or hit[0] > steps_left:
                    return
                for nxt, letter in nbrs[here]:
                    if len(path) > 1 and nxt == path[-2]:
                        continue
                    # a class is emitted first from its earliest base, so a
                    # walk through an earlier base would only be dropped here
                    if rank.get(nxt, k) < k:
                        continue
                    extend(path + (nxt,), w + letter)

            extend((base,), ())
    return out
