from __future__ import annotations


def partitions_of(n: int):
    """All partitions of n, largest part first."""
    def gen(n, maxp):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxp), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest
    yield from gen(n, n)


def partitions_up_to(n: int):
    for k in range(1, n + 1):
        yield from partitions_of(k)
