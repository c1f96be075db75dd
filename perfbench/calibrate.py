"""Host-speed calibration for the end-to-end times.

On a shared host the speed of pure-Python code drifts by up to 2x for
seconds to minutes at a time, as other tenants load the cores. A wall
time alone then measures the host as much as the program. The benchmark
therefore runs a fixed reference kernel (a small LRU cache simulation
and a genotype decode, written here so that no change to the program
can alter it) before and after every timed call, and scales the call's
wall time by REF_S / (mean kernel time around it). Both slow down
together, so the scaled time stays far steadier than the wall time.

A scaled time is in reference seconds: the wall time the call would take
on a host where the kernel runs in REF_S. On the 2-core host the
benchmark was tuned on, the kernel takes about REF_S in the host's fast
phase.
"""

from __future__ import annotations

import gc
from collections import OrderedDict, deque
from time import perf_counter

REF_S = 0.019  # reference kernel time, s

# A small grammar for the decode half of the kernel: nonterminal -> alternatives.
_RULES = {
    "<c>": (("<i>", "<d>"),),
    "<i>": (("-i", "<n>", "<p>"), ("-i", "<p>")),
    "<d>": (("-d", "<n>", "<p>", "<w>"), ("-d", "<n>", "<w>")),
    "<n>": (("512",), ("4096",), ("16384",), ("65536",)),
    "<p>": (("l",), ("f",), ("r",)),
    "<w>": (("a",), ("n",)),
}


def _lru(accesses: int) -> int:
    """LRU simulation of a pseudo-random block stream over 64 sets of 8 ways."""
    sets = [OrderedDict() for _ in range(64)]
    x, misses = 12345, 0
    for _ in range(accesses):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        block = (x >> 8) % 4096
        entries, tag = sets[block % 64], block // 64
        if tag in entries:
            entries.move_to_end(tag)
        else:
            misses += 1
            if len(entries) >= 8:
                entries.popitem(last=False)
            entries[tag] = False
    return misses


def _decode(genomes: int) -> int:
    """Leftmost-derivation decode of pseudo-random codon strings into a
    string-keyed memo; returns the memo hit count."""
    memo: dict[str, tuple] = {}
    x, hits = 777, 0
    for _ in range(genomes):
        codons = []
        for _ in range(8):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            codons.append((x >> 16) & 255)
        pending, out, used = deque(("<c>",)), [], 0
        while pending:
            symbol = pending.popleft()
            if symbol[0] != "<":
                out.append(symbol)
                continue
            alts = _RULES[symbol]
            pending.extendleft(reversed(alts[codons[used % 8] % len(alts)]))
            used += 1
        key = " ".join(out)
        if key in memo:
            hits += 1
        else:
            memo[key] = (len(key), key.split())
    return hits


def kernel() -> int:
    """The reference kernel: half cache simulation, half genotype decode,
    the two kinds of work the program's run time is made of."""
    return _lru(20_000) + _decode(2_500)


def kernel_s() -> float:
    """Wall time of one kernel run, with the collector off so that the
    program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times calls between kernel runs. The kernel run after one call also
    serves as the one before the next."""

    def __init__(self):
        self._last = kernel_s()
        self.kernel_times: list[float] = [self._last]

    def time(self, fn, *args, **kwargs):
        """Call fn; return (result, wall s, scaled reference s). Garbage
        left by earlier calls is collected first, untimed, as a fresh
        process would have none."""
        before = self._last
        gc.collect()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
        self._last = after = kernel_s()
        self.kernel_times.append(after)
        return result, wall, wall * REF_S * 2 / (before + after)
