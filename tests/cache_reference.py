"""CacheUnit: the step-by-step reference engine that simulate's per-side
engine (cachesim._fill_order) is checked against, one record at a time.
The program never runs it. Imported by the cache tests."""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from cacheopt.cachesim import SimStats, n_sets
from cacheopt.errors import InfeasibleConfigError
from cacheopt.trace import AccessKind, TraceRecord


@dataclass
class _Tally:
    """CacheUnit's running counts; its stats property reads them."""

    accesses: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    write_backs: int = 0
    write_throughs: int = 0


class StepOutcome(NamedTuple):
    hit: bool
    prefetch_fills: int


class CacheUnit:
    """Mutable state of one cache side ('i' or 'd') during a run.

    The step-by-step reference engine: simulate's per-side engine must
    match a CacheUnit replay of the same trace in every counter. The
    program never calls step; it stays as the tests' replay API.

    Each set is an OrderedDict mapping tag -> dirty flag. LRU keeps the
    order by recency (least recent first), FIFO by fill order (first in
    first), random picks victims from the side's own generator. Fills,
    demand or prefetch, enter as most-recent/last-in.
    """

    def __init__(
        self,
        side: str,
        size: int,
        block: int,
        assoc: int,
        repl: str,
        fetch: str,
        wback: str = "a",
        rng: random.Random | None = None,
    ):
        if side not in ("i", "d"):
            raise ValueError(f"side must be 'i' or 'd', got {side!r}")
        self.side = side
        self.block = block
        self.assoc = assoc
        self.repl = repl
        self.fetch = fetch
        self.wback = wback
        self.n_sets = n_sets(size, block, assoc)
        if self.n_sets < 1:
            raise InfeasibleConfigError(
                f"{size} B cache cannot hold whole {block * assoc} B sets"
            )
        self.sets: list[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        self._rng = rng if rng is not None else random.Random(0)
        self._tally = _Tally()

    @property
    def stats(self) -> SimStats:
        """The counts so far, with the dirty blocks now resident as final_flush."""
        t = self._tally
        return SimStats(t.accesses, t.demand_misses, t.prefetch_fills, t.write_backs,
                        t.write_throughs, self.count_dirty())

    def step(self, record: TraceRecord) -> StepOutcome:
        """Apply one access and report its outcome."""
        if (record.kind == AccessKind.IFETCH) != (self.side == "i"):
            raise ValueError(
                f"{record.kind.name} record routed to the {self.side.upper()}-cache"
            )
        t = self._tally
        misses, fills = t.demand_misses, t.prefetch_fills
        self._access(record.kind, record.address)
        return StepOutcome(
            hit=t.demand_misses == misses,
            prefetch_fills=t.prefetch_fills - fills,
        )

    def _access(self, kind: int, address: int) -> None:
        st = self._tally
        st.accesses += 1
        bi = address // self.block
        entries = self.sets[bi % self.n_sets]
        tag = bi // self.n_sets
        write = kind == AccessKind.WRITE
        if write and self.wback == "n":
            st.write_throughs += 1
        dirty = write and self.wback == "a"
        if tag in entries:
            hit = True
            if self.repl == "l":
                entries.move_to_end(tag)
            if dirty:
                entries[tag] = True
        else:
            hit = False
            st.demand_misses += 1
            self._fill(entries, tag, dirty)
        if self.fetch == "a" or (self.fetch == "m" and not hit):
            self._prefetch(bi + 1)

    def _fill(self, entries: OrderedDict, tag: int, dirty: bool) -> None:
        if len(entries) >= self.assoc:
            if self.repl == "r":
                victim_dirty = entries.pop(self._rng.choice(tuple(entries)))
            else:
                _, victim_dirty = entries.popitem(last=False)
            if victim_dirty:
                self._tally.write_backs += 1
        entries[tag] = dirty

    def _prefetch(self, bi: int) -> None:
        entries = self.sets[bi % self.n_sets]
        tag = bi // self.n_sets
        if tag not in entries:
            self._fill(entries, tag, False)
            self._tally.prefetch_fills += 1

    def count_dirty(self) -> int:
        return sum(1 for entries in self.sets for dirty in entries.values() if dirty)
