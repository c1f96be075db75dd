"""Trace-driven functional simulation of a split L1 instruction/data cache.

The simulator counts events only (hits, demand misses, prefetch fills,
write-backs, write-throughs); it keeps no timing state. Addresses are
physical byte addresses straight from the trace.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from array import array
from collections import Counter, OrderedDict, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import contains, rshift
from typing import Iterable, NamedTuple

from .errors import ConfigError, FlagTextError, InfeasibleConfigError, ValidationError
from .trace import AccessKind, TraceRecord, _din_chunks

CACHE_SIZES = (512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)
BLOCK_SIZES = (8, 16, 32, 64)
ASSOCIATIVITIES = (1, 2, 4, 8, 16, 32, 64, 128)
REPL_POLICIES = ("l", "f", "r")  # LRU, FIFO, random
FETCH_POLICIES = ("m", "d", "a")  # prefetch-on-miss, demand, always-prefetch
WRITE_POLICIES = ("a", "n")  # write-back (copy-back), write-through

# The design space: each parameter's permitted values, in canonical flag
# order. CacheConfig, Subspace, the CLI and the subspace grammar follow it.
DOMAINS = {
    "isize": CACHE_SIZES,
    "ibsize": BLOCK_SIZES,
    "irepl": REPL_POLICIES,
    "iassoc": ASSOCIATIVITIES,
    "ifetch": FETCH_POLICIES,
    "dsize": CACHE_SIZES,
    "dbsize": BLOCK_SIZES,
    "drepl": REPL_POLICIES,
    "dassoc": ASSOCIATIVITIES,
    "dfetch": FETCH_POLICIES,
    "dwback": WRITE_POLICIES,
}

FLAG_ORDER = tuple(f"-l1-{name}" for name in DOMAINS)
_FLAGS_FORMAT = " ".join(f"{flag} {{}}" for flag in FLAG_ORDER)
_DOMAIN_VALUES = tuple(DOMAINS.values())
_DOMAIN_TYPES = tuple(type(domain[0]) for domain in _DOMAIN_VALUES)  # int or str

# Each parameter's permitted values by the one spelling to_flags renders:
# flag text spells an integer as str(value), so "016384" or "16_384" is no
# value and one configuration has one flag text.
VALUE_TOKENS = {name: {str(v): v for v in domain} for name, domain in DOMAINS.items()}
_TOKEN_VALUES = tuple(VALUE_TOKENS.values())


# A design point's values, named and ordered as DOMAINS.
_ConfigValues = NamedTuple("_ConfigValues", list(zip(DOMAINS, _DOMAIN_TYPES)))


def _check_domain(name: str, value) -> None:
    """Raise ConfigError unless value is one of its parameter's domain
    values and of that domain's type: 32.0 and True are no ints here."""
    domain = DOMAINS[name]
    if type(value) is not type(domain[0]) or value not in domain:
        raise ConfigError(f"{name}={value!r} outside permitted set {domain}")


class CacheConfig(_ConfigValues):
    """One point of the 11-parameter design space (5 I-cache, 6 D-cache):
    a tuple of its values in DOMAINS order, checked whenever one is built."""

    __slots__ = ()

    def __new__(cls, isize, ibsize, irepl, iassoc, ifetch, dsize, dbsize, drepl, dassoc, dfetch,
                dwback):
        values = (isize, ibsize, irepl, iassoc, ifetch, dsize, dbsize, drepl, dassoc, dfetch,
                  dwback)
        if not (all(map(contains, _DOMAIN_VALUES, values))
                and tuple(map(type, values)) == _DOMAIN_TYPES):
            for name, value in zip(DOMAINS, values):
                _check_domain(name, value)
        return tuple.__new__(cls, values)

    @classmethod
    def _make(cls, iterable) -> "CacheConfig":
        """Build from 11 values in DOMAINS order, checked; _replace builds through it."""
        return cls(*iterable)

    def to_flags(self) -> str:
        """Render as simulator flag text in canonical flag order."""
        return _FLAGS_FORMAT.format(*self)

    @classmethod
    def from_flags(cls, text: str) -> "CacheConfig":
        """Parse simulator flag text; inverse of to_flags (any flag order).

        An integer must be written as to_flags writes it.
        """
        tokens = text.split()
        if len(tokens) % 2:
            raise FlagTextError(f"flag text has a dangling token: {tokens[-1]!r}")
        if tuple(tokens[::2]) == FLAG_ORDER:  # canonical order; a bad value is named below
            values = list(map(dict.get, _TOKEN_VALUES, tokens[1::2]))
            if None not in values:
                return _from_checked(values)
        seen: dict[str, str] = {}
        for flag, value in zip(tokens[::2], tokens[1::2]):
            if flag not in FLAG_ORDER:
                raise FlagTextError(f"unknown flag {flag!r}")
            if flag in seen:
                raise FlagTextError(f"duplicate flag {flag!r}")
            seen[flag] = value
        missing = [flag for flag in FLAG_ORDER if flag not in seen]
        if missing:
            raise FlagTextError(f"missing flag {missing[0]!r}")
        kwargs = {}
        for flag, raw in seen.items():
            name = flag[4:]
            if raw in VALUE_TOKENS[name]:
                kwargs[name] = VALUE_TOKENS[name][raw]
            elif isinstance(DOMAINS[name][0], str):
                kwargs[name] = raw  # outside the domain: __new__ names it
            else:
                try:
                    value = int(raw)
                except ValueError:
                    raise FlagTextError(f"{flag} expects an integer, got {raw!r}") from None
                if str(value) != raw:
                    raise FlagTextError(
                        f"{flag} expects an integer in plain decimal, got {raw!r} (write {value})"
                    )
                kwargs[name] = value
        return cls(**kwargs)


# Builds a CacheConfig from 11 values in DOMAINS order without __new__'s domain
# test: only for values that were already checked (a Subspace's value lists,
# VALUE_TOKENS' values), where that test would find nothing.
_from_checked = partial(tuple.__new__, CacheConfig)

# Normalization reference: 16 KB / 32 B / 4-way, LRU, demand fetch,
# copy-back data cache (a common embedded L1).
DEFAULT_BASELINE = CacheConfig(16384, 32, "l", 4, "d", 16384, 32, "l", 4, "d", "a")


def n_sets(size: int, block: int, assoc: int) -> int:
    return size // (block * assoc)


def geometry_problems(config: CacheConfig) -> tuple[str, ...]:
    """Check cache geometry: each side must hold at least one full set.

    Returns one message per side that cannot, I first: empty for a feasible
    point. Every domain is a power of two, so a set span no larger than the
    cache always divides it.
    """
    sides = (
        ("I-cache", config.isize, config.ibsize, config.iassoc),
        ("D-cache", config.dsize, config.dbsize, config.dassoc),
    )
    return tuple(
        f"{side}: block {block} B x {assoc} ways = {block * assoc} B exceeds cache size {size} B"
        for side, size, block, assoc in sides if block * assoc > size
    )


class _SimCounts(NamedTuple):
    accesses: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    write_backs: int = 0
    write_throughs: int = 0
    final_flush: int = 0


# The counters pricing reads, each checked finite and >= 0 whenever a SimStats is built.
_PRICED_COUNTERS = ("accesses", "demand_misses", "prefetch_fills")

# Every number the models read lies in [0, _MAX_FLOAT], or in (0, _MAX_FLOAT].
_MAX_FLOAT = sys.float_info.max


def _check_range(name: str, value, positive: bool = False, error=ValidationError) -> None:
    """The raising fallback of every such range test's chained comparison:
    NaN, infinities and ints past float range fail as negatives do."""
    if (0 < value <= _MAX_FLOAT) if positive else (0 <= value <= _MAX_FLOAT):
        return
    try:
        shown = repr(value)
    except ValueError:  # Python gives no text for an int over 4,300 digits
        shown = f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    raise error(f"{name} must be finite and {'>' if positive else '>='} 0, got {shown}")


class SimStats(_SimCounts):
    """Event counters for one cache side: a tuple of six counts, its
    priced counters checked finite and >= 0 (_check_range) whenever one is built.

    demand hits = accesses - demand_misses. Prefetch fills are tracked
    apart from demand misses and are never counted as accesses. Dirty
    blocks left at end of trace land in final_flush, not write_backs.
    """

    __slots__ = ()

    def __new__(cls, accesses=0, demand_misses=0, prefetch_fills=0, write_backs=0,
                write_throughs=0, final_flush=0):
        if not (0 <= accesses <= _MAX_FLOAT and 0 <= demand_misses <= _MAX_FLOAT
                and 0 <= prefetch_fills <= _MAX_FLOAT):
            for name, value in zip(_PRICED_COUNTERS, (accesses, demand_misses, prefetch_fills)):
                _check_range(f"counter {name}", value)
        return tuple.__new__(cls, (accesses, demand_misses, prefetch_fills, write_backs,
                                   write_throughs, final_flush))

    @classmethod
    def _make(cls, iterable) -> "SimStats":
        """Build from six counts in field order, checked; _replace builds through it."""
        return cls(*iterable)


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


# din label bytes -> 1 where the record belongs to the named stream
_IFETCH_LABEL = bytes.maketrans(b"012", b"\0\0\1")
_DATA_LABEL = bytes.maketrans(b"012", b"\1\1\0")
_WRITE_LABEL = bytes.maketrans(b"01", b"\0\1")  # with the b"2" labels deleted


class SideStreams:
    """A trace split once into its I-side and D-side access streams.

    simulate accepts raw records or a SideStreams; callers that simulate
    one trace many times build it once, from records or (from_din) from
    din text. One run-merged block stream is derived lazily for each
    (side, block size) and kept (blocks). Streams are compact arrays:
    addresses and block numbers as unsigned 64-bit, write flags as bytes.

    The streams also hold simulate's memo of each side (_imemo, _dmemo; an
    I and a D side of equal values differ), which only simulate reads and
    fills: the I-cache sees only ifetches, the D-cache only reads and writes,
    and a random side is seeded from its own flags, so one side's counters
    never depend on the other side's flags. A side that never evicts reads
    one unbounded ("open") cache pass per (side, block, fetch); see _open_counts.
    """

    def __init__(self, trace: Iterable[TraceRecord]):
        iaddrs, daddrs, dwrites = array("Q"), array("Q"), bytearray()
        for kind, address in trace:
            if kind == 2:  # AccessKind.IFETCH
                iaddrs.append(address)
            else:
                daddrs.append(address)
                dwrites.append(kind == 1)  # AccessKind.WRITE
        self._adopt(iaddrs, daddrs, dwrites)

    @classmethod
    def from_din(cls, lines: Iterable[str], max_records: int | None = None) -> "SideStreams":
        """SideStreams(parse_din(lines, max_records)), read straight from
        the din text into the streams without building a record."""
        iaddrs, daddrs, dwrites = array("Q"), array("Q"), bytearray()
        for labels, addrs in _din_chunks(lines, max_records):
            iaddrs.extend(compress(addrs, labels.translate(_IFETCH_LABEL)))
            daddrs.extend(compress(addrs, labels.translate(_DATA_LABEL)))
            dwrites += labels.translate(_WRITE_LABEL, b"2")
        streams = cls.__new__(cls)
        streams._adopt(iaddrs, daddrs, dwrites)
        return streams

    def _adopt(self, iaddrs: array, daddrs: array, dwrites: bytearray) -> None:
        self.iaddrs = iaddrs
        self.daddrs = daddrs
        self.dwrites = bytes(dwrites)
        self.writes = self.dwrites.count(1)
        # Each side's addresses and write flags; the I side's are one shared repeat(0).
        self._sides = {"i": (iaddrs, repeat(0)), "d": (daddrs, self.dwrites)}
        self._blocks: dict[tuple[str, int], tuple[array, bytes]] = {}
        self._imemo: dict[tuple, tuple[SimStats, SimStats]] = {}
        self._dmemo: dict[tuple, tuple[SimStats, SimStats]] = {}
        self._distinct: dict[tuple[str, int], int] = {}
        # One open pass per (side, block, fetch): its counters, its filled
        # blocks and, per n_sets asked about, their largest per-set share.
        self._open: dict[tuple[str, int, str], tuple[tuple, array, dict[int, int]]] = {}

    @classmethod
    def of(cls, trace) -> "SideStreams":
        return trace if isinstance(trace, cls) else cls(trace)

    def __len__(self) -> int:
        """The number of trace records."""
        return len(self.iaddrs) + len(self.daddrs)

    def blocks(self, side: str, block: int) -> tuple[array, bytes]:
        """One side's block stream: per run of consecutive accesses to one
        block, its block number and the OR of the run's write flags."""
        cached = self._blocks.get((side, block))
        if cached is None:
            addrs, writes = self._sides[side]
            shift = block.bit_length() - 1
            runs, flags, last = array("Q"), bytearray(), -1
            for address, write in zip(addrs, writes):
                b = address >> shift
                if b != last:
                    runs.append(b)
                    flags.append(write)
                    last = b
                elif write:
                    flags[-1] = 1
            cached = self._blocks[side, block] = (runs, bytes(flags))
        return cached


def _open_counts(
    streams: SideStreams, side: str, size: int, block: int, assoc: int, fetch: str,
) -> tuple[int, ...] | None:
    """The side's counters if it never evicts, else None.

    A finite cache matches the open cache until its first eviction, so it
    never evicts exactly when no set is mapped more of the open pass's
    filled blocks than it has ways; then replacement never acts and a random
    side draws nothing. Every cache holds size // block blocks, so a side
    with more distinct blocks than that cannot qualify: it costs one lookup
    of a count taken once per (side, block) from its block stream. The
    pass keeps the largest per-set share of each n_sets asked about.
    """
    n = n_sets(size, block, assoc)
    distinct = streams._distinct.get((side, block))
    if distinct is None:
        distinct = streams._distinct[side, block] = _count_distinct(
            streams.blocks(side, block)[0], CACHE_SIZES[-1] // block)
    if distinct > size // block:
        return None
    passed = streams._open.get((side, block, fetch))
    if passed is None:
        passed = streams._open[side, block, fetch] = (*_run_open(streams, side, block, fetch), {})
    counts, filled, shares = passed
    share = shares.get(n)
    if share is None:
        share = shares[n] = max(Counter(map((n - 1).__and__, filled)).values(), default=0)
    return counts if share <= assoc else None


def _count_distinct(blocks: array, cap: int) -> int:
    """The number of distinct blocks, or some number above cap once they
    exceed it. The set grows a slice at a time, so on a long stream of
    many blocks it never holds many more than cap."""
    seen: set[int] = set()
    for start in range(0, len(blocks), 4096):
        seen.update(blocks[start:start + 4096])
        if len(seen) > cap:
            break
    return len(seen)


def _run_open(
    streams: SideStreams, side: str, block: int, fetch: str,
) -> tuple[tuple[int, ...], array]:
    """One _fill_order pass of an unbounded cache over the block stream:
    one set (mask 0) with no way limit, so nothing is evicted.

    Returns the side's write-back counters (write-backs 0, every written
    block left dirty) and the blocks it filled, in fill order. A repeat
    access to a resident block changes only its dirty flag, and a repeated
    prefetch finds its block resident, so merged runs count alike.
    """
    blocks, writes = streams.blocks(side, block)
    resident: dict[int, int] = {}
    counts = _fill_order(blocks, writes, 0, math.inf, "f", fetch, None, resident)
    return (len(streams._sides[side][0]), *counts), array("Q", resident)


def _run_side(
    streams: SideStreams, side: str, size: int, block: int, assoc: int, repl: str,
    fetch: str, rng_seed: int,
) -> tuple[int, int, int, int, int]:
    """Run one side's stream as write-back; same semantics as CacheUnit.

    Returns (accesses, demand misses, prefetch fills, write-backs, dirty
    blocks left); _fill_order returns all but the first, for every
    replacement policy. Blocks are keyed by block number (the tag is implied
    by the set). A hit ends its access unless fetch is `a`, a miss ends
    after its fill under `d`, and any other access prefetches block b + 1.
    """
    n = n_sets(size, block, assoc)
    # A run of accesses to one block is one access plus hits that change only
    # the dirty flag, unless a prefetch of the next block can land in the same
    # set: a fully associative side with prefetch reads every access.
    if n == 1 and fetch != "d":  # derived for this pass, not kept
        addrs, writes = streams._sides[side]
        blocks = array("Q", map(rshift, addrs, repeat(block.bit_length() - 1)))
    else:
        blocks, writes = streams.blocks(side, block)
    seed = f"{rng_seed} {side} {size} {block} {assoc} {fetch}"  # see simulate
    rng = random.Random(seed) if repl == "r" else None
    counts = _fill_order(blocks, writes, n - 1, assoc, repl, fetch, rng)
    return (len(streams._sides[side][0]), *counts)


def _fill_order(
    blocks: array, writes: Iterable[int], mask: int, assoc: int, repl: str, fetch: str,
    rng: random.Random | None, resident: dict[int, int] | None = None,
) -> tuple[int, ...]:
    """The engine loop of every replacement policy: one dict of resident
    block -> dirty flag (a block maps to one set, so a hit needs no set, and
    its flag is the OR of its writes) and a list per set, which holds fill
    order under `f` and `r` and recency under `l`: an LRU hit moves its
    block to the end of its set's list unless it is already last. `l` and
    `f` evict the head of a full set's list. `r` evicts the block
    rng.choice(order) would pick, as CacheUnit does: a full set holds assoc
    blocks, so getrandbits(assoc.bit_length()) redrawn until < assoc.
    resident, if passed, is filled in place, so a caller that never evicts
    (assoc math.inf, `f`) reads the filled blocks in fill order.
    """
    prefetch, always, lru = fetch != "d", fetch == "a", repl == "l"
    if resident is None:
        resident = {}
    orders: defaultdict[int, list] = defaultdict(list)
    getrandbits, k = (rng.getrandbits, assoc.bit_length()) if repl == "r" else (None, 0)
    misses = fills = write_backs = 0
    for b, w in zip(blocks, writes):
        if b in resident:
            if w:
                resident[b] = True
            if lru:
                order = orders[b & mask]
                if order[-1] != b:
                    order.remove(b)
                    order.append(b)
            if not always:
                continue
        else:
            misses += 1
            order = orders[b & mask]
            if len(order) >= assoc:
                i = 0
                if k:
                    i = getrandbits(k)
                    while i >= assoc:
                        i = getrandbits(k)
                if resident.pop(order.pop(i)):
                    write_backs += 1
            resident[b] = w
            order.append(b)
            if not prefetch:
                continue
        b += 1
        if b not in resident:
            fills += 1
            order = orders[b & mask]
            if len(order) >= assoc:
                i = 0
                if k:
                    i = getrandbits(k)
                    while i >= assoc:
                        i = getrandbits(k)
                if resident.pop(order.pop(i)):
                    write_backs += 1
            resident[b] = 0
            order.append(b)
    return misses, fills, write_backs, sum(resident.values())


def simulate(
    config: CacheConfig, trace: Iterable[TraceRecord] | SideStreams, rng_seed: int = 0
) -> tuple[SimStats, SimStats]:
    """Run the trace through a split cache; return (I-cache, D-cache) stats.

    ifetch records go to the I-cache, reads and writes to the D-cache.
    rng_seed is a seed base, read only by a random-replacement side, whose
    generator is random.Random(f"{rng_seed} {side} {size} {block} {assoc} {fetch}"):
    its own flags, write policy left out, so it never depends on the other side.
    trace is records or a SideStreams built from them; pass the latter to
    simulate one trace many times: it stores each feasible side (_side_pair),
    so a point whose two sides are stored returns after two lookups.
    """
    if isinstance(trace, SideStreams):
        try:
            return (trace._imemo[config[:5], rng_seed][0],
                    trace._dmemo[config[5:10], rng_seed][config[10] == "n"])
        except KeyError:  # a side not stored yet
            pass
    isize, ibsize, _, iassoc, _, dsize, dbsize, _, dassoc, _, dwback = config
    if ibsize * iassoc > isize or dbsize * dassoc > dsize:
        raise InfeasibleConfigError("; ".join(geometry_problems(config)))
    streams = trace if isinstance(trace, SideStreams) else SideStreams(trace)
    return (_side_pair(streams, "i", streams._imemo, config[:5], rng_seed)[0],
            _side_pair(streams, "d", streams._dmemo, config[5:10], rng_seed)[dwback == "n"])


def _side_pair(streams: SideStreams, side: str, memo: dict, values: tuple, rng_seed: int):
    """A feasible side's (write-back, write-through) SimStats, stored under
    (values, rng_seed) and a canonical key of that shape: a direct-mapped
    side's `l`, `f` and `r` twins share one FIFO entry, and only a random
    side keeps the seed base. Write-through only drops write-backs and flush
    and counts every write (write misses allocate; dirty flags pick no
    victim), so one pass gives both: the open pass if the side never evicts
    (_open_counts), else an engine pass (_run_side)."""
    pair = memo.get((values, rng_seed))
    if pair is None:
        size, block, repl, assoc, fetch = values
        if assoc == 1:
            repl = "f"
        canonical = ((size, block, repl, assoc, fetch), rng_seed if repl == "r" else 0)
        pair = memo.get(canonical)
        if pair is None:
            accesses, misses, fills, write_backs, dirty = (
                _open_counts(streams, side, size, block, assoc, fetch)
                or _run_side(streams, side, size, block, assoc, repl, fetch, rng_seed))
            writes = streams.writes if side == "d" else 0
            pair = memo[canonical] = (SimStats(accesses, misses, fills, write_backs, 0, dirty),
                                      SimStats(accesses, misses, fills, 0, writes, 0))
        memo[values, rng_seed] = pair
    return pair


def config_sim_seed(config: CacheConfig, base: int = 0) -> int:
    """A seed hashed from a configuration's flag text and base; only perfbench calls it."""
    digest = hashlib.sha256(config.to_flags().encode()).digest()
    return int.from_bytes(digest[:8], "big") ^ (base & ((1 << 64) - 1))
