"""din trace ingestion and deterministic synthetic trace generation.

A trace is a sequence of TraceRecord values. The din text format carries one
access per line: a label (0 = read, 1 = write, 2 = ifetch) and a hexadecimal
byte address. Every access is 4 bytes wide (32-bit words); din carries no
size field.
"""

from __future__ import annotations

import gc
import re
import random
from enum import IntEnum
from itertools import islice, repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import TraceError


class AccessKind(IntEnum):
    """Memory access kind, numbered exactly as din labels."""

    READ = 0
    WRITE = 1
    IFETCH = 2


class TraceRecord(NamedTuple):
    kind: AccessKind
    address: int


_MAX_ADDRESS = (1 << 64) - 1
_HEX_RE = re.compile(r"(0[xX])?[0-9a-fA-F]+")
_KINDS = {str(int(kind)): kind for kind in AccessKind}  # din label -> kind
_KIND_OF_BYTE = {ord(label): kind for label, kind in _KINDS.items()}  # label byte -> kind

# A chunk of din lines takes the strict path when, joined with tabs, it
# holds no other tab and the expression matches: then every line is a
# label, one space, at most 16 hex digits (so under 2**64: no check can
# fail) and one "\n". Any other chunk is parsed line by line. "(?:0[xX]|)"
# is "(?:0[xX])?" written the way CPython's engine matches faster.
_CHUNK_LINES = 4096
_STRICT_LINE = "[012] (?:0[xX]|)[0-9a-fA-F]{1,16}\n"
_STRICT_CHUNK_RE = re.compile(f"{_STRICT_LINE}(?:\t{_STRICT_LINE})*")


def parse_din(lines: Iterable[str], max_records: int | None = None) -> list[TraceRecord]:
    """Parse classic din text: one `label hexaddr` pair per line.

    Empty lines and lines starting with `#` are skipped. Addresses are
    hexadecimal with an optional 0x prefix and must fit in 64 bits. With
    max_records, parsing stops once that many records are read; the lines
    after them are not checked. cachesim.SideStreams.from_din reads the
    same text straight into per-side streams.

    The cyclic garbage collector is paused while the list grows, since
    each new record is a tracked tuple that would set off collections
    walking the whole list; the caller's collector state is restored.
    """
    records: list[TraceRecord] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for labels, addrs in _din_chunks(lines, max_records):
            kinds = map(_KIND_OF_BYTE.__getitem__, labels)
            records += map(tuple.__new__, repeat(TraceRecord), zip(kinds, addrs))
    finally:
        if enabled:
            gc.enable()
    return records


def _din_chunks(
    lines: Iterable[str], max_records: int | None
) -> Iterator[tuple[bytes, list[int]]]:
    """Yield the records of din text a chunk of lines at a time, as din
    label bytes (b"0", b"1" or b"2" per record) and int addresses.

    A chunk has no more lines than records are still wanted, so no line
    after the last wanted record is read.
    """
    if max_records is not None and max_records < 0:
        raise ValueError(f"max_records must be >= 0, got {max_records}")
    lines = iter(lines)
    lineno, left = 1, max_records  # lineno: the chunk's first line
    while left != 0:
        chunk = list(islice(lines, _CHUNK_LINES if left is None else min(left, _CHUNK_LINES)))
        if not chunk:
            return
        text = "\t".join(chunk)
        if text.count("\t") == len(chunk) - 1 and _STRICT_CHUNK_RE.fullmatch(text):
            fields = text.split()
            labels = "".join(fields[0::2]).encode()
            addrs = list(map(int, fields[1::2], repeat(16)))
        else:
            labels, addrs = _parse_lines(chunk, lineno)
        yield labels, addrs
        lineno += len(chunk)
        if left is not None:
            left -= len(addrs)


def _parse_lines(chunk: list[str], lineno: int) -> tuple[bytes, list[int]]:
    """Parse din lines one by one, the first being line lineno; the only
    code that names a bad line."""
    labels, addrs = [], []
    for lineno, raw in enumerate(chunk, start=lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise TraceError(
                f"expected 'label address' at line {lineno}, got {line!r}"
            )
        label, addr_text = fields
        if label not in _KINDS:
            raise TraceError(f"invalid label at line {lineno}: {label!r}")
        if not _HEX_RE.fullmatch(addr_text):
            raise TraceError(f"invalid hexadecimal address at line {lineno}: {addr_text!r}")
        address = int(addr_text, 16)
        if address > _MAX_ADDRESS:
            raise TraceError(f"address out of 64-bit range at line {lineno}: {addr_text!r}")
        labels.append(label)
        addrs.append(address)
    return "".join(labels).encode(), addrs


def to_din(records: Iterable[TraceRecord]) -> str:
    """Render records as din text; inverse of parse_din."""
    return "".join(f"{int(r.kind)} {r.address:x}\n" for r in records)


def gen_synthetic(profile: str, n: int, seed: int) -> list[TraceRecord]:
    return list(synthetic_records(profile, n, seed))


def synthetic_records(profile: str, n: int, seed: int) -> Iterator[TraceRecord]:
    """A deterministic n-record trace of the named access profile, made as read.

    Profiles:
      sequential  ifetch at consecutive 4-byte addresses
      loop        a repeated ifetch body interleaved with data reads/writes
      strided     data accesses walking a fixed stride
      random      uniform kinds and addresses
      mixed       ~75% ifetch / ~25% data, instruction-heavy with loop reuse
    """
    if n < 0:
        raise ValueError(f"record count must be >= 0, got {n}")
    try:
        stream = _STREAMS[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}") from None
    return islice(stream(random.Random(seed)), n)


def _sequential_stream(rng: random.Random) -> Iterator[TraceRecord]:
    addr = 0
    while True:
        yield TraceRecord(AccessKind.IFETCH, addr)
        addr += 4


def _loop_stream(rng: random.Random) -> Iterator[TraceRecord]:
    body = rng.choice((16, 32, 64))  # ifetch words per iteration
    code, arr, working = 0x4000, 0x80000, 1 << 12
    k = 0
    while True:
        for j in range(body):
            yield TraceRecord(AccessKind.IFETCH, code + 4 * j)
            if j % 4 == 3:
                kind = AccessKind.WRITE if k % 4 == 3 else AccessKind.READ
                yield TraceRecord(kind, arr + (4 * k) % working)
                k += 1


def _strided_stream(rng: random.Random) -> Iterator[TraceRecord]:
    stride = rng.choice((16, 32, 64, 128))
    base, span = 0x20000, 1 << 18
    k = 0
    while True:
        kind = AccessKind.WRITE if k % 8 == 7 else AccessKind.READ
        yield TraceRecord(kind, base + (k * stride) % span)
        k += 1


def _random_stream(rng: random.Random) -> Iterator[TraceRecord]:
    while True:
        kind = AccessKind(rng.randrange(3))
        yield TraceRecord(kind, rng.randrange(1 << 20) & ~0x3)


def _mixed_stream(rng: random.Random) -> Iterator[TraceRecord]:
    # Instruction stream: mostly sequential with jumps back to loop anchors,
    # bounded to a 32 KiB code window. Data: half a strided walk over a
    # 16 KiB working set, half uniform over 256 KiB, 30% writes.
    anchors = [0x1000 + 0x400 * i for i in range(4)]
    pc = anchors[0]
    data_base, walk_span, rand_span = 0x100000, 1 << 14, 1 << 18
    ptr = data_base
    while True:
        if rng.random() < 0.75:
            yield TraceRecord(AccessKind.IFETCH, pc)
            if rng.random() < 0.05 or pc >= 0x1000 + (1 << 15):
                pc = rng.choice(anchors)
            else:
                pc += 4
        else:
            if rng.random() < 0.5:
                ptr += 32
                if ptr >= data_base + walk_span:
                    ptr = data_base
                addr = ptr
            else:
                addr = data_base + (rng.randrange(rand_span) & ~0x3)
            kind = AccessKind.WRITE if rng.random() < 0.3 else AccessKind.READ
            yield TraceRecord(kind, addr)


_STREAMS = {
    "sequential": _sequential_stream,
    "loop": _loop_stream,
    "strided": _strided_stream,
    "random": _random_stream,
    "mixed": _mixed_stream,
}
PROFILES = tuple(_STREAMS)  # gentrace --profile choices, in this order
