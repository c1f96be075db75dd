"""Per-configuration access time/energy tables and main-memory constants.

A characterization table keys on the hardware triple (size, block, assoc);
replacement, prefetch and write policies do not change per-access cost.
Instruction and data caches share rows. Tables are immutable after load.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from itertools import product, repeat
from pathlib import Path
from typing import Iterable

from .cachesim import (
    _MAX_FLOAT, ASSOCIATIVITIES, BLOCK_SIZES, CACHE_SIZES, VALUE_TOKENS, _check_range
)
from .errors import CharLookupError, CharTableError

ALL_TRIPLES = tuple(product(CACHE_SIZES, BLOCK_SIZES, ASSOCIATIVITIES))

CSV_HEADER = ("size", "block", "assoc", "access_time_s", "access_energy_j")
_HEADER_LINE = ",".join(CSV_HEADER)

# size, block and assoc values by their canonical spellings, read without int().
_INT_TOKENS = {**VALUE_TOKENS["isize"], **VALUE_TOKENS["ibsize"], **VALUE_TOKENS["iassoc"]}

# How save_table writes a value: 11 significant digits, which float() reads
# back to the float that prints as the same text.
VALUE_FORMAT = "{:.10e}"

# One table item: (size, block, assoc), then (seconds, joules) per access.
CharItem = tuple[tuple[int, int, int], tuple[float, float]]


@dataclass(frozen=True)
class DramParams:
    """Main-memory constants the models read: latency, bandwidth, access
    power, each checked finite and > 0 (cachesim._check_range).

    Defaults model a 64 MiB embedded DRAM.
    """

    access_time: float = 3.9889e-9  # seconds
    bandwidth: float = 6.7108864e9  # bytes/second
    access_power: float = 1.051  # watts

    def __post_init__(self):
        for name in ("access_time", "bandwidth", "access_power"):
            _check_range(f"dram {name}", getattr(self, name), positive=True)


class CharTable:
    """Immutable lookup of (size, block, assoc) -> (access_time, access_energy),
    built from CharItems: one per triple, each value finite and > 0."""

    def __init__(self, items: Iterable[CharItem]):
        self._table = _checked_pairs(items)

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: tuple[int, int, int]) -> bool:
        return key in self._table

    def rows(self) -> list[CharItem]:
        """The items in triple order, as save_table writes them."""
        return sorted(self._table.items())

    def lookup(self, size: int, block: int, assoc: int) -> tuple[float, float]:
        """Return the stored (access_time, access_energy); never a default."""
        try:
            return self._table[(size, block, assoc)]
        except KeyError:
            raise CharLookupError(
                f"no characterization row for size={size} block={block} assoc={assoc}"
            ) from None

    def check_complete(self, triples: Iterable[tuple[int, int, int]]) -> None:
        """Require a row for each of the triples, naming the least missing one."""
        for key in sorted(triples):
            if key not in self._table:
                raise CharTableError(
                    f"missing characterization row for size={key[0]} "
                    f"block={key[1]} assoc={key[2]}"
                )


def _checked_pairs(items: Iterable[CharItem]) -> dict:
    """The lookup dict of CharItems: one per triple, each value finite and > 0."""
    table = {}
    for key, pair in items:
        if key in table:
            raise CharTableError(f"duplicate characterization row for {key}")
        access_time, access_energy = pair
        if not (0 < access_time <= _MAX_FLOAT and 0 < access_energy <= _MAX_FLOAT):
            _check_range(f"access_time for {key}", access_time, True, CharTableError)
            _check_range(f"access_energy for {key}", access_energy, True, CharTableError)
        table[key] = pair
    return table


def load_table(path: str | Path) -> CharTable:
    """Load a characterization CSV; `#` lines are comments. A bad row is
    named by the file line it starts on. Rows may be missing: each command
    checks the rows it will look up (CharTable.check_complete).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        text = fh.read()
    pairs = _plain_pairs(text)
    return CharTable(_read_rows(path, text) if pairs is None else pairs)


def _plain_pairs(text: str) -> list[CharItem] | None:
    """The CharItems of a plain table text, read a column at a time, or
    None for any text that only _read_rows may judge.

    Plain text is the exact header line, then data lines of exactly four
    commas each, with no `#`, `"` or carriage return anywhere: csv.reader
    splits such a line at its commas alone, and no line is a comment or
    blank. The items equal _read_rows' then, in file order and bit for
    bit, since each field goes through the same int or float.
    """
    header, _, body = text.partition("\n")
    if header != _HEADER_LINE or "#" in text or '"' in text or "\r" in text:
        return None
    lines = body.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty text after the final newline
    if not lines:
        return []
    if list(map(str.count, lines, repeat(","))).count(4) != len(lines):
        return None
    limit = csv.field_size_limit()  # csv.reader refuses a longer field
    if len(body) > limit and max(map(len, lines)) > limit:
        return None
    fields = ",".join(lines).split(",")
    try:
        try:
            keys = list(zip(*(map(_INT_TOKENS.__getitem__, fields[i::5]) for i in range(3))))
        except KeyError:  # a spelling such as "0512" or "5_12": int() reads it
            keys = list(zip(*(map(int, fields[i::5]) for i in range(3))))
        return list(zip(keys, zip(map(float, fields[3::5]), map(float, fields[4::5]))))
    except ValueError:
        return None


def _read_rows(path: Path, text: str) -> list[CharItem]:
    """The CharItems of a table text, read row by row with csv.reader; the
    only code that names a bad file line.

    The text is split into lines as readlines() splits a file opened with
    newline="": at \\n, \\r and \\r\\n only (str.splitlines also splits at
    \\f, \\v and others).
    """
    lines = io.StringIO(text, newline="").readlines()
    data = [i for i, line in enumerate(lines) if line.lstrip()[:1] not in ("", "#")]
    reader = csv.reader(map(lines.__getitem__, data))
    start = 0  # data lines read before the row being read
    try:  # csv.Error, such as a field over csv.field_size_limit(), names its row's line
        header = next(reader, None)
        if header is None:
            raise CharTableError(f"{path}: empty characterization file")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise CharTableError(
                f"{path}: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        pairs, start = [], reader.line_num
        for fields in reader:
            lineno, start = data[start] + 1, reader.line_num
            if len(fields) != 5:
                raise CharTableError(
                    f"{path}: line {lineno}: row has {len(fields)} fields, expected 5")
            try:
                pairs.append(((int(fields[0]), int(fields[1]), int(fields[2])),
                              (float(fields[3]), float(fields[4]))))
            except ValueError as exc:
                raise CharTableError(f"{path}: line {lineno}: {exc}") from None
    except csv.Error as exc:
        raise CharTableError(f"{path}: line {data[start] + 1}: {exc}") from None
    return pairs


def save_table(table: CharTable, path: str | Path) -> None:
    """Write the table as CSV, sorted by triple; byte-stable across runs."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for (size, block, assoc), (access_time, access_energy) in table.rows():
            writer.writerow([size, block, assoc, VALUE_FORMAT.format(access_time),
                             VALUE_FORMAT.format(access_energy)])


def surrogate_generate(seed: int = 0) -> CharTable:
    """Generate a plausible 256-row table standing in for a real characterizer.

    Access time and energy grow affinely in log2(size), log2(assoc) and
    log2(block) with positive seed-jittered coefficients, so both values
    strictly increase with size at fixed (block, assoc) and with assoc at
    fixed (size, block). Times stay within 1e-10..5e-9 s and energies
    within 1e-12..1e-9 J for every triple. Each value is rounded to the
    digits save_table writes, so the table equals its saved file.
    """
    rng = random.Random(seed)
    t0 = rng.uniform(1.2e-10, 2.0e-10)
    t_size = rng.uniform(1.0e-10, 2.4e-10)
    t_assoc = rng.uniform(0.8e-10, 2.0e-10)
    t_block = rng.uniform(0.2e-10, 1.0e-10)
    e0 = rng.uniform(1.5e-12, 3.0e-12)
    e_size = rng.uniform(3.0e-11, 6.0e-11)
    e_assoc = rng.uniform(2.0e-11, 5.0e-11)
    e_block = rng.uniform(0.5e-11, 2.0e-11)

    def item(triple):
        size, block, assoc = triple
        s = math.log2(size / 512)
        a = math.log2(assoc)
        b = math.log2(block / 8)
        pair = (t0 + t_size * s + t_assoc * a + t_block * b,
                e0 + e_size * s + e_assoc * a + e_block * b)
        return triple, tuple(float(VALUE_FORMAT.format(v)) for v in pair)

    return CharTable(map(item, ALL_TRIPLES))

