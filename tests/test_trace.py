import random

import pytest

from cacheopt.errors import TraceError
from cacheopt.trace import (
    PROFILES,
    AccessKind,
    TraceRecord,
    gen_synthetic,
    parse_din,
    to_din,
    trace_stats,
)


def test_parse_basic_labels():
    records = parse_din(["2 4000", "1 0xff", "0 10"])
    assert records[0] == TraceRecord(AccessKind.IFETCH, 0x4000)
    assert records[1] == TraceRecord(AccessKind.WRITE, 255)
    assert records[2] == TraceRecord(AccessKind.READ, 16)


def test_parse_skips_blanks_and_comments():
    text = "# header comment\n\n2 4000\r\n   \n# trailing\n0 8\n"
    records = parse_din(text.splitlines())
    assert [r.address for r in records] == [0x4000, 8]


def test_parse_invalid_label_reports_line():
    with pytest.raises(TraceError, match="invalid label at line 1"):
        parse_din(["3 4000"])


def test_parse_bad_hex_reports_line():
    with pytest.raises(TraceError, match="line 2"):
        parse_din(["2 4000", "2 zz"])
    with pytest.raises(TraceError, match="line 1"):
        parse_din(["0 -ff"])


def test_parse_rejects_wide_addresses():
    parse_din(["0 ffffffffffffffff"])  # exactly 64 bits is fine
    with pytest.raises(TraceError, match="64-bit"):
        parse_din(["0 10000000000000000"])


def test_parse_rejects_extra_fields():
    with pytest.raises(TraceError, match="line 1"):
        parse_din(["2 4000 4"])


def test_parse_max_records_counts_records_not_lines():
    lines = ["# header", "2 4000", "", "1 0xff", "# note", "0 10", "garbage"]
    assert [r.address for r in parse_din(lines, max_records=2)] == [0x4000, 0xFF]
    assert len(parse_din(lines, max_records=3)) == 3  # "garbage" is never parsed
    assert parse_din(lines, max_records=0) == []
    with pytest.raises(TraceError, match="line 7"):
        parse_din(lines, max_records=4)


def test_din_round_trip():
    rng = random.Random(7)
    records = [
        TraceRecord(AccessKind(rng.randrange(3)), rng.randrange(1 << 48))
        for _ in range(500)
    ]
    assert parse_din(to_din(records).splitlines()) == records


def test_sequential_profile():
    assert gen_synthetic("sequential", 3, 99) == [
        TraceRecord(AccessKind.IFETCH, 0x0),
        TraceRecord(AccessKind.IFETCH, 0x4),
        TraceRecord(AccessKind.IFETCH, 0x8),
    ]
    assert gen_synthetic("sequential", 0, 1) == []


@pytest.mark.parametrize("profile", PROFILES)
def test_gen_synthetic_deterministic(profile):
    assert gen_synthetic(profile, 300, 5) == gen_synthetic(profile, 300, 5)


@pytest.mark.parametrize("profile", PROFILES)
def test_gen_synthetic_length_and_stats_sum(profile):
    records = gen_synthetic(profile, 257, 3)
    assert len(records) == 257
    assert trace_stats(records).total == 257


def test_mixed_is_instruction_heavy():
    records = gen_synthetic("mixed", 10_000, 42)
    stats = trace_stats(records)
    assert 0.70 <= stats.n_ifetch / stats.total <= 0.80


def test_loop_profile_interleaves_data():
    stats = trace_stats(gen_synthetic("loop", 1000, 11))
    assert stats.n_ifetch > 0 and stats.n_read > 0 and stats.n_write > 0


def test_gen_synthetic_rejects_bad_args():
    with pytest.raises(ValueError, match="unknown profile"):
        gen_synthetic("zigzag", 10, 0)
    with pytest.raises(ValueError, match=">= 0"):
        gen_synthetic("sequential", -1, 0)


def test_trace_stats_counts():
    assert trace_stats([]) == trace_stats([])
    empty = trace_stats([])
    assert (empty.n_ifetch, empty.n_read, empty.n_write) == (0, 0, 0)
    two = trace_stats(
        [TraceRecord(AccessKind.IFETCH, 0xA), TraceRecord(AccessKind.READ, 0xB)]
    )
    assert (two.n_ifetch, two.n_read, two.n_write) == (1, 1, 0)
    seq = trace_stats(gen_synthetic("sequential", 100, 7))
    assert (seq.n_ifetch, seq.n_read, seq.n_write) == (100, 0, 0)
