import gc
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacheopt.cachesim import SideStreams
from cacheopt.errors import TraceError
from cacheopt.trace import (
    PROFILES,
    AccessKind,
    TraceRecord,
    gen_synthetic,
    parse_din,
    to_din,
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
    kinds = Counter(r.kind for r in records)
    assert sum(kinds.values()) == 257 and set(kinds) <= set(AccessKind)


def test_mixed_is_instruction_heavy():
    records = gen_synthetic("mixed", 10_000, 42)
    kinds = Counter(r.kind for r in records)
    assert 0.70 <= kinds[AccessKind.IFETCH] / len(records) <= 0.80


def test_loop_profile_interleaves_data():
    kinds = Counter(r.kind for r in gen_synthetic("loop", 1000, 11))
    assert all(kinds[kind] > 0 for kind in AccessKind)


def test_sequential_profile_is_all_ifetch():
    kinds = Counter(r.kind for r in gen_synthetic("sequential", 100, 7))
    assert kinds == {AccessKind.IFETCH: 100}


def test_gen_synthetic_rejects_bad_args():
    with pytest.raises(ValueError, match="unknown profile"):
        gen_synthetic("zigzag", 10, 0)
    with pytest.raises(ValueError, match=">= 0"):
        gen_synthetic("sequential", -1, 0)


def test_max_records_must_not_be_negative():
    lines = ["2 10\n", "0 20\n"]
    with pytest.raises(ValueError, match="max_records must be >= 0, got -1"):
        parse_din(lines, max_records=-1)
    with pytest.raises(ValueError, match="max_records must be >= 0, got -1"):
        SideStreams.from_din(lines, max_records=-1)


@pytest.mark.parametrize("was_enabled", [True, False])
def test_parse_din_pauses_the_collector_and_restores_its_state(was_enabled):
    seen = []

    def lines(tail):
        for line in ["2 10\n", "0 20\n", tail]:
            seen.append(gc.isenabled())
            yield line

    restore = gc.isenabled()
    try:
        (gc.enable if was_enabled else gc.disable)()
        assert len(parse_din(lines("1 30\n"))) == 3
        assert gc.isenabled() is was_enabled
        with pytest.raises(TraceError, match="line 3"):
            parse_din(lines("garbage\n"))
        assert gc.isenabled() is was_enabled
        assert seen == [False] * 6
    finally:
        (gc.enable if restore else gc.disable)()


def test_side_streams_len_counts_records():
    records = gen_synthetic("mixed", 300, 2)
    assert len(SideStreams(records)) == 300
    assert len(SideStreams.from_din(to_din(records).splitlines(keepends=True))) == 300
    assert not SideStreams.from_din(["# only a comment\n", "\n"])


# -- oracle: the line-by-line parser that preceded chunked parsing ----------

_REFERENCE_HEX_RE = re.compile(r"(0[xX])?[0-9a-fA-F]+")
_REFERENCE_KINDS = {str(int(kind)): kind for kind in AccessKind}


def reference_parse_din(lines, max_records=None):
    """parse_din as it was before chunked parsing: one line at a time."""
    records = []
    for lineno, raw in enumerate(lines, start=1):
        if len(records) == max_records:
            break
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise TraceError(
                f"expected 'label address' at line {lineno}, got {line!r}"
            )
        label, addr_text = fields
        kind = _REFERENCE_KINDS.get(label)
        if kind is None:
            raise TraceError(f"invalid label at line {lineno}: {label!r}")
        if not _REFERENCE_HEX_RE.fullmatch(addr_text):
            raise TraceError(f"invalid hexadecimal address at line {lineno}: {addr_text!r}")
        address = int(addr_text, 16)
        if address > (1 << 64) - 1:
            raise TraceError(f"address out of 64-bit range at line {lineno}: {addr_text!r}")
        records.append(TraceRecord(kind, address))
    return records


def _outcome(parse, lines, max_records):
    try:
        return parse(lines, max_records), None
    except TraceError as exc:
        return None, str(exc)


def assert_parsers_agree(lines, max_records):
    want, want_error = _outcome(reference_parse_din, lines, max_records)
    got, got_error = _outcome(parse_din, lines, max_records)
    assert got_error == want_error
    streams, streams_error = _outcome(SideStreams.from_din, lines, max_records)
    assert streams_error == want_error
    if want_error is not None:
        return
    assert got == want
    assert all(type(r) is TraceRecord and type(r.kind) is AccessKind for r in got)
    expected = SideStreams(want)
    assert streams.iaddrs == expected.iaddrs
    assert streams.daddrs == expected.daddrs
    assert streams.dwrites == expected.dwrites
    assert streams.writes == expected.writes
    assert len(streams) == len(expected) == len(want)


def _strict(rng):
    """A line of the form the chunked parser reads without a per-line check."""
    digits = f"{rng.getrandbits(rng.choice((4, 16, 32, 64))):x}"
    if rng.random() < 0.1:
        digits = digits.upper()
    prefix = rng.choice(("",) * 8 + ("0x", "0X"))
    return f"{rng.randrange(3)} {prefix}{digits}\n"


_hex = st.text("0123456789abcdefABCDEF", min_size=1, max_size=16)
_label = st.sampled_from("012")
_odd_lines = st.one_of(
    st.builds("{} {}{}\n".format, _label, st.sampled_from(["", "0x", "0X"]), _hex),
    st.builds("{} {}".format, _label, _hex),  # no newline
    st.builds("{} {}  \n".format, _label, _hex),  # trailing blanks
    st.builds("{} {}\r\n".format, _label, _hex),
    st.builds(" {}\t{}\n".format, _label, _hex),
    st.builds("{} {}{}\n".format, _label, st.text("0", min_size=1, max_size=8), _hex),
    st.builds("{} {}\n".format, st.sampled_from(["3", "x", "02", "-1", "٢"]), _hex),
    st.builds("{} {}\n".format, _label, st.sampled_from(
        ["zz", "-ff", "+1", "1_0", "0x", "0xx1", "10000000000000000", "0x1ffffffffffffffff"])),
    st.sampled_from(["# comment\n", "#\n", "\n", "   \n", "", "2\n", "2 10 4\n"]),
    st.sampled_from(["2 10\n0 20\n", "2 10\n\t0 20\n", "2 10\n0 2"]),  # embedded newline
)


@st.composite
def din_lines(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = [_strict(rng) for _ in range(draw(st.sampled_from((0, 3, 50, 4095, 4096, 4097))))]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_odd_lines))
    return lines


@settings(max_examples=150, deadline=None)
@given(lines=din_lines(), data=st.data())
def test_chunked_parsers_agree_with_the_line_parser(lines, data):
    max_records = data.draw(st.one_of(
        st.none(), st.just(0), st.integers(1, len(lines) + 1)), label="max_records")
    assert_parsers_agree(lines, max_records)


@pytest.mark.parametrize("n", [4095, 4096, 4097])
@pytest.mark.parametrize("bad", [
    "3 10\n", "2 zz\n", "2 10000000000000000\n", "2 10\n0 2", "2 10\n\t0 20\n"])
def test_bad_line_after_a_strict_chunk(n, bad):
    """A bad line at the end of the first chunk or in the second is named by
    its own line number, and is never read once max_records are parsed."""
    rng = random.Random(n)
    lines = [_strict(rng) for _ in range(n)] + [bad] + [_strict(rng) for _ in range(5)]
    with pytest.raises(TraceError, match=f"line {n + 1}"):
        parse_din(lines)
    for max_records in (None, 0, 1, n - 1, n, n + 1, n + 6):
        assert_parsers_agree(lines, max_records)
    assert len(parse_din(lines, max_records=n)) == n
