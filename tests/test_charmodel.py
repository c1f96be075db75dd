import csv
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cacheopt import charmodel
from cacheopt.charmodel import (
    ALL_TRIPLES,
    CSV_HEADER,
    CharTable,
    DramParams,
    load_table,
    save_table,
    surrogate_generate,
)
from cacheopt.errors import CharTableError, ValidationError


def test_dram_defaults():
    dram = DramParams()
    assert dram.access_time == 3.9889e-9
    assert dram.bandwidth == 6.7108864e9
    assert dram.access_power == 1.051


def test_dram_rejects_nonpositive():
    with pytest.raises(ValidationError):
        DramParams(access_time=0.0)
    with pytest.raises(ValidationError):
        DramParams(bandwidth=-1.0)
    for name in ("access_time", "bandwidth", "access_power"):  # past float range
        with pytest.raises(ValidationError, match=f"dram {name} must be finite and > 0"):
            DramParams(**{name: 10**400})


def test_surrogate_covers_all_triples():
    table = surrogate_generate(1)
    assert len(table) == 256
    for triple in ALL_TRIPLES:
        assert triple in table
    # infeasible geometries are characterized too
    assert (512, 64, 128) in table


def test_surrogate_deterministic():
    a, b = surrogate_generate(5), surrogate_generate(5)
    assert a.rows() == b.rows()
    c = surrogate_generate(6)
    assert a.rows() != c.rows()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_surrogate_monotonic_and_bounded(seed):
    table = surrogate_generate(seed)
    sizes = sorted({t[0] for t in ALL_TRIPLES})
    assocs = sorted({t[2] for t in ALL_TRIPLES})
    blocks = sorted({t[1] for t in ALL_TRIPLES})
    for block in blocks:
        for assoc in assocs:
            values = [table.lookup(size, block, assoc) for size in sizes]
            assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(values, values[1:]))
    for size in sizes:
        for block in blocks:
            values = [table.lookup(size, block, assoc) for assoc in assocs]
            assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(values, values[1:]))
    for _, (access_time, access_energy) in table.rows():
        assert 1e-10 <= access_time <= 5e-9
        assert 1e-12 <= access_energy <= 1e-9


def test_lookup_contract():
    table = surrogate_generate(2)
    assert table.lookup(65536, 32, 4) == table.lookup(65536, 32, 4)
    triple, pair = table.rows()[0]
    assert table.lookup(*triple) == pair
    partial = CharTable([((1024, 8, 1), (1e-9, 1e-11))])
    message = "^missing characterization row for size=512 block=8 assoc=1$"
    with pytest.raises(CharTableError, match=message):
        partial.lookup(512, 8, 1)
    with pytest.raises(CharTableError, match=message):  # the least missing triple
        partial.check_complete([(2048, 8, 1), (1024, 8, 1), (512, 8, 1)])


def test_duplicate_triple_rejected():
    rows = [((8192, 64, 1), (1e-9, 1e-11)), ((8192, 64, 1), (2e-9, 2e-11))]
    with pytest.raises(CharTableError, match="duplicate"):
        CharTable(rows)


def test_nonpositive_values_rejected():
    with pytest.raises(CharTableError, match="access_time"):
        CharTable([((512, 8, 1), (0.0, 1e-11))])
    with pytest.raises(CharTableError, match="access_energy"):
        CharTable([((512, 8, 1), (1e-9, -1e-11))])
    # an int past float range is refused here, not when a point is priced
    with pytest.raises(CharTableError, match=r"access_time for \(16384, 32, 4\)"):
        CharTable([((16384, 32, 4), (10**400, 1e-11))])
    with pytest.raises(CharTableError, match=r"access_energy for \(16384, 32, 4\)"):
        CharTable([((16384, 32, 4), (1e-9, 10**400))])


@pytest.mark.parametrize("value", [math.inf, math.nan, pytest.param(10**400, id="10**400")])
def test_out_of_range_values_are_named_as_such(value):
    """Not "non-positive": the table says which rule the value breaks."""
    with pytest.raises(CharTableError) as info:
        CharTable([((16384, 32, 4), (value, 1e-11))])
    assert str(info.value) == (
        f"access_time for (16384, 32, 4) must be finite and > 0, got {value!r}")


def test_save_load_round_trip(tmp_path):
    """A surrogate table equals its saved file, bit for bit."""
    table = surrogate_generate(3)
    path = tmp_path / "chars.csv"
    save_table(table, path)
    loaded = load_table(path)
    assert len(loaded) == 256
    for size, block, assoc in ALL_TRIPLES:
        assert loaded.lookup(size, block, assoc) == table.lookup(size, block, assoc)
    assert loaded.rows() == table.rows()


def test_save_is_byte_stable(tmp_path):
    table = surrogate_generate(4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_table(table, a)
    save_table(table, b)
    assert a.read_bytes() == b.read_bytes()


def test_strict_load_names_missing_triple(tmp_path):
    """A table may lack rows when loaded; a check of the rows a command
    needs, here all 256, names the missing one."""
    table = surrogate_generate(0)
    *rows, ((size, block, assoc), _) = table.rows()  # drop the last triple
    path = tmp_path / "partial.csv"
    save_table(CharTable(rows), path)
    loaded = load_table(path)
    assert len(loaded) == 255
    loaded.check_complete([triple for triple, _ in rows])
    with pytest.raises(CharTableError) as info:
        loaded.check_complete(ALL_TRIPLES)
    assert str(info.value) == (
        f"missing characterization row for size={size} block={block} assoc={assoc}")


def test_load_rejects_duplicate_row(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "size,block,assoc,access_time_s,access_energy_j\n"
        "8192,64,1,1e-9,1e-11\n"
        "8192,64,1,2e-9,2e-11\n"
    )
    with pytest.raises(CharTableError, match=r"duplicate.*8192"):
        load_table(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("size,block,ways,time,energy\n512,8,1,1e-9,1e-11\n")
    with pytest.raises(CharTableError, match="header"):
        load_table(path)


def test_load_accepts_comments_and_scientific(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "# produced by hand\n"
        "size,block,assoc,access_time_s,access_energy_j\n"
        "512,8,1,1.5E-10,2.5e-12\n"
    )
    table = load_table(path)
    assert table.lookup(512, 8, 1) == (1.5e-10, 2.5e-12)


def test_load_rejects_garbage_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "size,block,assoc,access_time_s,access_energy_j\n512,8,one,1e-9,1e-11\n"
    )
    with pytest.raises(CharTableError, match="line 2"):
        load_table(path)


def test_load_names_the_file_line_of_a_bad_row(tmp_path):
    """Comment and blank lines count: the bad row is named by its file line."""
    good = ["512,8,1,1e-10,1e-12", "1024,8,1,2e-10,2e-12", "2048,8,1,3e-10,3e-12",
            "4096,8,1,4e-10,4e-12", "8192,8,1,5e-10,5e-12"]
    lines = ["# produced by hand", "size,block,assoc,access_time_s,access_energy_j",
             good[0], "", good[1], "# more rows", *good[2:]]
    path = tmp_path / "t.csv"
    path.write_text("\n".join([*lines[:8], "16384,8,1,fast,6e-12", *lines[8:]]) + "\n")
    with pytest.raises(CharTableError, match=r"t\.csv: line 9: could not convert"):
        load_table(path)
    path.write_text("\n".join([*lines, "16384,8,1,6e-10"]) + "\n")
    with pytest.raises(CharTableError, match="line 10: row has 4 fields, expected 5"):
        load_table(path)
    path.write_text("\n".join(lines) + "\n")
    assert len(load_table(path)) == 5


def row_reader_items(path: Path) -> list:
    """The reference: load_table's csv.reader row path as it stood before the
    bulk path, with its row checks, returning the table's items in order."""
    with path.open(newline="") as fh:
        lines = fh.readlines()
    data = [i for i, line in enumerate(lines) if line.lstrip()[:1] not in ("", "#")]
    reader = csv.reader(map(lines.__getitem__, data))
    try:
        header = next(reader)
    except StopIteration:
        raise CharTableError(f"{path}: empty characterization file") from None
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
    table = {}
    for key, (access_time, access_energy) in pairs:
        if key in table:
            raise CharTableError(f"duplicate characterization row for {key}")
        for name, value in (("access_time", access_time), ("access_energy", access_energy)):
            if not 0 < value < math.inf:
                raise CharTableError(
                    f"{name} for {key} must be finite and > 0, got {value!r}")
        table[key] = (access_time, access_energy)
    return list(table.items())


def outcome(load, path: Path):
    """repr of the items (key order, int types and every float bit), or the
    error's type and message."""
    try:
        return repr(load(path))
    except Exception as exc:  # noqa: BLE001 -- the two loaders must raise alike
        return type(exc).__name__, str(exc)


LONG_FLOAT = "1." + "0" * 139_995 + "e-9"  # 140,000 characters


@pytest.mark.parametrize("lineno", [1, 2, 4])
def test_load_names_the_line_of_a_field_over_the_csv_limit(tmp_path, lineno):
    """csv.reader refuses a field longer than csv.field_size_limit(); the
    header's or a row's overlong field is a CharTableError naming its line."""
    assert len(LONG_FLOAT) == 140_000 > csv.field_size_limit()
    rows = ["size,block,assoc,access_time_s,access_energy_j", "512,8,1,1e-9,1e-11",
            "# a comment", "1024,8,1,2e-9,2e-11"]
    rows[lineno - 1] = rows[lineno - 1].replace("1e-11", LONG_FLOAT).replace(
        "access_energy_j", LONG_FLOAT).replace("2e-11", LONG_FLOAT)
    path = tmp_path / "long.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CharTableError,
                       match=rf"long\.csv: line {lineno}: field larger than field limit"):
        load_table(path)


SPECIAL_VALUES = ("nan", "inf", "-inf", "Infinity", "1e400", "0", "-0.0", "-1e-9", "fast", "",
                  " 1e-9")
INT_SPELLINGS = (lambda v: "0" + v, lambda v: "+" + v, lambda v: v[:1] + "_" + v[1:],
                 lambda v: " " + v, lambda v: v + " ", lambda v: v + ".0", lambda v: "-" + v)
# readlines() with newline="" does not split at these; str.splitlines does.
ODD_BREAKS = ("\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def table_texts(draw):
    """A characterization table's text: the surrogate's 256 rows or a few
    random ones, plain or with mutations that a CSV reader may or may not
    accept."""
    if draw(st.booleans()):
        rows = [[*map(str, triple), f"{access_time:.10e}", repr(access_energy)]
                for triple, (access_time, access_energy)
                in surrogate_generate(draw(st.integers(0, 3))).rows()]
    else:
        triples = draw(st.lists(st.sampled_from(ALL_TRIPLES + ((3, 8, 1), (512, 5, 1))),
                                max_size=10, unique=True))
        values = st.floats(1e-13, 1e-6).map(repr) | st.floats(1e-13, 1e-6).map("{:.4e}".format)
        rows = [[str(v) for v in triple] + [draw(values), draw(values)] for triple in triples]
    header = ",".join(CSV_HEADER)
    ends = ["\n"] * (len(rows) + 1)
    lines = [header, *map(",".join, rows)]
    final_newline = True
    count = draw(st.sampled_from((0, 1, 1, 1, 1, 2, 3)))  # mostly one, alone
    for mutation in draw(st.lists(st.integers(0, 12), min_size=count, max_size=count)):
        at = draw(st.integers(1, len(lines)))  # a data line, or just past the last
        row = at if at < len(lines) else len(lines) - 1
        fields = lines[row].split(",")
        field = draw(st.integers(0, len(fields) - 1))
        if mutation == 0:  # a comment line
            lines.insert(at, draw(st.sampled_from(("# note", "  # x,y", "#,,,,"))))
            ends.insert(at, "\n")
        elif mutation == 1:  # a blank line, perhaps before the header
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(("", "  ", "\t", "\f", "\x85", "\u2028"))))
            ends.insert(at, "\n")
        elif mutation == 2:  # CRLF line ends, some of them CR or LF
            ends = [draw(st.sampled_from(("\r\n", "\n", "\r"))) if draw(st.booleans())
                    else "\r\n" for _ in ends]
        elif mutation == 3:  # a quoted field, perhaps unclosed or across lines
            fields[field] = '"' + fields[field] + draw(st.sampled_from(('"', "", ',"', '\n"')))
            lines[row] = ",".join(fields)
        elif mutation == 4 and 1 <= row < len(lines) - 1:  # 4 and 6 fields, 10 in all
            first, second = lines[row].split(","), lines[row + 1].split(",")
            lines[row], lines[row + 1] = ",".join(first[:4]), ",".join(second + first[4:])
        elif mutation == 5:  # a carriage return or other break inside a line
            text = lines[row]
            cut = draw(st.integers(0, len(text)))
            lines[row] = text[:cut] + draw(st.sampled_from(("\r", *ODD_BREAKS))) + text[cut:]
        elif mutation == 6 and row > 0:  # an integer spelled another way
            fields[field % 3] = draw(st.sampled_from(INT_SPELLINGS))(fields[field % 3])
            lines[row] = ",".join(fields)
        elif mutation == 7 and len(fields) == 5:  # NaN, inf, 0, negative or garbage
            fields[3 + field % 2] = draw(st.sampled_from(SPECIAL_VALUES) | st.floats().map(repr))
            lines[row] = ",".join(fields)
        elif mutation == 8 and row > 0:
            lines.insert(at, lines[row])  # a duplicate triple
            ends.insert(at, "\n")
        elif mutation == 9:  # only the header
            del lines[1:], ends[1:]
        elif mutation == 10:
            final_newline = False
        elif mutation == 11:  # a header the row reader accepts, or one it rejects
            lines[0] = draw(st.sampled_from((
                " size, block,assoc ,access_time_s,access_energy_j",
                "size,block,ways,time,energy", "", "size,block,assoc,access_time_s")))
        elif mutation == 12:  # five or six commas
            lines[row] = lines[row] + "," * draw(st.integers(1, 2))
    text = "".join(map(str.__add__, lines, ends))
    return text if final_newline else text.rstrip("\r\n")


HEADER = ",".join(CSV_HEADER) + "\n"


@settings(max_examples=500, deadline=None)
@given(text=table_texts())
@example(HEADER + "512,8,1,1\n512,8,2,3,4,5\n")
@example(HEADER + "512,8,1,1e-9,1e-11\r\n\r\n# note\r\n1024,8,1,2e-9,2e-11\r\n")
@example(HEADER + '512,8,1,"1e-9",1e-11\n1024,8,1,2e-9,2e-11\n')
@example(HEADER + "512,8,1,1e-9\f,1e-11\n512,8,2,1e-9,1e-11\f\n")
@example(HEADER + "512,8\r,1,1e-9,1e-11\n")
@example(HEADER + "0512,8,1,1e-9,1e-11\n+1024,8,1,1e-9,1e-11\n2_048,8,1,1e-9,1e-11\n")
@example(HEADER + "512,8,1,1e-9,1e-11\n1024,8,1,inf,1e-11\n")
@example(HEADER + "512,8,1,1e-9,nan\n")
@example(HEADER + "512,8,1,0,1e-11\n")
@example(HEADER + "512,8,1,1e-9,-1e-11\n")
@example(HEADER + "512,8,1,1e-9,1e-11\n512,8,1,2e-9,2e-11\n")
@example(HEADER)
@example(HEADER + "512,8,1,1e-9,1e-11")
def test_load_table_matches_the_row_reader(text):
    """The bulk path returns the row reader's table, in key order and bit
    for bit, or leaves the text to the row reader, which raises as before."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with path.open("w", newline="") as fh:
            fh.write(text)
        got = outcome(lambda p: list(load_table(p)._table.items()), path)
        assert got == outcome(row_reader_items, path)


def test_plain_tables_never_reach_the_row_reader(tmp_path, monkeypatch):
    """A plain table, whether written by save_table or spelled by hand with
    integers such as 0512 and 5_12, loads in bulk."""
    def no_rows(path, text):
        raise AssertionError("row reader called")

    path = tmp_path / "t.csv"
    save_table(surrogate_generate(1), path)
    expected = row_reader_items(path)
    monkeypatch.setattr(charmodel, "_read_rows", no_rows)
    assert list(load_table(path)._table.items()) == expected
    path.write_text(",".join(CSV_HEADER) + "\n0512,8,1,1e-9,1e-11\n5_12,8,2,2e-9,2e-11")
    assert list(load_table(path)._table.items()) == [
        ((512, 8, 1), (1e-9, 1e-11)), ((512, 8, 2), (2e-9, 2e-11))]
    path.write_text(",".join(CSV_HEADER) + "\n")
    assert len(load_table(path)) == 0
