import pytest

from cacheopt.charmodel import (
    ALL_TRIPLES,
    CharRow,
    CharTable,
    DramParams,
    load_dram_params,
    load_table,
    save_table,
    surrogate_generate,
)
from cacheopt.errors import CharLookupError, CharTableError, ValidationError


def test_dram_defaults():
    dram = DramParams()
    assert dram.access_time == 3.9889e-9
    assert dram.bandwidth == 6.7108864e9
    assert dram.access_power == 1.051
    assert dram.size == 67108864


def test_dram_rejects_nonpositive():
    with pytest.raises(ValidationError):
        DramParams(access_time=0.0)
    with pytest.raises(ValidationError):
        DramParams(bandwidth=-1.0)


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
    for row in table.rows():
        assert 1e-10 <= row.access_time <= 5e-9
        assert 1e-12 <= row.access_energy <= 1e-9


def test_lookup_contract():
    table = surrogate_generate(2)
    assert table.lookup(65536, 32, 4) == table.lookup(65536, 32, 4)
    row = table.rows()[0]
    assert table.lookup(row.size, row.block, row.assoc) == (
        row.access_time,
        row.access_energy,
    )
    with pytest.raises(CharLookupError, match="size=512 block=8 assoc=1"):
        CharTable([CharRow(1024, 8, 1, 1e-9, 1e-11)]).lookup(512, 8, 1)


def test_duplicate_triple_rejected():
    rows = [CharRow(8192, 64, 1, 1e-9, 1e-11), CharRow(8192, 64, 1, 2e-9, 2e-11)]
    with pytest.raises(CharTableError, match="duplicate"):
        CharTable(rows)


def test_nonpositive_values_rejected():
    with pytest.raises(CharTableError, match="access_time"):
        CharTable([CharRow(512, 8, 1, 0.0, 1e-11)])
    with pytest.raises(CharTableError, match="access_energy"):
        CharTable([CharRow(512, 8, 1, 1e-9, -1e-11)])


def test_save_load_round_trip(tmp_path):
    table = surrogate_generate(3)
    path = tmp_path / "chars.csv"
    save_table(table, path)
    loaded = load_table(path, strict=True)
    assert len(loaded) == 256
    for size, block, assoc in ALL_TRIPLES:
        got = loaded.lookup(size, block, assoc)
        want = table.lookup(size, block, assoc)
        assert got[0] == pytest.approx(want[0], rel=1e-9)
        assert got[1] == pytest.approx(want[1], rel=1e-9)


def test_save_is_byte_stable(tmp_path):
    table = surrogate_generate(4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_table(table, a)
    save_table(table, b)
    assert a.read_bytes() == b.read_bytes()


def test_strict_load_names_missing_triple(tmp_path):
    table = surrogate_generate(0)
    rows = table.rows()[:-1]  # drop the last triple
    dropped = table.rows()[-1]
    path = tmp_path / "partial.csv"
    save_table(CharTable(rows), path)
    assert len(load_table(path)) == 255  # non-strict load is fine
    with pytest.raises(CharTableError, match=f"size={dropped.size}"):
        load_table(path, strict=True)


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


def test_dram_file_dotted_keys(tmp_path):
    path = tmp_path / "dram.toml"
    path.write_text(
        "dram.access_time_s = 4.0e-9\n"
        "dram.bandwidth_bps = 6.4e9\n"
        "dram.access_power_w = 1.0\n"
        "dram.size_bytes = 33554432\n"
    )
    dram = load_dram_params(path)
    assert dram.access_time == 4.0e-9
    assert dram.bandwidth == 6.4e9
    assert dram.access_power == 1.0
    assert dram.size == 33554432


def test_dram_file_ini_section_and_defaults(tmp_path):
    path = tmp_path / "dram.ini"
    path.write_text("[dram]\naccess_time_s = 5e-9  # slower part\n")
    dram = load_dram_params(path)
    assert dram.access_time == 5e-9
    assert dram.bandwidth == DramParams().bandwidth  # untouched keys keep defaults


def test_dram_file_unknown_key(tmp_path):
    path = tmp_path / "dram.ini"
    path.write_text("dram.latency = 1e-9\n")
    with pytest.raises(ValidationError, match="unknown key"):
        load_dram_params(path)


@pytest.mark.parametrize("line", [
    "dram.size_bytes = inf", "dram.size_bytes = 1e400", "dram.size_bytes = nan",
    "dram.access_time_s = -inf",
])
def test_dram_file_rejects_non_finite_values(tmp_path, line):
    path = tmp_path / "dram.toml"
    path.write_text("dram.bandwidth_bps = 6.4e9\n" + line + "\n")
    key = line.split(" = ")[0]
    with pytest.raises(ValidationError, match=f"dram.toml: line 2: '{key}' must be finite"):
        load_dram_params(path)


@pytest.mark.parametrize("value", ["1.5", "0.5", "33554432.25"])
def test_dram_file_rejects_fractional_size(tmp_path, value):
    path = tmp_path / "dram.toml"
    path.write_text("dram.bandwidth_bps = 6.4e9\ndram.size_bytes = " + value + "\n")
    with pytest.raises(
        ValidationError,
        match=rf"dram.toml: line 2: 'dram.size_bytes' must be a whole number of bytes, got {value}",
    ):
        load_dram_params(path)


def test_dram_file_accepts_integral_size_in_float_spelling(tmp_path):
    path = tmp_path / "dram.toml"
    path.write_text("dram.size_bytes = 3.3554432e7\n")
    assert load_dram_params(path).size == 33554432
