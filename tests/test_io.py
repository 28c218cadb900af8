"""Tests for database file I/O (repro.db.io)."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pincer import pincer_search
from repro.db import io
from repro.db.transaction_db import TransactionDatabase


def sample_db():
    return TransactionDatabase([[3, 1], [2], [1, 2, 3]])


class TestBasketFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "db.dat"
        io.save_basket(sample_db(), path)
        assert io.load_basket(path) == sample_db()

    def test_items_written_sorted(self, tmp_path):
        path = tmp_path / "db.dat"
        io.save_basket(sample_db(), path)
        assert path.read_text().splitlines()[0] == "1 3"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "db.dat"
        path.write_text("1 2\n\n3\n")
        db = io.load_basket(path)
        assert len(db) == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "db.dat"
        path.write_text("1 2\nfoo bar\n")
        with pytest.raises(ValueError, match=":2:"):
            io.load_basket(path)


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "db.csv"
        io.save_csv(sample_db(), path)
        assert io.load_csv(path) == sample_db()

    def test_malformed_cell(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValueError, match=":1:"):
            io.load_csv(path)

    def test_trailing_commas_tolerated(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("1,2,\n")
        assert io.load_csv(path)[0] == frozenset({1, 2})


class TestJsonFormat:
    def test_round_trip_preserves_universe(self, tmp_path):
        path = tmp_path / "db.json"
        db = TransactionDatabase([[1]], universe=range(1, 5))
        io.save_json(db, path)
        loaded = io.load_json(path)
        assert loaded == db
        assert loaded.universe == (1, 2, 3, 4)

    def test_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="transactions"):
            io.load_json(path)


class TestDispatch:
    @pytest.mark.parametrize("name", ["db.dat", "db.basket", "db.txt",
                                      "db.csv", "db.json"])
    def test_save_load_by_extension(self, tmp_path, name):
        path = tmp_path / name
        io.save(sample_db(), path)
        loaded = io.load(path)
        assert list(loaded) == list(sample_db())

    def test_unknown_extension_raises_on_load(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            io.load(tmp_path / "db.parquet")

    def test_unknown_extension_raises_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            io.save(sample_db(), tmp_path / "db.parquet")

    def test_extension_dispatch_is_case_insensitive(self, tmp_path):
        path = tmp_path / "DB.DAT"
        io.save(sample_db(), path)
        assert len(io.load(path)) == 3


# ----------------------------------------------------------------------
# the array parse against the reference parser
# ----------------------------------------------------------------------

#: (name, file text, read by the array parse rather than iter_basket)
PARSE_CASES = [
    ("blank-tabs-spaces", "  1 2\t3  \n\n\t\n 4\t\t5 \n   \n6\n", True),
    ("vertical-tab-form-feed", "1\x0b2\x0c3\n4\n", True),
    ("no-final-newline", "1 2\n3 4", True),
    ("empty", "", True),
    ("whitespace-only", " \n\t\n\n", True),
    ("crlf", "1 2\r\n3\r\n\r\n4 5\r\n", False),
    ("lone-cr", "1 2\r3 4\n5", False),
    ("signs-and-negatives", "+1 -2 3\n-4 +5\n-0 007\n", True),
    ("underscore", "1_000 2\n3\n", False),
    ("repeated-item", "1 1 2\n2 2 2\n3 1 3\n", True),
    ("overlong-integer", "99999999999999999999 1\n2\n", False),
    ("longest-array-token", "123456789012345678 -12345678901234567\n1\n", True),
    ("large-sparse-ids", "5000000 3\n-7 5000000\n", True),
]

#: (file text, line number of the malformed token)
MALFORMED_CASES = [
    ("1 2\n3 x\n4\n", 2),
    ("1 2\n\n3 4.5\n", 3),
    ("1 -\n2\n", 1),
    ("1\n5-3\n", 2),
    ("1\n2\n- 3\n", 3),
    ("1\n+\n", 2),
    ("1 2\r\n3 y\r\n", 2),
]


@pytest.fixture(params=["numpy", "no-numpy"])
def numpy_handle(request, monkeypatch):
    """Run a test with the array parse, then with ``io._np`` patched away."""
    if request.param == "numpy":
        if io._np is None:
            pytest.skip("NumPy not installed")
    else:
        monkeypatch.setattr(io, "_np", None)
    return request.param


def assert_same_database(db, reference):
    assert list(db) == list(reference)
    assert db.universe == reference.universe
    assert bytes(db.vertical().buffer) == bytes(reference.vertical().buffer)
    assert db.item_support_counts() == reference.item_support_counts()
    assert db.average_transaction_size() == reference.average_transaction_size()
    assert db.occurring_items() == reference.occurring_items()
    assert len(db) == len(reference)


class TestArrayParse:
    @pytest.mark.parametrize(
        "text, array_path", [case[1:] for case in PARSE_CASES],
        ids=[case[0] for case in PARSE_CASES],
    )
    def test_equals_reference_parser(self, tmp_path, numpy_handle, text,
                                     array_path):
        path = tmp_path / "db.dat"
        path.write_bytes(text.encode())
        db = io.load_basket(path)
        assert_same_database(db, TransactionDatabase(io.iter_basket(path)))
        if numpy_handle == "numpy":
            parsed = io._parse_basket_bytes(path.read_bytes())
            assert (parsed is not None) == array_path

    @pytest.mark.skipif(io._np is None, reason="NumPy not installed")
    @pytest.mark.parametrize("block_bytes", [1, 5, 64])
    def test_blocks_cut_at_line_ends(self, tmp_path, monkeypatch,
                                     block_bytes):
        rng = random.Random(block_bytes)
        lines = [
            " ".join(str(rng.randint(-3, 60)) for _ in range(rng.randint(0, 9)))
            for _ in range(200)
        ]
        path = tmp_path / "db.dat"
        path.write_text("\n".join(lines))
        monkeypatch.setattr(io, "_PARSE_BYTES", block_bytes)
        assert io._parse_basket_bytes(path.read_bytes()) is not None
        reference = TransactionDatabase(io.iter_basket(path))
        assert_same_database(io.load_basket(path), reference)

    @pytest.mark.parametrize("text, line", MALFORMED_CASES)
    def test_malformed_token_reports_its_line(self, tmp_path, numpy_handle,
                                              text, line):
        path = tmp_path / "db.dat"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=":%d:" % line):
            io.load_basket(path)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        baskets=st.lists(
            st.lists(st.integers(min_value=-50, max_value=300), max_size=8),
            max_size=30,
        ),
        separators=st.lists(
            st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x0c"]),
            min_size=1,
        ),
        newlines=st.lists(st.sampled_from(["\n", "\n\n", " \n", "\r\n"]),
                          min_size=1),
        lead=st.sampled_from(["", " ", "\t", "\n"]),
        final=st.booleans(),
    )
    def test_random_baskets_and_whitespace(self, numpy_handle, baskets,
                                           separators, newlines, lead, final):
        lines = []
        for number, basket in enumerate(baskets):
            separator = separators[number % len(separators)]
            lines.append(lead + separator.join(
                ("+%d" % item if item % 7 == 3 and item >= 0 else str(item))
                for item in basket
            ))
        text = "".join(
            line + newlines[number % len(newlines)]
            for number, line in enumerate(lines)
        )
        if not final:
            text = text.rstrip("\r\n")
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "db.dat"
            path.write_bytes(text.encode())
            reference = TransactionDatabase(io.iter_basket(path))
            assert_same_database(io.load_basket(path), reference)
            if io._np is not None and "\r" not in text:
                assert io._parse_basket_bytes(text.encode()) is not None

    @pytest.mark.skipif(io._np is None, reason="NumPy not installed")
    def test_default_mine_keeps_rows_lazy(self, tmp_path):
        rng = random.Random(3)
        path = tmp_path / "db.dat"
        io.save(TransactionDatabase(
            [rng.sample(range(40), rng.randint(1, 8)) for _ in range(500)]
        ), path)
        db = io.load_basket(path)
        result = pincer_search(db, 0.05)
        assert result.mfs
        # the per-row frozensets are the memory the flat arrays save
        assert db._rows is None
        assert list(db)  # asking for rows builds them
        assert db._rows is not None
