"""Catalogue tests: trust modes, vault isolation, index-only leak freedom,
persistence round trips, integrity checks, locking."""

import os
import random
import re
import shutil
import struct
import sys
import tempfile
import zlib
from array import array
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vdc import colimage, connectors, mediation, textindex
from vdc.atomic import write_atomic
from vdc.connectors import row_item_key
from vdc.datacentre import AccessMode, Catalogue, catalogue_lock
from vdc.colimage import GROUP_ROWS, IMAGE, NO_DATE
from vdc.colwriter import stored_days
from vdc.errors import (
    AccessDenied,
    IndexFormatError,
    IntegrityError,
    LoadError,
    LockedError,
    NotFound,
    ParseError,
    PlanError,
    SourceError,
)
from vdc.model import (
    DATE_MEMO, ItemRef, UncertainDate, day_number, nfc, parse_uncertain_date, refable,
)
from vdc.predicates import COMPARE_OPS, Compare, Contains, DateWithin, holds
from vdc.query import execute_plan, parse_query, plan_query, result_to_csv
from vdc.mediation import parse_recipe_file
from vdc.textindex import SearchQuery, search

from helpers import index_docs, record_fields, register_desk

SENTINEL = "XYZZY::SENTINEL::73"


def write_secret_source(d):
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "t.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write("id,title,secret,note\n")
        f.write(f"1,Stone one,{SENTINEL},plain note alpha\n")
        f.write("2,Stone two,harmless,beta note\n")
    with open(os.path.join(d, "t.schema"), "w", encoding="utf-8") as f:
        f.write("id : int\ntitle : text\nsecret : text\nnote : text\n")


RECIPE = (
    "recipe secret_ingest\nfrom sec.t\nid id\nfield title = title\n"
    "field secret = secret\nbody note\nbody secret\nindex body\nindex title\nend\n"
)


class TestVaultMode:
    def test_snapshot_survives_deletion_of_original(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        original = tmp_path / "orig"
        shutil.copytree(os.path.join(fx, "volterra"), original)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", str(original), AccessMode.VAULT)
        shutil.rmtree(original)
        rs = execute_plan(plan_query(parse_query("SELECT id FROM vol.legal_texts"), cat))
        assert len(rs.rows) == 500

    def test_vault_isolated_from_later_mutation(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        original = tmp_path / "orig"
        shutil.copytree(os.path.join(fx, "volterra"), original)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", str(original), AccessMode.VAULT)
        before = result_to_csv(
            execute_plan(plan_query(parse_query("SELECT * FROM vol.legal_texts"), cat))
        )
        with open(original / "legal_texts.csv", "a", encoding="utf-8") as f:
            f.write("9999,evil,nobody,Nowhere,,letter,tampered,,\n")
        after = result_to_csv(
            execute_plan(plan_query(parse_query("SELECT * FROM vol.legal_texts"), cat))
        )
        assert before == after

    def test_fetch_record_under_vault(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", os.path.join(fx, "volterra"), AccessMode.VAULT)
        row = cat.fetch_record(ItemRef("vol", "legal_texts", "1"))
        assert row[0] == 1

    def test_duplicate_source_id(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", os.path.join(fx, "volterra"), AccessMode.LIVE)
        with pytest.raises(IntegrityError):
            cat.register_source("vol", "tabular", os.path.join(fx, "volterra"), AccessMode.LIVE)


class TestLiveMode:
    def test_fails_cleanly_after_deletion(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        original = tmp_path / "orig"
        shutil.copytree(os.path.join(fx, "volterra"), original)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", str(original), AccessMode.LIVE)
        assert cat.fetch_record(ItemRef("vol", "legal_texts", "1"))[0] == 1
        shutil.rmtree(original)
        with pytest.raises(SourceError):
            execute_plan(plan_query(parse_query("SELECT id FROM vol.legal_texts"), cat))

    def test_unknown_item_is_not_found(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", os.path.join(fx, "volterra"), AccessMode.LIVE)
        with pytest.raises(NotFound):
            cat.fetch_record(ItemRef("vol", "legal_texts", "does-not-exist"))

    @pytest.mark.parametrize("wanted", [["2"], ["2", "nope"]])
    def test_lookup_scans_to_the_end_so_a_change_is_caught(self, tmp_path, monkeypatch, wanted):
        """A row appended while a lookup reads the table fails the lookup,
        even when every wanted key was found before it: the row reader
        that the lookup reads through appends it after the first row it
        returns, near the file's start."""
        d = tmp_path / "big"
        d.mkdir()
        (d / "t.schema").write_text("id : int\nv : text\n")
        (d / "t.csv").write_text("id,v\n" + "".join(f"{i},x{i}\n" for i in range(1, 20001)))
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("big", "tabular", str(d), AccessMode.LIVE)
        real_scan = connectors.TabularSource._scan

        def appending_scan(self, schema, *args, **kwargs):
            for n, row in enumerate(real_scan(self, schema, *args, **kwargs), start=1):
                yield row
                if n == 1:
                    with open(d / "t.csv", "a") as f:
                        f.write("20001,late\n")

        monkeypatch.setattr(connectors.TabularSource, "_scan", appending_scan)
        with pytest.raises(SourceError, match="table changed on disk during the scan"):
            cat.open_handle("big").lookup("t", wanted)

    def test_a_lookup_decodes_only_the_rows_it_returns_past_the_key(self, tmp_path, monkeypatch):
        """Each record's int key cell is decoded for the key test; the two
        text cells are decoded only for the two rows the lookup returns.
        The key test compares decoded cells with the wanted keys' cells,
        and the handle maps each found cell back to its key, so no cell is
        formatted as text."""
        d = tmp_path / "src"
        _write_table(d, "id,a,b", "id : int\na : text\nb : text\n",
                     [(str(i), f"a{i}", f"b{i}") for i in range(300)])
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(d), AccessMode.LIVE)
        calls = {"_int_cell": 0, "_text_cell": 0, "cell_text": 0}
        for name in calls:
            def counting(text, name=name, real=getattr(connectors, name)):
                calls[name] += 1
                return real(text)

            monkeypatch.setattr(connectors, name, counting)
        found = cat.open_handle("s").lookup("t", ["5", "250", "nope"])
        assert found == {"5": (5, "a5", "b5"), "250": (250, "a250", "b250")}
        assert calls == {"_int_cell": 300 + 2, "_text_cell": 2 * 2, "cell_text": 0}


def _write_table(d, header: str, schema: str, rows, terminator: str = "\n") -> None:
    """One table ``t``; a cell that holds a comma, a quote or a line break
    is quoted."""
    def cell(text: str) -> str:
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    os.makedirs(d, exist_ok=True)
    lines = [header] + [",".join(map(cell, row)) for row in rows]
    with open(os.path.join(d, "t.csv"), "w", encoding="utf-8", newline="") as f:
        f.write("".join(line + terminator for line in lines))
    with open(os.path.join(d, "t.schema"), "w", encoding="utf-8") as f:
        f.write(schema)


def _first_rows(cat: Catalogue, source_id: str, table: str) -> dict:
    """Each item key's first row, by a full scan."""
    first: dict = {}
    for row in cat.open_handle(source_id).scan(table):
        first.setdefault(row_item_key(row), row)
    return first


_INT_KEYS = ["007", "7", "-0", "0", "-12", "12", "", "9223372036854775807", "-9223372036854775808",
             "0000000000000000007"]
_TEXT_KEYS = ["e\u0301", "\u00e9", "plain", "a b", "a,b", "a\tb", "x\ny", "x\r\ny", "", "\u00e9/\u00e9",
              'q"q', "TABLE", "END 00000000", "sp "]
_CELLS = ["", "v", "multi\nline", "crlf\r\ncell", "cr\rcell", "comma, here", 'quote "q"', "\u00fc"]


# a table of more than one row group: an empty key first, then a key on
# each side of the boundary, its first row in the first group, and a key
# only in the second
_LONG_TABLE = (False, [("", "no key"), *((f"k{i}", "") for i in range(1, GROUP_ROWS - 1)),
                       ("twice", "first"), ("twice", "second"), ("late", "v")])


class TestColumnImage:
    """A tabular vault's column image and a live table answer every lookup
    as a full scan does, and a table that a scan would refuse is refused
    at registration."""

    @given(
        table=st.booleans().flatmap(lambda int_keys: st.tuples(st.just(int_keys), st.lists(
            st.tuples(st.sampled_from(_INT_KEYS if int_keys else _TEXT_KEYS), st.sampled_from(_CELLS)),
            min_size=1, max_size=25,
        ))),
        terminator=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    @example(table=_LONG_TABLE, terminator="\n")
    @settings(max_examples=60, deadline=None)
    def test_lookup_equals_the_first_match_of_a_scan(self, table, terminator):
        int_keys, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            _write_table(os.path.join(tmp, "src"), "id,v",
                         f"id : {'int' if int_keys else 'text'}\nv : text\n", rows, terminator)
            cat = Catalogue(os.path.join(tmp, "c.vdc"))
            cat.register_source("s", "tabular", os.path.join(tmp, "src"), AccessMode.VAULT)
            cat.register_source("live", "tabular", os.path.join(tmp, "src"), AccessMode.LIVE)
            first = _first_rows(cat, "live", "t")  # a scan of the CSV, not the image
            wanted = [k for k in first if refable(k)] + ["absent", "07", "+7", " 7", "٣",
                                                         "9223372036854775808"]
            expected = {k: first[k] for k in wanted if k in first}
            assert cat.open_handle("s").lookup("t", wanted) == expected
            assert cat.open_handle("live").lookup("t", wanted) == expected
            if "twice" in expected:  # the long table's key across the row-group boundary
                assert expected["twice"] == ("twice", "first")
            for key in wanted:
                if key not in first:
                    with pytest.raises(NotFound, match=re.escape(f"no item {key!r} in s/t")):
                        cat.fetch_record(ItemRef("s", "t", key))

    @pytest.mark.parametrize("bad", [
        b"2,ok\n3\n",  # arity
        b"2,ok\nx,bad int\n",
        b"2,ok\n\xd9\xa3,arabic-indic digit\n",
        b"2,ok\n3,\xff\n",  # invalid UTF-8
        b"2,ok\n\n",  # an empty line is a record of no cells
    ])
    def test_malformed_table_fails_registration_and_leaves_nothing(self, tmp_path, bad, capsys):
        from vdc.cli import run

        d = tmp_path / "src"
        d.mkdir()
        (d / "t.schema").write_text("id : int\nv : text\n")
        (d / "t.csv").write_bytes(b"id,v\n1,one\n" + bad)
        with pytest.raises(SourceError) as e:
            list(connectors.open_source("s", "tabular", str(d)).scan("t"))
        scan_error = str(e.value)
        cat_path = str(tmp_path / "c.vdc")
        os.makedirs(tmp_path / "good")
        shutil.copy(d / "t.schema", tmp_path / "good")
        (tmp_path / "good" / "t.csv").write_bytes(b"id,v\n1,one\n")
        assert run(["--catalogue", cat_path, "source", "add", "g", "--kind", "tabular",
                    "--path", str(tmp_path / "good"), "--mode", "vault"]) == 0
        before = open(cat_path, "rb").read()
        capsys.readouterr()
        assert run(["--catalogue", cat_path, "source", "add", "s", "--kind", "tabular",
                    "--path", str(d), "--mode", "vault"]) == 2
        _, err = capsys.readouterr()
        assert err == f"error: {scan_error}\n"  # the scan's fault, naming the original
        assert open(cat_path, "rb").read() == before
        assert sorted(os.listdir(tmp_path / "c.vdc.store" / "vault")) == ["g"]

    @pytest.mark.parametrize("bad", [b'<doc id="b">\n<text>x</txt></doc>', b'<doc id="a"/>'])
    def test_malformed_corpus_fails_a_vault_add_as_a_live_add(self, tmp_path, bad):
        """A vault corpus is parsed in full as its image is written: a
        document that does not parse, or a second one with an id, fails
        the add with a live add's error, naming the original's file and
        line, and leaves no snapshot."""
        d = tmp_path / "src"
        d.mkdir()
        (d / "a.xml").write_bytes(b'<doc id="a"/>')
        (d / "b.xml").write_bytes(bad)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        errors = []
        for mode in (AccessMode.LIVE, AccessMode.VAULT):
            with pytest.raises(SourceError) as e:
                cat.register_source("s", "xml_corpus", str(d), mode)
            errors.append(str(e.value))
        assert errors[0] == errors[1] and f"[{d / 'b.xml'}" in errors[0]
        assert cat.sources == {}
        assert os.listdir(tmp_path / "c.vdc.store" / "vault") == []

    def test_a_directory_named_like_a_document_is_not_one(self, tmp_path):
        """A corpus lists its regular ``*.xml`` files, as a vault snapshot
        copies them: a live and a vault registration of a directory that
        also holds a subdirectory ``d.xml`` both succeed, with one row."""
        d = tmp_path / "src"
        (d / "d.xml").mkdir(parents=True)
        (d / "a.xml").write_bytes(b'<doc id="a"/>')
        cat = Catalogue(str(tmp_path / "c.vdc"))
        for mode in (AccessMode.LIVE, AccessMode.VAULT):
            cat.register_source(mode.name, "xml_corpus", str(d), mode)
            handle = cat.open_handle(mode.name)
            assert [os.path.basename(f) for f in handle.files("docs")] == ["a.xml"]
            assert list(handle.scan("docs")) == [("a",) + (None,) * 7]

    def test_a_directory_named_like_a_table_is_not_one(self, tmp_path):
        """A tabular source lists its regular ``*.csv`` files, as a vault
        snapshot copies them: a live and a vault registration of a directory
        that also holds a subdirectory ``t.csv`` beside ``t.schema`` both
        succeed, with the same tables."""
        d = tmp_path / "src"
        (d / "t.csv").mkdir(parents=True)
        (d / "t.schema").write_text("id : int\n", encoding="utf-8")
        (d / "u.schema").write_text("id : int\n", encoding="utf-8")
        (d / "u.csv").write_text("id\n1\n", encoding="utf-8")
        cat = Catalogue(str(tmp_path / "c.vdc"))
        for mode in (AccessMode.LIVE, AccessMode.VAULT):
            cat.register_source(mode.name, "tabular", str(d), mode)
            handle = cat.open_handle(mode.name)
            assert [t.name for t in handle.list_tables()] == ["u"]
            assert list(handle.scan("u")) == [(1,)]

    def test_quoted_line_breaks_and_crlf(self, tmp_path):
        d = tmp_path / "src"
        d.mkdir()
        (d / "t.schema").write_text("id : text\nv : text\n")
        (d / "t.csv").write_bytes(
            b'id,v\r\n"a\r\nb",one\r\nc,"two\nlines"\rd,three\ne,"x\r"\n'
        )
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(d), AccessMode.VAULT)
        assert cat.open_handle("s").lookup("t", ["c", "d", "e", "a\r\nb"]) == {
            "c": ("c", "two\nlines"), "d": ("d", "three"), "e": ("e", "x\r"),
        }  # "a\r\nb" is a key no ref can name
        assert cat.open_handle("s").lookup("t", ["\udcff", "c\udcff"]) == {}

    def test_table_name_that_is_not_utf8(self, tmp_path, capsys):
        """A table is named by its file's stem, which must be an identifier,
        as a query, recipe or ref spells it: a stem that is not UTF-8 is
        refused at the open, naming the file, and ``source add`` exits 2
        with the catalogue and the store unchanged."""
        self.refuses(tmp_path, capsys, b"t\xff")

    @pytest.mark.parametrize("stem", [b"a b", b"x,y", b"1t", b"t-2", b"t.v", "\u00e9".encode()])
    def test_table_name_that_is_no_identifier(self, tmp_path, capsys, stem):
        self.refuses(tmp_path, capsys, stem)

    @staticmethod
    def refuses(tmp_path, capsys, stem: bytes):
        from vdc.cli import run

        d = tmp_path / "src"
        d.mkdir()
        name = os.fsencode(str(d)) + b"/" + stem
        with open(name + b".schema", "wb") as f:
            f.write(b"id : int\nv : text\n")
        with open(name + b".csv", "wb") as f:
            f.write(b"id,v\n1,one\n2,two\n")
        path = os.fsdecode(name + b".csv")
        with pytest.raises(SourceError) as e:
            connectors.open_source("s", "tabular", str(d))
        assert e.value.path == path and "not an identifier" in e.value.message
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.persist()
        before = open(cat.path, "rb").read()
        sys.stderr.reconfigure(errors="backslashreplace")  # as a process's stderr is
        shown = str(e.value).encode("utf-8", "backslashreplace").decode("utf-8")
        for mode in ("live", "vault"):
            code = run(["--catalogue", cat.path, "source", "add", "s", "--kind", "tabular",
                        "--path", str(d), "--mode", mode])
            assert code == 2
            assert capsys.readouterr().err == f"error: {shown}\n"
            assert open(cat.path, "rb").read() == before
        assert not os.path.exists(tmp_path / "c.vdc.store" / "vault" / "s")

    def test_original_holding_the_image_name_is_refused(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        original = tmp_path / "orig"
        shutil.copytree(os.path.join(fx, "volterra"), original)
        (original / IMAGE).write_bytes(b"")
        cat = Catalogue(str(tmp_path / "c.vdc"))
        with pytest.raises(SourceError, match=f"may not hold a file named '{IMAGE}'"):
            cat.register_source("vol", "tabular", str(original), AccessMode.VAULT)
        assert cat.sources == {}
        assert not os.path.exists(tmp_path / "c.vdc.store" / "vault" / "vol")

    def test_xml_vault_has_an_image(self, tmp_path, desk_fixtures):
        """An XML vault, like a tabular one, is read from its image: its
        handle carries it, and its scan and lookups give the rows of a
        live registration of the same documents."""
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("iaph", "xml_corpus", os.path.join(fx, "iaph"), AccessMode.VAULT)
        cat.register_source("live", "xml_corpus", os.path.join(fx, "iaph"), AccessMode.LIVE)
        assert os.path.isfile(tmp_path / "c.vdc.store" / "vault" / "iaph" / IMAGE)
        vault, live = cat.open_handle("iaph"), cat.open_handle("live")
        assert vault.image is not None and live.image is None
        assert list(vault.scan("docs")) == list(live.scan("docs"))
        assert cat.fetch_record(ItemRef("iaph", "docs", "i0000")) == \
            cat.fetch_record(ItemRef("live", "docs", "i0000"))
        assert cat.fetch_record(ItemRef("iaph", "docs", "i0000"))[0] == "i0000"

    def test_a_live_table_never_reads_an_image(self, tmp_path):
        """Only the catalogue attaches an image, and only to a vault: a
        file of that name in a live source is not read."""
        d = tmp_path / "src"
        _write_table(d, "id,v", "id : int\nv : text\n", [("1", "one")])
        (d / IMAGE).write_bytes(b"not an image")
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(d), AccessMode.LIVE)
        assert cat.open_handle("s").image is None
        assert cat.fetch_record(ItemRef("s", "t", "1")) == (1, "one")


# the cells of the image-scan property's tables, as CSV texts: nulls beside
# empty strings, int64 edges and wider ints, NFD, non-BMP and NUL text, and
# quoted line breaks
_IMAGE_INTS = ["", "0", "-0", "007", "-1", str(2**63 - 1), str(-2**63), "0000000000000000001"]
_IMAGE_TEXTS = ["", "a", "A", "é", "é", "\U0001d11e clef", "nul\x00nul", "x\ny",
                "x\r\ny", "cr\r", 'q"q', "a,b", " sp "]
_IMAGE_DATES = ["", "0150", "0150-03", "0150-03-15", "ca. 0200", "0150/0160", "not a date"]


def _coerce(text):
    try:
        return parse_uncertain_date(text)
    except ParseError:
        return None


def _image_predicates():
    """Pushed predicates over (id int, n int, a text, d date text), with
    the literals the tables hold, and transforms as views push them."""
    ints = [int(t) for t in _IMAGE_INTS if t]
    texts = [nfc(t) for t in _IMAGE_TEXTS if t]
    dates = [parse_uncertain_date(t) for t in _IMAGE_DATES if _coerce(t)]
    ops = st.sampled_from(sorted(COMPARE_OPS))
    upper = {t: t.upper() for t in texts}.get
    return st.one_of(
        st.builds(Compare, st.sampled_from([0, 1]), ops, st.sampled_from(ints)),
        st.builds(Compare, st.just(2), ops, st.sampled_from(texts)),
        st.builds(lambda op, lit: Compare(2, op, lit, lambda t: upper(t, t)),
                  ops, st.sampled_from([t.upper() for t in texts])),
        st.builds(Contains, st.just(2), st.sampled_from(["a", "É", "\x00", "\n", "\U0001d11e"])),
        st.builds(lambda op, lit: Compare(3, op, lit, _coerce),
                  st.sampled_from(["=", "!="]), st.sampled_from(dates)),
        st.builds(lambda a, b: DateWithin(3, *sorted((a, b), key=lambda d: d.earliest_day), _coerce),
                  st.sampled_from(dates), st.sampled_from(dates)),
    )


class TestImageScan:
    @given(
        n_rows=st.sampled_from([0, 1, 7, 30, 4095, 4096, 4097, 8193]),
        unique_ids=st.booleans(),
        seed=st.integers(0, 2**32),
        pushed=st.lists(_image_predicates(), max_size=3),
        columns=st.one_of(st.none(), st.sets(st.sampled_from(range(4)))),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_csv_scan_of_the_snapshot(self, n_rows, unique_ids, seed, pushed, columns):
        rng = random.Random(seed)
        rows = [(str(i) if unique_ids else rng.choice(_IMAGE_INTS), rng.choice(_IMAGE_INTS),
                 rng.choice(_IMAGE_TEXTS), rng.choice(_IMAGE_DATES)) for i in range(n_rows)]
        with tempfile.TemporaryDirectory() as tmp:
            _write_table(os.path.join(tmp, "src"), "id,n,a,d",
                         "id : int\nn : int\na : text\nd : date_text\n", rows, "\r\n")
            cat = Catalogue(os.path.join(tmp, "c.vdc"))
            cat.register_source("s", "tabular", os.path.join(tmp, "src"), AccessMode.VAULT)
            image = cat.open_handle("s")
            plain = connectors.open_source("s", "tabular", cat.sources["s"].path)
            assert image.image is not None and plain.image is None
            assert list(image.scan("t")) == list(plain.scan("t"))
            assert list(image.scan("t", pushed, columns)) == list(plain.scan("t", pushed, columns))


def _image_layout(image: bytes) -> tuple[int, list[int]]:
    """The end of a one-table image's directory checksum, and the end of
    each of its chunks."""
    length, count = struct.unpack_from("<II", image, 12)
    assert count == 1
    (name,) = struct.unpack_from("<I", image, 20)
    (files,) = struct.unpack_from("<I", image, 24 + name)
    rows, width = struct.unpack_from("<QI", image, 28 + name + 12 * files)
    n = -(-rows // 4096) * width
    start = 16 + length + 4
    lengths = array("I", image[16 + length - 8 * n:16 + length])[0::2]
    return start, list(accumulate(lengths, initial=start))[1:]


def _resign(image: bytes, i: int, chunk: bytes) -> bytes:
    """The image with chunk ``i`` replaced, its length and CRC-32 and the
    directory checksum made to match, so only the chunk's structure is
    wrong."""
    (length,) = struct.unpack_from("<I", image, 12)
    start, ends = _image_layout(image)
    n = len(ends)
    head = bytearray(image[:16 + length])
    struct.pack_into("<II", head, 16 + length - 8 * n + 8 * i, len(chunk), zlib.crc32(chunk))
    begin = start if i == 0 else ends[i - 1]
    return bytes(head) + struct.pack("<I", zlib.crc32(head)) + image[start:begin] + chunk + image[ends[i]:]


def _redirect(image: bytes, edit) -> bytes:
    """The image with its header and directory (the bytes its checksum
    covers) replaced by ``edit`` of them, their length and checksum made
    to match."""
    (length,) = struct.unpack_from("<I", image, 12)
    head = bytearray(edit(image[:16 + length]))
    struct.pack_into("<I", head, 12, len(head) - 16)
    return bytes(head) + struct.pack("<I", zlib.crc32(head)) + image[16 + length + 4:]


def _text_chunk(offsets: list[int], text: bytes) -> bytes:
    """A text chunk of three rows, coded 0, 1, 2, whose entry 1 is null."""
    n = len(offsets) - 1
    return struct.pack(f"<BHH{n + 1}I", 0, n, 1, *offsets) + text + struct.pack("<3H", 0, 1, 2)


def _date_chunk(offsets: list[int], text: bytes, days: list[tuple[int, int]]) -> bytes:
    """A date text chunk of three rows, coded 0, 1, 2, whose entry 1 is
    null, with ``days`` as its entries' stored (earliest, latest) days."""
    n = len(offsets) - 1
    return (struct.pack(f"<BHH{n + 1}I", 0, n, 1, *offsets) + text
            + struct.pack(f"<{2 * len(days)}q", *[lo for lo, _ in days], *[hi for _, hi in days])
            + struct.pack("<3H", 0, 1, 2))


_DAYS_0150 = (day_number(150, 1, 1), day_number(150, 12, 31))


def _int_chunk(values: list[int]) -> bytes:
    """An int64 chunk of three rows, coded 0, 1, 2, of three entries whose
    entry 2 is null."""
    return struct.pack(f"<BHH{len(values)}q", 1, 3, 2, *values) + struct.pack("<3H", 0, 1, 2)


# (case, fault, the message of its check); table t's name ends at byte 25,
# its one file's size and CRC-32 follow its file count, and its row count
# is the u64 at byte 41
IMAGE_FAULTS = [
    ("version", lambda i: _redirect(i, lambda h: h[:8] + struct.pack("<I", 2) + h[12:]),
     "column image has version 2, not 3; add the source again"),
    ("sidecars", lambda i: _redirect(i, lambda h: h.replace(b"note", b"nope")),
     "column image does not match the tables' sidecars"),
    ("name-length", lambda i: _redirect(i, lambda h: h[:20] + struct.pack("<I", 1000) + h[24:]),
     "column image is damaged: directory: a name runs past the directory"),
    ("directory-end", lambda i: _redirect(i, lambda h: h + bytes(4)),
     "column image is damaged: directory: the directory does not end where its tables do"),
    ("file-list", lambda i: _redirect(i, lambda h: h[:25] + struct.pack("<I", 9) + h[29:]),
     "column image is damaged: directory: a file list runs past the directory"),
    ("chunk-count", lambda i: _redirect(i, lambda h: h[:41] + struct.pack("<Q", 4099) + h[49:]),
     "column image is damaged: directory: chunk count does not match the row count"),
    ("null-text", lambda i: _resign(i, 1, _text_chunk([0, 1, 2, 3], b"xzy")),
     "column image is damaged: chunk 1 of row group 0 of table 't': the null entry is not empty"),
    ("null-int", lambda i: _resign(i, 2, _int_chunk([5, 6, 7])),
     "column image is damaged: chunk 2 of row group 0 of table 't': the null entry is not 0"),
    ("int64-entries", lambda i: _resign(i, 2, _int_chunk([5, 6])),
     "column image is damaged: chunk 2 of row group 0 of table 't': bad int64 entries"),
    ("date-arrays-short", lambda i: _resign(i, 3, _date_chunk([0, 4, 4, 5], b"0150x",
                                                             [_DAYS_0150, NO_DATE])),
     "column image is damaged: chunk 3 of row group 0 of table 't': bad date arrays"),
    ("date-arrays-long", lambda i: _resign(i, 3, _date_chunk([0, 4, 4, 5], b"0150x", [NO_DATE] * 4)),
     "column image is damaged: chunk 3 of row group 0 of table 't': bad text offsets"),
    ("date-reversed", lambda i: _resign(i, 3, _date_chunk([0, 4, 4, 5], b"0150x",
                                                         [_DAYS_0150, NO_DATE, (5, 4)])),
     "column image is damaged: chunk 3 of row group 0 of table 't': "
     "entry 2 has reversed days that are not NO_DATE"),
]


class TestColumnImageStructure:
    """Each structure check of an image behind its checksums, met by a
    fault whose directory or chunk CRC-32 was recomputed: the open (for a
    directory fault) or the scan (for a chunk fault) raises that check's
    IntegrityError, naming the image."""

    @pytest.fixture()
    def vault(self, tmp_path):
        _write_table(tmp_path / "src", "id,note,num,d",
                     "id : int\nnote : text\nnum : int\nd : date_text\n",
                     [("1", "x", "5", "0150"), ("2", "", "6", ""), ("3", "y", "", "x")])
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(tmp_path / "src"), AccessMode.VAULT)
        return cat, os.path.join(cat.sources["s"].path, IMAGE)

    def test_the_intact_image(self, vault):
        cat, image = vault
        data = open(image, "rb").read()
        _, ends = _image_layout(data)
        assert data[ends[0]:] == _text_chunk([0, 1, 1, 2], b"xy") + _int_chunk([5, 6, 0]) \
            + _date_chunk([0, 4, 4, 5], b"0150x", [_DAYS_0150, NO_DATE, NO_DATE])
        assert list(cat.open_handle("s").scan("t")) == \
            [(1, "x", 5, "0150"), (2, None, 6, None), (3, "y", None, "x")]

    @pytest.mark.parametrize("fault,message", [c[1:] for c in IMAGE_FAULTS],
                             ids=[c[0] for c in IMAGE_FAULTS])
    def test_a_fault_fails_its_check(self, vault, fault, message):
        cat, image = vault
        intact = open(image, "rb").read()
        open(image, "wb").write(fault(intact))
        with pytest.raises(IntegrityError, match=f"^{re.escape(f'{message} [{image}]')}$"):
            list(cat.open_handle("s").scan("t"))


def _date_entries(chunk: bytes, rows: int) -> dict[str, tuple[int, int]]:
    """Each non-null entry of a date text chunk of ``rows`` rows, and its
    stored (earliest, latest) days."""
    _, n, null = struct.unpack_from("<BHH", chunk)
    offsets = struct.unpack_from(f"<{n + 1}I", chunk, 5)
    days_at = len(chunk) - 2 * rows - 16 * n
    days = struct.unpack_from(f"<{2 * n}q", chunk, days_at)
    text = chunk[5 + 4 * (n + 1):days_at].decode("utf-8")
    return {text[a:b]: (days[c], days[n + c])
            for c, (a, b) in enumerate(zip(offsets, offsets[1:])) if c != null}


_PAD = st.sampled_from(["", " ", "\t", "  "])
# years near 0, and years on both sides of the 16-digit cap
_YEAR = st.one_of(st.integers(-3000, 3000), st.integers(-3 * 10**16, 3 * 10**16),
                  st.integers(-10**30, 10**30))
_BOUND = st.builds(
    lambda y, m, d: f"{y:04d}" + ("" if m is None else f"-{m:02d}" + ("" if d is None else f"-{d:02d}")),
    _YEAR, st.none() | st.integers(0, 13), st.none() | st.integers(0, 32))
_DATE_TEXT = st.one_of(
    st.builds(lambda pad, ca, lo, hi, end: pad + ("ca. " if ca else "") + lo
              + ("" if hi is None else "/" + hi) + end,
              _PAD, st.booleans(), _BOUND, st.none() | _BOUND, _PAD),
    st.text(alphabet="0123456789-/ .cax", max_size=12),
)


class TestStoredDays:
    """A date text column's image stores each entry's days as parsed at
    registration, and decoding them seeds the coercion memo."""

    @given(texts=st.lists(_DATE_TEXT, min_size=1, max_size=30))
    @example(texts=["0150", f"{10**16}", f"ca. -{10**16 - 1}", f"ca. {10**16 - 1}-12-31",
                    f"-{10**17}-02", f"0001/{10**17}", " 0150-02-29 ", "0150/0140", "ca. ", ""])
    @settings(max_examples=80, deadline=None)
    def test_each_entry_stores_its_parse(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            _write_table(os.path.join(tmp, "src"), "id,d", "id : int\nd : date_text\n",
                         [(str(i), t) for i, t in enumerate(texts)])
            cat = Catalogue(os.path.join(tmp, "c.vdc"))
            cat.register_source("s", "tabular", os.path.join(tmp, "src"), AccessMode.VAULT)
            image = open(os.path.join(cat.sources["s"].path, IMAGE), "rb").read()
            _, ends = _image_layout(image)
            stored = _date_entries(image[ends[0]:ends[1]], len(texts))
            DATE_MEMO.clear()
            cells = [d for _, d in cat.open_handle("s").scan("t")]
        assert set(stored) == set(cells) - {None}
        for text, days in stored.items():
            try:
                date = parse_uncertain_date(text)
            except ParseError:
                assert days == NO_DATE and DATE_MEMO[text] is None, text
                continue
            assert days == (date.earliest_day, date.latest_day) and DATE_MEMO[text] == date
            assert mediation.coerce_date(text) == date

    def test_every_interval_that_parses_has_int64_days(self):
        """A year has at most 16 digits, so the widest interval, ``ca.``
        widening included, has int64 days; a year of 17 digits does not
        parse, whatever its value."""
        year = "9" * 16
        lo, hi = stored_days(f"ca. -{year}/{year}")
        assert -2**63 <= lo < -3 * 10**18 and 3 * 10**18 < hi < 2**63
        assert stored_days("0" * 15 + "1") == stored_days("0001")
        for text in ("1" * 17, f"ca. -{'0' * 17}", f"0001/{'1' * 17}-01", "x" * 20):
            assert stored_days(text) == NO_DATE, text


_INT64_DAY = st.one_of(st.sampled_from([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]),
                      st.integers(-2**63, 2**63 - 1), st.integers(-10**6, 10**6))
# a window side at an int64 edge leaves the window open on that side
_WINDOW_SIDE = st.builds(lambda a, b: UncertainDate(min(a, b), max(a, b)), _INT64_DAY, _INT64_DAY)


class TestStoredDayTests:
    """A scan tests a date predicate that carries the view's coercion on
    a date text chunk's stored days, and builds a date only for the rows
    that pass."""

    @given(texts=st.lists(_DATE_TEXT, min_size=1, max_size=20, unique=True),
           null_at=st.none() | st.integers(0, 20),
           sides=st.lists(_WINDOW_SIDE | st.integers(0, 19), min_size=2, max_size=8))
    @example(texts=[f"ca. -{'9' * 16}/{'9' * 16}", f"-{'9' * 16}", "0150", "ca. 0150", "0150/0152",
                    "x", "ca. "],
             null_at=1, sides=[UncertainDate(-2**63, -2**63), 0, 2, 3, 4, 2, 4,
                               UncertainDate(2**63 - 1, 2**63 - 1)])
    @settings(max_examples=150, deadline=None)
    def test_each_entry_as_holds(self, texts, null_at, sides):
        values: list = list(texts)
        if null_at is not None:
            values.insert(min(null_at, len(values)), None)
        pairs = [stored_days(v or "") for v in values]  # the null entry's text is empty
        days = array("q", [lo for lo, _ in pairs] + [hi for _, hi in pairs])
        # an int side is an entry's date: a window that meets entries at its ends
        dates = [UncertainDate(lo, hi) for lo, hi in pairs if lo <= hi]
        bounds = [s if isinstance(s, UncertainDate) else dates[s % len(dates)]
                  for s in sides if isinstance(s, UncertainDate) or dates]
        for lo, hi in zip(bounds, bounds[1:]):
            if lo.earliest_day > hi.latest_day:
                lo, hi = hi, lo
            for p in (DateWithin(0, lo, hi, mediation.coerce_date),
                      Compare(0, "=", lo, mediation.coerce_date),
                      Compare(0, "!=", hi, mediation.coerce_date)):
                assert colimage._entry_tests(p, values, days) == [holds(p, v) for v in values], p

    @pytest.mark.parametrize("where", ["DATE_WITHIN(d, '0150', '0152-06')", "d = '0151'",
                                       "d != 'ca. 0150'"])
    def test_a_date_scan_seeds_only_the_rows_it_returns(self, tmp_path, where):
        texts = [f"{150 + i % 5:04d}-{1 + i % 12:02d}" for i in range(60)] \
            + ["0151", "ca. 0150", "0150/0152", "-0020", "unbekannt", ""]
        rows = [(str(i), texts[i % len(texts)]) for i in range(GROUP_ROWS + 500)]
        _write_table(tmp_path / "src", "id,d", "id : int\nd : date_text\n", rows)
        (tmp_path / "v.view").write_text("view v\nfrom s.t\ncoerce d date\nend\n", encoding="utf-8")
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(tmp_path / "src"), AccessMode.VAULT)
        cat.define_view(str(tmp_path / "v.view"))
        (p,) = plan_query(parse_query(f"SELECT * FROM v WHERE {where}"), cat).terms[0].scan_preds
        live = list(connectors.open_source("s", "tabular", str(tmp_path / "src")).scan("t", [p]))
        DATE_MEMO.clear()
        scanned = list(cat.open_handle("s").scan("t", [p]))
        assert scanned == live and 0 < len(scanned) < len(rows)
        assert "unbekannt" in {d for _, d in scanned}  # a text that does not coerce passes
        assert set(DATE_MEMO) == {d for _, d in scanned} - {None}
        for text, date in DATE_MEMO.items():  # parsed here, not through the memo
            try:
                parsed = parse_uncertain_date(text)
            except ParseError:
                parsed = None
            assert date == parsed, text


class TestColumnImageFaults:
    """Every damaged image, and every vault table changed after its image
    was written, fails a lookup with an IntegrityError naming the file."""

    KEYS = ["1", "17", "40"]

    @pytest.fixture(scope="class")
    def vault(self, desk_fixtures, tmp_path_factory):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path_factory.mktemp("image") / "c.vdc"))
        cat.register_source("hgv", "tabular", os.path.join(fx, "hgv"), AccessMode.VAULT)
        vault_dir = cat.sources["hgv"].path
        image = open(os.path.join(vault_dir, IMAGE), "rb").read()
        table = open(os.path.join(vault_dir, "papyri.csv"), "rb").read()
        expected = _first_rows(cat, "hgv", "papyri")
        return cat, vault_dir, image, table, {k: expected[k] for k in self.KEYS}

    def lookup(self, vault, image_data: bytes | None = None, table: bytes | None = None):
        cat, vault_dir, image, original_table, _ = vault
        with open(os.path.join(vault_dir, IMAGE), "wb") as f:
            f.write(image if image_data is None else image_data)
        with open(os.path.join(vault_dir, "papyri.csv"), "wb") as f:
            f.write(original_table if table is None else table)
        return cat.open_handle("hgv").lookup("papyri", self.KEYS)

    def rejected(self, vault, names=IMAGE, **damage) -> bool:
        try:
            self.lookup(vault, **damage)
        except IntegrityError as e:
            assert names in str(e)
            return True
        return False

    def test_intact_image_answers(self, vault):
        assert self.lookup(vault) == vault[4]

    def test_missing_image_is_refused(self, vault):
        """Without its image, a vault is neither looked up, scanned nor
        resolved from its table files: each raises, naming the image."""
        cat, vault_dir, *_ = vault
        image = os.path.join(vault_dir, IMAGE)
        self.lookup(vault)
        os.remove(image)
        message = re.escape(f"vault snapshot has no column image; add the source again [{image}]")
        query = parse_query("SELECT * FROM hgv.papyri WHERE Fundort = 'Arsinoe'")
        for read in (
            lambda: cat.open_handle("hgv").lookup("papyri", self.KEYS),
            lambda: execute_plan(plan_query(query, cat)),
            lambda: cat.resolve_refs([ItemRef("hgv", "papyri", k) for k in self.KEYS]),
        ):
            with pytest.raises(IntegrityError, match=message):
                read()
        self.lookup(vault)  # the image back

    def test_cut_at_every_chunk_and_header_boundary(self, vault):
        image = vault[2]
        (length,) = struct.unpack_from("<I", image, 12)
        start, ends = _image_layout(image)
        cuts = [0, 1, 8, 12, 16, 20, 16 + length, start] + ends[:-1] + [len(image) - 1]
        assert len(ends) == 9 and ends[-1] == len(image)
        assert [n for n in cuts if not self.rejected(vault, image_data=image[:n])] == []

    def test_one_flipped_byte(self, vault):
        image = vault[2]
        rng = random.Random(33)
        positions = list(range(0, 60)) + list(range(len(image) - 60, len(image)))
        positions += rng.sample(range(len(image)), 200)
        accepted = []
        for at in positions:
            damaged = bytearray(image)
            damaged[at] ^= 1 << rng.randrange(8)
            if not self.rejected(vault, image_data=bytes(damaged)):
                accepted.append(at)
        assert accepted == []

    def test_table_changed_after_registration(self, vault):
        table = vault[3]
        flipped = bytearray(table)
        flipped[len(table) // 2] ^= 0x01
        assert self.rejected(vault, "papyri.csv", table=bytes(flipped))
        assert self.rejected(vault, "papyri.csv", table=table + b"99999,late,,,,,,,\n")
        assert self.rejected(vault, "papyri.csv", table=table[:-1])

    def test_resigned_chunk_with_a_wrong_structure(self, vault):
        """A chunk the checksums cannot catch still fails the structure
        checks: codes past the dictionary, text offsets out of order or
        past the text, another encoding, too few codes."""
        image = vault[2]
        start, ends = _image_layout(image)
        key = image[start:ends[0]]  # the id column: int64 entries
        title = image[ends[0]:ends[1]]  # a text column
        n_key = struct.unpack_from("<H", key, 1)[0]
        n_title = struct.unpack_from("<H", title, 1)[0]
        wrong = {
            0: [key[:-2] + struct.pack("<H", n_key),  # a code past the entries
                key[:-2],  # one code short
                b"\x02" + key[1:],  # an encoding no image version 3 writes
                key[:3] + struct.pack("<H", 0) + key[5:]],  # a null code on an int
            1: [title[:5] + struct.pack("<I", 1) + title[9:],  # offsets do not start at 0
                title[:9] + struct.pack("<I", 10**6) + title[13:],  # an offset past the text
                b"\x01" + title[1:],  # int64 in a text column
                title[:1] + struct.pack("<H", n_title + 1) + title[3:]],  # one entry too many
        }
        for i, chunks in wrong.items():
            for chunk in chunks:
                assert self.rejected(vault, image_data=_resign(image, i, chunk)), chunk[:12]
        assert not self.rejected(vault, image_data=_resign(image, 1, title))  # unchanged

    def test_an_xml_vault_image_with_one_flipped_bit(self, desk_fixtures, tmp_path):
        """An XML vault's image is checked as a tabular one is: a scan and
        a lookup of it fail on any flipped bit, naming the image."""
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("iaph", "xml_corpus", os.path.join(fx, "iaph"), AccessMode.VAULT)
        image = os.path.join(cat.sources["iaph"].path, IMAGE)
        intact = open(image, "rb").read()
        rng = random.Random(34)
        for at in [0, 20, len(intact) // 2, len(intact) - 1] + rng.sample(range(len(intact)), 30):
            damaged = bytearray(intact)
            damaged[at] ^= 1 << rng.randrange(8)
            open(image, "wb").write(bytes(damaged))
            for read in (lambda h: list(h.scan("docs")),
                         lambda h: h.lookup("docs", ["i0000", "i0499"])):
                with pytest.raises(IntegrityError, match=re.escape(f"[{image}]")):
                    read(cat.open_handle("iaph"))
        open(image, "wb").write(intact)
        assert len(list(cat.open_handle("iaph").scan("docs"))) == 500


class TestIndexOnlyMode:
    def build(self, tmp_path):
        src = tmp_path / "secret_src"
        write_secret_source(src)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("sec", "tabular", str(src), AccessMode.INDEX_ONLY)
        recipe = parse_recipe_file(RECIPE)
        cat.build_index("secrets", recipe)
        return cat

    def test_fetch_denied_search_succeeds(self, tmp_path):
        cat = self.build(tmp_path)
        with pytest.raises(AccessDenied):
            cat.fetch_record(ItemRef("sec", "t", "1"))
        hits = search(cat.get_index("secrets"), SearchQuery(("alpha",)))
        assert [h.doc_id for h in hits] == ["1"]

    def test_queries_denied(self, tmp_path):
        cat = self.build(tmp_path)
        with pytest.raises(AccessDenied):
            plan_query(parse_query("SELECT * FROM sec.t"), cat)
        with pytest.raises(AccessDenied):
            plan_query(parse_query("SELECT * FROM t"), cat)
        view = tmp_path / "sec.view"
        view.write_text("view sv\nfrom sec.t\nend\n", encoding="utf-8")
        with pytest.raises(AccessDenied):
            cat.define_view(str(view))
        assert "sv" not in cat.views

    def test_plain_ingest_denied(self, tmp_path):
        cat = self.build(tmp_path)
        with pytest.raises(AccessDenied):
            cat.ingest(parse_recipe_file(RECIPE))

    def test_stub_resolution_masks_fields(self, tmp_path):
        cat = self.build(tmp_path)
        refs = cat.update_collection("finds", [ItemRef("sec", "t", "1")])
        assert len(refs) == 1  # index-only refs are metadata, allowed
        items = cat.resolve_refs(cat.collections["finds"])
        assert items[0].kind == "stub"
        stub = items[0].payload
        assert stub["doc_id"] == "1"
        assert stub["fields"]["title"] == "Stone one"  # whitelisted (default)
        assert stub["fields"]["secret"] == "-"  # masked

    def test_stub_lookup_reads_only_indexes_of_its_relation(
        self, tmp_path, desk_fixtures, monkeypatch
    ):
        fx, _ = desk_fixtures
        src = tmp_path / "secret_src"
        write_secret_source(src)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("volterra", "tabular", os.path.join(fx, "volterra"), AccessMode.LIVE)
        recipe = cat.read_recipe(os.path.join(fx, "recipes", "volterra.recipe"))
        cat.build_index("vol_texts", recipe)  # listed first, other relation
        cat.register_source("sec", "tabular", str(src), AccessMode.INDEX_ONLY)
        cat.build_index("secrets", parse_recipe_file(RECIPE))
        cat.update_collection("finds", [ItemRef("sec", "t", "2")])
        cat.persist()
        loaded = Catalogue.load(cat.path)
        read = []
        real_read = textindex.read_index
        monkeypatch.setattr(textindex, "read_index", lambda p: read.append(p) or real_read(p))
        items = loaded.resolve_refs(loaded.collections["finds"])
        assert [(i.kind, i.payload["doc_id"]) for i in items] == [("stub", "2")]
        assert read == [loaded.indexes["secrets"]]

    @pytest.mark.parametrize("header,message", [
        ("VDCIDX 1", "index has format v1, which is no longer read: "
                     "rebuild it with `vdc index build`"),
        ("VDCIDX 2 s.t", "index has format v2, which is no longer read: "
                         "rebuild it with `vdc index build`"),
        ("VDCIDX 3 s.", "bad index header 'VDCIDX 3 s.'"),
    ])
    def test_stub_over_a_stale_index(self, tmp_path, header, message):
        """A stale index fails the stubs that no readable index has."""
        cat = self.build(tmp_path)
        cat.build_index("fresh", parse_recipe_file(RECIPE))
        cat.update_collection("finds", [ItemRef("sec", "t", "1"), ItemRef("sec", "t", "9")])
        cat.persist()
        with open(cat.indexes["secrets"], "w", encoding="utf-8") as f:
            f.write(header + "\n")
        items = Catalogue.load(cat.path).resolve_refs(cat.collections["finds"])
        assert [i.kind for i in items] == ["stub", "error"]
        assert items[1].payload == f"index 'secrets': {message}"

    def test_sentinel_never_leaks(self, tmp_path):
        cat = self.build(tmp_path)
        cat.update_collection("finds", [ItemRef("sec", "t", "1")])
        cat.persist()

        surfaces = []
        idx = cat.get_index("secrets")
        surfaces.append(repr(search(idx, SearchQuery(("alpha",)))))
        surfaces.append(repr(search(idx, SearchQuery(("xyzzy",)))))
        surfaces.append(repr([record_fields(i) for i in cat.resolve_refs(cat.collections["finds"])]))
        surfaces.append(repr([record_fields(e) for e in index_docs(idx)]))
        # the index's postings runs are binary, the rest UTF-8
        surfaces.append(open(cat.indexes["secrets"], "rb").read().decode("utf-8", "replace"))
        surfaces.append(open(cat.path, encoding="utf-8").read())
        with pytest.raises(AccessDenied):
            cat.fetch_record(ItemRef("sec", "t", "1"))
        for surface in surfaces:
            assert SENTINEL not in surface

    def test_terms_are_still_published(self, tmp_path):
        # tokens of indexed content are the point of publishing an index
        cat = self.build(tmp_path)
        hits = search(cat.get_index("secrets"), SearchQuery(("xyzzy",)))
        assert [h.doc_id for h in hits] == ["1"]


class TestPersistence:
    def test_save_load_save_identical_bytes(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.build_index("vol_texts", cat.read_recipe(os.path.join(fx, "recipes", "volterra.recipe")))
        cat.update_collection("finds", [ItemRef("volterra", "legal_texts", "1")])
        cat.persist()
        first = open(cat.path, "rb").read()
        loaded = Catalogue.load(cat.path)
        loaded.persist()
        assert open(cat.path, "rb").read() == first
        assert list(loaded.views) == list(cat.views)
        assert loaded.collections["finds"] == cat.collections["finds"]

    def test_published_files_take_the_umask_or_keep_their_mode(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        old_umask = os.umask(0o022)
        try:
            path = str(tmp_path / "f")
            write_atomic(path, b"one")
            assert os.stat(path).st_mode & 0o7777 == 0o644
            os.chmod(path, 0o640)
            write_atomic(path, b"two")
            assert os.stat(path).st_mode & 0o7777 == 0o640
            assert open(path, "rb").read() == b"two"
            cat = Catalogue(str(tmp_path / "c.vdc"))
            register_desk(cat, fx)
            cat.build_index("vol_texts", cat.read_recipe(os.path.join(fx, "recipes", "volterra.recipe")))
            cat.persist()
            published = [cat.path] + [
                os.path.join(root, name)
                for root, _, names in os.walk(str(tmp_path / "c.vdc.store"))
                for name in names if name.endswith(".idx")
            ]
            assert len(published) == 2
            for p in published:
                assert os.stat(p).st_mode & 0o7777 == 0o644, p
        finally:
            os.umask(old_umask)

    def test_loaded_catalogue_answers_queries(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        loaded = Catalogue.load(cat.path)
        rs = execute_plan(plan_query(parse_query("SELECT id FROM papyri LIMIT 2"), loaded))
        assert len(rs.rows) == 2

    def test_load_missing_view_file_fails(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        view_path = cat.views["all_texts"].path
        data = open(cat.path, encoding="utf-8").read()
        with open(cat.path, "w", encoding="utf-8") as f:
            f.write(data.replace(view_path, view_path + ".gone"))
        with pytest.raises(IntegrityError):
            Catalogue.load(cat.path)

    def test_load_reads_each_definition_file_once_and_opens_no_source(
        self, tmp_path, desk_fixtures, monkeypatch
    ):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        reads = []
        real_read = connectors.read_utf8

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        def no_open(source_id, kind, path):
            raise AssertionError(f"load opened source {source_id!r}")

        monkeypatch.setattr(connectors, "read_utf8", counting_read)
        monkeypatch.setattr(mediation, "read_utf8", counting_read)
        monkeypatch.setattr(connectors, "open_source", no_open)
        loaded = Catalogue.load(cat.path)
        definitions = [e.path for kind in (cat.views, cat.xlates) for e in kind.values()]
        assert sorted(reads) == sorted([cat.path, *definitions])
        assert loaded.serialize() == cat.serialize()

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("VIEWFILE {dir}/v.view", "unknown rule keyword 'frob' (line 3)"),
            ("VIEWFILE {dir}/gone.view", "cannot read view file: "),
            ("XLATE x {dir}/gone.csv", "cannot read translation table: "),
            ("XLATE x {dir}/bad.csv", "translation table must start with header"),
            ("SOURCE s tabular live {dir}", "duplicate source 's'"),
            ("SOURCE u csv live {dir}", "unknown source kind 'csv'"),
            ("SOURCE v x tabular live {dir}", "unknown source kind 'x'"),
            ("SOURCE u tabular sealed {dir}", "unknown access mode 'sealed'"),
            ("COLL finds s/t/1,ghost/t/1", "no source 'ghost'"),
            ("BOGUS 1", "unknown catalogue record 'BOGUS'"),
            ("SOURCE v tabular", "SOURCE record needs 4 fields (id kind mode path), got 2"),
            ("XLATE onlyid", "XLATE record needs 2 fields (id path), got 1"),
            ("INDEX c", "INDEX record needs 2 fields (collection path), got 1"),
            ("COLL c", "COLL record needs 2 fields (name refs), got 1"),
            ("XLATE x ", "XLATE record has an empty path"),
            ("INDEX c ", "INDEX record has an empty path"),
            ("COLL c ", "COLL record has an empty refs"),
            ("SOURCE v tabular live ", "SOURCE record has an empty path"),
        ],
    )
    def test_load_fault_is_one_integrity_error_naming_the_line(self, tmp_path, entry, message):
        files = {
            "v.view": "view v\nfrom s.t\nfrob\nend\n",
            "bad.csv": "a,b\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        path = tmp_path / "c.vdc"
        path.write_text(f"VDCCAT 1\nSOURCE s tabular live {tmp_path}\n\n"
                        + entry.format(dir=tmp_path) + "\n", encoding="utf-8")
        with pytest.raises(IntegrityError) as e:
            Catalogue.load(str(path))
        assert str(e.value).startswith(f"catalogue line 4: {message}")

    @pytest.mark.parametrize("first,second,message", [
        ("VIEWFILE {dir}/v.view", "VIEWFILE {dir}/w.view", "duplicate view 'v'"),
        ("XLATE x {dir}/x.csv", "XLATE x {dir}/y.csv", "duplicate translation table 'x'"),
        ("INDEX c {dir}/c.idx", "INDEX c {dir}/d.idx", "duplicate index for collection 'c'"),
        ("COLL c s/t/1,s/t/2", "COLL c s/t/3", "duplicate collection 'c'"),
    ], ids=["view", "xlate", "index", "coll"])
    def test_a_repeated_record_is_refused_naming_its_line(self, tmp_path, first, second, message):
        """A second record of one name would replace the first without a
        word: the load refuses it, naming the second record's line."""
        files = {
            "v.view": "view v\nfrom s.t\nend\n",
            "w.view": "view v\nfrom s.u\nend\n",
            "x.csv": "source_term,target_term\na,b\n",
            "y.csv": "source_term,target_term\nc,d\n",
            "c.idx": "",
            "d.idx": "",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        path = tmp_path / "c.vdc"
        head = f"VDCCAT 1\nSOURCE s tabular live {tmp_path}\n{first.format(dir=tmp_path)}\n"
        path.write_text(head, encoding="utf-8")
        Catalogue.load(str(path))  # once is fine
        path.write_text(head + second.format(dir=tmp_path) + "\n", encoding="utf-8")
        with pytest.raises(IntegrityError) as e:
            Catalogue.load(str(path))
        assert str(e.value) == f"catalogue line 4: {message}"

    def test_a_catalogue_cut_inside_a_line_is_refused(self, tmp_path, desk_fixtures):
        """A catalogue ends with a line feed, so a copy cut at any byte
        loads only where the cut falls just after a line feed (losing
        whole lines is not detected); every other cut is an
        IntegrityError."""
        fx, _ = desk_fixtures
        cat = register_desk(Catalogue(str(tmp_path / "c.vdc")), fx)
        cat.update_collection("finds", [ItemRef("hgv", "papyri", "1"), ItemRef("iaph", "docs", "i0000")])
        data = cat.serialize().encode("utf-8")
        cut = tmp_path / "cut.vdc"
        loaded = 0
        for end in range(len(data)):
            cut.write_bytes(data[:end])
            try:
                Catalogue.load(str(cut))
            except IntegrityError:
                continue
            assert data[end - 1:end] == b"\n", data[:end]
            loaded += 1
        assert loaded == data.count(b"\n") - 1  # every cut after a line feed but the last

    def test_a_view_naming_an_unregistered_source_loads(self, tmp_path):
        """A view's sources are checked where it is compiled: the catalogue
        loads, only resolving that view fails, and defining its file still
        fails."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.csv").write_text("id,name\n1,a\n", encoding="utf-8")
        (src / "t.schema").write_text("id : int\nname : text\n", encoding="utf-8")
        ghost, ok = tmp_path / "ghost.view", tmp_path / "ok.view"
        ghost.write_text("view g\nfrom ghost.t\nend\n", encoding="utf-8")
        ok.write_text("view ok\nfrom s.t\nend\n", encoding="utf-8")
        path = tmp_path / "c.vdc"
        path.write_text(f"VDCCAT 1\nSOURCE s tabular live {src}\n\nVIEWFILE {ghost}\n"
                        f"VIEWFILE {ok}\n", encoding="utf-8")
        cat = Catalogue.load(str(path))
        with pytest.raises(NotFound, match="^no source 'ghost'$"):
            cat.resolve_relation("g")
        for name in ("s.t", "t", "ok"):
            assert cat.resolve_relation(name).schema.column_names() == ["id", "name"]
        fresh = Catalogue(str(tmp_path / "fresh.vdc"))
        fresh.register_source("s", "tabular", str(src), AccessMode.LIVE)
        with pytest.raises(NotFound, match="^no source 'ghost'$"):
            fresh.define_view(str(ghost))

    def test_load_missing_index_file_fails(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        with open(cat.path, "a", encoding="utf-8") as f:
            f.write("INDEX ghost /nonexistent/g.idx\n")
        with pytest.raises(IntegrityError):
            Catalogue.load(cat.path)

    def test_v1_index_loads_and_fails_where_read_with_rebuild_hint(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        recipe = cat.read_recipe(os.path.join(fx, "recipes", "volterra.recipe"))
        path, _ = cat.build_index("vol_texts", recipe)
        cat.persist()
        with open(path, "w", encoding="utf-8") as f:
            f.write("VDCIDX 1\nDOCS\n0\t1\tvolterra/legal_texts/1\t-\t-\t\nFIELD body\n")
        stale = Catalogue.load(cat.path)  # the index is not read at load
        rs = execute_plan(plan_query(parse_query("SELECT id FROM papyri LIMIT 2"), stale))
        assert len(rs.rows) == 2
        with pytest.raises(IndexFormatError, match="rebuild it with `vdc index build`"):
            stale.get_index("vol_texts")
        # a plain load is enough to rebuild it
        stale.build_index("vol_texts", recipe)
        stale.persist()
        assert Catalogue.load(cat.path).get_index("vol_texts").relation == "volterra.legal_texts"

    def test_load_coll_with_unregistered_source_fails(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        with open(cat.path, "a", encoding="utf-8") as f:
            f.write("COLL x ghost/t/1\n")
        with pytest.raises(IntegrityError):
            Catalogue.load(cat.path)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "c.vdc"
        p.write_text("NOTVDC 1\n")
        with pytest.raises(IntegrityError):
            Catalogue.load(str(p))

    def test_withdrawn_live_source_then_resolve_reports_each_ref(self, tmp_path, desk_fixtures):
        """A catalogue whose live source was withdrawn still loads; each of
        its refs resolves to an error, and every other ref still resolves."""
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        shutil.copytree(os.path.join(fx, "volterra"), tmp_path / "lent")
        cat.register_source("lent", "tabular", str(tmp_path / "lent"), AccessMode.LIVE)
        refs = [ItemRef("lent", "legal_texts", "1"), ItemRef("hgv", "papyri", "1"),
                ItemRef("lent", "legal_texts", "2"), ItemRef("iaph", "docs", "i0000")]
        cat.update_collection("finds", refs)
        cat.persist()
        os.rename(tmp_path / "lent", tmp_path / "withdrawn")
        loaded = Catalogue.load(cat.path)
        items = loaded.resolve_refs(loaded.collections["finds"])
        assert [i.ref for i in items] == refs
        assert [i.kind for i in items] == ["error", "row", "error", "doc"]
        assert str(tmp_path / "lent") in items[0].payload

    def test_recipe_line_of_an_older_catalogue_is_dropped(self, tmp_path, desk_fixtures):
        """Older catalogues recorded every recipe; such a line loads without
        its file being opened, and the next persist drops it."""
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        current = open(cat.path, "rb").read()
        assert current.endswith(b"\nXLATE de_en " + os.path.join(fx, "xlate", "de_en.csv").encode() + b"\n")
        with open(cat.path, "ab") as f:  # where older catalogues wrote it
            f.write(f"RECIPE {tmp_path}/gone.recipe\n".encode())
        loaded = Catalogue.load(cat.path)
        rs = execute_plan(plan_query(parse_query("SELECT id FROM papyri_en LIMIT 2"), loaded))
        assert len(rs.rows) == 2
        loaded.persist()
        assert open(cat.path, "rb").read() == current


class TestInvalidUtf8:
    """Every text file the centre reads whole names the path and the line
    of its first bad byte in its documented error, never a bare
    UnicodeDecodeError."""

    @pytest.mark.parametrize(
        "content,read,error",
        [
            pytest.param(b"VDCCAT 1\n\nSOURCE s tabular live /x\xff\n",
                         lambda cat, p: Catalogue.load(p), IntegrityError, id="catalogue"),
            pytest.param(b"view v\nfrom s.t\n# caf\xe9\nend\n",
                         lambda cat, p: cat.define_view(p), SourceError, id="view"),
            pytest.param(b"source_term,target_term\na,b\n\xc3(,c\n",
                         lambda cat, p: cat.add_translation("t", p), LoadError,
                         id="translation-table"),
            pytest.param(b"view v\nfrom s.t\n\xff\nend\n",
                         lambda cat, p: Catalogue.load(_catalogue_naming(p)), IntegrityError,
                         id="catalogue-view-file"),
        ],
    )
    def test_documented_error_names_path_and_line(self, tmp_path, content, read, error):
        path = tmp_path / "file"
        path.write_bytes(content)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        with pytest.raises(error) as e:
            read(cat, str(path))
        assert f"{path}:3]" in str(e.value)
        assert "invalid UTF-8" in str(e.value)


def _catalogue_naming(view_path: str) -> str:
    """A catalogue file whose one entry is the view file ``view_path``."""
    path = os.path.join(os.path.dirname(view_path), "names_view.vdc")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"VDCCAT 1\nVIEWFILE {view_path}\n")
    return path


class TestRegistrationIntegrity:
    def test_view_over_unregistered_source_fails_at_define(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        view = tmp_path / "bad.view"
        view.write_text("view v\nfrom ghost.t\nend\n", encoding="utf-8")
        with pytest.raises(NotFound):
            cat.define_view(str(view))

    def test_duplicate_xlate_id(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        path = os.path.join(fx, "xlate", "de_en.csv")
        cat.add_translation("de_en", path)
        with pytest.raises(IntegrityError):
            cat.add_translation("de_en", path)

    def test_load_keeps_a_view_with_missing_xlate(self, tmp_path, desk_fixtures):
        """A view's translation tables are checked where it is compiled: a
        catalogue without the table its views name loads, only resolving
        those views fails, and defining their files still fails."""
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        data = open(cat.path, encoding="utf-8").read()
        with open(cat.path, "w", encoding="utf-8") as f:
            f.write("\n".join(l for l in data.splitlines() if not l.startswith("XLATE")) + "\n")
        loaded = Catalogue.load(cat.path)
        assert loaded.xlates == {}
        for name in ("papyri_en", "all_texts"):
            message = f"^view {name!r}: unknown translation table 'de_en'$"
            with pytest.raises(PlanError, match=message):
                loaded.resolve_relation(name)
        for name in ("volterra_texts", "iaph_docs", "hgv.papyri", "volterra.legal_texts"):
            assert (loaded.resolve_relation(name).schema
                    == cat.resolve_relation(name).schema)
        fresh = Catalogue(str(tmp_path / "fresh.vdc"))
        for sid, desc in cat.sources.items():
            fresh.register_source(sid, desc.kind, desc.path, desc.mode)
        with pytest.raises(PlanError, match="^view 'papyri_en': unknown translation table"):
            fresh.define_view(os.path.join(fx, "views", "papyri_en.view"))

    def test_view_over_keys_that_are_not_item_ids(self, tmp_path):
        """A first-column key an ItemRef cannot hold (here a comma) does not
        fail a view query; it only appears in a coercion warning's ref."""
        d = tmp_path / "src"
        os.makedirs(d)
        (d / "t.csv").write_text('id,d\n"a,b",0200\nc,bad\n', encoding="utf-8")
        (d / "t.schema").write_text("id : text\nd : date_text\n", encoding="utf-8")
        view = tmp_path / "v.view"
        view.write_text("view v\nfrom s.t\ncoerce d date\nend\n", encoding="utf-8")
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(d), AccessMode.LIVE)
        cat.define_view(str(view))
        rs = execute_plan(plan_query(parse_query("SELECT * FROM v"), cat))
        assert result_to_csv(rs) == 'id,d\n"a,b",0200-01-01/0200-12-31\nc,\n'
        assert [w.ref for w in rs.warnings] == ["s/t/c"]

    def test_hash_build_cap_guards_memory(self, tmp_path, desk_fixtures, monkeypatch):
        from vdc.errors import ExecutionError
        from vdc.query import executor

        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        plan = plan_query(
            parse_query(
                "SELECT h.id FROM hgv.papyri h JOIN volterra.legal_texts v "
                "ON h.Fundort = v.findspot"
            ),
            cat,
        )
        monkeypatch.setattr(executor, "HASH_BUILD_CAP", 10)
        with pytest.raises(ExecutionError):
            execute_plan(plan)


class TestLocking:
    def test_non_blocking_lock_fails_fast_when_held(self, tmp_path):
        path = str(tmp_path / "c.vdc")
        with catalogue_lock(path):
            with pytest.raises(LockedError):
                with catalogue_lock(path):
                    pass

    def test_lock_released_after_use(self, tmp_path):
        path = str(tmp_path / "c.vdc")
        with catalogue_lock(path):
            pass
        with catalogue_lock(path):
            pass
