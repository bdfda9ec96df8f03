"""Connector tests: sidecar/CSV parsing, the XML subset, pushdown soundness
against the central evaluator, autonomy, determinism."""

import os
import random
import stat
import tempfile
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdc import connectors
from vdc.cli import run
from vdc.connectors import (
    DOCS_TABLE_COLUMNS,
    open_source,
    parse_sidecar,
    parse_xml_doc,
    row_item_key,
)
from vdc.datacentre import AccessMode, Catalogue
from vdc.errors import (
    CollectionError, IntegrityError, NotFound, ParseError, PlanError, SourceError,
)
from vdc.mediation import TranslationTable
from vdc.model import ColumnKind, ItemRef, nfc, parse_uncertain_date, refable
from vdc.predicates import COMPARE_OPS, Compare, Contains, DateWithin
from vdc.query import execute_plan, parse_query, plan_query
from vdc.query.reference import _naive_compare, _naive_contains

from helpers import etree_docs_row


def write_source(dirpath, table="texts", header="id,status,note",
                 schema="id : int\nstatus : text\nnote : text\n", rows=()):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, table + ".csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for r in rows:
            f.write(r + "\n")
    with open(os.path.join(dirpath, table + ".schema"), "w", encoding="utf-8") as f:
        f.write(schema)


def live(source_id, path, kind="tabular"):
    return open_source(source_id, kind, str(path))


class TestSidecar:
    def test_quoted_names_and_kinds(self):
        schema = parse_sidecar(
            'id : int\n"Erwähnte Person" : text\nDatierung : date_text\n',
            "t", "t.schema",
        )
        assert schema.column_names() == ["id", "Erwähnte Person", "Datierung"]
        assert schema.columns[0].kind is ColumnKind.INT
        assert schema.columns[2].kind is ColumnKind.TEXT
        assert schema.columns[2].date_text

    def test_comments_and_blank_lines(self):
        schema = parse_sidecar("# comment\n\nid : int\n", "t", "t.schema")
        assert schema.column_names() == ["id"]

    @pytest.mark.parametrize(
        "text", ["id int\n", "id : float\n", '"id : int\n', ": int\n", ""]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(SourceError):
            parse_sidecar(text, "t", "t.schema")


class TestTabular:
    def test_open_lists_tables_sorted(self, tmp_path):
        write_source(tmp_path / "s", table="zz")
        write_source(tmp_path / "s", table="aa")
        handle = live("s", tmp_path / "s")
        assert [t.name for t in handle.list_tables()] == ["aa", "zz"]

    def test_missing_sidecar(self, tmp_path):
        d = tmp_path / "s"
        os.makedirs(d)
        (d / "t.csv").write_text("id\n1\n")
        with pytest.raises(SourceError):
            live("s", d)

    def test_header_must_match_sidecar(self, tmp_path):
        write_source(tmp_path / "s", header="id,wrong,note")
        handle = live("s", tmp_path / "s")  # an open reads no table file
        with pytest.raises(SourceError, match="does not match sidecar columns") as e:
            list(handle.scan("texts", columns=()))
        assert e.value.line == 1

    def test_scan_parses_cells_and_nulls(self, tmp_path):
        write_source(tmp_path / "s", rows=["1,complete,", "2,,x"])
        handle = live("s", tmp_path / "s")
        rows = list(handle.scan("texts"))
        assert rows == [(1, "complete", None), (2, None, "x")]
        assert row_item_key(rows[0]) == "1"

    def test_bad_int_cell(self, tmp_path):
        write_source(tmp_path / "s", rows=["x,a,b"])
        handle = live("s", tmp_path / "s")
        with pytest.raises(SourceError) as e:
            list(handle.scan("texts"))
        assert e.value.line == 2

    @pytest.mark.parametrize("text", ["9223372036854775808", "-9223372036854775809",
                                      "0" * 19 + "1", "1" * 5000])
    def test_int_outside_int64(self, tmp_path, text):
        """An int cell is an optional ``-`` and at most 19 ASCII digits
        whose value fits int64; any other is a record fault at its line."""
        write_source(tmp_path / "s", rows=["-9223372036854775808,a,b", "9223372036854775807,c,d",
                                           "-0,e,f", f"{text},g,h"])
        scan = live("s", tmp_path / "s").scan("texts")
        assert [next(scan)[0] for _ in range(3)] == [-2**63, 2**63 - 1, 0]
        with pytest.raises(SourceError) as e:
            next(scan)
        assert e.value.line == 5
        assert e.value.message == f"bad int {text!r} in column 'id': not an int64"

    def test_arity_mismatch(self, tmp_path):
        write_source(tmp_path / "s", rows=["1,a"])
        handle = live("s", tmp_path / "s")
        with pytest.raises(SourceError):
            list(handle.scan("texts"))

    def test_unknown_table(self, tmp_path):
        write_source(tmp_path / "s")
        with pytest.raises(NotFound):
            list(live("s", tmp_path / "s").scan("nope"))

    def test_quoted_csv_fields(self, tmp_path):
        write_source(tmp_path / "s", rows=['1,"a,b","say ""hi"""'])
        handle = live("s", tmp_path / "s")
        assert list(handle.scan("texts")) == [(1, "a,b", 'say "hi"')]

    def test_pushdown_filters_rows(self, tmp_path):
        write_source(tmp_path / "s", rows=["1,complete,a", "2,draft,b", "3,complete,c"])
        handle = live("s", tmp_path / "s")
        rows = list(handle.scan("texts", [Compare(1, "=", "complete")]))
        assert [r[0] for r in rows] == [1, 3]

    def test_invalid_utf8_header_is_source_error(self, tmp_path):
        d = tmp_path / "s"
        write_source(d)
        (d / "texts.csv").write_bytes(b"id,status,note\n1,\xff\xfe,x\n")
        handle = live("s", d)  # an open reads no table file
        with pytest.raises(SourceError) as e:
            list(handle.scan("texts", columns=()))
        assert e.value.path == str(d / "texts.csv")
        assert e.value.line == 2

    def test_invalid_utf8_sidecar_is_source_error(self, tmp_path):
        d = tmp_path / "s"
        write_source(d)
        (d / "texts.schema").write_bytes(b"id : int\nstatus \xff : text\nnote : text\n")
        with pytest.raises(SourceError) as e:
            live("s", d)
        assert e.value.path == str(d / "texts.schema")
        assert e.value.line == 2

    def test_invalid_utf8_row_is_source_error_on_scan(self, tmp_path):
        d = tmp_path / "s"
        write_source(d)
        # past the decoder's first read-ahead block, so the scan has read
        # the header and many rows when it meets the bad bytes
        rows = b"".join(b"%d,a,b\n" % i for i in range(1, 2001))
        (d / "texts.csv").write_bytes(b"id,status,note\n" + rows + b"2001,\xff\xfe,x\n")
        handle = live("s", d)
        with pytest.raises(SourceError) as e:
            list(handle.scan("texts"))
        assert e.value.path == str(d / "texts.csv")
        assert e.value.line == 2002

    def test_open_needs_a_directory_and_a_known_kind(self, tmp_path):
        write_source(tmp_path / "s", rows=["1,a,b"])
        with pytest.raises(SourceError, match="not a readable directory"):
            live("s", tmp_path / "s" / "texts.csv")
        with pytest.raises(ValueError, match="unknown source kind 'csv'"):
            live("s", tmp_path / "s", kind="csv")

    def test_pushdown_rejects_unknown_column_and_kind(self, tmp_path, capsys):
        """Only the planner makes pushed predicates: a query on a column the
        table lacks, or with a literal or test that does not fit the
        column's kind, is refused before any scan, with pushdown on and
        off; a fitting one is pushed as bound."""
        write_source(tmp_path / "s", rows=["1,a,b"])
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(tmp_path / "s"), AccessMode.LIVE)
        cat.persist()
        for where, message in (
            ("nosuch = 1", "unknown column 'nosuch'"),
            ("status = 5", "'status' is text, got an integer literal"),
            ("id = '1'", "'id' is int, got a string literal"),
            ("id CONTAINS '1'", "CONTAINS needs a text column"),
        ):
            q = f"SELECT id FROM s.texts WHERE {where}"
            for pushdown in (True, False):
                with pytest.raises(PlanError, match=message):
                    plan_query(parse_query(q), cat, pushdown)
            assert run(["--catalogue", cat.path, "query", q]) == 2
            out = capsys.readouterr()
            assert out.out == "" and message in out.err
        plan = plan_query(parse_query("SELECT id FROM s.texts WHERE status = 'a'"), cat)
        assert plan.terms[0].scan_preds == (Compare(1, "=", "a"),)
        assert execute_plan(plan).rows == [(1,)]

    def _dated(self, tmp_path):
        rows = [f"{i},{'ab'[i % 2]},{('0200', '0300', 'bad', '')[i % 4]}" for i in range(1, 41)]
        write_source(tmp_path / "s", header="id,status,when",
                     schema="id : int\nstatus : text\nwhen : date_text\n", rows=rows)
        return live("s", tmp_path / "s")

    @staticmethod
    def _coerce(text):
        try:
            return parse_uncertain_date(text)
        except ParseError:
            return None

    def test_transforming_predicates_test_the_transformed_cell(self, tmp_path):
        """A pushed predicate that translates tests the translation; one
        that coerces keeps a text that does not coerce and drops a null."""
        handle = self._dated(tmp_path)
        window = parse_uncertain_date("0150"), parse_uncertain_date("0250")
        for pred, ids in (
            (Compare(1, "=", "x", transform=TranslationTable("t", [("a", "x")], "-").translate),
             [i for i in range(1, 41) if i % 2 == 0]),
            (DateWithin(2, *window, transform=self._coerce),
             [i for i in range(1, 41) if i % 4 in (0, 2)]),
            (Compare(1, "=", "a"), [i for i in range(1, 41) if i % 2 == 0]),
        ):
            assert [r[0] for r in handle.scan("texts", [pred])] == ids, pred

    def test_pushed_date_tests_need_a_coercion_and_a_date_text_column(self, tmp_path):
        """A date test reaches a scan only through a view that coerces a
        date_text column, and then in the coercing form, which keeps a
        text that does not coerce; the planner refuses every other date
        test, and a raw date_text column compares as text."""
        handle = self._dated(tmp_path)
        (tmp_path / "v.view").write_text("view v\nfrom s.texts\ncoerce when date\nend\n")
        (tmp_path / "w.view").write_text("view w\nfrom s.texts\ncoerce status date\nend\n")
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(tmp_path / "s"), AccessMode.LIVE)
        cat.define_view(str(tmp_path / "v.view"))
        with pytest.raises(PlanError, match="coerce of non-date_text column 'status'"):
            cat.define_view(str(tmp_path / "w.view"))
        for q, message in (
            ("SELECT id FROM s.texts WHERE DATE_WITHIN(when, '0200', '0200')",
             "DATE_WITHIN needs a date column, 'when' is text"),
            ("SELECT id FROM v WHERE DATE_WITHIN(status, '0200', '0200')",
             "DATE_WITHIN needs a date column, 'status' is text"),
            ("SELECT id FROM v WHERE when = 200", "'when' is date, got an integer literal"),
            ("SELECT id FROM v WHERE when < '0200'", "ordering comparison on date column"),
        ):
            with pytest.raises(PlanError, match=message):
                plan_query(parse_query(q), cat)
        raw = plan_query(parse_query("SELECT id FROM s.texts WHERE when = '0200'"), cat)
        assert raw.terms[0].scan_preds == (Compare(2, "=", "0200"),)
        q = parse_query("SELECT id FROM v WHERE when = '0200'")
        (pred,) = plan_query(q, cat).terms[0].scan_preds
        assert (pred.index, pred.literal) == (2, parse_uncertain_date("0200"))
        assert pred.transform("0200") == pred.literal and pred.transform("bad") is None
        assert [r[0] for r in handle.scan("texts", [pred])] == [
            i for i in range(1, 41) if i % 4 in (0, 2)
        ]
        for pushdown in (True, False):
            assert execute_plan(plan_query(q, cat, pushdown)).rows == [
                (i,) for i in range(4, 41, 4)
            ]


class TestPushdownSoundness:
    def test_matches_reference_evaluator(self, desk_fixtures):
        """Pushed predicates must keep exactly the rows the reference
        oracle's own predicate code keeps, for every predicate shape, on
        both connectors."""
        fx, _ = desk_fixtures
        ops = ["<", "<=", ">", ">=", "=", "!="]
        spots = ["Rome", "Oxyrhynchos", "Carthage", "Alexandria", "Aphrodisias"]
        volterra = live("volterra", os.path.join(fx, "volterra"))
        iaph = live("iaph", os.path.join(fx, "iaph"), "xml_corpus")
        v = volterra.schema("legal_texts").index_of
        x = iaph.schema("docs").index_of
        inputs = [
            (volterra, "legal_texts", lambda rng: (
                Compare(v("id"), rng.choice(ops), rng.randint(1, 500)),
                Compare(v("findspot"), rng.choice(["=", "!="]), rng.choice(spots)),
                Contains(v("summary"), rng.choice(["impera", "LEX", "heres", "zz"])),
            )),
            (iaph, "docs", lambda rng: (
                Compare(x("id"), rng.choice(ops), f"i{rng.randint(0, 300):04d}"),
                Compare(x("findspot"), rng.choice(["=", "!="]), rng.choice(spots)),
                Contains(x(rng.choice(["body", "title", "persons"])),
                         rng.choice(["ΣΤΡΑΤΗΓ", "ΛΌΓ", "inscr", "zz"])),
            )),
        ]
        rng = random.Random(7)
        for handle, table, preds in inputs:
            full = list(handle.scan(table))
            for _ in range(60):
                pick = rng.random()
                pred = preds(rng)[0 if pick < 0.4 else 1 if pick < 0.7 else 2]
                pushed = list(handle.scan(table, [pred]))
                i = pred.index
                if isinstance(pred, Contains):
                    expected = [r for r in full if _naive_contains(r[i], pred.needle)]
                else:
                    expected = [r for r in full if _naive_compare(r[i], pred.op, pred.literal)]
                assert pushed == expected, (table, pred)

    def test_determinism(self, desk_fixtures):
        fx, _ = desk_fixtures
        handle = live("volterra", os.path.join(fx, "volterra"))
        assert list(handle.scan("legal_texts")) == list(
            handle.scan("legal_texts")
        )


class TestXmlDoc:
    def test_minimal(self):
        row = parse_xml_doc(b'<doc id="i1"><meta><title>t</title></meta><text>x</text></doc>')
        assert row == ("i1", "t", None, None, None, None, None, "x")
        assert len(row) == len(DOCS_TABLE_COLUMNS)

    def test_date_attributes(self):
        row = parse_xml_doc(
            b'<doc id="i1"><meta><date notBefore="0200" notAfter="0250"/></meta><text>x</text></doc>'
        )
        assert row[3:5] == ("0200", "0250")

    def test_missing_id(self):
        with pytest.raises(ParseError):
            parse_xml_doc(b"<doc><text>x</text></doc>")

    def test_duplicate_meta_element(self):
        with pytest.raises(ParseError):
            parse_xml_doc(
                b'<doc id="i1"><meta><title>a</title><title>b</title></meta></doc>'
            )

    def test_not_well_formed_has_line(self):
        with pytest.raises(ParseError) as e:
            parse_xml_doc(b'<doc id="i1">\n<meta>\n</doc>')
        assert e.value.line is not None

    def test_body_strips_tags_and_collapses_whitespace(self):
        row = parse_xml_doc(
            b'<doc id="i1"><text>  some <hi>marked\n  up</hi> words </text></doc>'
        )
        assert row[7] == "some marked up words"

    def test_persons_joined_with_pipe(self):
        row = parse_xml_doc(
            b'<doc id="i1"><meta><persName>A B</persName><persName>C</persName></meta>'
            b"<text>x</text></doc>"
        )
        assert row[6] == "A B|C"

    def test_empty_metadata_is_null(self):
        """An empty or all-whitespace element is a null cell, as an empty
        table cell is, and an empty persName adds no person."""
        row = parse_xml_doc(
            b'<doc id="a"><meta><title></title><persName></persName><persName>B</persName>'
            b"<findspot>  </findspot></meta></doc>"
        )
        assert row == ("a", None, None, None, None, None, "B", None)
        row = parse_xml_doc(b'<doc id="a"><meta><persName> </persName></meta></doc>')
        assert row[6] is None

    def test_unparseable_date_attr_is_kept_as_text(self):
        """Date attributes are date_text cells, as a table's are: a text
        that does not parse is left to a view's coercion."""
        row = parse_xml_doc(
            b'<doc id="i1"><meta><date notBefore="sometime" notAfter="0100-13"/></meta>'
            b"<text>x</text></doc>"
        )
        assert row == ("i1", None, None, "sometime", "0100-13", None, None, "x")

    def test_unknown_declared_encoding_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown encoding"):
            parse_xml_doc(b'<?xml version="1.0" encoding="TTF-8"?><doc id="i1"/>')

    def test_unknown_meta_element_rejected(self):
        with pytest.raises(ParseError):
            parse_xml_doc(b'<doc id="i1"><meta><weird>x</weird></meta></doc>')

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"<text>x</text>", "root element must be <doc>, got <text> (line 1)"),
            (b"<doc>\n<text>x</text></doc>", "<doc> is missing its id attribute (line 1)"),
            (b'<doc id="">\n</doc>', "<doc> is missing its id attribute (line 1)"),
            (b'<doc id="a">\n<title>x</title></doc>',
             "unexpected element <title> under <doc> (line 2)"),
            (b'<doc id="a">\n<meta/>\n<meta/></doc>', "duplicate <meta> element (line 3)"),
            (b'<doc id="a">\n<text/>\n<text>y</text></doc>', "duplicate <text> element (line 3)"),
            (b'<doc id="a"><meta>\n<weird>x</weird></meta></doc>',
             "unexpected element <weird> under <meta> (line 2)"),
            (b'<doc id="a"><meta>\n<text>x</text></meta></doc>',
             "unexpected element <text> under <meta> (line 2)"),
            (b'<doc id="a"><meta><title>a</title>\n<title>b</title></meta></doc>',
             "duplicate <title> element (line 2)"),
            (b'<doc id="a"><meta><findspot/>\n<findspot/></meta></doc>',
             "duplicate <findspot> element (line 2)"),
            (b'<doc id="a"><meta><category>c</category>\n<category/></meta></doc>',
             "duplicate <category> element (line 2)"),
            (b'<doc id="a"><meta><date notBefore="0100"/>\n<date/></meta></doc>',
             "duplicate <date> element (line 2)"),
            (b'<doc id="a"><meta><title>\n<hi>x</hi></title></meta></doc>',
             "unexpected element <hi> (line 2)"),
            (b'<doc id="a"><meta><date>\n<x/></date></meta></doc>',
             "unexpected element <x> (line 2)"),
            (b'<doc id="a"><meta><persName>\n<b/></persName></meta></doc>',
             "unexpected element <b> (line 2)"),
            # a date attribute is text, as a date_text cell is: no fault of its own
            (b'<doc id="a"><meta><date notBefore="sometime">\n<b/></date></meta></doc>',
             "unexpected element <b> (line 2)"),
            (b'<doc id="a"><meta><date notAfter="0100-13"/>\n<title/>\n<title/></meta></doc>',
             "duplicate <title> element (line 3)"),
            (b'<doc id="a">\n<meta>\n</doc>',
             "not well-formed: mismatched tag: line 3, column 2 (line 3)"),
        ],
    )
    def test_each_fault_names_itself_and_its_line(self, data, message):
        """A document with one fault of the subset grammar fails with this
        exact text, which ends with the fault's line where it has one."""
        with pytest.raises(ParseError) as e:
            parse_xml_doc(data)
        assert str(e.value) == message


class TestXmlCorpus:
    def test_exposes_docs_table(self, tmp_path):
        d = tmp_path / "c"
        os.makedirs(d)
        for i in range(3):
            (d / f"d{i}.xml").write_text(
                f'<doc id="i{i}"><meta><title>t{i}</title></meta><text>body {i}</text></doc>'
            )
        handle = live("c", d, kind="xml_corpus")
        tables = handle.list_tables()
        assert [t.name for t in tables] == ["docs"]
        assert tables[0].column_names() == [
            "id", "title", "findspot", "not_before", "not_after",
            "category", "persons", "body",
        ]
        rows = list(handle.scan("docs"))
        assert len(rows) == 3
        assert rows[0][0] == "i0"

    def test_duplicate_doc_id_across_files(self, tmp_path):
        """Two files with one id fail a scan and every lookup, whichever
        ids it wants, with one message naming the later file."""
        d = tmp_path / "c"
        os.makedirs(d)
        (d / "a.xml").write_text('<doc id="same"><text>x</text></doc>')
        (d / "b.xml").write_text('<doc id="same"><text>y</text></doc>')
        (d / "c.xml").write_text('<doc id="other"><text>z</text></doc>')
        message = f"duplicate doc id 'same' (also in a.xml) [{d / 'b.xml'}]"
        with pytest.raises(SourceError) as e:
            list(live("c", d, kind="xml_corpus").scan("docs"))
        assert str(e.value) == message
        for wanted in (["same"], ["other"], ["absent"], []):
            with pytest.raises(SourceError) as e:
                live("c", d, kind="xml_corpus").lookup("docs", wanted)
            assert str(e.value) == message, wanted

    def test_a_scan_streams_the_documents(self, tmp_path):
        """A scan yields a document's row before it reads the next file,
        fills only the cells asked for, and meets a fault of a later file
        as the SourceError a whole scan raises, naming the file."""
        d = tmp_path / "c"
        os.makedirs(d)
        for i in range(3):
            (d / f"d{i}.xml").write_text(
                f'<doc id="i{i}"><meta><title>t{i}</title></meta><text>body {i}</text></doc>'
            )
        handle = live("c", d, kind="xml_corpus")
        full = list(handle.scan("docs"))
        assert list(handle.scan("docs", columns=[7, 0, 7])) == [
            (r[0],) + (None,) * 6 + (r[7],) for r in full
        ]
        assert list(handle.scan("docs", [Compare(1, "=", "t1")], columns=[])) == [(None,) * 8]
        for fault in (b'<doc id="i2"><meta>', b'<doc id="i0"/>'):
            rows = handle.scan("docs", columns=[0])
            assert next(rows) == ("i0",) + (None,) * 7
            (d / "d2.xml").write_bytes(fault)  # the last file, not yet read
            with pytest.raises(SourceError) as e:
                list(rows)
            with pytest.raises(SourceError) as whole:
                list(live("c", d, kind="xml_corpus").scan("docs"))
            assert e.value.path == str(d / "d2.xml")
            assert str(e.value) == str(whole.value)

    def test_no_pushdown_capability(self, tmp_path):
        """The XML connector takes pushed predicates like the tabular one:
        it keeps the rows the reference predicates keep, and the planner
        refuses queries on unknown columns and with mistyped literals."""
        d = tmp_path / "c"
        os.makedirs(d)
        (d / "a.xml").write_text('<doc id="a"><meta><title>Stein</title></meta><text>x</text></doc>')
        (d / "b.xml").write_text('<doc id="b"><text>Xy</text></doc>')
        (d / "c.xml").write_text('<doc id="c"><meta><title>stEIN</title></meta></doc>')
        handle = live("c", d, kind="xml_corpus")
        col = handle.schema("docs").index_of
        full = list(handle.scan("docs"))
        for pred in (Contains(col("body"), "X"), Contains(col("title"), "stein"),
                     Compare(col("id"), ">", "a"), Compare(col("title"), "=", "Stein")):
            i = pred.index
            if isinstance(pred, Contains):
                expected = [r for r in full if _naive_contains(r[i], pred.needle)]
            else:
                expected = [r for r in full if _naive_compare(r[i], pred.op, pred.literal)]
            assert expected
            assert list(handle.scan("docs", [pred])) == expected, pred
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("c", "xml_corpus", str(d), AccessMode.LIVE)
        for where, message in (("nosuch CONTAINS 'x'", "unknown column 'nosuch'"),
                               ("id = 1", "'id' is text, got an integer literal")):
            for pushdown in (True, False):
                with pytest.raises(PlanError, match=message):
                    plan_query(parse_query(f"SELECT id FROM c.docs WHERE {where}"), cat, pushdown)

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_empty_title_filters_like_an_empty_table_cell(self, tmp_path, pushdown):
        corpus = tmp_path / "c"
        os.makedirs(corpus)
        (corpus / "a.xml").write_text('<doc id="a"><meta><title></title></meta></doc>')
        (corpus / "b.xml").write_text('<doc id="b"><meta><title>y</title></meta></doc>')
        write_source(tmp_path / "t", table="docs", header="id,title",
                     schema="id : text\ntitle : text\n", rows=["a,", "b,y"])
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("e", "xml_corpus", str(corpus), AccessMode.LIVE)
        cat.register_source("t", "tabular", str(tmp_path / "t"), AccessMode.LIVE)
        rows = {}
        for source in ("e", "t"):
            q = parse_query(f"SELECT id, title FROM {source}.docs WHERE title != 'x'")
            rows[source] = execute_plan(plan_query(q, cat, pushdown)).rows
        assert rows["e"] == rows["t"] == [("b", "y")]

    def test_fixture_table_names(self, desk_fixtures):
        fx, _ = desk_fixtures
        assert [t.name for t in live("v", os.path.join(fx, "volterra")).list_tables()] == ["legal_texts"]
        assert [t.name for t in live("h", os.path.join(fx, "hgv")).list_tables()] == ["papyri"]
        assert [
            t.name for t in live("i", os.path.join(fx, "iaph"), "xml_corpus").list_tables()
        ] == ["docs"]


class TestAutonomy:
    def test_reads_succeed_on_read_only_files(self, tmp_path):
        d = tmp_path / "s"
        write_source(d, rows=["1,a,b"])
        mtimes = {}
        for name in os.listdir(d):
            p = os.path.join(d, name)
            os.chmod(p, stat.S_IRUSR | stat.S_IRGRP | stat.S_IROTH)
            mtimes[name] = os.stat(p).st_mtime_ns
        handle = live("s", d)
        assert len(list(handle.scan("texts"))) == 1
        for name in os.listdir(d):
            assert os.stat(os.path.join(d, name)).st_mtime_ns == mtimes[name]

    def test_open_missing_path(self, tmp_path):
        with pytest.raises(SourceError):
            live("s", tmp_path / "missing")


class TestLateDecoding:
    """Rows are checked in full before a pushed predicate rejects them and
    whatever columns a query reads: a malformed cell in an unread column of
    a rejected row still fails the scan, with pushdown on and off."""

    BAD_ROWS = {
        "bad_int": b"0,x,drop,b\n",
        "arity": b"0,6,drop\n",
        "invalid_utf8": b"0,6,drop,\xff\n",
        "int_line_feed": b'0,"6\n",drop,b\n',
        "int_arabic_indic": b"0,\xd9\xa3,drop,b\n",  # U+0663, a digit int() reads
        "int_full_width": b"0,\xef\xbc\x95,drop,b\n",  # U+FF15
    }
    # rows before the bad one: past the decoder's first read-ahead block,
    # so the scan has read the header and many rows when it meets it
    LEAD = 1000

    def _source(self, tmp_path, bad: bytes):
        d = tmp_path / "s"
        write_source(d, table="t", header="id,n,tag,note",
                     schema="id : int\nn : int\ntag : text\nnote : text\n")
        self._write(d, bad)
        return d

    def _write(self, d, bad: bytes):
        lead = b"".join(b"%d,5,keep,a\n" % i for i in range(1, self.LEAD + 1))
        (d / "t.csv").write_bytes(b"id,n,tag,note\n" + lead + bad + b"7,7,keep,c\n")

    def test_good_rows_decode_only_the_columns_asked_for(self, tmp_path):
        d = self._source(tmp_path, b"0,6,drop,b\n")
        handle = live("s", d)
        keep = [Compare(2, "=", "keep")]
        rows = list(handle.scan("t", keep, columns=[0, 2]))
        assert len(rows) == self.LEAD + 1
        assert rows[-1] == (7, None, "keep", None)
        assert list(handle.scan("t", columns=[3]))[-2:] == [
            (None, None, None, "b"), (None, None, None, "c")
        ]
        assert list(handle.scan("t", keep))[-1] == (7, 7, "keep", "c")

    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_connector_scan_fails(self, tmp_path, bad):
        handle = live("s", self._source(tmp_path, self.BAD_ROWS[bad]))
        with pytest.raises(SourceError) as e:
            list(handle.scan("t", [Compare(2, "=", "keep")], columns=[0, 2]))
        assert e.value.line == self.LEAD + 2

    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_query_fails_with_pushdown_on_and_off(self, tmp_path, bad):
        from vdc.datacentre import Catalogue
        from vdc.query import execute_plan, parse_query, plan_query

        d = self._source(tmp_path, b"")
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(d), AccessMode.LIVE)
        self._write(d, self.BAD_ROWS[bad])  # a live source changes after it is accepted
        ast = parse_query("SELECT id FROM s.t WHERE tag = 'keep'")
        for pushdown in (True, False):
            plan = plan_query(ast, cat, pushdown=pushdown)
            assert plan.terms[0].columns == (0, 2)
            with pytest.raises(SourceError):
                execute_plan(plan)

    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_cli_exit_2_with_pushdown_on_and_off(self, tmp_path, bad, capsys):
        from vdc.cli import run

        d = self._source(tmp_path, b"")
        cat = str(tmp_path / "c.vdc")
        assert run(["--catalogue", cat, "source", "add", "s", "--kind", "tabular",
                    "--path", str(d), "--mode", "live"]) == 0
        self._write(d, self.BAD_ROWS[bad])  # a live source changes after it is accepted
        q = ["--catalogue", cat, "query", "SELECT id FROM s.t WHERE tag = 'keep'"]
        for extra in ([], ["--no-pushdown"]):
            capsys.readouterr()
            assert run(q + extra) == 2
            assert capsys.readouterr().out == ""


class TestLiveChanges:
    """A CSV that changes on disk while it is scanned fails the scan rather
    than returning a cut result."""

    @pytest.mark.parametrize("how", ["in_place", "replaced"])
    def test_rewritten_shorter_during_scan(self, tmp_path, how):
        d = tmp_path / "s"
        write_source(d, rows=[f"{i},a,b" for i in range(1, 6)])
        rows = live("s", d).scan("texts")
        assert next(rows) == (1, "a", "b")
        target = d / "texts.csv"
        if how == "in_place":
            target.write_text("id,status,note\n1,a,b\n", encoding="utf-8")
        else:
            (d / "new.tmp").write_text("id,status,note\n1,a,b\n", encoding="utf-8")
            os.replace(d / "new.tmp", target)
        with pytest.raises(SourceError, match="changed on disk"):
            list(rows)

    def test_header_rewritten_after_open_fails_the_read(self, tmp_path):
        """A table whose header no longer names the sidecar's columns in
        order is refused by a scan of a handle opened before the rewrite,
        not read by the old column positions.  In a vault, such a file no
        longer matches the column image: a lookup through a handle opened
        before the rewrite fails, as do a lookup through a handle opened
        after it and ``source verify``."""
        d = tmp_path / "s"
        write_source(d, table="t", header="a,b", schema="a : text\nb : text\n", rows=["x,y"])
        handle = live("s", d)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("v", "tabular", str(d), AccessMode.VAULT)
        vault = cat.open_handle("v")
        for table in (d / "t.csv", tmp_path / "c.vdc.store" / "vault" / "v" / "t.csv"):
            table.write_text("b,a\ny,x\n", encoding="utf-8")
        with pytest.raises(SourceError, match="does not match sidecar columns") as e:
            list(handle.scan("t"))
        assert e.value.line == 1
        with pytest.raises(IntegrityError, match="table file differs from the column image"):
            vault.lookup("t", ["x"])
        for check in (lambda: cat.open_handle("v").lookup("t", ["x"]), lambda: cat.verify_source("v")):
            with pytest.raises(IntegrityError, match="table file differs from the column image") as e:
                check()
            assert str(e.value).endswith(f"[{tmp_path / 'c.vdc.store' / 'vault' / 'v' / 't.csv'}]")

    def test_unchanged_live_and_vault_scans_succeed(self, tmp_path):
        from vdc.datacentre import Catalogue

        d = tmp_path / "s"
        write_source(d, rows=["1,a,b", "2,c,d"])
        assert len(list(live("s", d).scan("texts"))) == 2
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("v", "tabular", str(d), AccessMode.VAULT)
        for _ in range(2):
            assert len(list(cat.open_handle("v").scan("texts"))) == 2


class TestSchemaDrift:
    """Every position a plan holds was bound against the schema of the handle
    the view was compiled with, which the plan scans through: a live table
    whose schema changes between planning and the scan fails the scan, its
    header no longer naming that schema's columns, instead of answering by
    the wrong columns."""

    def _centre(self, tmp_path, mode):
        from vdc.datacentre import Catalogue

        d = tmp_path / "s"
        write_source(d, table="t", header="id,a,b",
                     schema="id : int\na : text\nb : text\n", rows=["1,x,y"])
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("s", "tabular", str(d), mode)
        return cat, d

    def _swap_columns(self, d):
        (d / "t.schema").write_text("id : int\nb : text\na : text\n", encoding="utf-8")
        (d / "t.csv").write_text("id,b,a\n1,y,x\n", encoding="utf-8")

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_live_schema_change_after_planning_fails(self, tmp_path, pushdown):
        from vdc.query import execute_plan, parse_query, plan_query

        cat, d = self._centre(tmp_path, AccessMode.LIVE)
        ast = parse_query("SELECT id, a FROM s.t WHERE a = 'x'")
        plan = plan_query(ast, cat, pushdown=pushdown)
        self._swap_columns(d)
        with pytest.raises(SourceError, match="does not match sidecar columns") as e:
            execute_plan(plan)
        assert (e.value.path, e.value.line) == (str(d / "t.csv"), 1)
        assert execute_plan(plan_query(ast, cat, pushdown=pushdown)).rows == [(1, "x")]

    def test_vault_and_unchanged_live_sources_succeed(self, tmp_path):
        from vdc.query import execute_plan, parse_query, plan_query

        ast = parse_query("SELECT id, a FROM s.t WHERE a = 'x'")
        for mode, change in ((AccessMode.LIVE, False), (AccessMode.VAULT, True)):
            cat, d = self._centre(tmp_path / mode.value, mode)
            for pushdown in (True, False):
                plan = plan_query(ast, cat, pushdown=pushdown)
                if change:  # the vault reads its snapshot, not the original
                    self._swap_columns(d)
                assert execute_plan(plan).rows == [(1, "x")]


_FIXTURE_DOC = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<doc id="i0000">\n'
    "  <meta>\n"
    "    <title>Inscription i0000</title>\n"
    "    <findspot>Aphrodisias</findspot>\n"
    '    <date notBefore="0206" notAfter="0206"/>\n'
    "    <category>letter</category>\n"
    "    <persName>Marcus Aurelius Zeno</persName>\n"
    "  </meta>\n"
    "  <text>λόγος στρατηγός θεός <hi>ager</hi> imperator legatus</text>\n"
    "</doc>\n"
).encode("utf-8")

_MARKUP = [
    b"<meta>", b"</meta>", b"<text>", b"</text>", b"<hi>", b"</doc>", b'<doc id="x">',
    b'<doc id="">', b"<title>", b"<persName>", b"<persName/>", b'<date notBefore="0200"/>',
    b'<date notBefore="0250" notAfter="0200"/>', b'<date notAfter="99999"/>',
    b'<date notBefore="0200-02-30"/>', b'<date notBefore="ca. 0200/0100"/>', b"<weird>",
    b"&amp;", b"&bogus;", b"&#0;", b"&#x110000;", b"<![CDATA[<doc>]]>", b"<!-- c -->",
    b'<?xml version="1.0" encoding="latin-1"?>', b'<?xml version="1.0" encoding="nope"?>',
    b'<!DOCTYPE doc [<!ENTITY e "<meta/>">]>', b"&e;", b"\xff", b"\xc3", b"\x00",
    b"\xef\xbb\xbf", b'id="i1"', b'"', b"ca. ", b"/", b"-02-30", b"-13", b"?", b"0000",
    b"-", b" ", b"\xe2\x80\x8b",
]
# insertion points that land inside attribute values and element content
_SEAMS = [i + 1 for i, c in enumerate(_FIXTURE_DOC) if c in b'">']


@st.composite
def _mutated_docs(draw) -> bytes:
    """The fixture document after a few byte flips, markup insertions and
    an optional truncation."""
    data = bytearray(_FIXTURE_DOC)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data) - 1))
        if draw(st.booleans()):
            data[at] ^= draw(st.integers(1, 255))
        else:
            if draw(st.booleans()):
                at = min(draw(st.sampled_from(_SEAMS)), len(data))
            data[at:at] = draw(st.sampled_from(_MARKUP))
    if draw(st.integers(0, 3)) == 0:
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


class TestXmlFuzz:
    """A damaged document is a parse error, never a bare exception."""

    @given(data=_mutated_docs())
    @settings(max_examples=400, deadline=None)
    def test_parse_returns_a_row_or_raises_parse_error(self, data):
        try:
            row = parse_xml_doc(data)
        except ParseError:
            return
        assert isinstance(row, tuple) and len(row) == len(DOCS_TABLE_COLUMNS)
        assert isinstance(row[0], str) and row[0]

    @given(data=_mutated_docs())
    @settings(max_examples=150, deadline=None)
    def test_scan_yields_rows_or_raises_source_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "doc.xml"), "wb") as f:
                f.write(data)
            try:
                rows = list(live("c", d, "xml_corpus").scan("docs"))
            except SourceError:
                return
        assert len(rows) == 1 and rows[0][0]


# documents of the subset grammar: metadata that may be empty, all
# whitespace or repeated (persName), absent <meta> or <text>, markup,
# comments and CDATA inside <text>, and text needing NFC and escaping
_CHARS = st.sampled_from(list("aZ λ\t\n&<>\"'") + ["e\u0301", "\u00a0", "\u2003"])
_TEXT = st.lists(_CHARS, max_size=8).map("".join)
_DATES = ["", "0206", "0150-03", "0150-03-07", "ca. 0200", "0100/0150", "-0020"]


@st.composite
def _subset_docs(draw, doc_id: str = "", id_attr: str = "") -> bytes:
    """A document; its id is ``doc_id`` quoted, else ``id_attr`` as
    written, else drawn."""
    parts = [f"<doc id={id_attr or quoteattr(doc_id or 'd' + draw(_TEXT).strip())}>"]
    if draw(st.booleans()):
        meta = [f"<persName>{escape(draw(_TEXT))}</persName>"
                for _ in range(draw(st.integers(0, 3)))]
        for name in ("title", "findspot", "category"):
            if draw(st.booleans()):
                meta.append(f"<{name}>{escape(draw(_TEXT))}</{name}>")
        if draw(st.booleans()):
            nb, na = draw(st.sampled_from(_DATES)), draw(st.sampled_from(_DATES))
            meta.append(f"<date notBefore={quoteattr(nb)} notAfter={quoteattr(na)}>"
                        f"{escape(draw(_TEXT))}</date>")
        order = draw(st.permutations(range(len(meta))))
        parts += ["<meta>", *(meta[i] for i in order), "</meta>"]
    if draw(st.booleans()):
        pieces = st.one_of(
            _TEXT.map(escape),
            _TEXT.map(lambda t: f"<hi>{escape(t)}</hi>"),
            _TEXT.map(lambda t: f"<a><b>{escape(t)}</b>{escape(t)}<lb/></a>"),
            st.just("<!-- c -->"),
            _TEXT.map(lambda t: f"<![CDATA[{t}]]>"),
        )
        parts += ["<text>", *draw(st.lists(pieces, max_size=5)), "</text>"]
    parts.append("</doc>")
    sep = draw(st.sampled_from(["", "\n", "\n  "]))
    return sep.join(parts).encode("utf-8")


class TestXmlDifferential:
    """The connector's expat reader against an ElementTree reader."""

    @given(data=_subset_docs())
    @settings(max_examples=300, deadline=None)
    def test_parse_xml_doc(self, data):
        assert parse_xml_doc(data) == etree_docs_row(data)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_corpus_scan(self, data):
        docs = [data.draw(_subset_docs(f"doc{i}")) for i in range(data.draw(st.integers(1, 4)))]
        with tempfile.TemporaryDirectory() as d:
            for i, doc in enumerate(docs):
                with open(os.path.join(d, f"{i:02}.xml"), "wb") as f:
                    f.write(doc)
            rows = list(live("c", d, "xml_corpus").scan("docs"))
        assert rows == [etree_docs_row(doc) for doc in docs]


# an id attribute as it may be written: character and entity references,
# and literal tabs and line breaks, which attribute-value normalization
# turns into spaces
_ID_PIECES = st.sampled_from(
    ["a", "Z", " ", "\u03bb", "e\u0301", "&amp;", "&lt;", "&quot;", "'", "&#38;", "&#x3bb;",
     "&#101;&#x301;", "&#9;", "&#10;", "&#xD;", "\t", "\n", "\r\n", "\r"]
)
_WRITTEN_IDS = st.lists(_ID_PIECES, max_size=6).map(lambda pieces: '"d' + "".join(pieces) + '"')
# how a file holds its text: UTF-8 with or without a BOM, or a declared
# encoding, with the characters it lacks written as references
_ENCODINGS = st.sampled_from(["utf-8", "utf-8-sig", "iso-8859-1", "windows-1252", "utf-16"])


def _encoded(doc: bytes, encoding: str) -> bytes:
    if encoding.startswith("utf-8"):
        return doc if encoding == "utf-8" else b"\xef\xbb\xbf" + doc
    text = f'<?xml version="1.0" encoding="{encoding}"?>\n' + doc.decode("utf-8")
    return text.encode(encoding, "xmlcharrefreplace")


def _write_corpus(dirpath, docs: dict[str, bytes]) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for name, data in docs.items():
        with open(os.path.join(dirpath, name), "wb") as f:
            f.write(data)


# documents whose parse fails at or before the root start tag: a root
# that is not <doc>, no id, an empty id, an unknown encoding, bytes before
# the root that do not parse
_NO_ROOT_ID = [
    b"<text>x</text>",
    b"<doc>\n<text>x</text></doc>",
    b'<doc id="">\n</doc>',
    b'<?xml version="1.0" encoding="TTF-8"?><doc id="i1"/>',
    b'<!-- open\n<doc id="i1"/>',
    b"",
]
# an encoding Python has a codec for but expat cannot read
_SHIFT_JIS = b'<?xml version="1.0" encoding="shift_jis"?><doc id="i1"/>'


class TestParseStoppedAtTheRoot:
    """``parse_xml_doc(data, wanted)``, which a lookup runs on every file:
    a document whose id is not wanted is read up to its root start tag."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_full_reading(self, data):
        doc = data.draw(_subset_docs(id_attr=data.draw(_WRITTEN_IDS)))
        raw = _encoded(doc, data.draw(_ENCODINGS))
        [doc_id] = parse_xml_doc(raw, set())
        assert doc_id == etree_docs_row(raw)[0]
        assert parse_xml_doc(raw, {doc_id}) == parse_xml_doc(raw)

    @pytest.mark.parametrize("data", [*_NO_ROOT_ID, _SHIFT_JIS])
    def test_errors_at_or_before_the_root_are_the_full_parses(self, data):
        with pytest.raises(ParseError) as full:
            parse_xml_doc(data)
        for wanted in (set(), {"i1"}):
            with pytest.raises(ParseError) as stopped:
                parse_xml_doc(data, wanted)
            assert (str(stopped.value), stopped.value.line) == (str(full.value), full.value.line)

    def test_a_multi_byte_encoding_is_a_parse_error(self):
        with pytest.raises(ParseError) as e:
            parse_xml_doc(_SHIFT_JIS)
        assert str(e.value) == "not well-formed: multi-byte encodings are not supported (line 1)"

    def test_stops_at_the_root(self):
        """What follows the root start tag is not read."""
        assert parse_xml_doc(b'<doc id="a"><text>\xff</txt>', set()) == ("a",)


class TestXmlLookup:
    """``XmlCorpusSource.lookup``, which coll resolve and coll update use:
    the answer a scan gives, from the documents it returns alone."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scan(self, data):
        n = data.draw(st.integers(1, 5))
        docs = {f"{i:02}.xml": data.draw(_subset_docs(f"doc{i}")) for i in range(n)}
        wanted = data.draw(st.lists(st.sampled_from([f"doc{i}" for i in range(n + 2)])))
        with tempfile.TemporaryDirectory() as d:
            _write_corpus(d, docs)
            rows = list(live("c", d, "xml_corpus").scan("docs"))
            found = live("c", d, "xml_corpus").lookup("docs", wanted)
        assert found == {row[0]: row for row in rows if row[0] in wanted}

    @pytest.mark.parametrize("mode", [AccessMode.LIVE, AccessMode.VAULT])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_parses_only_the_documents_it_returns(self, tmp_path, monkeypatch, mode, k):
        n = 8
        _write_corpus(tmp_path / "c", {
            f"{i}.xml": f'<doc id="i{i}"><text>body {i}</text></doc>'.encode() for i in range(n)
        })
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("c", "xml_corpus", str(tmp_path / "c"), mode)
        parsed = []  # the rows of documents parsed past their root
        real_row = connectors._DocBuilder.row

        def counting(self, data):
            row = real_row(self, data)
            if len(row) > 1:
                parsed.append(row)
            return row

        monkeypatch.setattr(connectors._DocBuilder, "row", counting)
        refs = [ItemRef("c", "docs", f"i{i}") for i in range(k)]
        items = cat.resolve_refs(refs)
        assert [item.kind for item in items] == ["doc"] * k
        assert [item.payload[1][7] for item in items] == [f"body {i}" for i in range(k)]
        assert len(parsed) == (k if mode is AccessMode.LIVE else 0)  # a vault reads its image

    BROKEN = b'<doc id="b">\n<text>broken</txt></doc>'

    def _broken_centre(self, tmp_path):
        """A live corpus whose b.xml is malformed after <doc id="b">; it
        was registered (which parses every document) before it broke."""
        corpus = tmp_path / "c"
        _write_corpus(corpus, {name: f'<doc id="{name[0]}"><text>{name}</text></doc>'.encode()
                               for name in ("a.xml", "b.xml", "c.xml")})
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("c", "xml_corpus", str(corpus), AccessMode.LIVE)
        (corpus / "b.xml").write_bytes(self.BROKEN)
        message = ("not well-formed: mismatched tag: line 2, column 14 (line 2) "
                   f"[{corpus / 'b.xml'}:2]")
        return cat, message

    def test_another_documents_malformed_body_does_not_fail_a_lookup(self, tmp_path):
        cat, message = self._broken_centre(tmp_path)
        items = cat.resolve_refs([ItemRef("c", "docs", "a"), ItemRef("c", "docs", "c")])
        assert [(item.kind, item.payload[1][0]) for item in items] == [("doc", "a"), ("doc", "c")]
        ref = ItemRef("c", "docs", "c")
        assert cat.update_collection("k", [ref]) == [ref]
        with pytest.raises(SourceError) as e:
            list(cat.open_handle("c").scan("docs"))
        assert str(e.value) == message

    def test_a_lookup_of_the_malformed_document_fails_as_a_scan_does(self, tmp_path):
        cat, message = self._broken_centre(tmp_path)
        [item] = cat.resolve_refs([ItemRef("c", "docs", "b")])
        assert (item.kind, item.payload) == ("error", message)
        with pytest.raises(CollectionError) as e:
            cat.update_collection("k", [ItemRef("c", "docs", "b")])
        assert str(e.value) == f"unresolvable ref c/docs/b: {message}"
        assert "k" not in cat.collections
        items = cat.resolve_refs([ItemRef("c", "docs", i) for i in "abc"])  # one lookup
        assert [(item.kind, item.payload if item.kind == "error" else item.payload[1][0])
                for item in items] == [("doc", "a"), ("error", message), ("doc", "c")]
        found = cat.open_handle("c").lookup("docs", ["a", "b"])
        assert found["a"][0] == "a" and str(found["b"]) == message

    @pytest.mark.parametrize("bad", [*_NO_ROOT_ID, _SHIFT_JIS])
    def test_a_file_with_no_readable_root_id_fails_every_lookup(self, tmp_path, bad):
        """A lookup parses every file as far as its root start tag, so a
        lookup of any id fails with the scan's error for such a file."""
        _write_corpus(tmp_path / "c", {"a.xml": b'<doc id="a"/>', "b.xml": bad})
        with pytest.raises(SourceError) as scanned:
            list(live("c", tmp_path / "c", "xml_corpus").scan("docs"))
        assert "b.xml" in str(scanned.value)
        for wanted in (["a"], []):
            with pytest.raises(SourceError) as e:
                live("c", tmp_path / "c", "xml_corpus").lookup("docs", wanted)
            assert str(e.value) == str(scanned.value)


class TestXmlVault:
    """An XML vault is read from its column image: its scans and lookups
    give what a live registration of the same documents gives."""

    _PUSHED = st.one_of(
        st.builds(Compare, st.integers(0, 7), st.sampled_from(sorted(COMPARE_OPS)),
                  _TEXT.map(nfc)),
        st.builds(Contains, st.integers(0, 7), _TEXT),
    )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_live(self, data):
        n = data.draw(st.integers(1, 6))
        # a tab, which a character reference keeps, makes an id no ref can name
        ids = [f"doc{i}" + data.draw(st.sampled_from(["", "&#9;x"])) for i in range(n)]
        docs = {f"{i:02}.xml": data.draw(_subset_docs(id_attr=f'"{ids[i]}"')) for i in range(n)}
        with tempfile.TemporaryDirectory() as d:
            _write_corpus(os.path.join(d, "c"), docs)
            cat = Catalogue(os.path.join(d, "c.vdc"))
            cat.register_source("v", "xml_corpus", os.path.join(d, "c"), AccessMode.VAULT)
            cat.register_source("l", "xml_corpus", os.path.join(d, "c"), AccessMode.LIVE)
            vault, live_handle = cat.open_handle("v"), cat.open_handle("l")
            assert vault.image is not None and live_handle.image is None
            rows = {row[0]: row for row in live_handle.scan("docs")}
            assert list(vault.scan("docs")) == list(rows.values())
            for _ in range(3):
                pushed = data.draw(st.lists(self._PUSHED, max_size=2))
                columns = data.draw(st.one_of(st.none(), st.sets(st.integers(0, 7))))
                at = range(8) if columns is None else sorted(columns)
                assert [[r[i] for i in at] for r in vault.scan("docs", pushed, columns)] == \
                    [[r[i] for i in at] for r in live_handle.scan("docs", pushed, columns)]
            pool = list(rows) + ["missing", "doc", ""]
            wanted = data.draw(st.lists(st.sampled_from(pool), max_size=8))
            expected = {k: rows[k] for k in wanted if k in rows and refable(k)}
            assert vault.lookup("docs", wanted) == live_handle.lookup("docs", wanted) == expected


class TestLookupContract:
    """Every handle answers ``lookup(table, item_ids)`` itself: the first
    row of each key a ref can name.  A vault answers from its column image
    as a live scan of the same files does."""

    @pytest.fixture
    def centre(self, tmp_path):
        d = tmp_path / "s"
        write_source(d, table="t", header="id,v", schema="id : int\nv : text\n",
                     rows=["7,first", "007,second", "12,twelve", "-0,zero"])
        write_source(d, table="u", header="id,v", schema="id : text\nv : text\n",
                     rows=["x,first", "x,second", "007,padded", "a\tb,tab"])
        _write_corpus(tmp_path / "c", {"a.xml": b'<doc id="a"/>'})
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("live", "tabular", str(d), AccessMode.LIVE)
        cat.register_source("vault", "tabular", str(d), AccessMode.VAULT)
        cat.register_source("xml", "xml_corpus", str(tmp_path / "c"), AccessMode.LIVE)
        return cat

    @pytest.mark.parametrize("source_id", ["live", "vault", "xml"])
    def test_an_unknown_table_is_not_found(self, centre, source_id):
        with pytest.raises(NotFound, match=f"no table 'nope' in source '{source_id}'"):
            centre.open_handle(source_id).lookup("nope", ["a", "7"])

    @pytest.mark.parametrize("table,keys,expected", [
        # duplicated 7 (first row wins), zero-padded 007 and -0, missing 99
        ("t", ["7", "12", "007", "0", "-0", "99"],
         {"7": (7, "first"), "12": (12, "twelve"), "0": (0, "zero")}),
        # duplicated x, a text key 007, missing 7, and a key holding a tab
        ("u", ["x", "007", "7", "a\tb", "missing"],
         {"x": ("x", "first"), "007": ("007", "padded")}),
    ])
    def test_a_vault_answers_as_a_live_scan(self, centre, table, keys, expected):
        assert ("a\tb", "tab") in centre.open_handle("live").scan("u")  # no ref names it
        assert centre.open_handle("vault").image is not None
        live_found = centre.open_handle("live").lookup(table, keys)
        assert centre.open_handle("vault").lookup(table, keys) == live_found == expected
