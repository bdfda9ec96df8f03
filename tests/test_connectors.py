"""Connector tests: sidecar/CSV parsing, the XML subset, pushdown soundness
against the central evaluator, autonomy, determinism."""

import os
import random
import stat

import pytest

from vdc.connectors import (
    SourceDescriptor,
    open_source,
    parse_sidecar,
    parse_xml_doc,
    row_item_key,
)
from vdc.datacentre import AccessMode
from vdc.errors import CapabilityError, NotFound, ParseError, SourceError
from vdc.model import ColumnKind
from vdc.predicates import Compare, Contains
from vdc.query.reference import _naive_compare, _naive_contains


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
    return open_source(SourceDescriptor(source_id, kind, str(path), AccessMode.LIVE))


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
        with pytest.raises(SourceError):
            live("s", tmp_path / "s")

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
        rows = list(handle.scan("texts", [Compare("status", "=", "complete")]))
        assert [r[0] for r in rows] == [1, 3]

    def test_invalid_utf8_header_is_source_error(self, tmp_path):
        d = tmp_path / "s"
        write_source(d)
        (d / "texts.csv").write_bytes(b"id,status,note\n1,\xff\xfe,x\n")
        with pytest.raises(SourceError) as e:
            live("s", d)
        assert e.value.path == str(d / "texts.csv")
        assert e.value.line == 2

    def test_invalid_utf8_row_is_source_error_on_scan(self, tmp_path):
        d = tmp_path / "s"
        write_source(d)
        # past the decoder's first read-ahead block, so opening (which reads
        # only the header) succeeds and the scan meets the bad bytes
        rows = b"".join(b"%d,a,b\n" % i for i in range(1, 2001))
        (d / "texts.csv").write_bytes(b"id,status,note\n" + rows + b"2001,\xff\xfe,x\n")
        handle = live("s", d)
        with pytest.raises(SourceError) as e:
            list(handle.scan("texts"))
        assert e.value.path == str(d / "texts.csv")
        assert e.value.line == 2002

    def test_pushdown_rejects_unknown_column_and_kind(self, tmp_path):
        write_source(tmp_path / "s", rows=["1,a,b"])
        handle = live("s", tmp_path / "s")
        with pytest.raises(CapabilityError):
            list(handle.scan("texts", [Compare("nope", "=", 1)]))
        with pytest.raises(CapabilityError):
            list(handle.scan("texts", [Compare("status", "=", 5)]))


class TestPushdownSoundness:
    def test_matches_reference_evaluator(self, desk_fixtures):
        """Pushed predicates must keep exactly the rows the reference
        oracle's own predicate code keeps, for every supported predicate."""
        fx, _ = desk_fixtures
        handle = live("volterra", os.path.join(fx, "volterra"))
        schema = handle.schema("legal_texts")
        full = list(handle.scan("legal_texts"))
        rng = random.Random(7)
        spots = ["Rome", "Oxyrhynchos", "Carthage", "Alexandria"]
        for _ in range(60):
            pick = rng.random()
            if pick < 0.4:
                pred = Compare("id", rng.choice(["<", "<=", ">", ">=", "=", "!="]),
                               rng.randint(1, 500))
            elif pick < 0.7:
                pred = Compare("findspot", rng.choice(["=", "!="]), rng.choice(spots))
            else:
                pred = Contains("summary", rng.choice(["impera", "LEX", "heres", "zz"]))
            pushed = list(handle.scan("legal_texts", [pred]))
            i = schema.index_of(pred.column)
            if isinstance(pred, Contains):
                expected = [r for r in full if _naive_contains(r[i], pred.needle)]
            else:
                expected = [r for r in full if _naive_compare(r[i], pred.op, pred.literal)]
            assert pushed == expected, pred

    def test_determinism(self, desk_fixtures):
        fx, _ = desk_fixtures
        handle = live("volterra", os.path.join(fx, "volterra"))
        assert list(handle.scan("legal_texts")) == list(
            handle.scan("legal_texts")
        )


class TestXmlDoc:
    def test_minimal(self):
        doc = parse_xml_doc(b'<doc id="i1"><meta><title>t</title></meta><text>x</text></doc>')
        assert doc.id == "i1"
        assert doc.meta == {"title": "t"}
        assert doc.body == "x"

    def test_date_attributes(self):
        doc = parse_xml_doc(
            b'<doc id="i1"><meta><date notBefore="0200" notAfter="0250"/></meta><text>x</text></doc>'
        )
        assert doc.meta["not_before"] == "0200"
        assert doc.meta["not_after"] == "0250"

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
        doc = parse_xml_doc(
            b'<doc id="i1"><text>  some <hi>marked\n  up</hi> words </text></doc>'
        )
        assert doc.body == "some marked up words"

    def test_persons_joined_with_pipe(self):
        doc = parse_xml_doc(
            b'<doc id="i1"><meta><persName>A B</persName><persName>C</persName></meta>'
            b"<text>x</text></doc>"
        )
        assert doc.meta["persons"] == "A B|C"

    def test_unparseable_date_attr_rejected(self):
        with pytest.raises(ParseError):
            parse_xml_doc(
                b'<doc id="i1"><meta><date notBefore="sometime"/></meta><text>x</text></doc>'
            )

    def test_unknown_meta_element_rejected(self):
        with pytest.raises(ParseError):
            parse_xml_doc(b'<doc id="i1"><meta><weird>x</weird></meta></doc>')


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
        d = tmp_path / "c"
        os.makedirs(d)
        (d / "a.xml").write_text('<doc id="same"><text>x</text></doc>')
        (d / "b.xml").write_text('<doc id="same"><text>y</text></doc>')
        with pytest.raises(SourceError):
            list(live("c", d, kind="xml_corpus").scan("docs"))

    def test_no_pushdown_capability(self, tmp_path):
        d = tmp_path / "c"
        os.makedirs(d)
        (d / "a.xml").write_text('<doc id="a"><text>x</text></doc>')
        handle = live("c", d, kind="xml_corpus")
        with pytest.raises(CapabilityError):
            list(handle.scan("docs", [Contains("body", "x")]))

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
        assert handle.estimate_rows("texts") == 1
        for name in os.listdir(d):
            assert os.stat(os.path.join(d, name)).st_mtime_ns == mtimes[name]

    def test_open_missing_path(self, tmp_path):
        with pytest.raises(SourceError):
            live("s", tmp_path / "missing")
