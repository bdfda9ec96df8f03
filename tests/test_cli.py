"""CLI tests: subcommands end to end, exit codes, stream separation, the
CSV round-trip invariant, and pushdown byte-identity at the CLI surface."""

import csv
import errno
import io
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdc import mediation, model
from vdc.cli import run
from vdc.datacentre import Catalogue, catalogue_lock
from vdc.errors import ParseError, PlanError
from vdc.model import DATE_MEMO

from helpers import FIXTURE_VIEWS, register_desk


@pytest.fixture()
def centre(tmp_path, desk_fixtures, capsys):
    """A catalogue file built through the CLI itself."""
    fx, manifest = desk_fixtures
    cat = str(tmp_path / "catalogue.vdc")

    def cli(*argv):
        code = run(["--catalogue", cat, *argv])
        out = capsys.readouterr()
        return code, out.out, out.err

    for sid, kind in (("hgv", "tabular"), ("volterra", "tabular"), ("iaph", "xml")):
        code, _, _ = cli("source", "add", sid, "--kind", kind,
                         "--path", os.path.join(fx, sid), "--mode", "live")
        assert code == 0
    assert cli("xlate", "add", "de_en", os.path.join(fx, "xlate", "de_en.csv"))[0] == 0
    for name in FIXTURE_VIEWS:
        assert cli("view", "define", os.path.join(fx, "views", name + ".view"))[0] == 0
    return cli, cat, fx, manifest


class TestQueryCommand:
    def test_csv_header_plus_rows(self, centre):
        cli, *_ = centre
        code, out, err = cli("query", "SELECT * FROM papyri LIMIT 1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("id,Titel")

    def test_syntax_error_exit_2_with_diagnostic_on_stderr(self, centre):
        cli, *_ = centre
        code, out, err = cli("query", "SELECT FROM")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_join_on_a_later_relation_exit_2(self, centre):
        cli, *_ = centre
        code, out, err = cli(
            "query",
            "SELECT p.id FROM papyri_en p JOIN volterra_texts v ON a.findspot = p.findspot "
            "JOIN all_texts a ON a.id = p.id",
        )
        assert code == 2
        assert out == ""
        assert "must relate 'v' to an earlier relation" in err

    def test_unknown_relation_exit_2(self, centre):
        cli, *_ = centre
        assert cli("query", "SELECT * FROM nowhere")[0] == 2

    def test_json_lines(self, centre):
        cli, *_ = centre
        code, out, _ = cli("query", "SELECT id FROM papyri LIMIT 2", "--format", "json")
        assert code == 0
        assert [l.startswith('{"id":') for l in out.splitlines()] == [True, True]

    def test_warnings_go_to_stderr(self, centre):
        cli, *_ = centre
        code, out, err = cli("query", "SELECT id, date FROM volterra_texts")
        assert code == 0
        assert "warning:" in err
        assert "warning" not in out

    def test_no_pushdown_byte_identical(self, centre):
        cli, *_ = centre
        queries = [
            "SELECT * FROM papyri_en WHERE findspot = 'Memphis'",
            "SELECT * FROM all_texts WHERE category = 'letter' AND id < 50",
            "SELECT id, summary FROM legal_texts WHERE summary CONTAINS 'lex'",
            "SELECT v_id, i_id FROM volterra_texts v JOIN iaph_docs i ON v.person = i.persons"
            .replace("v_id", "v.id").replace("i_id", "i.id"),
        ]
        for q in queries:
            _, on, _ = cli("query", q)
            _, off, _ = cli("query", q, "--no-pushdown")
            assert on.encode() == off.encode(), q

    def test_csv_output_round_trips_as_a_source(self, centre, tmp_path):
        """A query's CSV, registered as a tabular source whose date column
        is a date text and read back through a view that coerces it, as the
        first view does, prints the same bytes, so the canonical order is
        the same: the letters of the desk union, and a table of nulls,
        quotes, commas, CR, LF, NFD text and dates of every precision, one
        of which does not coerce."""
        cli, cat, fx, _ = centre
        os.makedirs(tmp_path / "hostile")
        rows = [("1", "", "0150"), ("2", 'quote "q"', "0150-03"), ("3", "comma, here", "ca. 0150"),
                ("4", "cr\rcell", "0150/0152"), ("5", "multi\nline", ""), ("6", "e\u0301 nfd", "-0020"),
                ("7", "crlf\r\ncell", "unbekannt"), ("8", "\u00e9", "0150-03-01"), ("9", "", "")]
        (tmp_path / "hostile" / "t.csv").write_bytes(
            model.csv_text([("id", "note", "when"), *rows]).encode("utf-8"))
        (tmp_path / "hostile" / "t.schema").write_text("id : int\nnote : text\nwhen : date_text\n")
        assert cli("source", "add", "hostile", "--kind", "tabular",
                   "--path", str(tmp_path / "hostile"), "--mode", "live")[0] == 0
        (tmp_path / "hostile.view").write_text("view hostile_v\nfrom hostile.t\ncoerce when date\nend\n")
        assert cli("view", "define", str(tmp_path / "hostile.view"))[0] == 0
        queries = [("SELECT * FROM all_texts WHERE category = 'letter'", "date"),
                   ("SELECT when, note, id FROM hostile_v", "when")]
        for n, (q, date) in enumerate(queries):
            code, out, _ = cli("query", q)
            assert code == 0 and out.count("\n") > 2

            # materialize the result as a new registrable tabular source
            newdir = tmp_path / f"rt{n}"
            os.makedirs(newdir)
            (newdir / "t.csv").write_bytes(out.encode("utf-8"))
            header = next(csv.reader(io.StringIO(out)))
            kinds = {"id": "int", date: "date_text"}
            sidecar = "".join(f'"{c}" : {kinds.get(c, "text")}\n' for c in header)
            (newdir / "t.schema").write_text(sidecar, encoding="utf-8")
            assert cli("source", "add", f"rt{n}", "--kind", "tabular",
                       "--path", str(newdir), "--mode", "live")[0] == 0
            (tmp_path / f"rt{n}.view").write_text(f"view rt{n}_v\nfrom rt{n}.t\ncoerce {date} date\nend\n")
            assert cli("view", "define", str(tmp_path / f"rt{n}.view"))[0] == 0
            code, out2, _ = cli("query", f"SELECT {', '.join(header)} FROM rt{n}_v")
            assert code == 0
            assert out2.encode("utf-8") == out.encode("utf-8"), q
        for text in (",,", '"quote ""q"""', '"comma, here"', '"cr\rcell"', '"multi\nline"',
                     "\u00e9 nfd", '"crlf\r\ncell"', "0150-03-01/0150-03-01"):
            assert text in out, text


class TestLimitPrefix:
    """``LIMIT n`` prints the header, then the first n lines of the
    unlimited output, with the same warnings, where the leading column
    ties: over one relation, a union view and a join of the desk centre."""

    QUERIES = (
        "SELECT findspot, date, id FROM papyri_en",
        "SELECT category, title FROM all_texts WHERE id < 300",
        "SELECT a.findspot, a.id, b.id FROM papyri_en a JOIN all_texts b ON a.findspot = b.findspot "
        "WHERE a.id < 40 AND b.id < 40",
    )

    @pytest.fixture(scope="class")
    def desk_cli(self, desk_fixtures, tmp_path_factory):
        """A function that runs one query through the CLI on a persisted
        desk catalogue and returns its (stdout, stderr), and a dict for
        each unlimited query's lines and warnings."""
        cat = register_desk(Catalogue(str(tmp_path_factory.mktemp("limit") / "c.vdc")), desk_fixtures[0])
        cat.persist()

        def query(q: str) -> tuple[str, str]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert run(["--catalogue", cat.path, "query", q]) == 0
            return out.getvalue(), err.getvalue()

        return query, {}

    @given(i=st.integers(0, len(QUERIES) - 1), n=st.integers(1, 40))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_limit_prints_the_first_n_lines(self, desk_cli, i, n):
        query, unlimited = desk_cli
        q = self.QUERIES[i]
        if q not in unlimited:
            out, err = query(q)
            lines = out.splitlines(keepends=True)
            assert len(lines) == len(list(csv.reader(io.StringIO(out)))) > 40  # a line per row
            leading = [line.split(",", 1)[0] for line in lines[1:]]
            assert len(set(leading)) < len(leading) and err  # ties, and warnings to compare
            unlimited[q] = lines, err
        lines, err = unlimited[q]
        assert query(f"{q} LIMIT {n}") == ("".join(lines[:n + 1]), err)


class TestModesViaCli:
    def test_index_only_source_query_denied_exit_3(self, centre, tmp_path):
        cli, cat, fx, _ = centre
        secret = tmp_path / "sec"
        os.makedirs(secret)
        (secret / "t.csv").write_text("id,note\n1,alpha beta\n", encoding="utf-8")
        (secret / "t.schema").write_text("id : int\nnote : text\n", encoding="utf-8")
        assert cli("source", "add", "sec", "--kind", "tabular",
                   "--path", str(secret), "--mode", "index-only")[0] == 0
        recipe = tmp_path / "sec.recipe"
        recipe.write_text(
            "recipe sec_ingest\nfrom sec.t\nid id\nbody note\nindex body\nend\n",
            encoding="utf-8",
        )
        assert cli("index", "build", "sec_texts", "--recipe", str(recipe))[0] == 0

        assert cli("query", "SELECT * FROM sec.t")[0] == 3
        assert cli("ingest", "sec", "--recipe", str(recipe))[0] == 3

        code, out, _ = cli("search", "sec_texts", "alpha")
        assert code == 0
        assert out.splitlines()[0] == "doc_id,ref,score"
        assert out.splitlines()[1].startswith("1,sec/t/1,")

    def test_coll_resolve_prints_stub_with_denied_markers(self, centre, tmp_path):
        cli, cat, fx, _ = centre
        secret = tmp_path / "sec2"
        os.makedirs(secret)
        (secret / "t.csv").write_text(
            "id,title,hidden\n7,Visible title,very secret\n", encoding="utf-8"
        )
        (secret / "t.schema").write_text(
            "id : int\ntitle : text\nhidden : text\n", encoding="utf-8"
        )
        assert cli("source", "add", "sec2", "--kind", "tabular",
                   "--path", str(secret), "--mode", "index-only")[0] == 0
        recipe = tmp_path / "sec2.recipe"
        recipe.write_text(
            "recipe sec2_ingest\nfrom sec2.t\nid id\nfield title = title\n"
            "field hidden = hidden\nbody title\nindex body\nend\n",
            encoding="utf-8",
        )
        assert cli("index", "build", "sec2_texts", "--recipe", str(recipe))[0] == 0
        assert cli("coll", "update", "finds", "--add", "sec2/t/7")[0] == 0
        code, out, err = cli("coll", "resolve", "finds")
        assert code == 0
        line = out.splitlines()[0]
        assert line.startswith("sec2/t/7\tstub\t")
        assert "title=Visible title" in line
        assert "hidden=-" in line
        assert "very secret" not in out
        # over an index of the retired format the stub is that ref's error
        with open(os.path.join(cat + ".store", "index", "sec2_texts.idx"), "w") as f:
            f.write("VDCIDX 1\n")
        assert cli("coll", "resolve", "finds") == (0, "", (
            "error: sec2/t/7: index 'sec2_texts': index has format v1, which is no longer read: "
            "rebuild it with `vdc index build`\n"))


class TestVaultDates:
    """A vault's date texts are parsed at registration and a query reads
    their days from its image, with the same bytes as a live registration
    parsing them, warnings included."""

    QUERIES = [
        "SELECT id, date FROM papyri_en WHERE DATE_WITHIN(date, '0150', '0159')",
        "SELECT id, date FROM papyri_en WHERE date = '0150'",
        "SELECT p.id, q.id FROM papyri_en p JOIN papyri_en q ON p.findspot = q.findspot "
        "WHERE p.id < 40 AND DATE_NEAR(p.date, q.date, 2)",
        "SELECT id, date FROM papyri_en",
    ]

    def test_a_vault_answers_as_a_live_registration(self, centre, tmp_path, capsys):
        live, _, fx, _ = centre
        vault_cat = str(tmp_path / "vault.vdc")

        def vault(*argv):
            code = run(["--catalogue", vault_cat, *argv])
            out = capsys.readouterr()
            return code, out.out, out.err

        for sid, kind, mode in (("hgv", "tabular", "vault"), ("volterra", "tabular", "live"),
                                ("iaph", "xml", "live")):
            assert vault("source", "add", sid, "--kind", kind, "--path", os.path.join(fx, sid),
                         "--mode", mode)[0] == 0
        assert vault("xlate", "add", "de_en", os.path.join(fx, "xlate", "de_en.csv"))[0] == 0
        for name in FIXTURE_VIEWS:
            assert vault("view", "define", os.path.join(fx, "views", name + ".view"))[0] == 0
        parses = []
        real_parse = mediation.parse_uncertain_date

        def counting_parse(text):
            parses.append(text)
            return real_parse(text)

        for q in self.QUERIES:
            for fmt in ("csv", "json"):
                answers = []
                for cli in (vault, live):
                    DATE_MEMO.clear()  # the memo lives as long as the process
                    parses.clear()
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(mediation, "parse_uncertain_date", counting_parse)
                        answers.append(cli("query", q, "--format", fmt))
                    assert answers[-1][0] == 0 and answers[-1][1].count("\n") > (fmt == "csv"), q
                    if cli is vault:
                        assert parses == [], q  # every text came from the image
                assert answers[0] == answers[1], q
                assert "warning" in answers[0][2] or "DATE_NEAR" in q


class TestCollectionsViaCli:
    def test_update_and_resolve_full_records(self, centre):
        cli, *_ = centre
        assert cli("coll", "update", "finds", "--add",
                   "volterra/legal_texts/1", "iaph/docs/i0000")[0] == 0
        code, out, _ = cli("coll", "resolve", "finds")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("volterra/legal_texts/1\trow\tid=1;")
        assert lines[1].startswith("iaph/docs/i0000\tdoc\tid=i0000;")

    def test_doc_without_metadata_or_body(self, centre, tmp_path):
        """A doc lists only the metadata it has, then its body, even when
        both are empty."""
        cli, *_ = centre
        corpus = tmp_path / "bare"
        corpus.mkdir()
        (corpus / "b.xml").write_bytes(b'<doc id="b1"><text>  </text></doc>')
        assert cli("source", "add", "bare", "--kind", "xml", "--path", str(corpus),
                   "--mode", "live")[0] == 0
        assert cli("coll", "update", "finds", "--add", "bare/docs/b1")[0] == 0
        assert cli("coll", "resolve", "finds") == (0, "bare/docs/b1\tdoc\tid=b1;body=\n", "")

    def test_malformed_ref_exit_2(self, centre):
        cli, *_ = centre
        assert cli("coll", "update", "finds", "--add", "notaref")[0] == 2

    def test_repeated_add_keeps_every_ref(self, centre):
        cli, cat, *_ = centre
        assert cli("coll", "update", "r", "--add", "volterra/legal_texts/1",
                   "--add", "volterra/legal_texts/2", "volterra/legal_texts/3") == (
            0, "", "collection r: 3 refs\n")
        refs = ",".join(f"volterra/legal_texts/{i}" for i in (1, 2, 3))
        assert f"\nCOLL r {refs}\n" in open(cat, encoding="utf-8").read()


    def test_a_broken_document_fails_only_its_own_ref(self, centre, tmp_path):
        """One document that broke after registration: coll resolve prints
        the other refs' rows and one error line naming that document, and
        coll update fails naming the first bad ref and writes nothing."""
        cli, cat, fx, _ = centre
        corpus = tmp_path / "br"
        shutil.copytree(os.path.join(fx, "iaph"), corpus)
        assert cli("source", "add", "br", "--kind", "xml", "--path", str(corpus),
                   "--mode", "live")[0] == 0
        refs = [f"br/docs/i000{i}" for i in range(3)]
        assert cli("coll", "update", "b", "--add", *refs)[0] == 0
        _, intact, _ = cli("coll", "resolve", "b")
        (corpus / "i0001.xml").write_bytes(b'<doc id="i0001">\n<text>broken</txt></doc>')
        before = open(cat, "rb").read()
        code, out, err = cli("coll", "resolve", "b")
        message = f"not well-formed: mismatched tag: line 2, column 14 (line 2) [{corpus / 'i0001.xml'}:2]"
        lines = intact.splitlines(keepends=True)
        assert (code, out, err) == (0, lines[0] + lines[2], f"error: br/docs/i0001: {message}\n")
        code, out, err = cli("coll", "update", "c", "--add", refs[0], refs[1], refs[2])
        assert (code, out, err) == (2, "", f"error: unresolvable ref br/docs/i0001: {message}\n")
        assert open(cat, "rb").read() == before

    def test_a_duplicate_id_still_fails_every_ref(self, centre, tmp_path):
        cli, cat, fx, _ = centre
        corpus = tmp_path / "dup"
        shutil.copytree(os.path.join(fx, "iaph"), corpus)
        assert cli("source", "add", "dup", "--kind", "xml", "--path", str(corpus),
                   "--mode", "live")[0] == 0
        assert cli("coll", "update", "d", "--add", "dup/docs/i0000", "dup/docs/i0002")[0] == 0
        shutil.copy(corpus / "i0000.xml", corpus / "z.xml")
        code, out, err = cli("coll", "resolve", "d")
        message = f"duplicate doc id 'i0000' (also in i0000.xml) [{corpus / 'z.xml'}]"
        assert (code, out) == (0, "")
        assert err == f"error: dup/docs/i0000: {message}\nerror: dup/docs/i0002: {message}\n"


class TestBareTableNames:
    """A bare table name in a query names the one source that holds such
    a table.  An index-only source whose original is gone is passed over;
    any other source that no longer opens fails the query.  Opening reads
    no table file, so a broken table fails only the queries that read it."""

    def test_a_name_two_sources_hold_is_ambiguous(self, centre):
        cli, cat, fx, _ = centre
        assert cli("source", "add", "iv", "--kind", "xml", "--path", os.path.join(fx, "iaph"),
                   "--mode", "vault")[0] == 0
        message = "table 'docs' is ambiguous across sources: iaph, iv"
        with pytest.raises(PlanError, match=f"^{message}$"):
            Catalogue.load(cat).resolve_relation("docs")
        assert cli("query", "SELECT id FROM docs") == (2, "", f"error: {message}\n")

    def test_a_withdrawn_index_only_source_is_passed_over(self, centre, tmp_path):
        cli, _, fx, _ = centre
        corpus = tmp_path / "sealed"
        shutil.copytree(os.path.join(fx, "iaph"), corpus)
        assert cli("source", "add", "sealed", "--kind", "xml", "--path", str(corpus),
                   "--mode", "index-only")[0] == 0
        recipe = tmp_path / "sealed.recipe"
        text = open(os.path.join(fx, "recipes", "iaph.recipe"), encoding="utf-8").read()
        recipe.write_text(text.replace("recipe iaph_ingest", "recipe sealed_ingest")
                          .replace("from iaph.docs", "from sealed.docs"), encoding="utf-8")
        assert cli("index", "build", "sealed_texts", "--recipe", str(recipe))[0] == 0
        assert cli("coll", "update", "finds", "--add", "sealed/docs/i0001")[0] == 0
        code, stub, _ = cli("coll", "resolve", "finds")
        assert code == 0 and stub.startswith("sealed/docs/i0001\tstub\t")
        query = "SELECT id FROM docs WHERE id = 'i0001'"
        assert cli("query", query) == (
            2, "", "error: table 'docs' is ambiguous across sources: iaph, sealed\n")
        shutil.rmtree(corpus)
        assert cli("query", query) == (0, "id\ni0001\n", "")
        assert cli("query", "SELECT id FROM legal_texts WHERE id < 3") == (0, "id\n1\n2\n", "")
        assert cli("coll", "resolve", "finds") == (0, stub, "")

    def test_a_broken_table_of_another_source_is_not_read(self, centre, tmp_path):
        cli, *_ = centre
        for name in ("a", "b"):
            src = tmp_path / name
            src.mkdir()
            (src / f"t{name}.schema").write_text("id : int\n", encoding="utf-8")
            (src / f"t{name}.csv").write_text("id\n1\n", encoding="utf-8")
            assert cli("source", "add", name, "--kind", "tabular", "--path", str(src),
                       "--mode", "live")[0] == 0
        (tmp_path / "b" / "tb.csv").write_text("x\n1\n", encoding="utf-8")
        assert cli("query", "SELECT id FROM ta") == (0, "id\n1\n", "")
        assert cli("query", "SELECT id FROM tb") == (
            2, "", f"error: csv header ['x'] does not match sidecar columns [{tmp_path / 'b' / 'tb.csv'}:1]\n")

    def test_a_withdrawn_live_source_fails_the_query(self, centre, tmp_path):
        cli, _, fx, _ = centre
        copy = tmp_path / "vc"
        shutil.copytree(os.path.join(fx, "volterra"), copy)
        assert cli("source", "add", "vc", "--kind", "tabular", "--path", str(copy),
                   "--mode", "live")[0] == 0
        shutil.rmtree(copy)
        assert cli("query", "SELECT id FROM papyri WHERE id < 3") == (
            2, "", f"error: source path is not a readable directory [{copy}]\n")


class TestSourceVerify:
    """``vdc source verify`` checks a vault against its column image, and
    reads any other source in full."""

    def vault(self, centre, tmp_path, sid="hv", kind="tabular", source="hgv"):
        cli, cat, fx, _ = centre
        assert cli("source", "add", sid, "--kind", kind, "--path", os.path.join(fx, source),
                   "--mode", "vault")[0] == 0
        return cli, os.path.join(cat + ".store", "vault", sid)

    def test_an_intact_vault(self, centre, tmp_path):
        cli, _ = self.vault(centre, tmp_path)
        assert cli("source", "verify", "hv") == (
            0, "", "verified hv: every table file and image chunk matches (files: 1, chunks: 9)\n")

    @pytest.mark.parametrize("damaged", ["papyri.csv", "vdc.cols"])
    def test_a_changed_byte_names_its_file(self, centre, tmp_path, damaged):
        cli, vault = self.vault(centre, tmp_path)
        path = os.path.join(vault, damaged)
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0x04
        open(path, "wb").write(bytes(data))
        code, out, err = cli("source", "verify", "hv")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f"[{path}]\n")

    def test_the_table_file_is_named_before_its_chunks(self, centre, tmp_path):
        cli, vault = self.vault(centre, tmp_path)
        with open(os.path.join(vault, "papyri.csv"), "ab") as f:
            f.write(b"x")
        with open(os.path.join(vault, "vdc.cols"), "r+b") as f:
            f.seek(-1, os.SEEK_END)
            last = f.read(1)
            f.seek(-1, os.SEEK_END)
            f.write(bytes([last[0] ^ 1]))
        code, _, err = cli("source", "verify", "hv")
        assert code == 2
        assert "table file differs from the column image" in err
        assert err.endswith(f"[{os.path.join(vault, 'papyri.csv')}]\n")

    def test_a_vault_without_an_image_is_refused(self, centre, tmp_path):
        """A tabular vault is read from its image or not at all: without
        one, a verify, a query and a collection resolve each exit 2 naming
        the missing file, and a query of another source still answers."""
        cli, vault = self.vault(centre, tmp_path)
        assert cli("coll", "update", "hv_keys", "--add", "hv/papyri/1", "hv/papyri/2")[0] == 0
        image = os.path.join(vault, "vdc.cols")
        os.remove(image)
        refused = (2, "", f"error: vault snapshot has no column image; add the source again [{image}]\n")
        assert cli("source", "verify", "hv") == refused
        assert cli("query", "SELECT id FROM hv.papyri WHERE id < 3") == refused
        assert cli("coll", "resolve", "hv_keys") == refused
        assert cli("query", "SELECT id FROM volterra.legal_texts WHERE id < 3")[:2] == (0, "id\n1\n2\n")

    def test_an_xml_vault_is_checked_against_its_image(self, centre, tmp_path):
        """An XML vault's documents are each checked against the size and
        CRC-32 its image holds; a fault names the document."""
        cli, vault = self.vault(centre, tmp_path, "iv", "xml", "iaph")
        assert cli("source", "verify", "iv") == (
            0, "", "verified iv: every table file and image chunk matches (files: 500, chunks: 8)\n")
        with open(os.path.join(vault, "i0007.xml"), "wb") as f:
            f.write(b'<doc id="i0007"><text>cut')
        image = os.path.join(vault, "vdc.cols")
        assert cli("source", "verify", "iv") == (
            2, "", f"error: table file differs from the column image {image} "
                   f"[{os.path.join(vault, 'i0007.xml')}]\n")

    @pytest.mark.parametrize("fault", ["edit a title", "append a byte", "cut a file",
                                       "add a document", "delete a document"])
    def test_a_changed_xml_vault_is_refused_where_checked(self, centre, tmp_path, fault):
        """Any change to the documents of an XML vault fails a collection
        resolve and a verify, naming the changed document, or the snapshot
        directory when a document was added or deleted, while a query,
        which reads the image alone, still prints the registered rows."""
        cli, vault = self.vault(centre, tmp_path, "iv", "xml", "iaph")
        assert cli("coll", "update", "k", "--add", "iv/docs/i0001", "iv/docs/i0002")[0] == 0
        code, rows, _ = cli("query", "SELECT * FROM iv.docs")
        assert code == 0 and rows.count("\n") == 501
        path = os.path.join(vault, "i0001.xml")
        data = open(path, "rb").read()
        if fault == "edit a title":
            assert data.count(b"<title>") == 1
            open(path, "wb").write(data.replace(b"<title>", b"<title>Forged "))
        elif fault == "append a byte":
            open(path, "ab").write(b"\n")
        elif fault == "cut a file":
            open(path, "wb").write(data[:len(data) // 2])
        elif fault == "add a document":
            open(os.path.join(vault, "z.xml"), "wb").write(b'<doc id="z"/>')
        else:
            os.remove(path)
        image = os.path.join(vault, "vdc.cols")
        if fault.endswith("document"):
            files = 501 if fault.startswith("add") else 499
            message = (f"error: table 'docs' has {files} files, not 500 as in the column image "
                       f"{image} [{vault}]\n")
        else:
            message = f"error: table file differs from the column image {image} [{path}]\n"
        assert cli("coll", "resolve", "k") == (2, "", message)
        assert cli("source", "verify", "iv") == (2, "", message)
        assert cli("query", "SELECT * FROM iv.docs") == (0, rows, "")

    @pytest.mark.parametrize("sid", ["volterra", "iaph"])
    def test_a_live_source_is_read_in_full(self, centre, sid):
        cli, *_ = centre
        assert cli("source", "verify", sid) == (0, "", f"verified {sid}: 500 rows read\n")

    def test_a_malformed_live_record_names_its_line(self, centre, tmp_path):
        """A record that breaks after registration fails the verify,
        naming its file and line."""
        cli, _, fx, _ = centre
        copy = tmp_path / "vol"
        shutil.copytree(os.path.join(fx, "volterra"), copy)
        assert cli("source", "add", "vc", "--kind", "tabular", "--path", str(copy),
                   "--mode", "live")[0] == 0
        table = copy / "legal_texts.csv"
        line = table.read_bytes().count(b"\n") + 1
        with open(table, "a", encoding="utf-8") as f:
            f.write("501,too few\n")
        code, out, err = cli("source", "verify", "vc")
        assert (code, out) == (2, "")
        assert err.startswith("error: row arity 2 != ") and err.endswith(f"[{table}:{line}]\n")

    def test_an_index_only_source_is_denied(self, centre, tmp_path):
        cli, _, fx, _ = centre
        assert cli("source", "add", "sealed", "--kind", "xml", "--path",
                   os.path.join(fx, "iaph"), "--mode", "index-only")[0] == 0
        code, _, err = cli("source", "verify", "sealed")
        assert code == 3 and "index-only" in err

    def test_an_unknown_source(self, centre):
        cli, *_ = centre
        assert cli("source", "verify", "nope") == (2, "", "error: no source 'nope'\n")


class TestRetriedVaultAdd:
    """A vault add that stops after its snapshot is published but before
    the catalogue is renamed leaves the snapshot as an orphan; the same
    command, run again, replaces it."""

    def test_the_retry_registers_the_source(self, centre, monkeypatch):
        cli, cat, fx, _ = centre
        argv = ("source", "add", "v", "--kind", "tabular", "--path", os.path.join(fx, "hgv"),
                "--mode", "vault")
        persist = Catalogue.persist

        def full_disk(self, *args, **kwargs):  # fails once, then persists
            monkeypatch.setattr(Catalogue, "persist", persist)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Catalogue, "persist", full_disk)
        code, out, err = cli(*argv)
        assert (code, out) == (2, "") and os.strerror(errno.ENOSPC) in err
        vault_root = os.path.join(cat + ".store", "vault")
        assert os.listdir(vault_root) == ["v"]
        assert "SOURCE v " not in open(cat, encoding="utf-8").read()
        open(os.path.join(vault_root, "v", "left.over"), "wb").close()

        assert cli(*argv) == (0, "", "registered v (tabular, vault)\n")
        assert "\nSOURCE v tabular vault " in open(cat, encoding="utf-8").read()
        assert cli("source", "verify", "v") == (
            0, "", "verified v: every table file and image chunk matches (files: 1, chunks: 9)\n")
        code, out, err = cli("query", "SELECT id FROM v.papyri WHERE id = 7")
        assert (code, out, err) == (0, "id\n7\n", "")
        assert os.listdir(vault_root) == ["v"]
        assert sorted(os.listdir(os.path.join(vault_root, "v"))) == [
            "papyri.csv", "papyri.schema", "vdc.cols"]


class TestXmlRegistration:
    BAD = b'<?xml version="1.0" encoding="TTF-8"?><doc id="i1"/>'

    @pytest.mark.parametrize("mode", ["vault", "live"])
    def test_malformed_document_refused_at_registration(self, centre, tmp_path, mode):
        """Every document is parsed before the source is accepted (and
        before a vault snapshot is taken): a malformed one exits 2 and
        leaves the catalogue and the store as they were."""
        cli, cat, *_ = centre
        corpus = tmp_path / "bad"
        corpus.mkdir()
        (corpus / "a.xml").write_bytes(b'<doc id="a0"><text>fine</text></doc>')
        (corpus / "b.xml").write_bytes(self.BAD)
        before = open(cat, "rb").read()
        code, out, err = cli("source", "add", "bad", "--kind", "xml",
                             "--path", str(corpus), "--mode", mode)
        assert (code, out) == (2, "")
        assert "unknown encoding" in err and "b.xml" in err
        assert open(cat, "rb").read() == before
        assert not os.path.exists(cat + ".store/vault/bad")

    def test_a_multi_byte_encoding_is_refused_naming_the_file(self, centre, tmp_path):
        """expat reads no multi-byte encoding: such a declaration is a
        parse error of that document, at line 1."""
        cli, cat, *_ = centre
        corpus = tmp_path / "sj"
        corpus.mkdir()
        (corpus / "s1.xml").write_bytes(b'<?xml version="1.0" encoding="shift_jis"?><doc id="s1"/>')
        before = open(cat, "rb").read()
        code, out, err = cli("source", "add", "sj", "--kind", "xml",
                             "--path", str(corpus), "--mode", "live")
        assert (code, out) == (2, "")
        assert err == ("error: not well-formed: multi-byte encodings are not supported "
                       f"(line 1) [{corpus / 's1.xml'}:1]\n")
        assert open(cat, "rb").read() == before

    def test_index_only_corpus_is_read_only_by_its_index_build(self, centre, tmp_path):
        cli, cat, *_ = centre
        corpus = tmp_path / "bad"
        corpus.mkdir()
        (corpus / "b.xml").write_bytes(self.BAD)
        assert cli("source", "add", "bad", "--kind", "xml", "--path", str(corpus),
                   "--mode", "index-only")[0] == 0
        recipe = tmp_path / "bad.recipe"
        recipe.write_text("recipe bad_ingest\nfrom bad.docs\nid id\nbody body\nend\n",
                          encoding="utf-8")
        code, _, err = cli("index", "build", "bad_texts", "--recipe", str(recipe))
        assert code == 2 and "unknown encoding" in err


class TestSearchViaCli:
    def test_search_with_field_bbox_limit(self, centre, tmp_path):
        cli, cat, fx, _ = centre
        assert cli("index", "build", "vol_texts",
                   "--recipe", os.path.join(fx, "recipes", "volterra.recipe"))[0] == 0
        code, out, _ = cli("search", "vol_texts", "imperator", "--limit", "5")
        assert code == 0
        assert 2 <= len(out.splitlines()) <= 6
        code, out, _ = cli("search", "vol_texts", "imperator",
                           "--bbox", "20,20,40,40", "--limit", "3")
        assert code == 0
        for bad in ("bad", "nan,0,90,180", "0,0,inf,180", "0,-inf,90,180"):
            code, out, err = cli("search", "vol_texts", "imperator", "--bbox", bad)
            assert code == 2 and out == "", bad

    def test_bbox_with_a_negative_first_value(self, centre):
        """``--bbox -10,...`` is read as the box, not as an option: it gives
        the hits of the ``--bbox=-10,...`` form; a malformed box of either
        form still exits 2."""
        cli, cat, fx, _ = centre
        assert cli("index", "build", "vol_texts",
                   "--recipe", os.path.join(fx, "recipes", "volterra.recipe"))[0] == 0
        spaced = cli("search", "vol_texts", "imperator", "--bbox", "-10,-20,60,60")
        joined = cli("search", "vol_texts", "imperator", "--bbox=-10,-20,60,60")
        assert spaced[0] == joined[0] == 0
        assert spaced[1] == joined[1] and len(spaced[1].splitlines()) > 1
        for argv in (("--bbox", "-10,-20,60"), ("--bbox=-10,-20,60",),
                     ("--bbox", "-10,x,60,60")):
            code, out, _ = cli("search", "vol_texts", "imperator", *argv)
            assert code == 2 and out == "", argv

    def test_ingest_missing_recipe_exit_2(self, centre, tmp_path):
        cli, *_ = centre
        recipe = str(tmp_path / "nope.recipe")
        code, out, err = cli("ingest", "volterra", "--recipe", recipe)
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read recipe file: [Errno 2] No such file or "
                       f"directory: {recipe!r} [{recipe}]\n")

    def test_ingest_recipe_with_invalid_utf8_exit_2(self, centre, tmp_path):
        cli, *_ = centre
        recipe = tmp_path / "bad.recipe"
        recipe.write_bytes(b"recipe r\nfrom volterra.legal_texts\n# \xff\nid id\nend\n")
        code, out, err = cli("ingest", "volterra", "--recipe", str(recipe))
        assert code == 2 and out == ""
        assert f"invalid UTF-8 (invalid start byte) [{recipe}:3]" in err

    @pytest.mark.parametrize("bad_row", [
        b"2,second,x,note\n",  # bad int in an unread column
        b"2,second\n",  # short row
        b"2,second,7,caf\xe9\n",  # invalid UTF-8 in an unread column
    ])
    def test_ingest_checks_columns_it_does_not_read(self, centre, tmp_path, bad_row):
        """The recipe reads id and title only; a malformed record elsewhere
        in a live table still fails the build."""
        cli, *_ = centre
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.schema").write_text("id : int\ntitle : text\nn : int\nnote : text\n")
        (src / "t.csv").write_bytes(b"id,title,n,note\n1,first,3,ok\n")
        recipe = tmp_path / "t.recipe"
        recipe.write_text("recipe t_ingest\nfrom src.t\nid id\nfield title = title\n"
                          "body title\nindex body\nend\n")
        assert cli("source", "add", "src", "--kind", "tabular", "--path", str(src),
                   "--mode", "live")[0] == 0
        assert cli("index", "build", "t_texts", "--recipe", str(recipe))[0] == 0
        (src / "t.csv").write_bytes(b"id,title,n,note\n1,first,3,ok\n" + bad_row + b"3,third,4,ok\n")
        code, out, err = cli("index", "build", "t_texts", "--recipe", str(recipe))
        assert code == 2 and out == ""
        assert f"{src / 't.csv'}:3]" in err

    def test_ingest_prints_nothing_before_a_failing_scan(self, centre, tmp_path):
        """The documents are listed only once the whole table has been
        scanned: a doc id repeated on the last row leaves stdout empty."""
        cli, *_ = centre
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.schema").write_text("id : int\ntitle : text\n")
        (src / "t.csv").write_text("id,title\n1,first\n2,second\n3,third\n2,again\n")
        recipe = tmp_path / "t.recipe"
        recipe.write_text("recipe t_ingest\nfrom src.t\nid id\nbody title\nend\n")
        assert cli("source", "add", "src", "--kind", "tabular", "--path", str(src),
                   "--mode", "live")[0] == 0
        code, out, err = cli("ingest", "src", "--recipe", str(recipe))
        assert (code, out, err) == (2, "", "error: duplicate doc id '2': src/t/2 and src/t/2\n")

    def test_ingest_and_index_build_name_the_same_repeat(self, centre, tmp_path):
        """Both commands find repeated doc ids once the scan has ended and
        print one line: the smallest repeated id, not the first repeat met,
        with the refs of its first two rows.  The build writes no index."""
        cli, cat, *_ = centre
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.schema").write_text("key : text\nid : int\ntitle : text\n")
        (src / "t.csv").write_text("key,id,title\nk1,3,a\nk2,2,b\nk3,3,c\nk4,2,d\nk5,1,e\n")
        recipe = tmp_path / "t.recipe"
        recipe.write_text("recipe t_ingest\nfrom src.t\nid id\nbody title\nindex body\nend\n")
        assert cli("source", "add", "src", "--kind", "tabular", "--path", str(src),
                   "--mode", "live")[0] == 0
        line = "error: duplicate doc id '2': src/t/k2 and src/t/k4\n"
        assert cli("ingest", "src", "--recipe", str(recipe)) == (2, "", line)
        assert cli("index", "build", "t_texts", "--recipe", str(recipe)) == (2, "", line)
        index_dir = cat + ".store/index"
        assert not os.path.exists(index_dir) or os.listdir(index_dir) == []

    def test_search_and_ingest_quote_their_csv(self, centre, tmp_path):
        """A doc id with a comma, a quote and a line break is one CSV field
        in the output of both commands."""
        cli, *_ = centre
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.schema").write_text("k : int\nname : text\nbody : text\n")
        (src / "t.csv").write_text('k,name,body\n1,"a,""b\nc",quittung\n')
        recipe = tmp_path / "t.recipe"
        recipe.write_text("recipe t_ingest\nfrom src.t\nid name\nbody body\nindex body\nend\n")
        assert cli("source", "add", "src", "--kind", "tabular", "--path", str(src),
                   "--mode", "live")[0] == 0
        code, out, _ = cli("ingest", "src", "--recipe", str(recipe))
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [["doc_id", "ref"], ['a,"b\nc', "src/t/1"]]
        assert cli("index", "build", "t_texts", "--recipe", str(recipe))[0] == 0
        code, out, _ = cli("search", "t_texts", "quittung")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["doc_id", "ref", "score"], ['a,"b\nc', "src/t/1", "1"]]

    def test_a_lone_carriage_return_is_quoted(self, centre, tmp_path):
        """A cell holding a lone CR is one quoted CSV field in the output
        of query, ingest and search, so a reader does not split its row;
        the other fields print bare, as before."""
        cli, *_ = centre
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.schema").write_text("k : int\nname : text\nbody : text\n")
        (src / "t.csv").write_bytes(b'k,name,body\n1,"a\rb",quittung\n2,plain,quittung\n')
        recipe = tmp_path / "t.recipe"
        recipe.write_text("recipe t_ingest\nfrom src.t\nid name\nbody body\nindex body\nend\n")
        assert cli("source", "add", "src", "--kind", "tabular", "--path", str(src),
                   "--mode", "live")[0] == 0
        code, out, _ = cli("query", "SELECT k, name FROM src.t")
        assert (code, out) == (0, 'k,name\n1,"a\rb"\n2,plain\n')
        assert list(csv.reader(io.StringIO(out))) == [["k", "name"], ["1", "a\rb"], ["2", "plain"]]
        code, out, _ = cli("ingest", "src", "--recipe", str(recipe))
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["doc_id", "ref"], ["a\rb", "src/t/1"], ["plain", "src/t/2"]]
        assert cli("index", "build", "t_texts", "--recipe", str(recipe))[0] == 0
        code, out, _ = cli("search", "t_texts", "quittung")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["doc_id", "ref", "score"]
        assert sorted(r[:2] for r in rows[1:]) == [["a\rb", "src/t/1"], ["plain", "src/t/2"]]

    @pytest.mark.parametrize("version,head", [
        (1, "VDCIDX 1\nDOCS\n"),
        (2, "VDCIDX 2 volterra.legal_texts\nDOCS 1000\n"),
    ])
    def test_a_retired_index_is_rebuilt_by_index_build(self, centre, version, head):
        cli, cat, fx, _ = centre
        recipe = os.path.join(fx, "recipes", "volterra.recipe")
        assert cli("index", "build", "vol_texts", "--recipe", recipe)[0] == 0
        _, before, _ = cli("search", "vol_texts", "imperator")
        path = os.path.join(cat + ".store", "index", "vol_texts.idx")
        with open(path, "w", encoding="utf-8") as f:
            f.write(head)
        assert cli("search", "vol_texts", "imperator") == (2, "", (
            f"error: index has format v{version}, which is no longer read: "
            "rebuild it with `vdc index build`\n"))
        # the catalogue still loads: a query does not read the index
        assert cli("query", "SELECT id FROM papyri LIMIT 1")[0] == 0
        assert cli("index", "build", "vol_texts", "--recipe", recipe)[0] == 0
        assert cli("search", "vol_texts", "imperator") == (0, before, "")

    def test_search_unindexed_field_exit_2(self, centre):
        cli, cat, fx, _ = centre
        assert cli("index", "build", "vol_texts",
                   "--recipe", os.path.join(fx, "recipes", "volterra.recipe"))[0] == 0
        code, out, err = cli("search", "vol_texts", "imperator", "--field", "findspot")
        assert code == 2 and out == ""
        assert "'findspot'" in err and "body" in err and "title" in err

    def test_search_unknown_collection(self, centre):
        cli, *_ = centre
        assert cli("search", "ghost", "term")[0] == 2


class TestCsvFieldLimit:
    """A cell longer than the csv module's field limit (131,072
    characters) is a data error naming the file and line, on each path
    that reads CSV."""

    BIG = "x" * 140_000

    def live_source(self, cli, tmp_path, header, row):
        src = tmp_path / "big"
        src.mkdir()
        (src / "t.schema").write_text("id : int\nnote : text\n", encoding="utf-8")
        (src / "t.csv").write_text(f"{header}\n{row}\n", encoding="utf-8")
        code, _, err = cli("source", "add", "big", "--kind", "tabular",
                           "--path", str(src), "--mode", "live")
        return code, err, src / "t.csv"

    def test_scan(self, centre, tmp_path):
        cli, *_ = centre
        code, _, path = self.live_source(cli, tmp_path, "id,note", "1,a")
        assert code == 0
        # a live source changes after it is accepted
        path.write_text(f'id,note\n1,"{self.BIG}"\n', encoding="utf-8")
        code, out, err = cli("query", "SELECT id FROM big.t")
        assert (code, out) == (2, "")
        assert err == f"error: bad csv: field larger than field limit (131072) [{path}:2]\n"

    def test_header(self, centre, tmp_path):
        cli, cat, *_ = centre
        before = open(cat, "rb").read()
        code, err, path = self.live_source(cli, tmp_path, f'id,"{self.BIG}"', "1,a")
        assert code == 2
        assert err == f"error: bad csv: field larger than field limit (131072) [{path}:1]\n"
        assert open(cat, "rb").read() == before

    def test_translation_table(self, centre, tmp_path):
        cli, *_ = centre
        path = tmp_path / "big.csv"
        path.write_text(f'source_term,target_term\na,b\nc,"{self.BIG}"\n', encoding="utf-8")
        code, out, err = cli("xlate", "add", "big", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: bad csv in translation table: field larger than field "
                       f"limit (131072) [{path}:3]\n")


class TestXmlDateText:
    def test_a_bad_date_attribute_is_a_coercion_warning(self, centre, tmp_path):
        """A corpus date attribute is a date_text cell, as a table's is: a
        text that does not parse is read as written, and a view's coercion
        warns of it, live and vault alike; no scan of the corpus fails."""
        cli, _, fx, _ = centre
        src = tmp_path / "corpus"
        shutil.copytree(os.path.join(fx, "iaph"), src)
        doc = src / "i0000.xml"
        data = doc.read_text(encoding="utf-8")
        doc.write_text(data.replace('notBefore="0206"', 'notBefore="sometime"'), encoding="utf-8")
        for mode in ("live", "vault"):
            assert cli("source", "add", f"c_{mode}", "--kind", "xml", "--path", str(src),
                       "--mode", mode)[0] == 0
            view = tmp_path / f"{mode}.view"
            view.write_text(f"view d_{mode}\nfrom c_{mode}.docs\ncoerce not_before date\nend\n")
            assert cli("view", "define", str(view))[0] == 0
            raw = cli("query", f"SELECT id, not_before FROM c_{mode}.docs WHERE id = 'i0000'")
            assert raw == (0, "id,not_before\ni0000,sometime\n", "")
            coerced = cli("query", f"SELECT id, not_before FROM d_{mode} WHERE id = 'i0000'")
            assert coerced == (0, "id,not_before\ni0000,\n", "warning: cannot coerce "
                               f"not_before='sometime' to date at c_{mode}/docs/i0000\n")
            code, out, _ = cli("query", f"SELECT id FROM d_{mode}")
            assert code == 0 and out.count("\n") == 1 + len(os.listdir(src))


class TestInt64Boundary:
    """An int is read from outside as an int64, and a date's year has at
    most 16 digits, by every reader alike and whatever Python's int-string
    limit: a cell out of range is a data error naming the file and line,
    for a query and for a vault add."""

    def table(self, tmp_path):
        src = tmp_path / "big"
        src.mkdir()
        (src / "t.schema").write_text("id : int\nnote : text\n", encoding="utf-8")
        (src / "t.csv").write_text("id,note\n9223372036854775808,x\n", encoding="utf-8")
        return src

    ERROR = "error: bad int '9223372036854775808' in column 'id': not an int64"

    def test_query_of_a_live_table(self, centre, tmp_path):
        cli, *_ = centre
        src = self.table(tmp_path)
        bad = (src / "t.csv").read_bytes()
        (src / "t.csv").write_text("id,note\n", encoding="utf-8")
        assert cli("source", "add", "big", "--kind", "tabular", "--path", str(src),
                   "--mode", "live")[0] == 0
        (src / "t.csv").write_bytes(bad)  # a live source changes after it is accepted
        code, out, err = cli("query", "SELECT note FROM big.t")
        assert (code, out, err) == (2, "", f"{self.ERROR} [{src / 't.csv'}:2]\n")

    def test_live_add_leaves_nothing(self, centre, tmp_path):
        """A live add reads every record, as the scan of a query would."""
        cli, cat, *_ = centre
        src = self.table(tmp_path)
        before = open(cat, "rb").read()
        code, out, err = cli("source", "add", "big", "--kind", "tabular", "--path", str(src),
                             "--mode", "live")
        assert (code, out, err) == (2, "", f"{self.ERROR} [{src / 't.csv'}:2]\n")
        assert open(cat, "rb").read() == before

    def test_vault_add_leaves_nothing(self, centre, tmp_path):
        cli, cat, *_ = centre
        src = self.table(tmp_path)
        before = open(cat, "rb").read()
        code, out, err = cli("source", "add", "big", "--kind", "tabular", "--path", str(src),
                             "--mode", "vault")
        assert (code, out, err) == (2, "", f"{self.ERROR} [{src / 't.csv'}:2]\n")
        assert open(cat, "rb").read() == before
        assert not os.path.exists(tmp_path / "catalogue.vdc.store" / "vault" / "big")

    # an int cell's text: its value, or None where every reader refuses it
    INTS = {
        "9223372036854775807": 2**63 - 1,
        "9223372036854775808": None,
        "-9223372036854775808": -2**63,
        "-9223372036854775809": None,
        "00000000000000000007": None,  # 20 digits, though its value fits
        "-0": 0,
        "1" * 5000: None,  # past the int-string limit's default too
    }
    # a year's text, and whether it parses: at most 16 digits
    YEARS = {"9" * 16: True, "-" + "9" * 16: True, "1" + "0" * 16: False, "-0" + "9" * 16: False,
             "1" * 5000: False}

    def readers(self, d, capsys) -> dict:
        """What each reader makes of each text of ``INTS`` and ``YEARS``, in
        a new catalogue under ``d``: exit codes, stdout and stderr, with
        ``d`` written as ``<d>``."""
        d.mkdir()

        def cli(*argv):
            code = run(["--catalogue", str(d / "c.vdc"), *argv])
            out = capsys.readouterr()
            return code, out.out, out.err.replace(str(d), "<d>")

        def source(name, schema, lines):
            (d / name).mkdir()
            (d / name / "t.schema").write_text(schema, encoding="utf-8")
            table = d / name / "t.csv"
            text = "".join(f"{x}\n" for x in lines)
            table.write_text(text, encoding="utf-8")

            def add(mode):
                return cli("source", "add", f"{name}_{mode}", "--kind", "tabular",
                           "--path", str(d / name), "--mode", mode)

            adds = [add("live"), add("vault")]
            if adds[0][0] != 0:  # register the header; the rest is written after it is accepted
                table.write_text(f"{lines[0]}\n", encoding="utf-8")
                assert add("live")[0] == 0
                table.write_text(text, encoding="utf-8")
            return adds

        seen: dict = {}
        for i, text in enumerate(self.INTS):
            seen["add", text] = source(f"i{i}", "id : int\nnote : text\n", ["id,note", f"{text},x"])
            seen["scan", text] = [cli("query", f"SELECT id, note FROM i{i}_{mode}.t")
                                  for mode in ("live", "vault")]
        keys = [str(v) for v in self.INTS.values() if v is not None]
        source("keys", "id : int\nnote : text\n", ["id,note", *(f"{k},{k}" for k in keys)])
        for text in self.INTS:
            seen["key", text] = [cli("coll", "update", f"c_{mode}", "--add", f"keys_{mode}/t/{text}")
                                 for mode in ("live", "vault")]
            seen["literal", text] = cli("query", f"SELECT note FROM keys_live.t WHERE id = {text}")
        source("dates", "id : int\nd : date_text\n",
               ["id,d", *(f"{i},{y}" for i, y in enumerate(self.YEARS))])
        for mode in ("live", "vault"):
            view = d / f"{mode}.view"
            view.write_text(f"view v_{mode}\nfrom dates_{mode}.t\ncoerce d date\nend\n")
            assert cli("view", "define", str(view))[0] == 0
            seen["coerce", mode] = cli("query", f"SELECT id, d FROM v_{mode}")
        for year in self.YEARS:
            seen["date literal", year] = cli(
                "query", f"SELECT id FROM v_live WHERE DATE_WITHIN(d, '{year}', 'ca. {year}')")
            try:
                seen["parse", year] = model.parse_uncertain_date(f"ca. {year}")
            except ParseError as e:
                seen["parse", year] = str(e)
        return seen

    def test_every_reader_accepts_the_same_texts(self, tmp_path, capsys):
        seen = self.readers(tmp_path / "default", capsys)
        for text, value in self.INTS.items():
            live, vault = seen["add", text]
            assert live[0] == vault[0] == (0 if value is not None else 2), text
            if value is None:
                error = f"{text!r} in column 'id': not an int64 [<d>/i"
                for add in (live, vault):
                    assert error in add[2] and add[2].endswith("/t.csv:2]\n"), add
                live_scan, vault_scan = seen["scan", text]
                assert live_scan[0] == 2 and error in live_scan[2]
                assert vault_scan == (2, "", f"error: no source 'i{list(self.INTS).index(text)}_vault'\n")
                assert "integer literal" in seen["literal", text][2]
            else:
                assert [s[1] for s in seen["scan", text]] == [f"id,note\n{value},x\n"] * 2
                assert seen["literal", text][:2] == (0, f"note\n{value}\n")
            # a key names a cell by its text, so "-0" names the cell 0 no more than "00" would
            resolves = value is not None and str(value) == text
            assert [k[0] for k in seen["key", text]] == [0 if resolves else 2] * 2, text
        live, vault = seen["coerce", "live"], seen["coerce", "vault"]
        assert (live[0], live[1]) == (vault[0], vault[1])
        assert live[2].replace("dates_live/", "dates_vault/") == vault[2]
        for i, (year, parses) in enumerate(self.YEARS.items()):
            row = next(line for line in live[1].splitlines() if line.startswith(f"{i},"))
            assert (row != f"{i},") == parses, row
            assert (f"dates_live/t/{i}" in live[2]) != parses
            assert seen["date literal", year][0] == (0 if parses else 2), year
            assert isinstance(seen["parse", year], str) != parses
        if hasattr(sys, "set_int_max_str_digits"):  # the limit decides none of it
            before = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(640)
            try:
                assert self.readers(tmp_path / "640", capsys) == seen
            finally:
                sys.set_int_max_str_digits(before)


class TestFixturesViaCli:
    def test_generate_and_use(self, tmp_path, capsys):
        cat = str(tmp_path / "c.vdc")
        out_dir = str(tmp_path / "fx")
        code = run(["--catalogue", cat, "fixtures", "generate",
                    "--seed", "5", "--scale", "desk", "--out", out_dir])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""  # summary is a diagnostic
        assert "homonym pairs" in captured.err
        assert os.path.isfile(os.path.join(out_dir, "manifest.csv"))

    def test_nonempty_out_dir_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "fx"
        os.makedirs(out_dir)
        (out_dir / "junk").write_text("x")
        code = run(["fixtures", "generate", "--seed", "5", "--scale", "desk",
                    "--out", str(out_dir)])
        capsys.readouterr()
        assert code == 2


def _tree(root) -> dict[str, bytes]:
    """Every file under ``root`` and its bytes."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


class TestNames:
    """Names the catalogue writes are identifiers, as queries, views and
    recipes spell them: any other is refused with exit 2 before anything
    is written, so the catalogue stays loadable."""

    @pytest.mark.parametrize("argv,message", [
        (("source", "add", "v x", "--kind", "tabular", "--path", "{fx}/volterra",
          "--mode", "vault"), "bad source id 'v x'"),
        (("xlate", "add", "de en", "{fx}/xlate/de_en.csv"), "bad translation table id 'de en'"),
        (("index", "build", "a b", "--recipe", "{fx}/recipes/hgv.recipe"),
         "bad collection name 'a b'"),
        (("index", "build", "../../escaped", "--recipe", "{fx}/recipes/hgv.recipe"),
         "bad collection name '../../escaped'"),
        (("coll", "update", "finds\n", "--add", "hgv/papyri/1"), "bad collection name 'finds\\n'"),
    ], ids=["source", "xlate", "index", "index_path", "coll_newline"])
    def test_non_identifier_refused_before_anything_is_written(self, centre, tmp_path, argv,
                                                               message):
        cli, cat, fx, _ = centre
        before = _tree(tmp_path)
        code, out, err = cli(*(a.format(fx=fx) for a in argv))
        assert (code, out) == (2, "")
        assert message in err
        assert _tree(tmp_path) == before
        assert cli("query", "SELECT id FROM papyri_en LIMIT 1")[0] == 0


class TestCatalogueLines:
    """The catalogue reads back exactly the lines it writes: one record per
    line feed, whatever other line breaks its paths and refs hold."""

    @pytest.mark.parametrize("brk", ["\r", "\v", "\f", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_live_path_with_another_line_break(self, centre, tmp_path, brk):
        cli, cat, fx, _ = centre
        odd = tmp_path / f"odd{brk}dir"
        shutil.copytree(os.path.join(fx, "hgv"), odd)
        assert cli("source", "add", "odd", "--kind", "tabular", "--path", str(odd),
                   "--mode", "live")[0] == 0
        want = cli("query", "SELECT * FROM hgv.papyri LIMIT 3")
        assert want[0] == 0
        assert cli("query", "SELECT * FROM odd.papyri LIMIT 3") == want

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1e", "\x85", "\u2028"])
    def test_ref_with_another_line_break(self, centre, brk):
        cli, cat, fx, _ = centre
        assert cli("source", "add", "sealed", "--kind", "xml", "--path",
                   os.path.join(fx, "iaph"), "--mode", "index-only")[0] == 0
        ref = f"sealed/docs/a{brk}b"
        assert cli("coll", "update", "odd", "--add", ref)[0] == 0
        code, out, err = cli("coll", "resolve", "odd")
        assert (code, out) == (0, "")
        assert err == f"error: {ref}: ref {ref} not present in any published index\n"
        assert cli("query", "SELECT id FROM papyri_en LIMIT 1")[0] == 0

    @pytest.mark.parametrize("argv", [
        ("source", "add", "odd", "--kind", "tabular", "--path", "{odd}", "--mode", "live"),
        ("source", "add", "odd", "--kind", "tabular", "--path", "{odd}", "--mode", "index-only"),
        ("xlate", "add", "odd", "{defs}/de_en.csv"),
        ("view", "define", "{defs}/odd.view"),
    ], ids=["live", "index-only", "xlate", "view"])
    def test_line_feed_in_a_path_refused_before_anything_is_written(self, centre, tmp_path,
                                                                     argv):
        cli, cat, fx, _ = centre
        odd, defs = tmp_path / "odd\nSOURCE", tmp_path / "defs\nSOURCE"
        shutil.copytree(os.path.join(fx, "hgv"), odd)
        defs.mkdir()
        shutil.copy(os.path.join(fx, "xlate", "de_en.csv"), defs)
        (defs / "odd.view").write_text("view odd\nfrom hgv.papyri\nend\n", encoding="utf-8")
        before = _tree(tmp_path)
        code, out, err = cli(*(a.format(odd=odd, defs=defs) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: a catalogue record cannot hold a line feed: ")
        assert _tree(tmp_path) == before

    def test_vault_add_from_a_path_with_a_line_feed(self, centre, tmp_path):
        """The catalogue records the snapshot's path, not the original's."""
        cli, cat, fx, _ = centre
        odd = tmp_path / "odd\nSOURCE"
        shutil.copytree(os.path.join(fx, "hgv"), odd)
        assert cli("source", "add", "odd", "--kind", "tabular", "--path", str(odd),
                   "--mode", "vault")[0] == 0
        want = cli("query", "SELECT * FROM hgv.papyri LIMIT 3")
        assert cli("query", "SELECT * FROM odd.papyri LIMIT 3") == want

    @pytest.mark.parametrize("argv", [
        ("source", "add", "v", "--kind", "tabular", "--path", "{fx}/volterra", "--mode", "vault"),
        ("index", "build", "hgv_texts", "--recipe", "{fx}/recipes/hgv.recipe"),
    ], ids=["vault", "index"])
    def test_line_feed_in_the_catalogue_path_leaves_no_side_file(self, desk_fixtures, tmp_path,
                                                                  capsys, argv):
        """The store lies beside the catalogue, so the paths of a snapshot
        and an index hold the catalogue path's line feed: the command is
        refused before it writes either, and a rerun fails the same way."""
        fx, _ = desk_fixtures
        home = tmp_path / "a\nb"
        home.mkdir()
        cat = str(home / "c.vdc")
        assert run(["--catalogue", cat, "source", "add", "hgv", "--kind", "tabular",
                    "--path", os.path.join(fx, "hgv"), "--mode", "live"]) == 0
        capsys.readouterr()
        before = open(cat, "rb").read()
        errors = []
        for _ in range(2):
            code = run(["--catalogue", cat, *(a.format(fx=fx) for a in argv)])
            out = capsys.readouterr()
            assert (code, out.out) == (2, "")
            assert out.err.startswith("error: a catalogue record cannot hold a line feed: ")
            assert not os.path.exists(cat + ".store")
            assert open(cat, "rb").read() == before
            errors.append(out.err)
        assert errors[0] == errors[1]

    def test_a_catalogue_cut_inside_its_last_line_is_refused(self, centre):
        """A catalogue cut just before the last ref of its last collection
        still parses, but lacks its final line feed: every command exits 2
        and a resolve prints none of the refs that are left."""
        cli, cat, _, _ = centre
        assert cli("coll", "update", "finds", "--add", "hgv/papyri/1", "hgv/papyri/2",
                   "hgv/papyri/3")[0] == 0
        data = open(cat, "rb").read()
        assert data.endswith(b"\nCOLL finds hgv/papyri/1,hgv/papyri/2,hgv/papyri/3\n")
        with open(cat, "wb") as f:
            f.write(data[:data.rindex(b",hgv/papyri/3")])
        lines = data.count(b"\n")
        assert cli("coll", "resolve", "finds") == (
            2, "", f"error: catalogue line {lines}: no line feed at its end: the file is cut\n")

    def test_a_repeated_collection_record_is_refused(self, centre):
        """A second COLL record of one name would hide the first: the load
        refuses it, naming its line."""
        cli, cat, _, _ = centre
        assert cli("coll", "update", "finds", "--add", "hgv/papyri/1", "hgv/papyri/2")[0] == 0
        with open(cat, "a", encoding="utf-8") as f:
            f.write("COLL finds hgv/papyri/3\n")
        lines = open(cat, "rb").read().count(b"\n")
        assert cli("coll", "resolve", "finds") == (
            2, "", f"error: catalogue line {lines}: duplicate collection 'finds'\n")

    def test_index_build_records_no_recipe(self, centre, tmp_path):
        cli, cat, fx, _ = centre
        recipe = tmp_path / "copy.recipe"
        shutil.copy(os.path.join(fx, "recipes", "hgv.recipe"), recipe)
        assert cli("index", "build", "hgv_texts", "--recipe", str(recipe))[0] == 0
        os.remove(recipe)
        assert "RECIPE" not in open(cat, encoding="utf-8").read()
        assert cli("query", "SELECT id FROM volterra.legal_texts LIMIT 1")[0] == 0
        assert cli("search", "hgv_texts", "quittung", "--limit", "1")[0] == 0

    @pytest.mark.parametrize("content,message", [
        (b"recipe r\nfrom hgv.papyri\nid id\nend\n",
         "recipe needs at least one 'body' column"),
        (b"recipe g\nfrom ghost.t\nid id\nbody b\nend\n", "no source 'ghost'"),
        (b"recipe r\nfrom hgv.papyri\n# \xff\nend\n", "invalid UTF-8 (invalid start byte) [{path}:3]"),
        (None, "cannot read recipe file: [Errno 2] No such file or directory"),
    ], ids=["no-body", "ghost-source", "invalid-utf8", "missing"])
    def test_recipe_fault_at_index_build(self, centre, tmp_path, content, message):
        cli, cat, fx, _ = centre
        path = tmp_path / "r.recipe"
        if content is not None:
            path.write_bytes(content)
        before = _tree(tmp_path)
        code, out, err = cli("index", "build", "r_texts", "--recipe", str(path))
        assert (code, out) == (2, "")
        assert message.format(path=path) in err
        assert _tree(tmp_path) == before


class TestBrokenView:
    """A view whose translation table or source is not registered fails
    only the queries naming it."""

    @pytest.mark.parametrize("broken,view,message", [
        ("drop XLATE", "papyri_en", "view 'papyri_en': unknown translation table 'de_en'"),
        ("add ghost", "g", "no source 'ghost'"),
    ])
    def test_only_a_query_naming_the_view_fails(self, centre, tmp_path, broken, view, message):
        cli, cat, fx, _ = centre
        assert cli("index", "build", "vol_texts", "--recipe",
                   os.path.join(fx, "recipes", "volterra.recipe"))[0] == 0
        assert cli("coll", "update", "finds", "--add", "hgv/papyri/1",
                   "volterra/legal_texts/2", "iaph/docs/i0001")[0] == 0
        commands = [
            ("search", "vol_texts", "imperator", "--limit", "5"),
            ("coll", "resolve", "finds"),
            ("source", "verify", "volterra"),
            ("query", "SELECT id, date FROM volterra_texts WHERE id < 20"),
        ]
        intact = [cli(*argv) for argv in commands]
        assert all(code == 0 and out for code, out, _ in intact[:2] + intact[3:])
        with open(cat, encoding="utf-8") as f:
            lines = f.read().splitlines()
        if broken == "drop XLATE":
            lines = [line for line in lines if not line.startswith("XLATE ")]
        else:
            ghost = tmp_path / "ghost.view"
            ghost.write_text("view g\nfrom ghost.t\nend\n", encoding="utf-8")
            lines.append(f"VIEWFILE {ghost}")
        with open(cat, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        assert [cli(*argv) for argv in commands] == intact
        assert cli("query", f"SELECT * FROM {view}") == (2, "", f"error: {message}\n")


class TestUsageAndLocking:
    def test_usage_errors_exit_1(self, capsys):
        assert run([]) == 1
        assert run(["source"]) == 1
        assert run(["source", "add", "x", "--kind", "nope", "--path", "p",
                    "--mode", "live"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("source", "verify", "hgv"),
        ("query", "SELECT id FROM papyri LIMIT 1"),
    ])
    def test_a_fault_of_the_program_is_no_data_error(self, centre, monkeypatch, argv):
        """Only a VdcError or an OSError maps to an exit code: a ValueError
        raised inside a command propagates out of run(), as a traceback."""
        cli, *_ = centre

        def fault(*args, **kwargs):
            raise ValueError("a fault of the program")

        monkeypatch.setattr(Catalogue, "load", fault)
        with pytest.raises(ValueError, match="a fault of the program"):
            cli(*argv)

    def test_mutator_fails_fast_when_locked(self, tmp_path, desk_fixtures, capsys):
        fx, _ = desk_fixtures
        cat = str(tmp_path / "c.vdc")
        with catalogue_lock(cat):
            code = run(["--catalogue", cat, "source", "add", "hgv", "--kind", "tabular",
                        "--path", os.path.join(fx, "hgv"), "--mode", "live"])
        captured = capsys.readouterr()
        assert code == 1
        assert "locked" in captured.err

    def test_env_var_sets_default_catalogue(self, tmp_path, desk_fixtures, capsys, monkeypatch):
        fx, _ = desk_fixtures
        cat = str(tmp_path / "env.vdc")
        monkeypatch.setenv("VDC_CATALOGUE", cat)
        code = run(["source", "add", "hgv", "--kind", "tabular",
                    "--path", os.path.join(fx, "hgv"), "--mode", "live"])
        capsys.readouterr()
        assert code == 0
        assert os.path.isfile(cat)
