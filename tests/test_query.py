"""Query pipeline tests: grammar, planning (pushdown placement, kind
checks), execution semantics, and engine-vs-oracle equivalence."""

import os
import random
import subprocess
import sys
import tracemalloc
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdc import connectors
from vdc.cli import run
from vdc.datacentre import Catalogue
from vdc.errors import ParseError, PlanError, VdcError
from vdc.model import ColumnKind, UncertainDate, row_sort_key
from vdc.predicates import Compare, DateWithin
from vdc.query import (
    execute_plan,
    parse_query,
    plan_query,
    reference_eval,
    result_to_csv,
    result_to_jsonl,
)
from vdc.query import executor
from vdc.query.parser import CompareAst, ContainsAst, DateNearAst

from helpers import QueryGen, register_small


@pytest.fixture(scope="module")
def small_centre(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("small"))
    cat = Catalogue(os.path.join(base, "catalogue.vdc"))
    rng = random.Random(11)
    views = register_small(cat, rng, base)
    return cat, views, rng


class TestParser:
    def test_star_query(self):
        ast = parse_query("SELECT * FROM papyri")
        assert ast.select is None
        assert ast.relation.name == "papyri"
        assert ast.joins == () and ast.where == () and ast.limit is None

    def test_join_with_date_near(self):
        ast = parse_query(
            "SELECT p.person FROM volterra_texts v JOIN iaph_docs i "
            "ON v.person = i.persons WHERE DATE_NEAR(v.date, i.date, 5)"
        )
        assert ast.joins[0].relation.name == "iaph_docs"
        assert ast.joins[0].relation.alias == "i"
        assert isinstance(ast.where[0], DateNearAst)
        assert ast.where[0].k_years == 5

    def test_keywords_case_insensitive(self):
        ast = parse_query("select id from t where id = 1 limit 2")
        assert ast.limit == 2
        assert isinstance(ast.where[0], CompareAst)

    def test_string_escaping(self):
        ast = parse_query("SELECT * FROM t WHERE name = 'O''Neil'")
        assert ast.where[0].literal == "O'Neil"

    def test_contains(self):
        ast = parse_query("SELECT * FROM t WHERE body CONTAINS 'λόγος'")
        assert isinstance(ast.where[0], ContainsAst)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as e:
            parse_query("SELECT FROM")
        assert e.value.offset == 7

    def test_unknown_function(self):
        with pytest.raises(ParseError) as e:
            parse_query("SELECT * FROM t WHERE FOO(a, b)")
        assert "unknown function" in str(e.value)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM t JOIN",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT 0",
            "SELECT * FROM t LIMIT -1",
            "SELECT * FROM t WHERE a =",
            "SELECT * FROM t WHERE DATE_NEAR(a, b, -1)",
            "SELECT * FROM t trailing junk",
            "SELECT * FROM t WHERE a CONTAINS 'x' OR b = 1",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    @pytest.mark.parametrize("digit", ["\u0663", "\uff15"])  # Arabic-Indic three, fullwidth five
    def test_int_literals_are_ascii_digits(self, digit, tmp_path, capsys):
        text = f"SELECT id FROM t WHERE id = {digit}"
        with pytest.raises(ParseError) as e:
            parse_query(text)
        assert str(e.value) == f"unexpected character {digit!r} (byte {len(text) - 1})"
        cat = Catalogue(str(tmp_path / "catalogue.vdc"))
        cat.persist()
        assert run(["--catalogue", cat.path, "query", text]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "unexpected character" in out.err

    @pytest.mark.parametrize("template", [
        "SELECT id FROM t WHERE id = {}", "SELECT id FROM t WHERE id > -{}",
        "SELECT id FROM t LIMIT {}",
    ])
    @pytest.mark.parametrize("digits", ["9223372036854775809", "0" * 19 + "1", "7" * 5000],
                             ids=["2^63+1", "20 digits", "5000 digits"])
    def test_int_literal_outside_int64(self, template, digits, tmp_path, capsys):
        text = template.format(digits)
        with pytest.raises(ParseError) as e:
            parse_query(text)
        at = text.index(digits)
        literal = text[at - 1:at + len(digits)].lstrip(" =>")
        assert e.value.offset == at
        assert str(e.value) == f"integer literal {literal} is not an int64 (byte {at})"
        cat = Catalogue(str(tmp_path / "catalogue.vdc"))
        cat.persist()
        assert run(["--catalogue", cat.path, "query", text]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {e.value}\n"
        parse_query(template.format("9223372036854775807"))  # at the bound, it parses
        parse_query(template.format("0" * 18 + "1"))

    def test_date_literal_year_of_more_than_16_digits(self):
        text = f"SELECT id FROM t WHERE DATE_WITHIN(d, '0100', '{'1' * 17}')"
        with pytest.raises(ParseError) as e:
            parse_query(text)
        assert e.value.offset == text.index("'1")
        assert e.value.message.endswith(": year of 17 digits exceeds 16 digits")
        parse_query(text.replace("1" * 17, "1" * 16))

    def test_bad_date_within_literal_reports_its_offset_in_the_query(self):
        text = "SELECT id FROM papyri_en WHERE DATE_WITHIN(date, 'ca. 0100', '0100/0090')"
        with pytest.raises(ParseError) as e:
            parse_query(text)
        at = text.index("'0100/0090'")
        assert e.value.offset == at
        assert str(e.value) == f"bad date literal '0100/0090': reversed date range (byte {at})"

    def test_date_within_literals_parsed_eagerly(self):
        ast = parse_query("SELECT * FROM t WHERE DATE_WITHIN(d, '0200', '0250')")
        assert isinstance(ast.where[0].lo, UncertainDate)
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t WHERE DATE_WITHIN(d, 'nope', '0250')")


class TestPlanner:
    def test_pushdown_lands_in_scan(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(parse_query("SELECT * FROM papyri WHERE Fundort = 'Memphis'"), cat)
        (term,) = plan.terms
        assert term.filters == () and plan.filters == ()
        assert plan.pushdown and len(term.scan_preds) == 1
        assert term.scan_preds[0].index == term.relation.schema.index_of("Fundort")

    def test_a_query_opens_each_base_once(self, desk_centre, monkeypatch):
        """Planning and running a query open each base source once: the
        scans read through the handles the plan was bound against."""
        cat, _, _ = desk_centre
        opened = []
        real_open = connectors.open_source

        def counting_open(source_id, kind, path):
            opened.append(source_id)
            return real_open(source_id, kind, path)

        monkeypatch.setattr(connectors, "open_source", counting_open)
        plan = plan_query(parse_query("SELECT * FROM all_texts LIMIT 5"), cat)
        assert len(execute_plan(plan).rows) == 5
        assert opened == ["hgv", "volterra"]

    def test_pushdown_through_rename(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(
            parse_query("SELECT * FROM papyri_en WHERE findspot = 'Memphis'"), cat
        )
        (term,) = plan.terms
        (pred,) = term.scan_preds
        # the view's position of findspot is the raw position of Fundort
        ((ref, handle),) = zip(term.relation.bases, term.relation.handles)
        base = handle.schema(ref.table)
        assert pred.index == term.relation.schema.index_of("findspot")
        assert pred.index == base.index_of("Fundort")

    def test_translated_column_filter_is_pushed(self, desk_centre):
        """A predicate on a column whose one transform is a translation runs
        in the scan, on the raw column, carrying the translation table; a
        predicate on a coerced column stays a central filter, with a
        coercing prefilter in the scan."""
        cat, _, _ = desk_centre
        plan = plan_query(
            parse_query("SELECT * FROM papyri_en WHERE category = 'letter'"), cat
        )
        (term,) = plan.terms
        assert term.filters == ()
        (pred,) = term.scan_preds
        assert plan.pushdown
        ((ref, handle),) = zip(term.relation.bases, term.relation.handles)
        base = handle.schema(ref.table)
        assert (pred.index, pred.op, pred.literal) == (base.index_of("Kategorie"), "=", "letter")
        assert pred.transform == cat.xlates["de_en"].translate
        plan = plan_query(parse_query("SELECT * FROM papyri_en WHERE date = '0200'"), cat)
        (term,) = plan.terms
        assert [type(p) for p in term.filters] == [Compare]
        assert term.filters[0].transform is None
        (pre,) = term.scan_preds
        assert pre.transform("0200") == pre.literal == term.filters[0].literal
        assert pre.transform("ca. 02x") is None

    def test_bad_date_literal_reports_its_offset_in_the_query(self, desk_centre):
        cat, _, _ = desk_centre
        text = "SELECT id FROM papyri_en WHERE date = '0213-02-30'"
        with pytest.raises(PlanError) as e:
            plan_query(parse_query(text), cat)
        assert str(e.value) == (
            "column 'date' is date, literal does not parse: "
            f"day 30 invalid for 0213-02 (byte {text.index(chr(39))})"
        )
        # byte offsets count UTF-8 bytes, not characters
        text = "SELECT id FROM papyri_en WHERE findspot != 'Ἀντινόου' AND date = 'x'"
        with pytest.raises(PlanError) as e:
            plan_query(parse_query(text), cat)
        at = len(text[: text.index("'x'")].encode("utf-8"))
        assert str(e.value).endswith(f"malformed date 'x' (byte {at})")

    def test_date_prefilter_only_on_a_singly_coerced_column(self, desk_centre):
        """A date predicate on the one coerced column of a view adds a
        coercing prefilter to the scan and keeps the exact predicate as a
        filter; on a view that coerces two columns it is a filter only."""
        cat, _, _ = desk_centre
        for q in (
            "SELECT id FROM papyri_en WHERE DATE_WITHIN(date, '0150', '0159')",
            "SELECT id FROM all_texts WHERE date != '0150'",
            "SELECT id FROM volterra_texts WHERE date = '0150'",
        ):
            (term,) = plan_query(parse_query(q), cat).terms
            (pre,) = term.scan_preds
            (exact,) = term.filters
            assert pre.transform is not None and exact.transform is None, q
            assert term.relation.schema.columns[pre.index].kind is ColumnKind.DATE, q
            assert type(pre) is type(exact) and pre.index == exact.index, q
            assert pre == type(exact)(*exact.cells()[:-1], pre.transform), q
        for q in (
            "SELECT id FROM iaph_docs WHERE DATE_WITHIN(not_before, '0150', '0159')",
            "SELECT id FROM iaph_docs WHERE not_after = '0150'",
        ):
            (term,) = plan_query(parse_query(q), cat).terms
            assert term.scan_preds == (), q
            assert [p.transform for p in term.filters] == [None], q

    def test_contains_on_xml_connector_is_engine_evaluated(self, desk_centre):
        """Every connector takes pushed CONTAINS: on the XML corpus it lands
        in the connector, and the rows equal the engine-evaluated route's
        and the reference evaluator's."""
        cat, _, _ = desk_centre
        for text in (
            "SELECT id FROM iaph.docs WHERE body CONTAINS 'ΣΤΡΑΤΗΓ'",
            "SELECT id, category FROM iaph_docs WHERE findspot = 'Aphrodisias' "
            "AND title CONTAINS 'INSCR'",
        ):
            ast = parse_query(text)
            plan = plan_query(ast, cat)
            assert plan.terms[0].scan_preds and plan.pushdown
            rows = execute_plan(plan).rows
            assert rows
            assert rows == execute_plan(plan_query(ast, cat, pushdown=False)).rows
            assert rows == reference_eval(ast, cat).rows

    def test_no_pushdown_flag_disables_connector(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(
            parse_query("SELECT * FROM papyri WHERE Fundort = 'Memphis'"),
            cat,
            pushdown=False,
        )
        assert plan.terms[0].scan_preds and not plan.pushdown

    def test_union_view_plans_union_node(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(parse_query("SELECT * FROM all_texts"), cat)
        (term,) = plan.terms
        assert len(term.relation.bases) == 2

    def test_limit_is_root(self, desk_centre):
        """LIMIT is the plan's last stage, applied after the canonical sort."""
        cat, _, _ = desk_centre
        plan = plan_query(parse_query("SELECT * FROM papyri LIMIT 3"), cat)
        assert plan.limit == 3
        assert plan_query(parse_query("SELECT * FROM papyri"), cat).limit is None

    @pytest.mark.parametrize(
        "q,fragment",
        [
            ("SELECT * FROM papyri_en WHERE date = 'abc'", "does not parse"),
            ("SELECT * FROM papyri_en WHERE date < '0200'", "DATE_WITHIN"),
            ("SELECT * FROM papyri WHERE id = 'x'", "is int"),
            ("SELECT * FROM papyri WHERE Fundort = 3", "is text"),
            ("SELECT * FROM papyri WHERE id CONTAINS 'x'", "text column"),
            ("SELECT * FROM papyri WHERE DATE_NEAR(Fundort, Fundort, 1)", "date columns"),
            ("SELECT nope FROM papyri", "unknown column"),
            ("SELECT * FROM nowhere", "no view or table"),
            (
                "SELECT * FROM papyri p JOIN legal_texts v ON p.id = v.title",
                "different kinds",
            ),
            (
                "SELECT id FROM papyri p JOIN legal_texts q ON p.id = q.id",
                "ambiguous",
            ),
        ],
    )
    def test_planning_errors(self, desk_centre, q, fragment):
        cat, _, _ = desk_centre
        with pytest.raises(VdcError) as e:
            plan_query(parse_query(q), cat)
        assert fragment in str(e.value)

    def test_duplicate_alias_rejected(self, desk_centre):
        cat, _, _ = desk_centre
        with pytest.raises(PlanError):
            plan_query(
                parse_query("SELECT * FROM papyri t JOIN legal_texts t ON t.id = t.id"),
                cat,
            )


class TestExecutor:
    def test_empty_join_is_empty(self, small_centre, tmp_path):
        cat, views, _ = small_centre
        rs = execute_plan(
            plan_query(
                parse_query(
                    f"SELECT * FROM {views[0]} a JOIN {views[1]} b "
                    "ON a.name = b.name WHERE a.id < 0"
                ),
                cat,
            )
        )
        assert rs.rows == []

    def test_limit_after_canonical_sort(self, desk_centre):
        cat, _, _ = desk_centre
        full = execute_plan(plan_query(parse_query("SELECT id FROM papyri"), cat))
        limited = execute_plan(plan_query(parse_query("SELECT id FROM papyri LIMIT 3"), cat))
        assert limited.rows == full.rows[:3]

    # cells of every kind; a leading cell is one of few, so that many tie
    _CELL = st.one_of(
        st.none(), st.integers(-2, 2), st.sampled_from(["", "a", "b", "B", "é"]),
        st.builds(lambda lo, width: UncertainDate(lo, lo + width),
                  st.integers(0, 3), st.integers(0, 2)),
    )
    _LEADING = st.sampled_from([None, 0, 1, "a", UncertainDate(0, 1)])

    @given(rows=st.lists(st.tuples(_LEADING, _CELL, _CELL), max_size=60),
           width=st.integers(1, 3), k=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_top_k_equals_the_head_of_the_sort(self, rows, width, k):
        rows = [row[:width] for row in rows]
        assert executor.top_k(iter(rows), k) == sorted(rows, key=row_sort_key)[:k]

    @staticmethod
    def traced_peak(cat, q: str) -> int:
        """The traced peak of executing ``q``, planned beforehand."""
        plan = plan_query(parse_query(q), cat)
        execute_plan(plan)  # first-use allocations stay out of the measure
        tracemalloc.start()
        try:
            execute_plan(plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_relation_limit_holds_only_k_rows(self, desk_centre):
        """A one-relation LIMIT streams into a bounded top-k: its traced
        peak is under half that of the same query without LIMIT, which
        holds every row."""
        cat, _, _ = desk_centre
        peak = self.traced_peak
        assert peak(cat, "SELECT * FROM all_texts LIMIT 5") < peak(cat, "SELECT * FROM all_texts") / 2

    def test_a_join_under_limit_holds_its_inputs_and_k_rows(self, desk_centre):
        """The hash join's output streams into the top-k: a self-join of
        the desk papyri on their findspot (about 49,000 rows from two
        inputs of 500) peaks, under LIMIT 5, at less than a quarter of the
        same join without LIMIT, which holds every joined row."""
        cat, _, _ = desk_centre
        join = "SELECT a.id, b.id FROM hgv.papyri a JOIN hgv.papyri b ON a.Fundort = b.Fundort"
        assert len(execute_plan(plan_query(parse_query(join), cat)).rows) > 40_000
        assert self.traced_peak(cat, join + " LIMIT 5") < self.traced_peak(cat, join) / 4

    def test_join_method_equivalence(self, small_centre):
        """The hash join equals the reference's nested loops whichever side
        it builds on: equal-sized sides, a tiny left, a tiny right."""
        cat, views, _ = small_centre
        for where in ("", " WHERE a.id < 3", " WHERE b.id < 3"):
            q = parse_query(
                f"SELECT a.id, b.id, a.tag FROM {views[0]} a JOIN {views[1]} b "
                f"ON a.tag = b.tag{where}"
            )
            assert execute_plan(plan_query(q, cat)).rows == reference_eval(q, cat).rows, where

    def test_hash_cap_applies_to_the_smaller_side(self, small_centre, monkeypatch):
        """A join whose larger side exceeds HASH_BUILD_CAP succeeds when the
        smaller side fits: the build side is the smaller one."""
        cat, views, _ = small_centre
        monkeypatch.setattr(executor, "HASH_BUILD_CAP", 3)
        for where in (" WHERE a.id < 4", " WHERE b.id < 4"):
            q = parse_query(
                f"SELECT a.id, b.id FROM {views[0]} a JOIN {views[2]} b "
                f"ON a.tag = b.tag{where}"
            )
            rs = execute_plan(plan_query(q, cat))
            assert rs.rows, where  # the join hits, so the probe side was read
            assert rs.rows == reference_eval(q, cat).rows, where

    def test_join_operand_symmetry(self, small_centre):
        cat, views, _ = small_centre
        a = execute_plan(
            plan_query(
                parse_query(
                    f"SELECT a.id, b.id FROM {views[0]} a JOIN {views[1]} b ON a.n = b.n"
                ),
                cat,
            )
        )
        b = execute_plan(
            plan_query(
                parse_query(
                    f"SELECT a.id, b.id FROM {views[1]} b JOIN {views[0]} a ON b.n = a.n"
                ),
                cat,
            )
        )
        # same multiset, same canonical sort: swapping operands changes nothing
        assert a.rows == b.rows

    def test_reversed_on_order_matches(self, small_centre):
        """An ON condition may name the joined relation's column first: 2-
        and 3-way joins give the same rows in both orders, and those of the
        reference evaluator."""
        cat, views, _ = small_centre
        v0, v1, v2 = views
        for on in (
            [("a.tag", "b.tag")],
            [("a.n", "b.n"), ("b.tag", "c.tag")],
            [("a.name", "b.name"), ("a.id", "c.id")],
        ):
            answers = []
            for reverse in (False, True):
                keys = [(r, l) for l, r in on] if reverse else on
                joins = " ".join(
                    f"JOIN {view} {alias} ON {x} = {y}"
                    for (view, alias), (x, y) in zip(((v1, "b"), (v2, "c")), keys)
                )
                q = parse_query(f"SELECT * FROM {v0} a {joins}")
                rows = execute_plan(plan_query(q, cat)).rows
                assert rows, on  # the join hits
                assert rows == reference_eval(q, cat).rows, (on, reverse)
                answers.append(rows)
            assert answers[0] == answers[1], on

    @pytest.mark.parametrize(
        "on",
        [
            "JOIN {1} b ON c.tag = a.tag JOIN {2} c ON c.id = a.id",  # a later relation
            "JOIN {1} b ON a.tag = a.name",  # both sides earlier
            "JOIN {1} b ON b.tag = b.name",  # both sides on the joined relation
        ],
    )
    def test_join_must_relate_the_joined_relation(self, small_centre, monkeypatch, on):
        """A join condition that does not relate the joined relation to an
        earlier one is a PlanError from the planner and the reference alike,
        raised before any scan."""
        from vdc.datacentre import Relation

        cat, views, _ = small_centre

        def no_scan(*args):
            raise AssertionError("scanned before the join condition was checked")

        monkeypatch.setattr(Relation, "scan_base", no_scan)
        q = parse_query(f"SELECT a.id FROM {views[0]} a " + on.format(*views))
        with pytest.raises(PlanError, match="must relate 'b' to an earlier relation"):
            plan_query(q, cat)
        with pytest.raises(PlanError, match="must relate 'b' to an earlier relation"):
            reference_eval(q, cat)

    def test_null_never_satisfies_predicates(self, tmp_path):
        d = tmp_path / "nulls"
        os.makedirs(d)
        (d / "t.csv").write_text("id,v\n1,\n2,x\n", encoding="utf-8")
        (d / "t.schema").write_text("id : int\nv : text\n", encoding="utf-8")
        cat = Catalogue(str(tmp_path / "c.vdc"))
        from vdc.datacentre import AccessMode

        cat.register_source("s", "tabular", str(d), AccessMode.LIVE)
        for cond, expect in [("v = 'x'", [2]), ("v != 'x'", []), ("v != 'y'", [2])]:
            rs = execute_plan(
                plan_query(parse_query(f"SELECT id FROM s.t WHERE {cond}"), cat)
            )
            assert [r[0] for r in rs.rows] == expect, cond

    def test_coercion_warnings_and_null_join_keys(self, small_centre):
        cat, views, _ = small_centre
        rs = execute_plan(plan_query(parse_query(f"SELECT id FROM {views[0]}"), cat))
        assert rs.warnings  # the generator plants unparseable dates
        # rows with failed coercions are still scanned (the column is unused)
        raw = execute_plan(plan_query(parse_query("SELECT id FROM gen.small0"), cat))
        assert len(rs.rows) == len(raw.rows)
        # but a join on the date column never matches them
        joined = execute_plan(
            plan_query(
                parse_query(
                    f"SELECT a.id FROM {views[0]} a JOIN {views[1]} b ON a.when = b.when"
                ),
                cat,
            )
        )
        for row in joined.rows:
            assert row[0] is not None

    def test_warnings_do_not_depend_on_the_columns_read(self, small_centre):
        """A query that reads few columns still coerces every row's date and
        names each failure by its item key: its warnings are those of the
        reference evaluator, which decodes every cell."""
        cat, views, _ = small_centre
        for select in ("name", "id", "when", "*"):
            ast = parse_query(f"SELECT {select} FROM {views[0]}")
            rs = execute_plan(plan_query(ast, cat))
            ref = reference_eval(ast, cat)
            assert rs.warnings and [str(w) for w in rs.warnings] == [
                str(w) for w in ref.warnings
            ], select

    def test_contains_matches_independent_naive(self, desk_centre):
        cat, _, _ = desk_centre
        rs = execute_plan(
            plan_query(
                parse_query("SELECT summary FROM legal_texts WHERE summary CONTAINS 'IMPERA'"),
                cat,
            )
        )
        full = execute_plan(plan_query(parse_query("SELECT summary FROM legal_texts"), cat))

        def naive(hay: str, needle: str) -> bool:
            # independent of the engine: char-by-char window compare
            h = unicodedata.normalize("NFC", hay).casefold()
            n = unicodedata.normalize("NFC", needle).casefold()
            return any(h[i : i + len(n)] == n for i in range(len(h) - len(n) + 1))

        expected = sorted(r for r in full.rows if r[0] is not None and naive(r[0], "IMPERA"))
        assert rs.rows == expected
        assert rs.rows  # the fixture vocabulary guarantees hits

    def test_deterministic_bytes(self, desk_centre):
        cat, _, _ = desk_centre
        q = "SELECT * FROM all_texts WHERE category = 'letter'"
        a = result_to_csv(execute_plan(plan_query(parse_query(q), cat)))
        b = result_to_csv(execute_plan(plan_query(parse_query(q), cat)))
        assert a.encode() == b.encode()

    def test_jsonl_output_shape(self, desk_centre):
        cat, _, _ = desk_centre
        rs = execute_plan(plan_query(parse_query("SELECT id, date FROM volterra_texts LIMIT 2"), cat))
        out = result_to_jsonl(rs)
        assert out.count("\n") == 2
        assert '"id":' in out


class TestOracleEquivalence:
    def test_generated_queries_match_reference(self, small_centre):
        cat, views, _ = small_centre
        rng = random.Random(99)
        gen = QueryGen(rng, views)
        checked = 0
        for _ in range(200):
            q = gen.query()
            ast = parse_query(q)
            rs = execute_plan(plan_query(ast, cat))
            ref = reference_eval(ast, cat)
            assert rs.schema.column_names() == ref.schema.column_names(), q
            assert rs.rows == ref.rows, q
            checked += 1
        assert checked == 200

    def test_pushdown_transparency_bytes(self, small_centre):
        cat, views, _ = small_centre
        rng = random.Random(123)
        gen = QueryGen(rng, views)
        for _ in range(60):
            q = gen.query()
            ast = parse_query(q)
            on = execute_plan(plan_query(ast, cat, pushdown=True))
            off = execute_plan(plan_query(ast, cat, pushdown=False))
            assert result_to_csv(on).encode() == result_to_csv(off).encode(), q
            assert [str(w) for w in on.warnings] == [str(w) for w in off.warnings], q


# raw category terms of the translating union view: mixed case, composed and
# decomposed (non-NFC) spellings, unmapped terms, an unmapped term equal to
# a target term ("letter"), and null cells (""); the translation table's
# source term for "edict" is itself decomposed
_XLATE_RAW = ["Brief", "brief", "BRIEF", "Vertrag", "vertrag", "\u00c9dikt",
              "E\u0301dikt", "e\u0301dikt", "letter", "Liste", "contract", ""]
_XLATE_LITERALS = ["letter", "contract", "edict", "Liste", "liste", "Brief",
                   "Edikt", "\u00e9dikt", "m", ""]
_XLATE_NEEDLES = ["ett", "LET", "dik", "\u00c9", "con", "i", "zz"]


@pytest.fixture(scope="module")
def xlate_centre(tmp_path_factory):
    """Two generated tables under one view that translates ``kind`` (and
    coerces ``when``, so scans collect warnings); a second view translates
    ``kind`` twice, and a third translates ``when`` before coercing it."""
    base = tmp_path_factory.mktemp("xlate")
    rng = random.Random(5)
    src = base / "src"
    os.makedirs(src)
    for t in ("t0", "t1"):
        with open(src / f"{t}.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("id,kind,when\n")
            for i in range(1, rng.randint(30, 50)):
                when = rng.choice(["0200", "0201-03", "ca. 0150", "bad", ""])
                f.write(f"{i},{rng.choice(_XLATE_RAW)},{when}\n")
        (src / f"{t}.schema").write_text("id : int\nkind : text\nwhen : date_text\n")
    (base / "tx.csv").write_text(
        "source_term,target_term\nBrief,letter\nVERTRAG,contract\nE\u0301dikt,edict\n",
        encoding="utf-8",
    )
    (base / "again.csv").write_text("source_term,target_term\nletter,Brief\n", encoding="utf-8")
    (base / "when.csv").write_text("source_term,target_term\nbad,0199\n", encoding="utf-8")
    (base / "u.view").write_text(
        "view u\nfrom s.t0\nunion s.t1\ncoerce when date\ntranslate kind using tx\nend\n"
    )
    (base / "twice.view").write_text(
        "view twice\nfrom s.t0\ntranslate kind using tx\ntranslate kind using again\nend\n"
    )
    (base / "tc.view").write_text(
        "view tc\nfrom s.t0\ntranslate when using when\ncoerce when date\nend\n"
    )
    from vdc.datacentre import AccessMode

    cat = Catalogue(str(base / "c.vdc"))
    cat.register_source("s", "tabular", str(src), AccessMode.LIVE)
    cat.add_translation("tx", str(base / "tx.csv"))
    cat.add_translation("again", str(base / "again.csv"))
    cat.add_translation("when", str(base / "when.csv"))
    for view in ("u", "twice", "tc"):
        cat.define_view(str(base / f"{view}.view"))
    return cat


class TestTranslatedPushdown:
    """Predicates on a translate-only column run in the scan with the
    translation; the answers are the reference evaluator's, and pushdown on
    and off print the same bytes and warnings."""

    def _queries(self, rng: random.Random) -> list[str]:
        out = []
        for op in ("=", "!=", "<", ">", "<=", ">="):
            for literal in _XLATE_LITERALS:
                out.append(f"kind {op} '{literal}'")
        out += [f"kind CONTAINS '{needle}'" for needle in _XLATE_NEEDLES]
        queries = []
        for where in out:
            select = rng.choice(["*", "kind", "id, kind", "kind, when", "when"])
            if rng.random() < 0.3:
                where += f" AND id < {rng.randint(5, 40)}"
            limit = f" LIMIT {rng.randint(1, 12)}" if rng.random() < 0.4 else ""
            queries.append(f"SELECT {select} FROM u WHERE {where}{limit}")
        # LIMIT over rows that tie in the canonical order
        queries += [
            "SELECT kind FROM u WHERE kind != 'zz' LIMIT 9",
            "SELECT kind FROM u WHERE kind >= '' LIMIT 25",
        ]
        return queries

    def test_engine_equals_reference_and_pushdown_is_transparent(self, xlate_centre):
        cat = xlate_centre
        tx = cat.xlates["tx"].translate
        queries = self._queries(random.Random(17))
        hits = 0
        for q in queries:
            ast = parse_query(q)
            plan = plan_query(ast, cat)
            (term,) = plan.terms
            assert term.filters == (), q
            assert plan.pushdown and term.scan_preds[0].transform == tx, q
            on = execute_plan(plan)
            off = execute_plan(plan_query(ast, cat, pushdown=False))
            assert on.rows == reference_eval(ast, cat).rows, q
            assert result_to_csv(on).encode() == result_to_csv(off).encode(), q
            assert [str(w) for w in on.warnings] == [str(w) for w in off.warnings], q
            hits += bool(on.rows)
        assert hits > len(queries) // 2  # the literals and needles do hit

    def test_unmapped_target_term_and_decomposed_source_term(self, xlate_centre):
        """``letter`` matches both translated ``Brief`` rows and raw
        ``letter`` rows; ``edict`` matches every spelling of ``Édikt``."""
        cat = xlate_centre
        letters = parse_query("SELECT kind FROM u WHERE kind = 'letter'")
        rows = execute_plan(plan_query(letters, cat)).rows
        assert rows and {r[0] for r in rows} == {"letter"}
        raw = execute_plan(plan_query(parse_query("SELECT kind FROM s.t0"), cat)).rows
        raw += execute_plan(plan_query(parse_query("SELECT kind FROM s.t1"), cat)).rows
        folded = [unicodedata.normalize("NFC", r[0]).casefold() for r in raw if r[0]]
        assert len(rows) == sum(k in ("brief", "letter") for k in folded)
        edicts = execute_plan(plan_query(parse_query("SELECT kind FROM u WHERE kind = 'edict'"), cat))
        assert len(edicts.rows) == sum(k == "édikt" for k in folded) > 0

    def test_twice_translated_column_filters_centrally(self, xlate_centre):
        cat = xlate_centre
        ast = parse_query("SELECT id, kind FROM twice WHERE kind = 'Brief'")
        plan = plan_query(ast, cat)
        (term,) = plan.terms
        assert [type(p) for p in term.filters] == [Compare]
        assert term.scan_preds == ()
        rows = execute_plan(plan).rows
        assert rows and rows == reference_eval(ast, cat).rows


def _date_queries(rng: random.Random, view: str, years: range, literals: list[str],
                  others: list[str], n: int) -> list[str]:
    """DATE_WITHIN (from a year in ``years``) and date =/!= ``literals``
    queries on ``view``'s ``when``, some with one more predicate from
    ``others``, some with a LIMIT."""
    queries = []
    for _ in range(n):
        if rng.random() < 0.5:
            lo = rng.choice(years)
            where = f"DATE_WITHIN(when, '{lo:04d}', '{lo + rng.randint(0, 60):04d}')"
        else:
            where = f"when {rng.choice(['=', '!='])} '{rng.choice(literals)}'"
        if rng.random() < 0.25:
            where += f" AND {rng.choice(others)}"
        select = rng.choice(["*", "id", "when", "id, when"])
        limit = f" LIMIT {rng.randint(1, 15)}" if rng.random() < 0.5 else ""
        queries.append(f"SELECT {select} FROM {view} WHERE {where}{limit}")
    return queries


class TestDatePrefilter:
    """A date predicate on a view's one coerced column prefilters the scan
    with the view's coercion, keeping the texts that do not coerce; the
    exact predicate stays a filter.  Answers are the reference
    evaluator's, the prefilter cuts no row that warns, and pushdown on and
    off print the same bytes and warnings."""

    def _check(self, cat, queries: list[str]) -> None:
        hits = warned = 0
        for q in queries:
            ast = parse_query(q)
            plan = plan_query(ast, cat)
            (term,) = plan.terms
            columns = term.relation.schema.columns
            dates = {i for i, c in enumerate(columns) if c.kind is ColumnKind.DATE}
            assert any(isinstance(p, (Compare, DateWithin)) and p.index in dates
                       and p.transform is not None for p in term.scan_preds), q
            assert any(isinstance(p, (Compare, DateWithin)) and p.index in dates
                       and p.transform is None for p in term.filters), q
            on = execute_plan(plan)
            off = execute_plan(plan_query(ast, cat, pushdown=False))
            ref = reference_eval(ast, cat)
            assert on.rows == ref.rows, q
            if all(p.index in dates for p in term.scan_preds):
                assert [str(w) for w in on.warnings] == [str(w) for w in ref.warnings], q
            assert result_to_csv(on).encode() == result_to_csv(off).encode(), q
            assert [str(w) for w in on.warnings] == [str(w) for w in off.warnings], q
            hits += bool(on.rows)
            warned += bool(on.warnings)
        assert hits > len(queries) // 2 and warned > len(queries) // 2

    def test_small_views(self, small_centre):
        cat, views, _ = small_centre
        others = ["id < 20", "tag = 'beta'", "name CONTAINS 'ar'", "n >= 5"]
        rng = random.Random(31)
        queries = []
        literals = ["0200", "0190/0230", "ca. 0210", "0245", "0201-03"]
        for view in views:
            queries += _date_queries(rng, view, range(170, 260), literals, others, 40)
        self._check(cat, queries)

    def test_translating_union_view(self, xlate_centre):
        others = ["kind = 'letter'", "id < 20", "kind CONTAINS 'dik'"]
        literals = ["0200", "0201-03", "ca. 0150", "0150", "0140/0160"]
        queries = _date_queries(random.Random(37), "u", range(130, 201), literals, others, 80)
        self._check(xlate_centre, queries)

    def test_limit_ties_are_taken_across_union_bases(self, xlate_centre):
        """Where the k-th row ties with the next under the canonical order,
        LIMIT k gives the reference's first k rows; the tied values occur
        in both bases of the union."""
        cat = xlate_centre
        q = "SELECT when, kind FROM u WHERE DATE_WITHIN(when, '0100', '0300')"
        full = reference_eval(parse_query(q), cat).rows
        relation = cat.resolve_relation("u")
        cols = [relation.schema.index_of(c) for c in ("when", "kind")]
        per_base = [
            {tuple(row[i] for i in cols) for row, _ in relation.scan_base(b, (), False, None)}
            for b in range(len(relation.bases))
        ]
        ties = [
            k for k in range(1, len(full))
            if full[k - 1] == full[k] and all(full[k] in rows for rows in per_base)
        ]
        assert ties
        for k in ties:
            for pushdown in (True, False):
                rs = execute_plan(plan_query(parse_query(f"{q} LIMIT {k}"), cat, pushdown=pushdown))
                assert rs.rows == full[:k], (k, pushdown)

    def test_coerced_and_translated_column_filters_centrally(self, xlate_centre):
        cat = xlate_centre
        ast = parse_query("SELECT id, when FROM tc WHERE DATE_WITHIN(when, '0150', '0250')")
        plan = plan_query(ast, cat)
        (term,) = plan.terms
        assert term.scan_preds == ()
        assert [type(p) for p in term.filters] == [DateWithin]
        rows = execute_plan(plan).rows
        assert rows and rows == reference_eval(ast, cat).rows


def test_join_on_dates_equal_by_interval_but_written_differently(tmp_path):
    """A join on two coerced date columns matches the texts whose intervals
    are equal however they are written; a null key and a text that does
    not coerce match nothing.  The engine equals the reference evaluator,
    and pushdown on and off print the same bytes and warnings."""
    from vdc.datacentre import AccessMode

    src = tmp_path / "src"
    os.makedirs(src)
    tables = {
        "a": ["1,0213", "2,0213-01-01/0213-12-31", "3,", "4,0150-03", "5,bad"],
        "b": ["10,0213-01-01/0213-12-31", "11,0213", "12,", "13,0150-03-01/0150-03-31",
              "14,0214"],
    }
    for t, rows in tables.items():
        (src / f"{t}.csv").write_text("id,when\n" + "".join(r + "\n" for r in rows))
        (src / f"{t}.schema").write_text("id : int\nwhen : date_text\n")
        (tmp_path / f"v{t}.view").write_text(f"view v{t}\nfrom s.{t}\ncoerce when date\nend\n")
    cat = Catalogue(str(tmp_path / "c.vdc"))
    cat.register_source("s", "tabular", str(src), AccessMode.LIVE)
    for t in tables:
        cat.define_view(str(tmp_path / f"v{t}.view"))
    for q in (
        "SELECT x.id, y.id FROM va x JOIN vb y ON x.when = y.when",
        "SELECT x.id, y.when FROM vb y JOIN va x ON y.when = x.when WHERE x.id < 5",
    ):
        ast = parse_query(q)
        ref = reference_eval(ast, cat)
        on, off = (execute_plan(plan_query(ast, cat, pushdown)) for pushdown in (True, False))
        assert on.rows == off.rows == ref.rows, q
        assert result_to_csv(on).encode() == result_to_csv(off).encode(), q
        assert [str(w) for w in on.warnings] == [str(w) for w in off.warnings], q
        if "WHERE" not in q:
            assert [str(w) for w in on.warnings] == [str(w) for w in ref.warnings], q
    rows = execute_plan(plan_query(parse_query(
        "SELECT x.id, y.id FROM va x JOIN vb y ON x.when = y.when"), cat)).rows
    assert rows == [(1, 10), (1, 11), (2, 10), (2, 11), (4, 13)]


def test_query_package_serves_the_oracle_lazily():
    """Importing the CLI does not compile the reference evaluator; the
    package still serves ``reference_eval`` by name."""
    code = (
        "import sys, vdc.cli\n"
        "assert 'vdc.query.reference' not in sys.modules\n"
        "from vdc.query import reference_eval\n"
        "assert reference_eval.__module__ == 'vdc.query.reference'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
