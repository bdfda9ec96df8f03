"""Query pipeline tests: grammar, planning (pushdown placement, kind
checks), execution semantics, and engine-vs-oracle equivalence."""

import os
import random
import unicodedata

import pytest

from vdc.datacentre import Catalogue
from vdc.errors import ParseError, PlanError, VdcError
from vdc.model import UncertainDate
from vdc.query import (
    execute_plan,
    parse_query,
    plan_query,
    reference_eval,
    result_to_csv,
    result_to_jsonl,
)
from vdc.query.parser import CompareAst, ContainsAst, DateNearAst
from vdc.query.planner import FilterNode, LimitNode, ProjectNode, ScanNode, UnionAllNode

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

    def test_date_within_literals_parsed_eagerly(self):
        ast = parse_query("SELECT * FROM t WHERE DATE_WITHIN(d, '0200', '0250')")
        assert isinstance(ast.where[0].lo, UncertainDate)
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t WHERE DATE_WITHIN(d, 'nope', '0250')")


class TestPlanner:
    def test_pushdown_lands_in_scan(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(parse_query("SELECT * FROM papyri WHERE Fundort = 'Memphis'"), cat)
        node = plan.root
        assert isinstance(node, ProjectNode)
        scan = node.child
        assert isinstance(scan, ScanNode)
        assert scan.use_connector and len(scan.raw_preds) == 1
        assert scan.raw_preds[0].column == "Fundort"

    def test_pushdown_through_rename(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(
            parse_query("SELECT * FROM papyri_en WHERE findspot = 'Memphis'"), cat
        )
        scan = plan.root.child
        assert isinstance(scan, ScanNode)
        assert scan.raw_preds[0].column == "Fundort"  # rewritten to the raw name

    def test_translated_column_filters_centrally(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(
            parse_query("SELECT * FROM papyri_en WHERE category = 'letter'"), cat
        )
        flt = plan.root.child
        assert isinstance(flt, FilterNode)
        assert isinstance(flt.child, ScanNode)
        assert flt.child.raw_preds == ()

    def test_contains_on_xml_connector_is_engine_evaluated(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(
            parse_query("SELECT id FROM iaph.docs WHERE body CONTAINS 'x'"), cat
        )
        scan = plan.root.child
        assert isinstance(scan, ScanNode)
        assert scan.raw_preds and not scan.use_connector

    def test_no_pushdown_flag_disables_connector(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(
            parse_query("SELECT * FROM papyri WHERE Fundort = 'Memphis'"),
            cat,
            pushdown=False,
        )
        scan = plan.root.child
        assert scan.raw_preds and not scan.use_connector

    def test_union_view_plans_union_node(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(parse_query("SELECT * FROM all_texts"), cat)
        assert isinstance(plan.root.child, UnionAllNode)
        assert len(plan.root.child.children) == 2

    def test_limit_is_root(self, desk_centre):
        cat, _, _ = desk_centre
        plan = plan_query(parse_query("SELECT * FROM papyri LIMIT 3"), cat)
        assert isinstance(plan.root, LimitNode)

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

    def test_hash_cap_applies_to_the_smaller_side(self, small_centre):
        """A join whose larger side exceeds max_hash_build succeeds when the
        smaller side fits: the build side is the smaller one."""
        cat, views, _ = small_centre
        for where in (" WHERE a.id < 4", " WHERE b.id < 4"):
            q = parse_query(
                f"SELECT a.id, b.id FROM {views[0]} a JOIN {views[2]} b "
                f"ON a.tag = b.tag{where}"
            )
            rs = execute_plan(plan_query(q, cat), max_hash_build=3)
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
