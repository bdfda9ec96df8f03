"""Mediation tests: translation tables, the view grammar, rule resolution
and row mapping, union shape checks."""

import random

import pytest

from vdc.errors import CoercionError, LoadError, ParseError, PlanError
from vdc.mediation import (
    Coerce,
    Rename,
    Translate,
    TranslationError,
    compile_view,
    parse_translation_table,
    parse_view_file,
    translate_term,
)
from vdc.model import ColumnDescriptor, ColumnKind, TableSchema, UncertainDate


def make_xlate():
    return parse_translation_table(
        "de_en", "source_term,target_term\nQuittung,receipt\nBrief,letter\n"
    )


class TestTranslationTable:
    def test_direct_and_case_insensitive_lookup(self):
        t = make_xlate()
        assert translate_term(t, "Quittung") == "receipt"
        assert translate_term(t, "quittung") == "receipt"
        assert translate_term(t, "QUITTUNG") == "receipt"

    def test_pass_through_unmapped(self):
        t = make_xlate()
        assert translate_term(t, "ostrakon") == "ostrakon"
        assert translate_term(t, "") == ""

    def test_strict_mode(self):
        t = make_xlate()
        assert translate_term(t, "Brief", strict=True) == "letter"
        with pytest.raises(TranslationError):
            translate_term(t, "ostrakon", strict=True)
        assert translate_term(t, "", strict=True) == ""

    def test_duplicate_source_term(self):
        with pytest.raises(LoadError):
            parse_translation_table(
                "x", "source_term,target_term\nBrief,letter\nBrief,epistle\n"
            )

    def test_duplicate_after_case_folding(self):
        with pytest.raises(LoadError):
            parse_translation_table(
                "x", "source_term,target_term\nBrief,letter\nbrief,epistle\n"
            )

    def test_bad_header(self):
        with pytest.raises(LoadError):
            parse_translation_table("x", "from,to\na,b\n")


VIEW_TEXT = """# a view over the papyri
view papyri_en
from hgv.papyri
rename "Fundort" -> findspot
coerce datierung date
translate kategorie using de_en
end
"""


class TestViewGrammar:
    def test_parses_rules_in_order(self):
        v = parse_view_file(VIEW_TEXT)
        assert v.name == "papyri_en"
        assert [r.source_id for r in v.base] == ["hgv"]
        assert v.rules == (
            Rename("Fundort", "findspot"),
            Coerce("datierung"),
            Translate("kategorie", "de_en"),
        )

    def test_union_lines_extend_base(self):
        v = parse_view_file(
            "view u\nfrom a.t1\nunion b.t2\nunion c.t3\nend\n"
        )
        assert [r.text() for r in v.base] == ["a.t1", "b.t2", "c.t3"]

    def test_quoted_original_with_spaces_and_umlauts(self):
        v = parse_view_file(
            'view v\nfrom a.t\nrename "Erwähnte Person" -> person\nend\n'
        )
        assert v.rules == (Rename("Erwähnte Person", "person"),)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("view v\nfrom a.t\n", "missing 'end'"),
            ("from a.t\nend\n", "must start with"),
            ("view v\nfrom a.t\nfrobnicate x\nend\n", "unknown rule keyword"),
            ("view v\nfrom a.t\nend\nextra\n", "content after"),
            ("view v\nunion a.t\nend\n", "'union' before 'from'"),
            ("view v\nfrom a.t\nrename Fundort -> f\nend\n", "quoted"),
            ("view v\nfrom a.t\ncoerce d text\nend\n", "usage: coerce"),
            ("view v\nfrom a.t\nfrom b.t\nend\n", "duplicate 'from'"),
            ("view v\nfrom a.t\nrename \"x\" -> y\nunion b.t\nend\n", "precede"),
        ],
    )
    def test_syntax_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as e:
            parse_view_file(text)
        assert fragment in str(e.value)


def schema(name, *cols):
    return TableSchema(name, tuple(cols))


def col(name, kind=ColumnKind.TEXT, date_text=False):
    return ColumnDescriptor(name, kind, date_text=date_text)


BASE = schema(
    "papyri",
    col("id", ColumnKind.INT),
    col("Fundort"),
    col("datierung", date_text=True),
    col("kategorie"),
)


class TestResolve:
    def test_rename_and_coerce(self):
        v = parse_view_file(VIEW_TEXT)
        out = compile_view(v, [BASE], {"de_en": make_xlate()}).schema
        assert out.name == "papyri_en"
        assert out.column_names() == ["id", "findspot", "datierung", "kategorie"]
        assert out.columns[2].kind is ColumnKind.DATE

    def test_rename_missing_column(self):
        v = parse_view_file('view v\nfrom a.t\nrename "nope" -> x\nend\n')
        with pytest.raises(PlanError):
            compile_view(v, [BASE], {})

    def test_coerce_requires_date_text(self):
        v = parse_view_file("view v\nfrom a.t\ncoerce kategorie date\nend\n")
        with pytest.raises(PlanError) as e:
            compile_view(v, [BASE], {})
        assert "non-date_text" in str(e.value)

    def test_union_parse_succeeds_resolve_rejects_mismatch(self):
        v = parse_view_file("view v\nfrom a.t\nunion b.t\nend\n")  # parses
        other = schema("t2", col("id", ColumnKind.INT), col("Fundort"))
        with pytest.raises(PlanError):
            compile_view(v, [BASE, other], {})

    def test_union_of_matching_schemas(self):
        v = parse_view_file('view v\nfrom a.t\nunion b.t\nrename "Ort" -> Fundort\nend\n')
        other = schema(
            "t2",
            col("id", ColumnKind.INT),
            col("Ort"),
            col("datierung", date_text=True),
            col("kategorie"),
        )
        out = compile_view(v, [BASE, other], {}).schema
        assert out.column_names() == ["id", "Fundort", "datierung", "kategorie"]

    def test_rename_target_collision(self):
        v = parse_view_file('view v\nfrom a.t\nrename "Fundort" -> kategorie\nend\n')
        with pytest.raises(PlanError):
            compile_view(v, [BASE], {})


class TestRowMapping:
    def compiled(self):
        v = parse_view_file(
            "view v\nfrom a.t\ncoerce datierung date\n"
            "translate kategorie using de_en\nend\n"
        )
        return compile_view(v, [BASE], {"de_en": make_xlate()})

    def test_translate_and_coerce_compose(self):
        cv = self.compiled()
        row, warns = cv.apply(0, (1, "Memphis", "0213", "Quittung"), "a/t/1")
        assert warns == []
        assert row[3] == "receipt"
        assert isinstance(row[2], UncertainDate)
        assert row[2].width_days == 364  # 213 is not a leap year

    def test_null_date_stays_null(self):
        cv = self.compiled()
        row, warns = cv.apply(0, (1, "Memphis", None, "Brief"), "a/t/1")
        assert row[2] is None and row[3] == "letter" and warns == []

    def test_unparseable_date_collected_not_fatal(self):
        cv = self.compiled()
        row, warns = cv.apply(0, (1, "Memphis", "13th of March", "Brief"), "a/t/1")
        assert row[2] is None
        assert len(warns) == 1
        assert isinstance(warns[0], CoercionError)
        assert warns[0].ref == "a/t/1"
        assert warns[0].column == "datierung"

    def test_rename_preserves_values(self):
        v = parse_view_file('view v\nfrom a.t\nrename "Fundort" -> findspot\nend\n')
        cv = compile_view(v, [BASE], {})
        row, warns = cv.apply(0, (1, "Memphis", "0213", "Brief"), "a/t/1")
        assert row == (1, "Memphis", "0213", "Brief") and warns == []

    def test_application_is_order_independent(self):
        cv = self.compiled()
        rows = [
            (i, "Memphis", "0213" if i % 3 else "bad", "Quittung") for i in range(30)
        ]
        rng = random.Random(3)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        out_a = sorted(repr(cv.apply(0, r, f"a/t/{r[0]}")) for r in rows)
        out_b = sorted(repr(cv.apply(0, r, f"a/t/{r[0]}")) for r in shuffled)
        assert out_a == out_b


class TestUnionCardinality:
    def test_union_view_counts_sum(self, desk_centre):
        cat, fx, _ = desk_centre
        rel = cat.resolve_relation("all_texts")
        total = 0
        for b in range(len(rel.bases)):
            total += sum(1 for _ in rel.scan_base(b, (), False, None))
        hgv = sum(1 for _ in cat.resolve_relation("hgv.papyri").scan_base(0, (), False, None))
        vol = sum(
            1 for _ in cat.resolve_relation("volterra.legal_texts").scan_base(0, (), False, None)
        )
        assert total == hgv + vol == 1000
