"""Mediation tests: translation tables, the view grammar, rule resolution
and row mapping, union shape checks."""

import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdc.errors import CoercionError, LoadError, ParseError, PlanError
from vdc.mediation import (
    Coerce,
    RelationRef,
    Rename,
    Translate,
    ViewDefinition,
    compile_view,
    parse_recipe_file,
    parse_translation_table,
    parse_view_file,
)
from vdc.model import (
    ColumnDescriptor,
    ColumnKind,
    TableSchema,
    UncertainDate,
    parse_uncertain_date,
)
from vdc.predicates import COMPARE_OPS, Compare, Contains, DateWithin, holds


def make_xlate():
    return parse_translation_table(
        "de_en", "source_term,target_term\nQuittung,receipt\nBrief,letter\n"
    )


class TestTranslationTable:
    def test_direct_and_case_insensitive_lookup(self):
        t = make_xlate()
        assert t.translate("Quittung") == "receipt"
        assert t.translate("quittung") == "receipt"
        assert t.translate("QUITTUNG") == "receipt"

    def test_pass_through_unmapped(self):
        t = make_xlate()
        assert t.translate("ostrakon") == "ostrakon"
        assert t.translate("") == ""

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

    def test_hash_inside_a_quoted_original_is_not_a_comment(self):
        v = parse_view_file('view v\nfrom a.t\nrename "Inv. #" -> inv\nend\n')
        assert v.rules == (Rename("Inv. #", "inv"),)
        v = parse_view_file(
            'view v  # comment\nfrom a.t\nrename "Inv. #" -> inv  # the "inventory" no.\nend\n'
        )
        assert v.name == "v" and v.rules == (Rename("Inv. #", "inv"),)

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


@pytest.mark.parametrize("kind,parse", [("view", parse_view_file),
                                        ("recipe", parse_recipe_file)])
@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty {kind} file"),
        ("# a comment\n\n", "empty {kind} file"),
        ("from a.t\nend\n", "{kind} file must start with '{kind} <name>' (line 1)"),
        ("\n{kind} a b\n", "usage: {kind} <name> (line 2)"),
        ("{kind} 9a\n", "expected an identifier, got '9a' (line 1)"),
        ("{kind} v\n{kind} w\nend\n", "duplicate '{kind}' line (line 2)"),
        ("{kind} v  # the name\nfrom a.t\n", "missing 'end'"),
        ("{kind} v\nfrom a.t\nend\n# fine\nfrom b.t\n", "content after 'end' (line 5)"),
        ("{kind} v\nfrom a.t\nfrom b.t\nend\nx\n", "duplicate 'from"),
    ],
)
def test_view_and_recipe_files_share_one_line_reader(kind, parse, text, message):
    """Header, comments, ``end`` and what follows it read the same in both
    grammars; a fault is reported at its line, in line order."""
    with pytest.raises(ParseError) as e:
        parse(text.format(kind=kind))
    assert str(e.value).startswith(message.format(kind=kind))


@pytest.mark.parametrize(
    "lines,message",
    [
        ("from a.t b", "usage: from <source>.<table> (line 2)"),
        ("from a", "malformed relation ref 'a' (line 2)"),
        ("from a.t\nfrom b.t", "duplicate 'from' (use 'union' for more relations) (line 3)"),
        ("union a.t\nfrom b.t", "'union' before 'from' (line 2)"),
        ('from a.t\nrename "x" -> y\nunion b.t', "'union' must precede mapping rules (line 4)"),
        ("from a.t\nunion b.t c", "usage: union <source>.<table> (line 3)"),
        ("from a.t\nunion b", "malformed relation ref 'b' (line 3)"),
        ('from a.t\nrename "x" y', 'usage: rename "<original>" -> <ident> (line 3)'),
        ("from a.t\nrename x -> y", "expected a quoted name, got x (line 3)"),
        ('from a.t\nrename "x" -> 9y', "expected an identifier, got '9y' (line 3)"),
        ('rename "x" -> y\nfrom a.t', "rules must follow 'from' (line 2)"),
        ("coerce d date\nfrom a.t", "rules must follow 'from' (line 2)"),
        ("translate c using t\nfrom a.t", "rules must follow 'from' (line 2)"),
        ("from a.t\ncoerce d", "usage: coerce <column> date (line 3)"),
        ("from a.t\ncoerce d text", "usage: coerce <column> date (line 3)"),
        ("from a.t\ncoerce 9d date", "expected an identifier, got '9d' (line 3)"),
        ("from a.t\ntranslate c with t", "usage: translate <column> using <table> (line 3)"),
        ("from a.t\ntranslate c using", "usage: translate <column> using <table> (line 3)"),
        ("from a.t\ntranslate c using t u", "usage: translate <column> using <table> (line 3)"),
        ("from a.t\ntranslate 9c using t", "expected an identifier, got '9c' (line 3)"),
        ("from a.t\ntranslate c using 9t", "expected an identifier, got '9t' (line 3)"),
        ("from a.t\nfrobnicate x", "unknown rule keyword 'frobnicate' (line 3)"),
        ("", "'end' before 'from' (line 3)"),
    ],
)
def test_each_view_line_fault_has_its_own_text(lines, message):
    """A view file with one faulty line fails with this exact text."""
    with pytest.raises(ParseError) as e:
        parse_view_file(f"view v\n{lines}\nend\n")
    assert str(e.value) == message


@pytest.mark.parametrize(
    "lines,message",
    [
        ("from a.t b\nid i\nbody b", "usage: from <source>.<table> (line 2)"),
        ("from a\nid i\nbody b", "malformed relation ref 'a' (line 2)"),
        ("from a.t\nfrom b.t\nid i\nbody b", "duplicate 'from' line (line 3)"),
        ("from a.t\nid\nbody b", "usage: id <column> (line 3)"),
        ("from a.t\nid a b\nbody b", "usage: id <column> (line 3)"),
        ("from a.t\nid 9a\nbody b", "expected an identifier, got '9a' (line 3)"),
        ("from a.t\nid a\nid b\nbody b", "duplicate 'id' line (line 4)"),
        ("from a.t\nid i\nbody b\nfield t title", "usage: field <ident> = <column> (line 5)"),
        ("from a.t\nid i\nbody b\nfield t =", "usage: field <ident> = <column> (line 5)"),
        ("from a.t\nid i\nbody b\nfield t : x", "usage: field <ident> = <column> (line 5)"),
        ("from a.t\nid i\nbody b\nfield 9t = x", "expected an identifier, got '9t' (line 5)"),
        ("from a.t\nid i\nbody b\nfield t = 9x", "expected an identifier, got '9x' (line 5)"),
        ("from a.t\nid i\nbody b\nfield body = x", "duplicate field 'body' (line 5)"),
        ("from a.t\nid i\nbody b\nfield t = x\nfield t = y", "duplicate field 't' (line 6)"),
        ("from a.t\nid i\nbody b\nbody", "usage: body <column> (line 5)"),
        ("from a.t\nid i\nbody b\nbody a b", "usage: body <column> (line 5)"),
        ("from a.t\nid i\nbody b\nbody 9x", "expected an identifier, got '9x' (line 5)"),
        ("from a.t\nid i\nbody b\ngeo lat", "usage: geo <latcol> <loncol> (line 5)"),
        ("from a.t\nid i\nbody b\ngeo lat lon x", "usage: geo <latcol> <loncol> (line 5)"),
        ("from a.t\nid i\nbody b\ngeo 9lat lon", "expected an identifier, got '9lat' (line 5)"),
        ("from a.t\nid i\nbody b\ngeo lat 9lon", "expected an identifier, got '9lon' (line 5)"),
        ("from a.t\nid i\nbody b\ngeo a b\ngeo c d", "duplicate 'geo' line (line 6)"),
        ("from a.t\nid i\nbody b\nindex", "usage: index <field> (line 5)"),
        ("from a.t\nid i\nbody b\nindex a b", "usage: index <field> (line 5)"),
        ("from a.t\nid i\nbody b\nindex 9x", "expected an identifier, got '9x' (line 5)"),
        ("from a.t\nid i\nbody b\nindex body\nindex body", "duplicate index field 'body' (line 6)"),
        ("from a.t\nid i\nbody b\nfrob x", "unknown recipe keyword 'frob' (line 5)"),
        ("id i\nbody b", "recipe needs 'from' and 'id' lines"),
        ("from a.t\nbody b", "recipe needs 'from' and 'id' lines"),
        ("from a.t\nid i", "recipe needs at least one 'body' column"),
        ("from a.t\nid i\nbody b\nindex t", "indexed field 't' is not declared"),
    ],
)
def test_each_recipe_line_fault_has_its_own_text(lines, message):
    """A recipe file with one fault fails with this exact text."""
    with pytest.raises(ParseError) as e:
        parse_recipe_file(f"recipe r\n{lines}\nend\n")
    assert str(e.value) == message


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


class TestOneOpList:
    """A view keeps one list of cell ops for all its bases: every coerced or
    translated column sits at one position in every base, or the view is
    rejected."""

    def test_union_with_coerced_column_at_different_positions_is_rejected(self):
        v = parse_view_file("view v\nfrom a.t\nunion b.t\ncoerce datierung date\nend\n")
        moved = schema(
            "t2",
            col("id", ColumnKind.INT),
            col("datierung", date_text=True),
            col("Fundort"),
            col("kategorie"),
        )
        with pytest.raises(PlanError) as e:
            compile_view(v, [BASE, moved], {})
        assert "does not match" in str(e.value)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_apply_equals_a_replay_by_name(self, data):
        """Bases that rename, and sometimes permute, one column set, and
        random rules: the view either fails to compile or maps every row of
        every base as a replay of its rules by column name does."""
        n = data.draw(st.integers(2, 4), label="columns")
        kinds = data.draw(st.lists(st.sampled_from(_KINDS), min_size=n, max_size=n))
        bases, renames = [], []
        for b in range(data.draw(st.integers(2, 3), label="bases")):
            # column k is c<k> in every base that shares the name, or a name
            # of this base's own, which a rename usually maps to c<k>
            names = [data.draw(st.sampled_from([f"c{k}", f"r{b}_{k}"])) for k in range(n)]
            renames += [Rename(name, f"c{k}") for k, name in enumerate(names) if name[0] == "r"]
            order = list(range(n))
            if data.draw(st.integers(0, 5)) == 5:
                order = data.draw(st.permutations(order))
            bases.append(schema(f"t{b}", *(col(names[k], *kinds[k]) for k in order)))

        # rules by the view's current name of column k (c<k>, or e<k> once
        # renamed): a rename between the two, or the transform its kind admits
        current = [f"c{k}" for k in range(n)]
        extra = []
        for _ in range(data.draw(st.integers(0, 5), label="rules")):
            k = data.draw(st.integers(0, n - 1))
            kind, date_text = kinds[k]
            if kind is ColumnKind.INT or data.draw(st.booleans()):
                to = "ce"[current[k][0] == "c"] + str(k)
                extra.append(Rename(current[k], to))
                current[k] = to
            elif date_text:
                extra.append(Coerce(current[k]))
            else:
                extra.append(Translate(current[k], data.draw(st.sampled_from(sorted(_XLATES)))))
        kept = [r for r in renames if data.draw(st.integers(0, 9)) < 9]
        rules = kept + extra
        if data.draw(st.integers(0, 3)) == 3:
            rules = data.draw(st.permutations(rules), label="order")
        rules = tuple(rules)
        view = ViewDefinition(
            "v", tuple(RelationRef("s", f"t{b}") for b in range(len(bases))), rules
        )
        try:
            cv = compile_view(view, bases, _XLATES)
        except PlanError:
            return
        for b, base in enumerate(bases):
            for _ in range(3):
                row = tuple(data.draw(_cells(c)) for c in base.columns)
                got, warns = cv.apply(b, row)
                want, want_warns = _replay(rules, base, row)
                assert got == want
                assert [(w.column, w.text) for w in warns] == want_warns


_KINDS = [(ColumnKind.INT, False), (ColumnKind.TEXT, False), (ColumnKind.TEXT, True)]
_XLATES = {
    "de_en": make_xlate(),
    "en_de": parse_translation_table("en_de", "source_term,target_term\nletter,Brief\n"),
}


def _cells(c: ColumnDescriptor):
    if c.kind is ColumnKind.INT:
        return st.none() | st.integers(0, 9)
    if c.date_text:
        return st.sampled_from([None, "0213", "0150-03", "bad"])
    return st.sampled_from([None, "Brief", "letter", "Quittung", "x"])


def _replay(rules, base: TableSchema, row) -> tuple[tuple, list]:
    """Apply ``rules`` to one raw row by looking every column up by name."""
    names = base.column_names()
    cells = list(row)
    warns = []
    for rule in rules:
        if isinstance(rule, Rename):
            if rule.original in names:
                names[names.index(rule.original)] = rule.to
            continue
        i = names.index(rule.column)
        if cells[i] is None:
            continue
        if isinstance(rule, Translate):
            cells[i] = _XLATES[rule.table_id].translate(cells[i])
            continue
        try:
            cells[i] = parse_uncertain_date(cells[i])
        except ParseError:
            warns.append((rule.column, cells[i]))
            cells[i] = None
    return tuple(cells), warns


class TestRowMapping:
    def compiled(self):
        v = parse_view_file(
            "view v\nfrom a.t\ncoerce datierung date\n"
            "translate kategorie using de_en\nend\n"
        )
        return compile_view(v, [BASE], {"de_en": make_xlate()})

    def test_translate_and_coerce_compose(self):
        cv = self.compiled()
        row, warns = cv.apply(0, (1, "Memphis", "0213", "Quittung"))
        assert warns == []
        assert row[3] == "receipt"
        assert isinstance(row[2], UncertainDate)
        assert row[2].latest_day - row[2].earliest_day == 364  # 213 is not a leap year

    def test_null_date_stays_null(self):
        cv = self.compiled()
        row, warns = cv.apply(0, (1, "Memphis", None, "Brief"))
        assert row[2] is None and row[3] == "letter" and warns == []

    @pytest.mark.parametrize("text", ["13th of March", "1" * 17, "1" * 5000])
    def test_unparseable_date_collected_not_fatal(self, text):
        cv = self.compiled()
        row, warns = cv.apply(0, (1, "Memphis", text, "Brief"))
        assert row[2] is None
        assert len(warns) == 1
        assert isinstance(warns[0], CoercionError)
        assert warns[0].ref == "a/t/1"
        assert warns[0].column == "datierung"

    def test_rename_preserves_values(self):
        v = parse_view_file('view v\nfrom a.t\nrename "Fundort" -> findspot\nend\n')
        cv = compile_view(v, [BASE], {})
        row, warns = cv.apply(0, (1, "Memphis", "0213", "Brief"))
        assert row == (1, "Memphis", "0213", "Brief") and warns == []

    def test_application_is_order_independent(self):
        cv = self.compiled()
        rows = [
            (i, "Memphis", "0213" if i % 3 else "bad", "Quittung") for i in range(30)
        ]
        rng = random.Random(3)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        out_a = sorted(repr(cv.apply(0, r)) for r in rows)
        out_b = sorted(repr(cv.apply(0, r)) for r in shuffled)
        assert out_a == out_b


_TERMS = ["Quittung", "Brief", "\u00c9dikt", "letter", "receipt", "Vertrag", "x"]
_DATE_TEXTS = ["0213", "0213-01-01/0213-12-31", "0150-03", "0150-03-31", "0200/0210",
               "ca. 0200", "bad", "0213-02-30", "-0045"]


def _spelling(draw, term: str) -> str:
    """``term`` in a drawn case and Unicode normalization form."""
    term = draw(st.sampled_from([str, str.upper, str.lower, str.swapcase]))(term)
    return unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), term)


@st.composite
def _translated_case(draw):
    """A cell of the translated column and a predicate on it."""
    cell = None if draw(st.integers(0, 6)) == 0 else _spelling(draw, draw(st.sampled_from(_TERMS)))
    if draw(st.booleans()):
        needle = draw(st.sampled_from(["", "e", "TT", "dik", "\u00e9", "let", "zz"]))
        pred = Contains(3, _spelling(draw, needle))
    else:
        literal = _spelling(draw, draw(st.sampled_from(_TERMS)))
        pred = Compare(3, draw(st.sampled_from(sorted(COMPARE_OPS))), literal)
    return cell, pred


@st.composite
def _coerced_case(draw):
    """A cell of the coerced column and a predicate on it."""
    cell = draw(st.none() | st.sampled_from(_DATE_TEXTS))
    if draw(st.booleans()):
        pred = Compare(2, draw(st.sampled_from(["=", "!="])),
                       parse_uncertain_date(draw(st.sampled_from(_DATE_TEXTS[:5]))))
    else:
        lo, hi = sorted(draw(st.lists(st.integers(140, 220), min_size=2, max_size=2)))
        pred = DateWithin(2, parse_uncertain_date(f"{lo:04d}"), parse_uncertain_date(f"{hi:04d}"))
    return cell, pred


class TestRawForm:
    """A scan predicate carries the view's transform of a raw cell.  On a
    translated column it answers exactly as the exact predicate does on
    the mediated cell; on a coerced column it answers so for a text that
    coerces, and keeps every text that does not, so it never drops a row
    that the exact predicate keeps."""

    def compiled(self):
        v = parse_view_file(
            "view v\nfrom a.t\ncoerce datierung date\n"
            "translate kategorie using de_en\nend\n"
        )
        table = parse_translation_table(
            "de_en", "source_term,target_term\nQuittung,receipt\nBrief,letter\n\u00c9dikt,edict\n"
        )
        return compile_view(v, [BASE], {"de_en": table})

    @given(case=_translated_case())
    @settings(max_examples=300, deadline=None)
    def test_translated_column_answers_exactly(self, case):
        cell, pred = case
        cv = self.compiled()
        raw = cv.raw_form(pred)
        mediated, _ = cv.apply(0, (1, "Memphis", None, cell))
        assert raw is not None
        assert holds(raw, cell) == holds(pred, mediated[3])

    @given(case=_coerced_case())
    @settings(max_examples=300, deadline=None)
    def test_coerced_column_keeps_every_row_the_exact_predicate_keeps(self, case):
        cell, pred = case
        cv = self.compiled()
        raw = cv.raw_form(pred)
        mediated, warns = cv.apply(0, (1, "Memphis", cell, None))
        assert raw is not None
        date = mediated[2]
        assert bool(warns) == (cell is not None and date is None)
        assert holds(raw, cell) == (cell is not None and (date is None or holds(pred, date)))


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
