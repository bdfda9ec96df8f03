"""Text index tests: tokenization against an independent character-class
oracle, recipe ingestion, deterministic index files, search vs a naive scan,
and virtual collections."""

import errno
import hashlib
import os
import random
import re
import shutil
import struct
import sys
import tempfile
import threading
import tracemalloc
import unicodedata
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdc import colimage, connectors, textindex
from vdc.atomic import write_atomic
from vdc.cli import run as cli_run
from vdc.datacentre import AccessMode, Catalogue
from vdc.errors import (
    CollectionError,
    IndexFormatError,
    IngestError,
    NotFound,
    ParseError,
    SourceError,
)
from vdc.mediation import parse_recipe_file
from vdc.model import ColumnDescriptor, ColumnKind, ItemRef, TableSchema
from vdc.textindex import (
    Batch,
    Document,
    SearchQuery,
    _docs_lines,
    _escape,
    _escape_column,
    _unescape,
    build_index,
    ingest_documents,
    iter_batches,
    read_index,
    search,
    tokenize,
    write_index,
)

from helpers import doc_batches, index_docs, record_fields, register_desk


def oracle_tokenize(text: str) -> list[str]:
    """Independent implementation: per-character category walk."""
    folded = unicodedata.normalize("NFC", text).lower()
    out, cur = [], []
    for ch in folded:
        cat = unicodedata.category(ch)
        if cat.startswith("L") or cat == "Nd":
            cur.append(ch)
        elif cur:
            out.append("".join(cur))
            cur = []
    if cur:
        out.append("".join(cur))
    return out


# Whole words, which tokenize keeps without translating, and the code
# points around them that test the cuts: Latin, Greek with both sigmas,
# dotted capital I (which lowercases to i and a combining dot), and
# Arabic-Indic digits (Nd, so part of a token, but not ASCII); separators
# that str.split() also cuts at (NBSP, NEL, LINE SEPARATOR, EN QUAD, which
# NFC maps to EN SPACE) and ones it does not (a combining acute after a
# space, superscript two and one half, which are No, underscore, backslash).
_WORDS = st.one_of(
    st.text(alphabet="aeiKQzZéÉß", min_size=1, max_size=8),
    st.text(alphabet="ΛΌΓΟΣσςλόγ", min_size=1, max_size=8),
    st.text(alphabet="İIiı", min_size=1, max_size=4),
    st.text(alphabet="0123456789az", min_size=1, max_size=6),
    st.text(alphabet="\u0660\u0663\u0669ab7", min_size=1, max_size=6),
)
_SEPARATOR_RUNS = st.lists(
    st.sampled_from([" ", "\u00a0", "\u0085", "\u2028", "\u2000", " \u0301", "\u00b2",
                     "\u00bd", "_", "\\", "-", "\t"]),
    min_size=1, max_size=3,
).map("".join)

# The split rule an index build relies on: white space cuts a text into the
# same terms before folding as after.  Every code point str.split() cuts at,
# EN QUAD and EM QUAD (which NFC maps to EN SPACE and EM SPACE), combining
# marks (the acute, and the iota subscript, which lowercases to itself),
# the three sigmas, dotted capital I, Hangul jamo that NFC composes into a
# syllable, and superscript two and one half, which are No.
_WHITE_SPACE = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
_SPLIT_RULE_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(
        _WHITE_SPACE + list("\u2000\u2001\u0301\u0345\u03a3\u03c3\u03c2\u0130"
                            "\u1100\u1161\u11a8\u00b2\u00bdaA-")), max_size=40),
)


class TestTokenize:
    def test_split_and_fold(self):
        assert tokenize("Marcus Aurelius") == ["marcus", "aurelius"]

    def test_greek_final_sigma_survives(self):
        # frozen from an independent reading of the simple case mapping:
        # Λ->λ, ό->ό, γ->γ, ο->ο, ς->ς (final sigma is not con-folded to σ)
        assert tokenize("Λόγος") == ["λόγος"]
        assert tokenize("ΛΌΓΟΣ") == ["λόγος"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_and_digits(self):
        assert tokenize("a-b_c 12.5") == ["a", "b", "c", "12", "5"]

    @given(st.text(max_size=80))
    @settings(max_examples=400)
    def test_matches_character_class_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(st.lists(st.one_of(_WORDS, _SEPARATOR_RUNS), max_size=12).map("".join))
    @settings(max_examples=400)
    def test_word_by_word_matches_the_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(_SPLIT_RULE_TEXT)
    @settings(max_examples=2000)
    def test_white_space_splits_before_folding_as_after(self, text):
        assert tokenize(text) == [t for w in text.split() for t in tokenize(w)]


# cells that need no escaping, and cells of the characters that do (or
# that are not printable but stay as they are: NUL, NEL, LINE SEPARATOR)
_PLAIN = st.text(alphabet="ab =-\u039b\u00e9%", max_size=5)
_ESCAPED = st.text(alphabet="a\\\t\r\n\x00\x85\u2028", max_size=5)


class TestEscape:
    @given(st.one_of(st.text(), st.text(alphabet="a\\\t\n\r\x00\x85\xa0\u2028é ")))
    @settings(max_examples=400)
    def test_equals_the_replace_chain_and_round_trips(self, v):
        replaced = v.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
        assert _escape(v) == replaced
        assert _unescape(_escape(v)) == v

    @given(st.lists(st.one_of(st.none(), _PLAIN, _ESCAPED)))
    @settings(max_examples=400)
    def test_column_escape_equals_each_cells(self, col):
        assert list(_escape_column(col)) == [None if v is None else _escape(v) for v in col]

    @given(data=st.data(), allow=st.sampled_from([None, {"title"}]))
    @settings(max_examples=300)
    def test_one_cell_to_escape_changes_its_own_column_only(self, data, allow):
        """A batch whose ``place`` column has one cell to escape: its DOCS
        lines are those of escaping each cell of each row, and every other
        column is taken as it is."""
        n = data.draw(st.integers(1, 6))
        plain = st.lists(_PLAIN, min_size=n, max_size=n)
        keys = data.draw(st.lists(_PLAIN.filter(bool), min_size=n, max_size=n))
        ids, title, body = data.draw(plain), data.draw(plain), data.draw(plain)
        place = data.draw(st.lists(st.one_of(st.none(), _PLAIN), min_size=n, max_size=n))
        place[data.draw(st.integers(0, n - 1))] = data.draw(_ESCAPED.filter(lambda v: _escape(v) != v))
        geo = data.draw(st.lists(st.sampled_from([None, (31.25, -0.5)]), min_size=n, max_size=n))
        batch = Batch(keys, ids, [("title", title), ("place", place)], body, geo)
        for col in (keys, ids, title):
            assert _escape_column(col) is col
        want = []
        for key, doc_id, t, p, g in zip(keys, ids, title, place, geo):
            stored = "".join(f"\t{f}={_escape(v) if allow is None or f in allow else '-'}"
                             for f, v in (("title", t), ("place", p)) if v is not None)
            coords = f"{g[0]!r}\t{g[1]!r}" if g else "-\t-"
            want.append(f"s/t/{key}\t{doc_id}\t{coords}{stored}\n".encode("utf-8"))
        assert _docs_lines(batch, "s/t/", allow) == want


RECIPE = """recipe demo
from src.t
id id
field title = title
field place = findspot
body title
body note
geo lat lon
index body
index title
end
"""


class TestRecipeGrammar:
    def test_parses(self):
        r = parse_recipe_file(RECIPE)
        assert r.name == "demo"
        assert r.source.text() == "src.t"
        assert r.id_column == "id"
        assert r.field_map == (("title", "title"), ("place", "findspot"))
        assert r.body_columns == ("title", "note")
        assert r.geo == ("lat", "lon")
        assert r.indexed == ("body", "title")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("recipe r\nfrom a.t\nid id\nend\n", "body"),
            ("recipe r\nid id\nbody b\nend\n", "'from'"),
            ("recipe r\nfrom a.t\nbody b\nend\n", "'from' and 'id'"),
            ("recipe r\nfrom a.t\nid id\nbody b\nindex nope\nend\n", "not declared"),
            ("recipe r\nfrom a.t\nid id\nbody b\n", "missing 'end'"),
            ("recipe r\nfrom a.t\nid id\nbody b\nwhat x\nend\n", "unknown recipe keyword"),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(ParseError) as e:
            parse_recipe_file(text)
        assert fragment in str(e.value)


def write_tabular(d, rows, header="id,title,findspot,note,lat,lon"):
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "t.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for r in rows:
            f.write(r + "\n")
    with open(os.path.join(d, "t.schema"), "w", encoding="utf-8") as f:
        f.write("id : int\ntitle : text\nfindspot : text\nnote : text\nlat : text\nlon : text\n")


@pytest.fixture()
def demo_source(tmp_path):
    d = tmp_path / "src"
    write_tabular(
        d,
        [
            "1,Alpha stone,Memphis,alpha beta alpha,31.2,29.9",
            "2,Beta papyrus,Thebes,beta gamma,91.0,20.0",
            "3,Gamma list,Memphis,delta,,",
        ],
    )
    cat = Catalogue(str(tmp_path / "c.vdc"))
    cat.register_source("src", "tabular", str(d), AccessMode.LIVE)
    return cat


class TestIngest:
    def test_one_document_per_row(self, demo_source):
        cat = demo_source
        recipe = parse_recipe_file(RECIPE)
        docs, warnings = cat.ingest(recipe)
        assert [d.doc_id for d in docs] == ["1", "2", "3"]
        assert docs[0].ref.text() == "src/t/1"
        assert docs[0].body == "Alpha stone alpha beta alpha"
        assert docs[0].fields == {"title": "Alpha stone", "place": "Memphis"}
        assert docs[0].geo == (31.2, 29.9)

    def test_out_of_range_geo_warns_and_drops(self, demo_source):
        docs, warnings = demo_source.ingest(parse_recipe_file(RECIPE))
        assert docs[1].geo is None
        assert any("src/t/2" in w for w in warnings)
        assert docs[2].geo is None  # absent coordinates: no warning
        assert not any("src/t/3" in w for w in warnings)

    def test_missing_id_column(self, demo_source):
        recipe = parse_recipe_file(RECIPE.replace("id id", "id missing"))
        with pytest.raises(IngestError):
            demo_source.ingest(recipe)

    def test_duplicate_doc_ids(self, tmp_path):
        d = tmp_path / "src"
        write_tabular(d, ["1,A,M,x,,", "1,B,T,y,,"])
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("src", "tabular", str(d), AccessMode.LIVE)
        with pytest.raises(IngestError) as e:
            cat.ingest(parse_recipe_file(RECIPE))
        assert "src/t/1" in str(e.value)

    def test_empty_item_key_is_ingest_error(self, tmp_path):
        """The item key is the first cell; an empty one cannot make a ref
        even when the recipe's id column is another column."""
        d = tmp_path / "src"
        write_tabular(d, ["1,A,M,x,,", ",B,T,y,,"])
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("src", "tabular", str(d), AccessMode.LIVE)
        with pytest.raises(IngestError) as e:
            cat.ingest(parse_recipe_file(RECIPE.replace("id id", "id title")))
        assert "recipe 'demo'" in str(e.value)
        assert "row 2 of src.t" in str(e.value)

    def test_a_rebuilt_index_is_read_anew(self, demo_source, tmp_path):
        """A catalogue that read an index before rebuilding it answers from
        the new file."""
        cat = demo_source
        cat.build_index("texts", parse_recipe_file(RECIPE))
        assert [e.doc_id for e in index_docs(cat.get_index("texts"))] == ["1", "2", "3"]
        write_tabular(tmp_path / "src", ["4,Delta stone,Memphis,epsilon,,"])
        cat.build_index("texts", parse_recipe_file(RECIPE))
        assert [e.doc_id for e in index_docs(cat.get_index("texts"))] == ["4"]


def doc(doc_id, body, title="", geo=None, **fields):
    f = dict(fields)
    if title:
        f["title"] = title
    return Document(doc_id, ItemRef("s", "t", doc_id), f, body, geo)


def mini_recipe(indexed=("body",)):
    text = "recipe r\nfrom s.t\nid id\nfield title = title\nfield place = place\nbody b\n"
    for f in indexed:
        text += f"index {f}\n"
    return parse_recipe_file(text + "end\n")


def build(recipe, docs, whitelist=None, size=None):
    """The index of documents, turned into batches of ``size``, published
    to a temporary directory and read back."""
    return read_back(build_index(doc_batches(docs, recipe, size), recipe, whitelist))


def read_back(state):
    """A build published with ``write_index`` to a temporary directory and
    read back with ``read_index``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "b.idx")
        write_index(state, path)
        return read_index(path)


def publish(recipe, docs, path, whitelist=None, size=None):
    """The index of documents, turned into batches of ``size``, written to
    ``path`` as an index build publishes it."""
    write_index(build_index(doc_batches(docs, recipe, size), recipe, whitelist), path)


class TestBuildIndex:
    def test_postings_count_occurrences(self):
        idx = build(mini_recipe(), [doc("d1", "a b a")])
        assert idx.postings("body", "a") == {0: 2}
        assert idx.postings("body", "b") == {0: 1}
        assert idx.postings("body", "c") == {}

    def test_ordinals_follow_doc_id_not_input_order(self, tmp_path):
        docs = [doc("b", "x"), doc("a", "y")]
        idx = build(mini_recipe(), docs)
        assert [e.doc_id for e in index_docs(idx)] == ["a", "b"]

    def test_permuted_input_gives_identical_bytes(self, tmp_path):
        docs = [doc(f"d{i}", f"w{i} common") for i in range(20)]
        rng = random.Random(5)
        shuffled = docs[:]
        rng.shuffle(shuffled)
        p1, p2 = str(tmp_path / "a.idx"), str(tmp_path / "b.idx")
        publish(mini_recipe(), docs, p1)
        publish(mini_recipe(), shuffled, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_index_round_trips(self, tmp_path):
        p = str(tmp_path / "e.idx")
        publish(mini_recipe(), [], p)
        idx = read_index(p)
        assert idx.n_docs == 0
        assert idx.indexed_fields() == ["body"] and idx.terms("body") == {}
        assert search(idx, SearchQuery(("a",))) == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(IngestError):
            build(mini_recipe(), [doc("d", "x"), doc("d", "y")])

    def test_completeness_tf_sums_equal_token_counts(self):
        rng = random.Random(9)
        words = ["alpha", "beta", "Λόγος", "gamma", "δῆμος"]
        docs = [
            doc(f"d{i}", " ".join(rng.choice(words) for _ in range(rng.randint(0, 30))))
            for i in range(40)
        ]
        idx = build(mini_recipe(), docs)
        total_tf = sum(
            tf for term in idx.terms("body") for tf in idx.postings("body", term).values()
        )
        assert total_tf == sum(len(tokenize(d.body)) for d in docs)


# cells of generated documents: every character the DOCS lines escape, the
# "=" and "-" their stored fields use, letters and a space
_CELL = st.text(alphabet=list("ab\u039b =-\\\t\n\r"), max_size=6)


@st.composite
def documents(draw):
    """Documents with distinct ids whose title and place are absent, empty
    or set, some with an empty body (title-only), some with a location."""
    ids = draw(st.lists(st.text(alphabet=list("ab1\\\t\n\r"), min_size=1, max_size=4),
                        unique=True, max_size=12))
    docs = []
    for n, doc_id in enumerate(ids):
        fields = {}
        for name in ("title", "place"):
            value = draw(st.one_of(st.none(), _CELL))
            if value is not None:
                fields[name] = value
        geo = draw(st.one_of(st.none(), st.tuples(st.sampled_from([-12.5, 0.0, 31.25]),
                                                  st.sampled_from([-0.5, 29.0]))))
        docs.append(Document(doc_id, ItemRef("s", "t", f"k{n}\\/x"), fields, draw(_CELL), geo))
    return docs


# field texts for the content test: words shared across documents, case
# variants that fold to one term, words that split into several terms (one
# into the same term twice), and runs of white space between them
_FIELD_TEXT = st.lists(
    st.sampled_from(["\u039b\u03cc\u03b3\u03bf\u03c2", "\u03bb\u03cc\u03b3\u03bf\u03c2",
                     "a-b", "x.y", "a-a", "a", "B", "b", "\u0130", "-", " ", "\t", "\u2000"]),
    max_size=10,
).map("".join)


@st.composite
def field_documents(draw):
    """Documents with distinct ids, in a drawn order, whose body, title and
    (stored, not indexed) place are absent, empty or drawn texts."""
    ids = draw(st.lists(st.sampled_from(["d0", "d1", "d2", "d3", "d4", "d5"]), unique=True,
                        max_size=6))
    docs = []
    for doc_id in ids:
        fields = {}
        for name in ("title", "place"):
            value = draw(st.one_of(st.none(), _FIELD_TEXT))
            if value is not None:
                fields[name] = value
        docs.append(Document(doc_id, ItemRef("s", "t", doc_id), fields, draw(_FIELD_TEXT), None))
    return docs


# field texts for the round-trip property: words repeated within a field,
# NFD (its combining acute composes under NFC), final sigma, dotted capital
# I, punctuation-joined words, and white space alone
_RUN_TEXTS = ["Λόγος λόγος ΛΌΓΟΣ", "Λο\u0301γος", "İstanbul İ", "a-b.c a,b",
              "x x x x", "x", "papyrus Papyrus-x", " \t "]


@st.composite
def run_documents(draw):
    """1 to 300 documents, by doc id, each body holding ``every`` and
    drawn texts, each title absent, empty or drawn; the last document's
    body alone holds ``only``."""
    n = draw(st.integers(1, 300))
    rnd = draw(st.randoms(use_true_random=False))
    docs = []
    for i in range(n):
        body = " ".join(["every"] + rnd.choices(_RUN_TEXTS, k=rnd.randrange(4)))
        title = rnd.choice([None, "", *_RUN_TEXTS])
        fields = {} if title is None else {"title": title}
        docs.append(Document(f"d{i:03d}", ItemRef("s", "t", f"d{i:03d}"), fields,
                             body + (" only" if i == n - 1 else ""), None))
    return docs, rnd


class TestBuildContent:
    """A build's terms and postings are those of counting each document's
    tokens on its own, and its DOCS lines give back every document."""

    @given(docs=field_documents(), whitelist=st.sampled_from([None, ("title",)]))
    @settings(max_examples=300, deadline=None)
    def test_terms_postings_and_docs_equal_per_document_counts(self, docs, whitelist):
        idx = build(mini_recipe(("body", "title")), (d for d in docs), whitelist)
        ordered = sorted(docs, key=lambda d: d.doc_id)
        for field in ("body", "title"):
            counts = [Counter(tokenize(d.body if field == "body" else d.fields.get(field, "")))
                      for d in ordered]
            vocabulary = sorted(set().union(*counts))
            assert list(idx.terms(field)) == vocabulary
            for term in vocabulary:
                postings = idx.postings(field, term)
                assert postings == {o: c[term] for o, c in enumerate(counts) if term in c}
                assert list(postings) == sorted(postings)
        assert [record_fields(e) for e in index_docs(idx)] == [
            {"doc_id": d.doc_id, "ref": d.ref.text(), "geo": None,
             "stored": {f: v if whitelist is None or f in whitelist else "-"
                        for f, v in d.fields.items()}}
            for d in ordered
        ]

    @given(drawn=run_documents())
    @settings(max_examples=25, deadline=None)
    def test_runs_read_back_as_each_documents_counts(self, tmp_path_factory, drawn):
        """The postings each run of a written file decodes to are the
        ``Counter`` of ``tokenize`` over each document's field, and two
        input orders write the same bytes."""
        docs, rnd = drawn
        recipe = mini_recipe(("body", "title"))
        p = str(tmp_path_factory.mktemp("runs") / "r.idx")
        publish(recipe, docs, p)
        idx = read_index(p)
        for field in ("body", "title"):
            counts = [Counter(tokenize(d.body if field == "body" else d.fields.get(field) or ""))
                      for d in docs]
            vocabulary = set().union(*counts)
            assert list(idx.terms(field)) == sorted(vocabulary)
            for term in vocabulary:
                assert idx.postings(field, term) == {
                    o: c[term] for o, c in enumerate(counts) if term in c}
        assert idx.postings("body", "every") == {o: 1 for o in range(len(docs))}
        assert idx.postings("body", "only") == {len(docs) - 1: 1}
        shuffled = docs[:]
        rnd.shuffle(shuffled)
        assert build(recipe, shuffled).data == open(p, "rb").read()


class RowsHandle:
    """A source handle over rows held in memory: the calls
    ``ingest_documents`` makes of a connector."""

    def __init__(self, names, rows):
        self.table = TableSchema("t", tuple(ColumnDescriptor(n, ColumnKind.TEXT) for n in names))
        self.rows = rows

    def schema(self, table):
        return self.table

    def scan(self, table, columns=None):
        return iter(self.rows)


class TestStreamedBuild:
    """A build reads its input once, in any order, and writes the bytes a
    doc_id-sorted list gives."""

    @given(docs=documents(), rnd=st.randoms(use_true_random=False),
           whitelist=st.sampled_from([None, ("title",)]), size=st.sampled_from([1, 2, 3, None]))
    @settings(max_examples=150, deadline=None)
    def test_generator_in_any_order_gives_the_sorted_lists_bytes(self, docs, rnd, whitelist,
                                                                 size):
        recipe = mini_recipe(("body", "title"))
        want = build(recipe, sorted(docs, key=lambda d: d.doc_id), whitelist).data
        rnd.shuffle(docs)
        assert build(recipe, (d for d in docs), whitelist, size).data == want

    @given(ids=st.lists(st.sampled_from(["a", "b", "c", "a\\t", "\u00e9"]), min_size=2, max_size=10)
           .filter(lambda ids: len(set(ids)) < len(ids)), size=st.sampled_from([1, 2, 3, None]))
    @settings(max_examples=100, deadline=None)
    def test_duplicate_ids_raise_the_same_text(self, ids, size):
        """Whatever the input order and batch size, a build over documents,
        a build over a scan's batches and an ingest raise one text: the
        smallest repeated id and the refs of its first two rows, in input
        order."""
        keys = [f"k\\{n}" for n in range(len(ids))]  # escaped in the DOCS lines
        smallest = min(i for i in ids if ids.count(i) > 1)
        first = ids.index(smallest)
        want = (f"duplicate doc id {smallest!r}: "
                f"s/t/{keys[first]} and s/t/{keys[ids.index(smallest, first + 1)]}")
        docs = [Document(i, ItemRef("s", "t", k), {}, "x", None) for k, i in zip(keys, ids)]
        handle = RowsHandle(("key", "id", "b"), [(k, i, "x") for k, i in zip(keys, ids)])
        recipe = parse_recipe_file("recipe r\nfrom s.t\nid id\nbody b\nindex body\nend\n")
        runs = (lambda: build_index(doc_batches(docs, recipe, size), recipe),
                lambda: build_index(iter_batches(handle, recipe, []), recipe),
                lambda: ingest_documents(handle, recipe))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textindex, "BATCH_ROWS", size or textindex.BATCH_ROWS)
            for run in runs:
                with pytest.raises(IngestError) as e:
                    run()
                assert str(e.value) == want


# the columns of the rows a batch test scans, and the recipes that read them:
# with the id in its own column, or the item key as the id
_ROW_NAMES = ("key", "id", "title", "b", "lat", "lon")
_ROW_RECIPE = ("recipe r\nfrom s.t\nid {}\nfield title = title\nbody b\ngeo lat lon\n"
               "index body\nindex title\nend\n")


@st.composite
def scanned_rows(draw):
    """Rows of ``_ROW_NAMES`` as a scan yields them, some with unusable
    coordinates, and up to two faults: a null id, a key that is empty or
    holds a comma or a tab, or an id that repeats one at or before it."""
    rows = []
    for n in range(draw(st.integers(0, 12))):
        key = draw(st.sampled_from([f"k{n}", f"k{n}\\/x"]))
        coords = draw(st.sampled_from([(None, None), ("31.5", "-0.5"), ("91", "0"), ("x", None)]))
        rows.append([key, f"d{n}", draw(st.one_of(st.none(), _CELL)), draw(_CELL), *coords])
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        n = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["null id", "empty key", "comma", "tab", "repeat"]))
        if fault == "null id":
            rows[n][1] = None
        elif fault == "repeat":
            rows[n][1] = rows[draw(st.integers(0, n))][1]
        else:
            rows[n][0] = {"empty key": "", "comma": f"k{n},", "tab": f"k\t{n}"}[fault]
    return [tuple(r) for r in rows]


def batch_outcome(rows, recipe, size):
    """With batches of ``size`` rows: the index bytes and warnings of a
    build of ``rows`` and what an ingest of them gives, or the text of the
    IngestError either raises."""
    handle = RowsHandle(_ROW_NAMES, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textindex, "BATCH_ROWS", size)
        try:
            warnings = []
            data = read_back(build_index(iter_batches(handle, recipe, warnings), recipe)).data
            docs, ingest_warnings = ingest_documents(handle, recipe)
        except IngestError as e:
            return str(e)
    return data, warnings, ingest_warnings, [
        (d.doc_id, d.ref.text(), d.fields, d.body, d.geo) for d in docs
    ]


class TestBatchCuts:
    """Where the scan is cut into batches changes nothing: not the bytes,
    not the warnings, not the fault or the row it is raised at."""

    @given(rows=scanned_rows(), id_column=st.sampled_from(["id", "key"]))
    @settings(max_examples=300, deadline=None)
    def test_every_batch_size_gives_the_same_outcome(self, rows, id_column):
        recipe = parse_recipe_file(_ROW_RECIPE.format(id_column))
        want = batch_outcome(rows, recipe, textindex.BATCH_ROWS)
        for size in (1, 2, 3):
            assert batch_outcome(rows, recipe, size) == want

    @pytest.mark.parametrize("size", [1, 2, 3, textindex.BATCH_ROWS])
    @pytest.mark.parametrize("row,scan_fails,error,fault", [
        (("k3", None), True, IngestError, "recipe 'r': null id in column 'id'"),
        (("", "d3"), True, IngestError,
         "recipe 'r': row 4 of s.t (id 'd3'): empty item_id in item ref"),
        (("k3,", "d3"), True, IngestError,
         "recipe 'r': row 4 of s.t (id 'd3'): item_id contains a forbidden character: 'k3,'"),
        (("k\t3", "d3"), True, IngestError,
         "recipe 'r': row 4 of s.t (id 'd3'): item_id contains a forbidden character: 'k\\t3'"),
        # a repeat is found once the scan has ended: the scan's fault first
        (("k3", "d2"), True, SourceError, "the table changed during the scan"),
        (("k3", "d0"), True, SourceError, "the table changed during the scan"),
        (("k3", "d2"), False, IngestError, "duplicate doc id 'd2': s/t/k2 and s/t/k3"),
        (("k3", "d0"), False, IngestError, "duplicate doc id 'd0': s/t/k0 and s/t/k3"),
        (("k3", "d3"), False, IngestError, "duplicate doc id 'd4': s/t/k4 and s/t/k5"),
    ])
    def test_a_fault_in_row_4_raises_its_text(self, size, row, scan_fails, error, fault):
        """Row 4 holds the fault (its key and id); row 6 repeats an id
        too, and the scan fails after row 7 where ``scan_fails``.  A null
        id or an unusable key raises at its row, before the scan's fault;
        a repeat raises once the scan has ended without one, naming the
        smallest repeated id, whichever batch its rows fall in."""
        rows = [(f"k{n}", f"d{n}", "t", "b", None, None) for n in range(7)]
        rows[3] = (*row, "t", "b", None, None)
        rows[5] = ("k5", "d4", "t", "b", None, None)

        class FailingHandle(RowsHandle):
            def scan(self, table, columns=None):
                yield from self.rows
                if scan_fails:
                    raise SourceError("the table changed during the scan")

        handle = FailingHandle(_ROW_NAMES, rows)
        recipe = parse_recipe_file(_ROW_RECIPE.format("id"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textindex, "BATCH_ROWS", size)
            for run in (lambda: build_index(iter_batches(handle, recipe, []), recipe),
                        lambda: ingest_documents(handle, recipe)):
                with pytest.raises(error) as e:
                    run()
                assert str(e.value) == fault


# SHA-256 of the seed-42 desk indexes built as the benchmark's set-up builds
# them (see perfbench/run.py): pinned so that a change to the build code
# cannot change a byte unnoticed
DESK_INDEX_SHA256 = {
    "hgv_texts": "90d0b36caad2ea54dff73585220b60f97acab05a059108a32d7e2afdb3c67c78",
    "vol_texts": "2859195fa426ec48a09c710baefff0ba1e248551f93c7ce85fd15fe87c9c8f82",
    "iaph_texts": "734290920be8f5a9b4c9461cfe931c3f65e003638dde36d61b674e5fe1d0aac0",
    "sealed_texts": "6a0bebec697379e9470df7a8a1a91e9da44b22b1206def7fa7cae0b8e0e4eb53",
}


def test_desk_index_bytes_are_pinned(tmp_path, desk_fixtures):
    """hgv from a vault, volterra and iaph live, and the iaph corpus again
    as an index-only source, whose index masks every stored field but the
    title."""
    fx, _ = desk_fixtures
    cat = Catalogue(str(tmp_path / "c.vdc"))
    cat.register_source("hgv", "tabular", os.path.join(fx, "hgv"), AccessMode.VAULT)
    cat.register_source("volterra", "tabular", os.path.join(fx, "volterra"), AccessMode.LIVE)
    cat.register_source("iaph", "xml_corpus", os.path.join(fx, "iaph"), AccessMode.LIVE)
    cat.register_source("iaph_sealed", "xml_corpus", os.path.join(fx, "iaph"),
                        AccessMode.INDEX_ONLY)
    recipes = os.path.join(fx, "recipes")
    sealed = (open(os.path.join(recipes, "iaph.recipe"), encoding="utf-8").read()
              .replace("recipe iaph_ingest", "recipe sealed_ingest", 1)
              .replace("from iaph.docs", "from iaph_sealed.docs", 1))
    (tmp_path / "sealed.recipe").write_text(sealed, encoding="utf-8")
    digests = {}
    for collection, recipe in (("hgv_texts", os.path.join(recipes, "hgv.recipe")),
                               ("vol_texts", os.path.join(recipes, "volterra.recipe")),
                               ("iaph_texts", os.path.join(recipes, "iaph.recipe")),
                               ("sealed_texts", str(tmp_path / "sealed.recipe"))):
        path, _ = cat.build_index(collection, cat.read_recipe(recipe))
        with open(path, "rb") as f:
            digests[collection] = hashlib.sha256(f.read()).hexdigest()
    assert digests == DESK_INDEX_SHA256


@pytest.mark.skipif(sys.byteorder != "little", reason="pretends a big-endian platform")
def test_a_big_endian_platform_reads_back_what_it_wrote(tmp_path, desk_fixtures, monkeypatch):
    """Where the platform is big-endian (pretended here, on a little-endian
    one, so that each array is byte-swapped as it is written and again as
    it is read), a column image and an index give back the rows, keys and
    postings that they give without the swaps, from files of the same
    size whose arrays the pretence swapped."""
    fx, _ = desk_fixtures

    def centre(name):
        cat = Catalogue(str(tmp_path / name / "c.vdc"))
        cat.register_source("hgv", "tabular", os.path.join(fx, "hgv"), AccessMode.VAULT)
        path, _ = cat.build_index(
            "hgv_texts", cat.read_recipe(os.path.join(fx, "recipes", "hgv.recipe")))
        idx = read_index(path)
        handle = cat.open_handle("hgv")
        assert handle.image is not None
        with open(handle.image.path, "rb") as f:
            files = [f.read(), idx.data]
        return files, list(handle.scan("papyri")), handle.lookup("papyri", ["1", "7", "x"]), {
            f: {t: idx.postings(f, t) for t in idx.terms(f)} for f in idx.indexed_fields()}

    little = centre("little")
    with monkeypatch.context() as mp:
        mp.setattr(sys, "byteorder", "big")
        big = centre("big")
    assert big[1:] == little[1:]
    assert [len(f) for f in big[0]] == [len(f) for f in little[0]]
    assert all(b != f for b, f in zip(big[0], little[0]))


# The tracemalloc peak of an index build over the size of the image it
# writes, for a 5,000-row table.  A build that holds every document first
# reads about 8.5; one that keeps only the DOCS lines and postings reads
# about 4.5.  The ratio is the same at 20,000 rows, where tracing makes the
# build several seconds slower.
BUILD_PEAK_RATIO = 6.0


def test_build_holds_no_document_list(tmp_path):
    rng = random.Random(17)
    words = ["alpha", "beta", "Λόγος", "gamma", "δῆμος", "stone", "quittung", "zeta"]
    rows = [
        f"{i},Papyrus {i} {rng.choice(words)},{rng.choice(['Memphis', 'Thebes'])},"
        f"{' '.join(rng.choice(words) for _ in range(rng.randint(4, 12)))},"
        f"{rng.uniform(20, 35):.2f},{rng.uniform(25, 35):.2f}"
        for i in range(1, 5001)
    ]
    write_tabular(tmp_path / "src", rows)
    cat = Catalogue(str(tmp_path / "c.vdc"))
    cat.register_source("src", "tabular", str(tmp_path / "src"), AccessMode.LIVE)
    tracemalloc.start()
    try:
        path, _ = cat.build_index("texts", parse_recipe_file(RECIPE))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / os.path.getsize(path) < BUILD_PEAK_RATIO


class TestIndexFormat:
    def make(self, tmp_path):
        docs = [
            doc("d1", "alpha beta", title="T=1;x", geo=(31.5, 29.25)),
            doc("d2", "beta\tgamma", title="two\nlines"),
        ]
        idx = build(mini_recipe(("body", "title")), docs)
        p = str(tmp_path / "t.idx")
        publish(mini_recipe(("body", "title")), docs, p)
        return idx, p

    def test_round_trip_structural_equality(self, tmp_path):
        idx, p = self.make(tmp_path)
        back = read_index(p)
        expected_docs = [
            {"doc_id": "d1", "ref": "s/t/d1", "geo": (31.5, 29.25),
             "stored": {"title": "T=1;x"}},
            {"doc_id": "d2", "ref": "s/t/d2", "geo": None,
             "stored": {"title": "two\nlines"}},
        ]
        expected_postings = {
            "body": {"alpha": [(0, 1)], "beta": [(0, 1), (1, 1)], "gamma": [(1, 1)]},
            "title": {"1": [(0, 1)], "lines": [(1, 1)], "t": [(0, 1)], "two": [(1, 1)],
                      "x": [(0, 1)]},
        }  # (ordinal, tf) in ordinal order
        for index in (idx, back):
            assert index.relation == "s.t"
            assert [record_fields(e) for e in index_docs(index)] == expected_docs
            assert record_fields(index.find_ref("s/t/d2")) == expected_docs[1]
            assert index.find_ref("s/t/d") is None
            postings = {
                f: {t: list(index.postings(f, t).items()) for t in index.terms(f)}
                for f in index.indexed_fields()
            }
            assert postings == expected_postings

    def test_rewrite_is_byte_identical(self, tmp_path):
        idx, p = self.make(tmp_path)
        p2 = str(tmp_path / "t2.idx")
        write_atomic(p2, read_index(p).data)
        assert open(p, "rb").read() == open(p2, "rb").read()

    def test_failed_write_keeps_previous_index(self, tmp_path, monkeypatch):
        """A write that fails partway leaves the published bytes as they
        were and no temp file behind."""
        _, p = self.make(tmp_path)
        before = open(p, "rb").read()
        real_fdopen = os.fdopen

        class HalfWriter:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda *a, **kw: HalfWriter(real_fdopen(*a, **kw)))
        with pytest.raises(OSError):
            publish(mini_recipe(), [doc("d3", "other words")], p)
        monkeypatch.undo()
        assert open(p, "rb").read() == before
        assert os.listdir(tmp_path) == ["t.idx"]

    def test_truncated_file_rejected(self, tmp_path):
        _, p = self.make(tmp_path)
        data = open(p, "rb").read()
        with open(p, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(IndexFormatError):
            read_index(p)

    def test_version_mismatch(self, tmp_path):
        p = str(tmp_path / "v.idx")
        with open(p, "w") as f:
            f.write("VDCIDX 9\nDOCS\n")
        with pytest.raises(IndexFormatError):
            read_index(p)

    @pytest.mark.parametrize("version,text", [
        (1, "VDCIDX 1\nDOCS\n0\td\ts/t/d\t-\t-\t\nFIELD body\nx\t0:1\n"),
        # the image the v2 encoder wrote of one document "x", checksum and all
        (2, "VDCIDX 2 s.t\nDOCS 1\ns/t/d\td\t-\t-\nPOSTINGS body\n0:1\nTERMS body 1\n"
            "x\t46\t3\nDOCOFFSETS 2\n20\nTOC 13 32 50 70\nEND 1 1 ef079d68\n"),
    ])
    def test_a_retired_format_names_the_rebuild(self, tmp_path, version, text):
        p = str(tmp_path / f"v{version}.idx")
        with open(p, "w") as f:
            f.write(text)
        with pytest.raises(IndexFormatError, match=(
                f"^index has format v{version}, which is no longer read: "
                "rebuild it with `vdc index build`$")):
            read_index(p)

    def test_unsorted_terms_rejected(self, tmp_path):
        """A checksum-valid file whose dictionary lists zeta before beta:
        the search that decodes the dictionary rejects it."""
        p = str(tmp_path / "u.idx")
        publish(mini_recipe(), [doc("d", "beta zeta")], p)
        data = open(p, "rb").read()
        swapped = (data.replace(b"\nbeta\t", b"\n____\t").replace(b"\nzeta\t", b"\nbeta\t")
                   .replace(b"\n____\t", b"\nzeta\t"))
        assert swapped.index(b"\nzeta\t") < swapped.index(b"\nbeta\t")
        with open(p, "wb") as f:
            f.write(resign(swapped))
        idx = read_index(p)  # opening checks the footer and section table only
        with pytest.raises(IndexFormatError) as e:
            search(idx, SearchQuery(("zeta",)))
        assert "out of order" in str(e.value)

    def test_bad_ordinals_rejected(self, tmp_path):
        """A checksum-valid file whose postings run descends, from 1 to 0."""
        p = str(tmp_path / "o.idx")
        publish(mini_recipe(), [doc("d", "a"), doc("e", "a")], p)
        data = open(p, "rb").read()
        run = b"\nPOSTINGS body\n" + struct.pack("<2I", 0, 1) + b"\n"
        assert data.count(run) == 1
        with open(p, "wb") as f:
            f.write(resign(data.replace(run, run.replace(b"\0\0\0\0\1", b"\1\0\0\0\0"))))
        idx = read_index(p)
        with pytest.raises(IndexFormatError) as e:
            search(idx, SearchQuery(("a",)))
        assert "out of order" in str(e.value)

    @pytest.mark.parametrize("section", [b"END ", b"TOC "])
    def test_a_number_of_more_than_19_digits(self, tmp_path, section):
        """A footer or section table number of more than 19 digits, leading
        zeros among them, is a format error, not a ValueError; one of 19
        digits reads as its value."""
        data = build(mini_recipe(), [doc("d", "a")]).data
        at = data.rindex(b"\n" + section) + 1 + len(section)
        width = len(re.match(rb"[0-9]+", data[at:]).group())
        p = str(tmp_path / "n.idx")
        for digits in (19, 20, 5000):
            with open(p, "wb") as f:
                f.write(resign(data[:at] + b"0" * (digits - width) + data[at:]))
            if digits == 19:
                assert search(read_index(p), SearchQuery(("a",)))
                continue
            with pytest.raises(IndexFormatError, match=rf"^number of {digits} digits in index$"):
                read_index(p)

    @pytest.mark.parametrize(
        "line,hits_fault",
        [(b"s/t/e\te\t- -\n", None), (b"s/t/e\te - -\n", "bad DOCS line")],
    )
    def test_short_docs_line_rejected_where_read(self, tmp_path, line, hits_fault):
        """A checksum-valid DOCS line with three cells serves a hit but not
        its document or location; with two cells it serves neither."""
        data = build(mini_recipe(), [doc("d", "a"), doc("e", "a")]).data
        assert data.count(b"\ns/t/e\te\t-\t-\n") == 1
        p = str(tmp_path / "s.idx")
        with open(p, "wb") as f:
            f.write(resign(data.replace(b"s/t/e\te\t-\t-\n", line)))
        idx = read_index(p)
        assert idx.hits([0]) == [("d", "s/t/d")]
        if hits_fault is None:
            assert idx.hits([1]) == [("e", "s/t/e")]
        else:
            with pytest.raises(IndexFormatError, match=f"^{hits_fault}$"):
                idx.hits([1])
        with pytest.raises(IndexFormatError, match="^bad DOCS line for document 1$"):
            idx.doc(1)
        with pytest.raises(IndexFormatError, match="^bad DOCS line$"):
            idx.geos([0, 1])


# documents whose cells escape, whose words are seen once, twice and many
# times, some with a location, for the tests of the encoder's block sizes
_BLOCK_DOCS = [
    Document(f"d{i:03d}", ItemRef("s", "t", f"d{i:03d}"),
             {"title": f"T {i}\tx\n=" if i % 5 == 0 else f"title {i % 4}",
              "place": "back\\slash" if i % 7 == 0 else "p"},
             f"many{' twice' if i in (3, 40) else ''} once{i} "
             + ("Λόγος λόγος" if i % 3 else "a\\b"),
             (31.25, -0.5) if i % 2 else None)
    for i in range(300)
]


# the encoder's block and cell counts as the module sets them
_DEFAULT_SIZES = {"_BLOCK": textindex._BLOCK, "_RUN_CELLS": textindex._RUN_CELLS}


def two_files(recipe, docs, path, whitelist=None, size=None) -> tuple[bytes, bytes]:
    """The bytes of a build of ``docs`` written to ``path`` with the
    encoder's block and cell counts as they are set, and those of another
    build of the same documents written with the counts the module sets."""
    publish(recipe, docs, path, whitelist, size)
    with open(path, "rb") as f:
        written = f.read()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _DEFAULT_SIZES.items():
            mp.setattr(textindex, name, value)
        return written, build(recipe, docs, whitelist, size).data


class TestBlockSizes:
    """The encoder writes the published file a block at a time: files
    written with different block and cell counts are equal byte for byte,
    and each reads back whole however the blocks and cells fall."""

    @pytest.mark.parametrize("block,cells", [(1, 1), (100, 7), (100, 100),
                                             (textindex._BLOCK, textindex._RUN_CELLS)])
    @pytest.mark.parametrize("whitelist", [None, ("title",)])
    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_every_block_size_writes_the_same_file(self, tmp_path, monkeypatch, block, cells,
                                                   whitelist, size):
        """A run is passed on whole: with blocks smaller than the
        1,200-byte run of ``many``, the run straddles the point where its
        block is due to be passed on, and the block holds all of it."""
        monkeypatch.setattr(textindex, "_BLOCK", block)
        monkeypatch.setattr(textindex, "_RUN_CELLS", cells)
        recipe = mini_recipe(("body", "title"))
        shuffled = _BLOCK_DOCS[:]
        random.Random(size).shuffle(shuffled)
        p = str(tmp_path / "s.idx")
        written, default = two_files(recipe, shuffled, p, whitelist, size)
        assert written == default
        assert two_files(recipe, _BLOCK_DOCS, p, whitelist) == (written, written)
        spills = [0]  # where each block passed on ends in the file
        real_spill = textindex._Blocks.spill
        monkeypatch.setattr(textindex._Blocks, "spill", lambda out: (
            real_spill(out), spills.append(out.passed)))
        publish(recipe, shuffled, p, whitelist, size)
        start, length = map(int, textindex.InvertedIndex(written).term_span("body", "many"))
        assert length == 1200
        first = max(at for at in spills if at <= start)  # of the block that holds the run
        assert spills[spills.index(first) + 1] >= start + length
        assert (start < first + block < start + length) == (block < length)
        idx = read_index(p)
        assert idx.verify().startswith("300 documents, ")
        assert idx.postings("body", "many") == {o: 1 for o in range(300)}
        assert idx.postings("body", "twice") == {3: 1, 40: 1}
        assert idx.postings("body", "once7") == {7: 1}
        assert idx.postings("body", "λόγος") == {o: 2 for o in range(300) if o % 3}
        assert idx.doc(5).stored == {"title": "T 5\tx\n=", "place": "-" if whitelist else "p"}
        assert idx.doc(0).stored["place"] == ("-" if whitelist else "back\\slash")

    @given(docs=documents(), rnd=st.randoms(use_true_random=False),
           whitelist=st.sampled_from([None, ("title",)]), size=st.sampled_from([1, 2, 3, None]),
           block=st.sampled_from([1, 5, 64, textindex._BLOCK]),
           cells=st.sampled_from([1, 2, textindex._RUN_CELLS]))
    @settings(max_examples=150, deadline=None)
    def test_generated_documents(self, tmp_path_factory, docs, rnd, whitelist, size, block,
                                 cells):
        rnd.shuffle(docs)
        p = str(tmp_path_factory.mktemp("blocks") / "g.idx")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textindex, "_BLOCK", block)
            mp.setattr(textindex, "_RUN_CELLS", cells)
            written, default = two_files(mini_recipe(("body", "title")), docs, p, whitelist,
                                         size)
        assert written == default
        idx = read_index(p)
        assert idx.n_docs == len(docs)
        assert idx.verify().startswith(f"{len(docs)} documents, ")

    def test_encoding_empties_the_build(self, tmp_path):
        recipe = mini_recipe(("body", "title"))
        state = build_index(doc_batches(_BLOCK_DOCS, recipe), recipe)
        assert state.lines and state.order and all(words for _, words in state.fields)
        p = str(tmp_path / "e.idx")
        write_index(state, p)
        assert read_index(p).n_docs == 300
        assert (not state.lines and not state.starts and not state.order
                and not any(words for _, words in state.fields))

    def test_words_seen_once_keep_no_array(self):
        """A word seen once holds its input position; from its second
        occurrence, an array of one position per occurrence."""
        recipe = mini_recipe(("body",))
        docs = [doc("a", "x y y"), doc("b", "y z"), doc("c", "y")]
        [(field, words)] = build_index(doc_batches(docs, recipe), recipe).fields
        assert field == "body"
        assert words["x"] == 0 and words["z"] == 1
        assert words["y"].typecode == "I" and list(words["y"]) == [0, 0, 1, 2]

    # (documents' bodies, by doc id order, and each run's ordinals by
    # term): one word or several words folding to a term; ordinals
    # repeated at a run's start, at its end, or never; terms found in every
    # document
    @pytest.mark.parametrize("bodies,runs", [
        (["x", "x", "x"], {"x": [0, 1, 2]}),
        (["Ab ab", "AB, x"], {"ab": [0, 0, 1], "x": [1]}),
        (["a-a b", "b"], {"a": [0, 0], "b": [0, 1]}),
        (["s s e n", "s e n", "e e n"], {"e": [0, 1, 2, 2], "n": [0, 1, 2], "s": [0, 0, 1]}),
        (["m q", "q m", "q", "m m m q"], {"m": [0, 1, 3, 3, 3], "q": [0, 1, 2, 3]}),
    ])
    @pytest.mark.parametrize("cells", [1, 2, textindex._RUN_CELLS])
    def test_slots_and_runs(self, tmp_path, bodies, runs, cells):
        """Each run holds its term's ordinals, each as many times as its
        document holds the term, as little-endian uint32, however many
        ordinals are passed on at a time; read back, they are the
        per-document counts of the term."""
        docs = [doc(f"d{i}", body) for i, body in enumerate(bodies)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textindex, "_RUN_CELLS", cells)
            written, default = two_files(mini_recipe(), docs, str(tmp_path / "l.idx"))
        assert written == default
        idx = textindex.InvertedIndex(written)
        assert idx.terms("body") == {t: idx.term_span("body", t) for t in runs}
        for term, ordinals in runs.items():
            start, length = map(int, idx.term_span("body", term))
            assert written[start:start + length] == struct.pack(f"<{len(ordinals)}I", *ordinals)
            assert idx.postings("body", term) == {
                o: Counter(tokenize(b))[term] for o, b in enumerate(bodies) if term in tokenize(b)}


DEMO_ROWS = [
    "1,Alpha stone,Memphis,alpha beta alpha,31.2,29.9",
    "2,Beta papyrus,Thebes,beta gamma,91.0,20.0",
    "3,Gamma list,Memphis,delta,,",
]


@pytest.fixture()
def centre(tmp_path, capsys):
    """A catalogue on disk with a live source and its published index
    ``texts``: (catalogue path, recipe path, index path)."""
    write_tabular(tmp_path / "src", DEMO_ROWS)
    c = str(tmp_path / "c.vdc")
    recipe = tmp_path / "demo.recipe"
    recipe.write_text(RECIPE, encoding="utf-8")
    assert cli_run(["--catalogue", c, "source", "add", "src", "--kind", "tabular",
                    "--path", str(tmp_path / "src"), "--mode", "live"]) == 0
    assert cli_run(["--catalogue", c, "index", "build", "texts",
                    "--recipe", str(recipe)]) == 0
    capsys.readouterr()
    return c, str(recipe), str(tmp_path / "c.vdc.store" / "index" / "texts.idx")


class TestStreamedPublish:
    """An index build writes its image as it encodes it, to a temp file
    beside the published one: a failure leaves the published index, the
    store and the catalogue as they were, and a reader sees the old index
    or the new one."""

    def failed_build(self, centre, capsys) -> str:
        """Run an index build that is to fail; check that it exits 2 and
        that the index, its directory and the catalogue are unchanged.
        Returns the error line."""
        c, recipe, idx = centre
        before = {p: open(p, "rb").read() for p in (c, idx)}
        code = cli_run(["--catalogue", c, "index", "build", "texts", "--recipe", recipe])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert {p: open(p, "rb").read() for p in (c, idx)} == before
        assert os.listdir(os.path.dirname(idx)) == ["texts.idx"]
        return err

    def test_a_write_failing_partway(self, tmp_path, centre, capsys, monkeypatch):
        """The disk fills after two blocks of a new image: the temp file
        goes, and the published index stays as it was."""
        write_tabular(tmp_path / "src", DEMO_ROWS + ["4,Delta stone,Thebes,epsilon zeta,,"])
        monkeypatch.setattr(textindex, "_BLOCK", 64)
        real_fdopen = os.fdopen
        blocks = []

        class FullDisk:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

            def write(self, data):
                if len(blocks) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                blocks.append(bytes(data))
                return self.f.write(data)

        monkeypatch.setattr(os, "fdopen", lambda *a, **kw: FullDisk(real_fdopen(*a, **kw)))
        err = self.failed_build(centre, capsys)
        assert "No space left on device" in err
        assert len(blocks) == 2 and blocks[0].startswith(b"VDCIDX 3 src.t\nDOCS 4\n")
        monkeypatch.undo()
        c, recipe, idx = centre
        assert cli_run(["--catalogue", c, "index", "build", "texts", "--recipe", recipe]) == 0
        assert sum(map(len, blocks)) < os.path.getsize(idx)  # the failure was partway
        assert read_index(idx).n_docs == 4

    def test_a_lost_block_is_caught_before_publish(self, tmp_path, centre, capsys,
                                                   monkeypatch):
        """A block the file never got, with no error from the write: the
        check of the written file refuses it before it replaces the
        index."""
        write_tabular(tmp_path / "src", DEMO_ROWS + ["4,Delta stone,Thebes,epsilon zeta,,"])
        monkeypatch.setattr(textindex, "_BLOCK", 64)
        real_fdopen = os.fdopen

        class LosingFile:
            def __init__(self, f):
                self.f = f
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

            def write(self, data):
                self.writes += 1
                return len(data) if self.writes == 2 else self.f.write(data)

        monkeypatch.setattr(os, "fdopen", lambda *a, **kw: LosingFile(real_fdopen(*a, **kw)))
        assert self.failed_build(centre, capsys) == (
            "error: index checksum mismatch: the file is damaged\n")

    @pytest.mark.parametrize("row,fault", [
        ("2,Again,Thebes,x,,", "duplicate doc id '2'"),
        ("x4,Bad,Thebes,x,,", "not an int64"),
    ])
    def test_an_ingest_fault(self, tmp_path, centre, capsys, monkeypatch, row, fault):
        """A fault of the batches raises in pass one, before any file is
        made."""
        import tempfile

        write_tabular(tmp_path / "src", DEMO_ROWS + [row])
        made = []
        real_mkstemp = tempfile.mkstemp
        monkeypatch.setattr(tempfile, "mkstemp", lambda *a, **kw: made.append(a) or
                            real_mkstemp(*a, **kw))
        assert fault in self.failed_build(centre, capsys)
        assert made == []

    def test_a_reader_during_a_build(self, tmp_path, centre, capsys, monkeypatch):
        """A build paused after its first block: ``read_index`` and ``vdc
        search`` see the old bytes, and see the new ones once it has
        published."""
        c, recipe, idx = centre
        old = open(idx, "rb").read()

        def search(term):
            assert cli_run(["--catalogue", c, "search", "texts", term]) == 0
            return capsys.readouterr().out

        old_hits = search("alpha")
        assert "1,src/t/1" in old_hits
        write_tabular(tmp_path / "src", ["7,Other stone,Thebes,alpha omega,,"])
        monkeypatch.setattr(textindex, "_BLOCK", 32)
        paused, resume = threading.Event(), threading.Event()
        real_encode = textindex._encode

        def paused_encode(state, write):
            def hooked(block):
                write(block)
                if not paused.is_set():
                    paused.set()
                    assert resume.wait(30)

            real_encode(state, hooked)

        monkeypatch.setattr(textindex, "_encode", paused_encode)
        codes = []
        builder = threading.Thread(target=lambda: codes.append(cli_run(
            ["--catalogue", c, "index", "build", "texts", "--recipe", recipe])))
        builder.start()
        try:
            assert paused.wait(30)
            [temp] = [n for n in os.listdir(os.path.dirname(idx)) if n != "texts.idx"]
            assert temp.startswith(".texts.idx.")
            assert read_index(idx).data == old
            assert search("alpha") == old_hits
        finally:
            resume.set()
            builder.join(30)
        assert codes == [0]
        assert open(idx, "rb").read() != old
        assert read_index(idx).n_docs == 1
        assert search("alpha") == "doc_id,ref,score\n7,src/t/7,1\n"
        assert os.listdir(os.path.dirname(idx)) == ["texts.idx"]


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_the_crc_of_blocks_equals_zlibs(tmp_path, extra):
    """The CRC-32 that the check of an image computes a block at a time,
    letting a mapped file's pages go as it passes them, is zlib's over the
    same bytes, whether they are held or mapped."""
    import mmap

    block = textindex._CRC_BLOCK
    data = random.Random(7).randbytes(2 * block + 3)
    p = tmp_path / "c.bin"
    p.write_bytes(data)
    with open(p, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        for end in (0, 1, block + extra, 2 * block + extra):
            want = zlib.crc32(data[:end])
            assert textindex._crc32(data, end) == want
            assert textindex._crc32(bytearray(data), end) == want
            assert textindex._crc32(mapped, end) == want
        assert mapped[:] == data  # released pages read back from the file


def resign(data: bytes) -> bytes:
    """Recompute the END footer's checksum after an edit that keeps every
    byte offset, so only the edited structure is wrong."""
    foot = data.rindex(b"\n", 0, len(data) - 1) + 1
    _, docs, terms, _ = data[foot:].split()
    return data[:foot] + b"END %s %s %08x\n" % (docs, terms, zlib.crc32(data[:foot]))


class TestFaultInjection:
    """Every damaged copy of a paper-like index is rejected when opened."""

    @pytest.fixture(scope="class")
    def image(self, desk_fixtures, tmp_path_factory):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path_factory.mktemp("faults") / "c.vdc"))
        register_desk(cat, fx)
        path, _ = cat.build_index(
            "hgv_texts", cat.read_recipe(os.path.join(fx, "recipes", "hgv.recipe"))
        )
        return open(path, "rb").read()

    def rejected(self, tmp_path, data: bytes) -> bool:
        p = str(tmp_path / "damaged.idx")
        with open(p, "wb") as f:
            f.write(data)
        try:
            read_index(p)
        except IndexFormatError:
            return True
        return False

    def test_intact_copy_opens(self, tmp_path, image):
        assert not self.rejected(tmp_path, image)

    def test_cut_at_every_line_boundary(self, tmp_path, image):
        cuts = [i + 1 for i in range(len(image) - 1) if image[i] == 0x0A]
        assert len(cuts) > 500
        accepted = [n for n in cuts if not self.rejected(tmp_path, image[:n])]
        assert accepted == []

    def test_cut_at_sampled_byte_offsets(self, tmp_path, image):
        rng = random.Random(31)
        cuts = [0, 1, len(image) - 1] + rng.sample(range(len(image)), 300)
        accepted = [n for n in cuts if not self.rejected(tmp_path, image[:n])]
        assert accepted == []

    def test_one_flipped_byte(self, tmp_path, image):
        rng = random.Random(32)
        tail = image.rindex(b"\nTOC ") + 1  # every byte of the TOC and footer
        positions = list(range(0, 40)) + list(range(tail, len(image)))
        positions += rng.sample(range(len(image)), 300)
        accepted = []
        for at in positions:
            damaged = bytearray(image)
            damaged[at] ^= 1 << rng.randrange(8)
            if not self.rejected(tmp_path, bytes(damaged)):
                accepted.append(at)
        assert accepted == []

    def test_footer_with_wrong_counts(self, tmp_path, image):
        foot = image.rindex(b"\n", 0, len(image) - 1) + 1
        _, docs, terms, crc = image[foot:].split()
        docs, terms = int(docs), int(terms)
        for d, t in ((docs + 1, terms), (docs - 1, terms), (docs, terms + 1),
                     (docs, terms - 1), (0, 0)):
            damaged = image[:foot] + b"END %d %d %s\n" % (d, t, crc)
            assert self.rejected(tmp_path, damaged), (d, t)


def _swap(data: bytes, old: bytes, new: bytes) -> bytes:
    """``data`` with its one ``old`` replaced by ``new``, of the same length."""
    assert data.count(old) == 1 and len(old) == len(new)
    return data.replace(old, new)


def _put(data: bytes, at: int, new: bytes) -> bytes:
    return data[:at] + new + data[at + len(new):]


def _toc(data: bytes, i: int, shift: int | None) -> bytes:
    """``data`` with the TOC's ``i``-th section offset moved by ``shift``
    bytes, or dropped when ``shift`` is None."""
    toc = data.rindex(b"\nTOC ") + 1
    end = data.index(b"\n", toc)
    starts = [int(n) for n in data[toc + 4:end].split()]
    if shift is None:
        del starts[i]
    else:
        starts[i] += shift
    return data[:toc] + b"TOC " + b" ".join(b"%d" % n for n in starts) + data[end:]


def _span(data: bytes, term: bytes, cell: int, change) -> bytes:
    """``data`` with the offset (``cell`` 1) or length (2) digits of the
    TERMS entry of ``term`` changed, to digits of the same width."""
    m = re.search(rb"\n" + term + rb"\t(\d+)\t(\d+)\n", data)
    new = change(m[cell])
    assert len(new) == len(m[cell])
    return data[:m.start(cell)] + new + data[m.end(cell):]


def _postings_at(data: bytes, term: str) -> int:
    """Where ``term``'s postings run in field body starts."""
    return int(textindex.InvertedIndex(data).terms("body")[term][0])


def _move_doc_offset(data: bytes, o: int, shift: int) -> bytes:
    """``data`` with the DOCOFFSETS entry (width 3) of ordinal ``o`` moved."""
    at = data.index(b"\nDOCOFFSETS 3\n") + len(b"\nDOCOFFSETS 3\n") + 3 * o
    return _put(data, at, b"%03d" % (int(data[at:at + 3]) + shift))


def _opened(idx):
    pass  # the fault is met when the file is opened


def _searched(*terms):
    return lambda idx: search(idx, SearchQuery(terms))


# (case, fault, the read that meets it, the message of its check); each
# fault keeps the footer's counts, and its checksum is recomputed
INDEX_FAULTS = [
    ("toc-line", lambda d: _swap(d, b"\nTOC ", b"\nTOX "), _opened, "bad TOC line"),
    ("docs-after-header", lambda d: _toc(d, 0, 1), _opened,
     "DOCS section does not follow the header"),
    ("section-offset", lambda d: _toc(d, 1, 1), _opened, r"bad section offset \d+"),
    ("unpaired", lambda d: _toc(d, 2, None), _opened, "unpaired POSTINGS/TERMS sections"),
    ("docs-count", lambda d: _swap(d, b"\nDOCS 17\n", b"\nDOCS 18\n"), _opened,
     "DOCS section disagrees with the footer's doc count"),
    ("field-sections", lambda d: _swap(d, b"\nPOSTINGS title\n", b"\nPOSTINGS tItle\n"),
     _opened, "bad sections for field 'tItle'"),
    ("terms-count", lambda d: _swap(d, b"\nTERMS body 19\n", b"\nTERMS body 18\n"), _opened,
     "TERMS sections disagree with the footer's term count"),
    ("docoffsets", lambda d: _swap(d, b"\nDOCOFFSETS 3\n", b"\nDOCOFFSETS 4\n"), _opened,
     "bad DOCOFFSETS section"),
    ("terms-section", lambda d: _swap(d, b"\nw10\t", b"\nw\t0\t"), _searched("alpha"),
     "bad TERMS section for field 'body'"),
    ("terms-utf8", lambda d: _swap(d, b"\nalpha\t", b"\nalph\xff\t"), _searched("beta"),
     "invalid UTF-8 in index: .*"),
    ("postings-number", lambda d: _span(d, b"alpha", 1, lambda o: o[:-1] + b"x"),
     _searched("alpha"), r"bad number '\d+x' in index"),
    # alpha's run is the first: one byte earlier it starts before the section
    ("postings-span", lambda d: _span(d, b"alpha", 1, lambda o: b"%d" % (int(o) - 1)),
     _searched("alpha"), "bad postings span for 'alpha' in field 'body'"),
    # w9's run is the last: twice as long it reaches past the section, and
    # one byte later it ends on the section's final LF
    ("postings-past-section", lambda d: _span(d, b"w9", 2, lambda n: b"8"), _searched("w9"),
     "bad postings span for 'w9' in field 'body'"),
    ("postings-final-lf", lambda d: _span(d, b"w9", 1, lambda o: b"%d" % (int(o) + 1)),
     _searched("w9"), "bad postings span for 'w9' in field 'body'"),
    ("postings-length", lambda d: _span(d, b"w10", 2, lambda n: b"5"), _searched("w10"),
     "bad postings span for 'w10' in field 'body'"),
    ("postings-empty", lambda d: _span(d, b"w10", 2, lambda n: b"0"), _searched("w10"),
     "bad postings span for 'w10' in field 'body'"),
    ("postings", lambda d: _put(d, _postings_at(d, "alpha"), struct.pack("<I", 5)),
     _searched("alpha"), "ordinals out of order or range for 'alpha' in field 'body'"),
    ("postings-ordinal", lambda d: _put(d, _postings_at(d, "w10"), struct.pack("<I", 17)),
     _searched("w10"), "ordinals out of order or range for 'w10' in field 'body'"),
    # runs that each decode, but leave a gap (alpha's run 4 bytes short)
    # or overlap (beta's run read at alpha's, whose bytes are the same):
    # only ``index verify`` checks that the runs tile their section
    ("postings-gap", lambda d: _span(d, b"alpha", 2, lambda n: b"%d" % (int(n) - 4)),
     lambda idx: idx.verify(), "postings runs do not tile field 'body'"),
    ("postings-overlap",
     lambda d: _span(d, b"beta", 1, lambda o: b"%d" % _postings_at(d, "alpha")),
     lambda idx: idx.verify(), "postings runs do not tile field 'body'"),
    # t's run is the last of field title: 4 bytes short, it leaves a gap
    # before the section's final LF
    ("postings-gap-at-end", lambda d: _span(d, b"t", 2, lambda n: b"%d" % (int(n) - 4)),
     lambda idx: idx.verify(), "postings runs do not tile field 'title'"),
    ("docs-offset", lambda d: _move_doc_offset(d, 5, 1),
     lambda idx: idx.find_ref("s/t/d05"), "bad DOCS offset for document 5"),
    ("docs-lines", lambda d: _swap(d, b"\ns/t/d05\td05\t", b"\ns/t/d05\nd05\t"),
     lambda idx: idx.hits([0, 1]), "DOCS section disagrees with its doc count"),
    ("stored-field", lambda d: _swap(d, b"\ttitle=t ab 3\n", b"\ttitle_t ab 3\n"),
     lambda idx: idx.doc(3), "bad stored field for document 3"),
    ("escape", lambda d: _swap(d, b"\ttitle=t ab 3\n", b"\ttitle=t\\qb 3\n"),
     lambda idx: idx.doc(3), r"bad escape in 't\\\\qb 3'"),
    ("coordinates", lambda d: _swap(d, b"\td03\t1.5\t", b"\td03\t1.x\t"),
     lambda idx: idx.geos([3]), "bad coordinates for document 3"),
]


class TestStructureChecks:
    """Each structure check behind the checksum, met by a fault whose
    checksum was recomputed: the read that decodes the faulty part raises
    that check's IndexFormatError, where the intact index answers it."""

    @pytest.fixture(scope="class")
    def intact(self) -> bytes:
        docs = [doc(f"d{i:02d}", f"alpha beta w{i}", title=f"t ab {i}",
                    geo=(1.5, 2.5) if i % 2 else None) for i in range(17)]
        return bytes(build(mini_recipe(("body", "title")), docs).data)

    def opened(self, tmp_path, data: bytes):
        p = tmp_path / "f.idx"
        p.write_bytes(data)
        return read_index(str(p))

    def test_the_intact_index_answers_every_read(self, tmp_path, intact):
        idx = self.opened(tmp_path, intact)
        for _, _, read, _ in INDEX_FAULTS:
            read(idx)
        assert idx.doc(3).stored == {"title": "t ab 3"}

    @pytest.mark.parametrize("fault,read,message", [c[1:] for c in INDEX_FAULTS],
                             ids=[c[0] for c in INDEX_FAULTS])
    def test_a_fault_fails_its_check(self, tmp_path, intact, fault, read, message):
        damaged = resign(fault(intact))
        assert damaged != intact
        with pytest.raises(IndexFormatError, match=f"^{message}$"):
            read(self.opened(tmp_path, damaged))

    def verified(self, centre, capsys, data: bytes) -> tuple[int, str, str]:
        """``vdc index verify`` of ``data`` published as the index ``texts``."""
        c, _, idx = centre
        with open(idx, "wb") as f:
            f.write(data)
        code = cli_run(["--catalogue", c, "index", "verify", "texts"])
        return (code, *capsys.readouterr())

    def test_index_verify_passes_the_intact_index(self, centre, capsys, intact):
        idx = textindex.InvertedIndex(intact)
        n_terms = sum(len(idx.terms(f)) for f in ("body", "title"))
        n_postings = sum(len(idx.postings(f, t)) for f in ("body", "title") for t in idx.terms(f))
        assert (n_terms, n_postings) == (2 + 17 + 2 + 17, 17 * (2 + 1 + 2 + 1))
        assert self.verified(centre, capsys, intact) == (
            0, "", f"verified texts: 17 documents, {n_terms} terms, {n_postings} postings\n")
        assert cli_run(["--catalogue", centre[0], "index", "verify", "nope"]) == 2
        assert capsys.readouterr() == ("", "error: no index for collection 'nope'\n")

    @pytest.mark.parametrize("fault,message", [(c[1], c[3]) for c in INDEX_FAULTS],
                             ids=[c[0] for c in INDEX_FAULTS])
    def test_index_verify_meets_every_fault(self, centre, capsys, intact, fault, message):
        code, out, err = self.verified(centre, capsys, resign(fault(intact)))
        assert (code, out) == (2, "")
        assert re.fullmatch(f"error: {message}\n", err), err

    @pytest.mark.parametrize("n_docs", [3, 17])
    @pytest.mark.parametrize("decoded", [False, True])
    def test_an_ordinal_outside_the_index(self, n_docs, decoded):
        """No fault of the file reaches this check: every ordinal the file
        gives is checked where it is read.  Only a caller's ordinal does,
        and it fails alike whether the DOCS lines are sought one by one
        (a large index) or decoded whole (a small one, or once most
        documents were read)."""
        idx = build(mini_recipe(("body",)), [doc(f"d{i:02d}", "alpha") for i in range(n_docs)])
        if decoded:
            idx.hits(range(n_docs))
        for o in (n_docs, n_docs + 1, -1):
            with pytest.raises(IndexFormatError, match=f"^ordinal {o} out of range$"):
                idx.doc(o)
            with pytest.raises(IndexFormatError, match=f"^ordinal {o} out of range$"):
                idx.hits([0, o])
        assert idx.doc(n_docs - 1).doc_id == f"d{n_docs - 1:02d}"


# terms that sort by code point across scripts and by length: ASCII
# letters and digits, Greek with diacritics, and prefixes of one another
_TERM = st.text(alphabet="ab09\u03b1\u03ac\u1f00\u1f70\u1ff6\u03c3\u03c2", min_size=1,
                max_size=4)


class TestTermBisection:
    """A search finds its term by bisecting the TERMS section in place:
    the span it finds is the one the whole decoded dictionary gives, and
    no search decodes a whole dictionary."""

    @given(vocabulary=st.one_of(st.lists(_TERM, max_size=2), st.lists(_TERM, max_size=80)),
           absent=st.lists(_TERM, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_bisection_equals_the_dictionary(self, vocabulary, absent):
        docs = [doc(f"d{i:02d}", " ".join(vocabulary[i:])) for i in range(len(vocabulary))]
        idx = build(mini_recipe(), docs)
        terms = idx.terms("body")
        assert list(terms) == sorted(set(vocabulary))
        assert sorted(terms, key=lambda t: t.encode("utf-8")) == list(terms)
        probes = set(terms) | set(absent) | {"!", "\uff5a"}  # before and after all
        probes |= {t[:-1] for t in terms if len(t) > 1} | {t + "0" for t in terms}
        for term in sorted(probes):
            assert idx.term_span("body", term) == terms.get(term), term

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 40])
    def test_every_term_and_gap(self, size):
        """Every term of a dictionary of ``size`` terms is found, and each
        gap before, between and after them is empty."""
        vocabulary = [f"t{i:03d}" for i in range(size)]
        idx = build(mini_recipe(), [doc("d", " ".join(vocabulary))])
        for i, term in enumerate(vocabulary):
            start, length = idx.term_span("body", term)
            assert idx.data[int(start):int(start) + int(length)] == bytes(4)
        for gap in ["a", "t", *(t + "a" for t in vocabulary), "u"]:
            assert idx.term_span("body", gap) is None

    def test_a_line_read_out_of_order_far_from_the_term(self):
        """Two names of t00..t15 swapped (t04 and t12, the lines a quarter
        and three quarters in, one of which every bisection reads): each
        lookup raises, also those whose term and neighbours are in order
        (t00-t02 meet t12 below a bound it set, t14-t15 meet t04 above
        one)."""
        data = build(mini_recipe(), [doc("d", " ".join(f"t{i:02d}" for i in range(16)))]).data
        swapped = (bytes(data).replace(b"\nt04\t", b"\n___\t").replace(b"\nt12\t", b"\nt04\t")
                   .replace(b"\n___\t", b"\nt12\t"))
        idx = textindex.InvertedIndex(resign(swapped))
        for i in range(16):
            with pytest.raises(IndexFormatError, match="^terms out of order in field 'body'$"):
                idx.term_span("body", f"t{i:02d}")

    @pytest.mark.parametrize("damage,term,message", [
        # names rotated to b, c, a: the term's line sorts after the next one
        (lambda a, b, c: [("b",) + a[1:], ("c",) + b[1:], ("a",) + c[1:]], "c",
         "terms out of order"),
        # a tab for a digit of a's offset, a digit for a tab of b's line:
        # a's line has four cells
        (lambda a, b, c: [("a", a[1][0], a[1][2:], a[2]), ("b", b[1] + "0" + b[2]), c], "a",
         "bad TERMS section for field 'body'"),
        # a's name moved into its offset, as a leading zero: an empty name
        (lambda a, b, c: [("", "0" + a[1], a[2]), b, c], "b", "terms out of order"),
    ], ids=["next-line", "cells", "empty-name"])
    def test_a_damaged_line_of_three(self, damage, term, message):
        """A checksum-valid dictionary of a, b and c with one fault that
        keeps every byte offset: the lookup of ``term`` meets it."""
        data = bytes(build(mini_recipe(), [doc("d", "a b c")]).data)
        start = data.index(b"\nTERMS body 3\n") + len(b"\nTERMS body 3\n")
        end = data.index(b"\nDOCOFFSETS ") + 1
        lines = [tuple(line.split("\t")) for line in data[start:end].decode().splitlines()]
        damaged = "".join("\t".join(cells) + "\n" for cells in damage(*lines)).encode()
        assert len(damaged) == end - start
        idx = textindex.InvertedIndex(resign(data[:start] + damaged + data[end:]))
        with pytest.raises(IndexFormatError, match=f"^{message}"):
            idx.term_span("body", term)

    def test_no_search_decodes_a_dictionary(self, tmp_path, monkeypatch):
        p = str(tmp_path / "n.idx")
        publish(mini_recipe(("body", "title")), _BLOCK_DOCS, p)

        def whole(self, field):
            raise AssertionError(f"terms({field!r}) decoded")

        monkeypatch.setattr(textindex.InvertedIndex, "terms", whole)
        idx = read_index(p)
        assert len(search(idx, SearchQuery(("many",)))) == 300
        assert len(search(idx, SearchQuery(("λόγος", "many"), field="body", limit=3))) == 3
        assert search(idx, SearchQuery(("title", "2"), field="title")) != []
        assert search(idx, SearchQuery(("absent",))) == []
        assert search(idx, SearchQuery(("many",), bbox=(31.0, -1.0, 32.0, 0.0))) != []


class TestSearch:
    def corpus(self):
        docs = [
            doc("d1", "alpha beta alpha", title="north stone", geo=(31.0, 29.0)),
            doc("d2", "beta gamma", title="south stone", geo=(-5.0, 10.0)),
            doc("d3", "alpha gamma delta", title="alpha title"),
        ]
        return build(mini_recipe(("body", "title")), docs)

    def test_single_term_scores_tf(self):
        idx = self.corpus()
        hits = search(idx, SearchQuery(("alpha",)))
        assert [(h.doc_id, h.score) for h in hits] == [("d1", 2), ("d3", 2)]

    def test_conjunction(self):
        idx = self.corpus()
        assert [h.doc_id for h in search(idx, SearchQuery(("alpha", "gamma")))] == ["d3"]
        assert search(idx, SearchQuery(("alpha", "nope"))) == []

    def test_field_restriction(self):
        idx = self.corpus()
        assert [h.doc_id for h in search(idx, SearchQuery(("alpha",), field="title"))] == ["d3"]

    def test_scores_sum_across_fields_without_restriction(self):
        idx = self.corpus()
        hits = {h.doc_id: h.score for h in search(idx, SearchQuery(("alpha",)))}
        assert hits["d3"] == 2  # body 1 + title 1

    def test_bbox_boundary_inclusive(self):
        idx = self.corpus()
        hits = search(idx, SearchQuery((), bbox=(31.0, 29.0, 40.0, 40.0)))
        assert [h.doc_id for h in hits] == ["d1"]
        # docs without geo are excluded by a bbox
        hits = search(idx, SearchQuery(("alpha",), bbox=(-90.0, -180.0, 90.0, 180.0)))
        assert [h.doc_id for h in hits] == ["d1"]

    def test_limit_applied_last(self):
        idx = self.corpus()
        hits = search(idx, SearchQuery(("beta",), limit=1))
        assert len(hits) == 1 and hits[0].doc_id == "d1"

    def test_invalid_queries(self):
        with pytest.raises(ValueError):
            SearchQuery(())
        with pytest.raises(ValueError):
            SearchQuery(("a",), bbox=(5.0, 0.0, 1.0, 0.0))

    def test_ranking_is_strict_total_order(self):
        idx = self.corpus()
        hits = search(idx, SearchQuery(("beta",)))
        keys = [(-h.score, h.doc_id) for h in hits]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan_oracle(self, data, tmp_path_factory):
        """Full ranked output (doc_id, ref, score, order) against a
        tokenizing scan, with field, bbox and limit, on a built index and
        on the same index written and read back."""
        words = ["alpha", "beta", "Λόγος", "στρατηγός", "gamma", "delta", "omega"]
        texts = st.lists(st.sampled_from(words), max_size=8).map(" ".join)
        coords = st.one_of(st.none(), st.tuples(st.sampled_from([-10.0, 0.0, 12.5, 30.0]),
                                                st.sampled_from([-20.0, 5.0, 29.25])))
        n_docs = data.draw(st.integers(0, 12))
        ids = data.draw(st.permutations([f"d{i:02d}" for i in range(n_docs)]))
        docs = [doc(i, data.draw(texts), title=data.draw(texts), geo=data.draw(coords))
                for i in ids]
        built = build(mini_recipe(("body", "title")), docs)
        p = str(tmp_path_factory.mktemp("oracle") / "o.idx")
        publish(mini_recipe(("body", "title")), docs, p)

        terms = tuple(
            tokenize(data.draw(st.sampled_from(words)))[0]
            for _ in range(data.draw(st.integers(0, 3)))
        )
        field = data.draw(st.sampled_from([None, "body", "title", "nope"]))
        bbox = data.draw(st.sampled_from([None, (0.0, 0.0, 30.0, 30.0), (-10.0, -20.0, 0.0, 5.0)])
                         if terms else st.just((-90.0, -180.0, 12.5, 180.0)))
        limit = data.draw(st.sampled_from([None, 1, 2, 5]))
        q = SearchQuery(terms, field, bbox, limit)
        if field == "nope":  # not an indexed field: an error, not "no hits"
            for index in (built, read_index(p)):
                with pytest.raises(NotFound) as e:
                    search(index, q)
                assert "'nope'" in str(e.value) and "body, title" in str(e.value)
            return

        scored = []
        for d in docs:
            scopes = {"body": d.body, "title": d.fields.get("title", "")}
            texts_in = [scopes.get(field, "")] if field else list(scopes.values())
            counts = [sum(tokenize(t).count(term) for t in texts_in) for term in terms]
            if not all(counts):
                continue
            if bbox is not None and not (
                d.geo is not None
                and bbox[0] <= d.geo[0] <= bbox[2] and bbox[1] <= d.geo[1] <= bbox[3]
            ):
                continue
            scored.append((-sum(counts), d.doc_id, f"s/t/{d.doc_id}"))
        expected = [(i, r, -s) for s, i, r in sorted(scored)][:limit]

        for index in (built, read_index(p)):
            assert [tuple(h) for h in search(index, q)] == expected


class TestCollections:
    def centre(self, tmp_path, desk_fixtures, mode=AccessMode.LIVE):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx, mode)
        return cat

    @staticmethod
    def count_reads(monkeypatch) -> dict[str, list]:
        """The tables each read touches: ``scan`` for a read of a live
        table by its row reader, which scans and lookups share, and for a
        column-image lookup ``lookup`` for the lookup and ``table`` for
        each read of one of the table's files, by the file's name less
        its extension."""
        reads: dict[str, list] = {"scan": [], "lookup": [], "table": []}
        real_scan = connectors.TabularSource._scan
        real_lookup = colimage.ColumnImage.lookup
        real_file_crc = colimage._file_crc

        def counting_scan(self, schema, *args, **kwargs):
            reads["scan"].append(schema.name)
            return real_scan(self, schema, *args, **kwargs)

        def counting_lookup(self, table, item_ids):
            reads["lookup"].append(table)
            return real_lookup(self, table, item_ids)

        def counting_file_crc(path, *running):
            reads["table"].append(os.path.basename(path)[:-4])
            return real_file_crc(path, *running)

        monkeypatch.setattr(connectors.TabularSource, "_scan", counting_scan)
        monkeypatch.setattr(colimage.ColumnImage, "lookup", counting_lookup)
        monkeypatch.setattr(colimage, "_file_crc", counting_file_crc)
        return reads

    def test_dedup_preserves_first_insertion_order(self, tmp_path, desk_fixtures):
        cat = self.centre(tmp_path, desk_fixtures)
        r1 = ItemRef("volterra", "legal_texts", "1")
        r2 = ItemRef("volterra", "legal_texts", "2")
        refs = cat.update_collection("finds", [r1, r2, r1])
        assert refs == [r1, r2]
        refs = cat.update_collection("finds", [r2, ItemRef("volterra", "legal_texts", "3")])
        assert [r.item_id for r in refs] == ["1", "2", "3"]
        assert cat.collections["finds"] is refs

    def test_unresolvable_ref_rejected(self, tmp_path, desk_fixtures):
        cat = self.centre(tmp_path, desk_fixtures)
        with pytest.raises(CollectionError):
            cat.update_collection("finds", [ItemRef("volterra", "legal_texts", "99999")])
        with pytest.raises(CollectionError):
            cat.update_collection("finds", [ItemRef("ghost", "t", "1")])

    def test_resolve_returns_rows_and_docs(self, tmp_path, desk_fixtures):
        cat = self.centre(tmp_path, desk_fixtures)
        cat.update_collection(
            "finds",
            [ItemRef("volterra", "legal_texts", "1"), ItemRef("iaph", "docs", "i0000")],
        )
        items = cat.resolve_refs(cat.collections["finds"])
        assert [i.kind for i in items] == ["row", "doc"]

    def test_withdrawn_source_reported_per_ref(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = self.centre(tmp_path, desk_fixtures)
        shutil.copytree(os.path.join(fx, "iaph"), tmp_path / "lent")
        cat.register_source("lent", "xml_corpus", str(tmp_path / "lent"), AccessMode.LIVE)
        cat.update_collection("finds", [
            ItemRef("lent", "docs", "i0000"), ItemRef("volterra", "legal_texts", "1"),
            ItemRef("lent", "docs", "i0001"),
        ])
        os.rename(tmp_path / "lent", tmp_path / "withdrawn")
        items = cat.resolve_refs(cat.collections["finds"])
        assert [i.kind for i in items] == ["error", "row", "error"]
        assert items[0].payload == items[2].payload
        assert str(tmp_path / "lent") in items[0].payload

    @pytest.mark.parametrize("mode", [AccessMode.LIVE, AccessMode.VAULT])
    def test_one_read_per_table_in_collection_order(self, tmp_path, desk_fixtures, monkeypatch, mode):
        """Two refs into one table, given in reverse order, and a missing
        one: one read of a live table by its row reader, or one image lookup
        of a vault table and one read of its file; a ref into a vault corpus is one image
        lookup too, reading each document once; output in collection
        order, and a per-ref error for the missing key."""
        fx, _ = desk_fixtures
        cat = self.centre(tmp_path, desk_fixtures, mode)
        refs = [ItemRef("volterra", "legal_texts", k) for k in ("3", "1", "99999")]
        refs.insert(1, ItemRef("iaph", "docs", "i0000"))
        cat.collections["finds"] = refs
        reads = self.count_reads(monkeypatch)
        items = cat.resolve_refs(cat.collections["finds"])
        if mode is AccessMode.LIVE:
            assert reads == {"scan": ["legal_texts"], "lookup": [], "table": []}
        else:
            documents = sorted(f[:-4] for f in os.listdir(os.path.join(fx, "iaph")))
            assert len(documents) == 500
            assert reads == {"scan": [], "lookup": ["legal_texts", "docs"],
                             "table": ["legal_texts", *documents]}
        assert [i.kind for i in items] == ["row", "doc", "row", "error"]
        assert [i.ref for i in items] == refs
        assert items[0].payload[1][0] == 3 and items[2].payload[1][0] == 1
        assert items[1].payload[1][0] == "i0000"
        assert "99999" in items[3].payload

    def test_refs_into_one_live_container_open_the_source_once(
        self, tmp_path, desk_fixtures, monkeypatch
    ):
        cat = self.centre(tmp_path, desk_fixtures)
        opened = []
        real_open = connectors.open_source

        def counting_open(source_id, kind, path):
            opened.append(source_id)
            return real_open(source_id, kind, path)

        monkeypatch.setattr(connectors, "open_source", counting_open)
        refs = [ItemRef("volterra", "legal_texts", k) for k in ("4", "2", "3", "1")]
        cat.collections["finds"] = refs
        items = cat.resolve_refs(cat.collections["finds"])
        assert [i.kind for i in items] == ["row"] * 4
        assert [i.payload[1][0] for i in items] == [4, 2, 3, 1]
        assert opened == ["volterra"]

    @pytest.mark.parametrize("mode", [AccessMode.LIVE, AccessMode.VAULT])
    def test_update_checks_refs_with_one_read_per_table(self, tmp_path, desk_fixtures, monkeypatch, mode):
        """Three refs into one table are checked by one read of a live
        table by its row reader, or one image lookup of a vault table; an
        unknown key fails the update naming the first unresolvable ref in
        the order given, and leaves the collection unchanged."""
        cat = self.centre(tmp_path, desk_fixtures, mode)
        reads = self.count_reads(monkeypatch)
        read_kind = "scan" if mode is AccessMode.LIVE else "lookup"
        refs = [ItemRef("volterra", "legal_texts", k) for k in ("3", "1", "2")]
        assert cat.update_collection("finds", refs) == refs
        assert reads[read_kind] == ["legal_texts"]
        assert len(reads["scan"] + reads["lookup"]) == 1
        assert reads["table"] == reads["lookup"]
        reads[read_kind].clear()
        reads["table"].clear()
        bad = [ItemRef("volterra", "legal_texts", "5"), ItemRef("volterra", "legal_texts", "99999"),
               ItemRef("hgv", "papyri", "88888"), ItemRef("volterra", "legal_texts", "77777")]
        with pytest.raises(CollectionError) as e:
            cat.update_collection("finds", bad)
        assert "volterra/legal_texts/99999" in str(e.value)
        assert "77777" not in str(e.value) and "88888" not in str(e.value)
        assert sorted(reads[read_kind]) == ["legal_texts", "papyri"]
        assert len(reads["scan"] + reads["lookup"]) == 2
        assert reads["table"] == reads["lookup"]
        assert cat.collections["finds"] == refs

    @pytest.mark.parametrize("mode", [AccessMode.LIVE, AccessMode.VAULT])
    def test_duplicate_keys_resolve_to_the_first_row(self, tmp_path, mode):
        d = tmp_path / "src"
        write_tabular(d, ["1,first,M,x,,", "2,other,M,y,,", "1,second,T,z,,", "01,third,T,z,,"])
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("src", "tabular", str(d), mode)
        cat.update_collection("finds", [ItemRef("src", "t", "2"), ItemRef("src", "t", "1")])
        items = cat.resolve_refs(cat.collections["finds"])
        assert [i.payload[1][1] for i in items] == ["other", "first"]

    def test_unknown_collection(self, tmp_path, desk_fixtures, capsys):
        cat = self.centre(tmp_path, desk_fixtures)
        cat.persist()
        capsys.readouterr()
        assert cli_run(["--catalogue", cat.path, "coll", "resolve", "nope"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: no collection 'nope'\n")
