"""Text index tests: tokenization against an independent character-class
oracle, recipe ingestion, deterministic index files, search vs a naive scan,
and virtual collections."""

import errno
import os
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdc.datacentre import AccessMode, Catalogue
from vdc.errors import (
    CollectionError,
    IndexFormatError,
    IngestError,
    NotFound,
    ParseError,
)
from vdc.model import ItemRef
from vdc.textindex import (
    Document,
    SearchQuery,
    build_index,
    collection_resolve,
    collection_update,
    parse_recipe_file,
    read_index,
    search,
    tokenize,
    write_index,
)

from helpers import register_desk


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


def doc(doc_id, body, title="", geo=None, **fields):
    f = dict(fields)
    if title:
        f["title"] = title
    return Document(doc_id, ItemRef("s", "t", doc_id), f, body, geo)


def mini_recipe(indexed=("body",)):
    text = "recipe r\nfrom s.t\nid id\nfield title = title\nbody b\n"
    for f in indexed:
        text += f"index {f}\n"
    return parse_recipe_file(text + "end\n")


class TestBuildIndex:
    def test_postings_count_occurrences(self):
        idx = build_index([doc("d1", "a b a")], mini_recipe())
        assert idx.postings["body"]["a"] == [(0, 2)]
        assert idx.postings["body"]["b"] == [(0, 1)]

    def test_ordinals_follow_doc_id_not_input_order(self, tmp_path):
        docs = [doc("b", "x"), doc("a", "y")]
        idx = build_index(docs, mini_recipe())
        assert [e.doc_id for e in idx.docs] == ["a", "b"]

    def test_permuted_input_gives_identical_bytes(self, tmp_path):
        docs = [doc(f"d{i}", f"w{i} common") for i in range(20)]
        rng = random.Random(5)
        shuffled = docs[:]
        rng.shuffle(shuffled)
        p1, p2 = str(tmp_path / "a.idx"), str(tmp_path / "b.idx")
        write_index(build_index(docs, mini_recipe()), p1)
        write_index(build_index(shuffled, mini_recipe()), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_index_round_trips(self, tmp_path):
        p = str(tmp_path / "e.idx")
        write_index(build_index([], mini_recipe()), p)
        idx = read_index(p)
        assert idx.docs == [] and idx.postings == {"body": {}}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(IngestError):
            build_index([doc("d", "x"), doc("d", "y")], mini_recipe())

    def test_completeness_tf_sums_equal_token_counts(self):
        rng = random.Random(9)
        words = ["alpha", "beta", "Λόγος", "gamma", "δῆμος"]
        docs = [
            doc(f"d{i}", " ".join(rng.choice(words) for _ in range(rng.randint(0, 30))))
            for i in range(40)
        ]
        idx = build_index(docs, mini_recipe())
        total_tf = sum(
            tf for plist in idx.postings["body"].values() for _, tf in plist
        )
        assert total_tf == sum(len(tokenize(d.body)) for d in docs)


class TestIndexFormat:
    def make(self, tmp_path):
        docs = [
            doc("d1", "alpha beta", title="T=1;x", geo=(31.5, 29.25)),
            doc("d2", "beta\tgamma", title="two\nlines"),
        ]
        idx = build_index(docs, mini_recipe(("body", "title")))
        p = str(tmp_path / "t.idx")
        write_index(idx, p)
        return idx, p

    def test_round_trip_structural_equality(self, tmp_path):
        idx, p = self.make(tmp_path)
        back = read_index(p)
        assert [e.__dict__ for e in back.docs] == [e.__dict__ for e in idx.docs]
        assert back.postings == idx.postings

    def test_rewrite_is_byte_identical(self, tmp_path):
        idx, p = self.make(tmp_path)
        p2 = str(tmp_path / "t2.idx")
        write_index(read_index(p), p2)
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
            write_index(build_index([doc("d3", "other words")], mini_recipe()), p)
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

    def test_unsorted_terms_rejected(self, tmp_path):
        p = str(tmp_path / "u.idx")
        with open(p, "w") as f:
            f.write("VDCIDX 1\nDOCS\n0\td\ts/t/d\t-\t-\t\nFIELD body\nzeta\t0:1\nalpha\t0:1\n")
        with pytest.raises(IndexFormatError) as e:
            read_index(p)
        assert "out of order" in str(e.value)

    def test_bad_ordinals_rejected(self, tmp_path):
        p = str(tmp_path / "o.idx")
        with open(p, "w") as f:
            f.write("VDCIDX 1\nDOCS\n0\td\ts/t/d\t-\t-\t\nFIELD body\na\t0:1,0:2\n")
        with pytest.raises(IndexFormatError):
            read_index(p)


class TestSearch:
    def corpus(self):
        docs = [
            doc("d1", "alpha beta alpha", title="north stone", geo=(31.0, 29.0)),
            doc("d2", "beta gamma", title="south stone", geo=(-5.0, 10.0)),
            doc("d3", "alpha gamma delta", title="alpha title"),
        ]
        return build_index(docs, mini_recipe(("body", "title")))

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
    def test_matches_naive_scan_oracle(self, data):
        words = ["alpha", "beta", "Λόγος", "στρατηγός", "gamma", "delta", "omega"]
        n_docs = data.draw(st.integers(0, 12))
        docs = []
        for i in range(n_docs):
            body = " ".join(
                data.draw(st.sampled_from(words)) for _ in range(data.draw(st.integers(0, 8)))
            )
            docs.append(doc(f"d{i:02d}", body))
        idx = build_index(docs, mini_recipe())
        terms = tuple(
            tokenize(data.draw(st.sampled_from(words)))[0]
            for _ in range(data.draw(st.integers(1, 3)))
        )
        got = {h.doc_id for h in search(idx, SearchQuery(terms))}
        expected = {
            d.doc_id
            for d in docs
            if all(t in tokenize(d.body) for t in terms)
        }
        assert got == expected


class TestCollections:
    def centre(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        return cat

    def test_dedup_preserves_first_insertion_order(self, tmp_path, desk_fixtures):
        cat = self.centre(tmp_path, desk_fixtures)
        r1 = ItemRef("volterra", "legal_texts", "1")
        r2 = ItemRef("volterra", "legal_texts", "2")
        coll = collection_update(cat, "finds", [r1, r2, r1])
        assert coll.refs == [r1, r2]
        coll = collection_update(cat, "finds", [r2, ItemRef("volterra", "legal_texts", "3")])
        assert [r.item_id for r in coll.refs] == ["1", "2", "3"]

    def test_unresolvable_ref_rejected(self, tmp_path, desk_fixtures):
        cat = self.centre(tmp_path, desk_fixtures)
        with pytest.raises(CollectionError):
            collection_update(cat, "finds", [ItemRef("volterra", "legal_texts", "99999")])
        with pytest.raises(CollectionError):
            collection_update(cat, "finds", [ItemRef("ghost", "t", "1")])

    def test_resolve_returns_rows_and_docs(self, tmp_path, desk_fixtures):
        cat = self.centre(tmp_path, desk_fixtures)
        collection_update(
            cat,
            "finds",
            [ItemRef("volterra", "legal_texts", "1"), ItemRef("iaph", "docs", "i0000")],
        )
        items = collection_resolve(cat, "finds")
        assert [i.kind for i in items] == ["row", "doc"]

    def test_dangling_source_reported_per_ref(self, tmp_path, desk_fixtures):
        cat = self.centre(tmp_path, desk_fixtures)
        collection_update(
            cat,
            "finds",
            [ItemRef("volterra", "legal_texts", "1"), ItemRef("iaph", "docs", "i0000")],
        )
        cat.remove_source("iaph")
        items = collection_resolve(cat, "finds")
        assert [i.kind for i in items] == ["row", "error"]

    def test_unknown_collection(self, tmp_path, desk_fixtures):
        cat = self.centre(tmp_path, desk_fixtures)
        with pytest.raises(NotFound):
            collection_resolve(cat, "nope")
