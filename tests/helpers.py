"""Shared test machinery: fixture registration, index input from
documents, a seeded query generator and a second reader of XML corpus
documents."""

from __future__ import annotations

import os
import random
import unicodedata
import xml.etree.ElementTree as ET
from itertools import islice

from vdc import textindex
from vdc.datacentre import AccessMode, Catalogue
from vdc.model import format_uncertain_date, parse_uncertain_date

FIXTURE_VIEWS = ("papyri_en", "volterra_texts", "iaph_docs", "all_texts")


def index_docs(index) -> list:
    """Every DOCS entry of an index, decoded, in ordinal order."""
    return [index.doc(o) for o in range(index.n_docs)]


def doc_batches(docs, recipe, size=None):
    """Documents as the batches ``textindex.iter_batches`` makes of the
    rows of ``recipe``'s table, ``size`` at a time (``BATCH_ROWS`` by
    default), read lazily: each ref's item key, each doc id, a column per
    recipe field and the bodies and locations.  Each ref names the recipe's
    relation and each document holds recipe fields only, in the recipe's
    order, as an ingested one does."""
    names = [f for f, _ in recipe.field_map]
    relation = (recipe.source.source_id, recipe.source.table)
    docs = iter(docs)
    while group := list(islice(docs, size or textindex.BATCH_ROWS)):
        for d in group:
            assert (d.ref.source_id, d.ref.container) == relation, d.ref
            assert list(d.fields) == [f for f in names if f in d.fields], d.fields
        yield textindex.Batch(
            [d.ref.item_id for d in group],
            [d.doc_id for d in group],
            [(f, [d.fields.get(f) for d in group]) for f in names],
            [d.body for d in group],
            [d.geo for d in group],
        )


def record_fields(record) -> dict:
    """Every field of a slots record by name, as its ``__slots__`` list
    them: a field that a record holds but does not list cannot exist."""
    return {name: getattr(record, name) for name in type(record).__slots__}


def register_desk(cat: Catalogue, fx: str, mode: AccessMode = AccessMode.LIVE) -> Catalogue:
    cat.register_source("hgv", "tabular", os.path.join(fx, "hgv"), mode)
    cat.register_source("volterra", "tabular", os.path.join(fx, "volterra"), mode)
    cat.register_source("iaph", "xml_corpus", os.path.join(fx, "iaph"), mode)
    cat.add_translation("de_en", os.path.join(fx, "xlate", "de_en.csv"))
    for name in FIXTURE_VIEWS:
        cat.define_view(os.path.join(fx, "views", name + ".view"))
    return cat


# ---------------------------------------------------------------------------
# small generated relations for join-heavy query fuzzing

_TAGS = ["alpha", "beta", "gamma", "delta", "Epsilon", "zeta"]
_NAMES = ["Zeno", "Chariton", "Hermias", "Flavius Karpos", "Aurelia", "Sarapion"]
_YEARS = list(range(180, 260))


def write_small_sources(rng: random.Random, dirpath: str, n_tables: int = 3,
                        max_rows: int = 60) -> list[str]:
    """Write tables small0..smallN (id int, n int, name text, tag text,
    when date_text) with overlapping values so joins actually hit."""
    os.makedirs(dirpath, exist_ok=True)
    tables = []
    for t in range(n_tables):
        name = f"small{t}"
        tables.append(name)
        rows = []
        for i in range(rng.randint(max_rows // 2, max_rows)):
            when = ""
            pick = rng.random()
            if pick < 0.7:
                when = f"{rng.choice(_YEARS):04d}"
            elif pick < 0.8:
                y = rng.choice(_YEARS)
                when = f"{y:04d}/{y + rng.randint(1, 60):04d}"
            elif pick < 0.88:
                when = f"ca. {rng.choice(_YEARS):04d}"
            elif pick < 0.93:
                when = "not a date"
            rows.append(
                [
                    str(i + 1),
                    str(rng.randint(0, 9)),
                    rng.choice(_NAMES),
                    rng.choice(_TAGS),
                    when,
                ]
            )
        with open(os.path.join(dirpath, name + ".csv"), "w", encoding="utf-8", newline="\n") as f:
            f.write("id,n,name,tag,when\n")
            for r in rows:
                f.write(",".join(r) + "\n")
        with open(os.path.join(dirpath, name + ".schema"), "w", encoding="utf-8") as f:
            f.write("id : int\nn : int\nname : text\ntag : text\nwhen : date_text\n")
    return tables


def register_small(cat: Catalogue, rng: random.Random, base_dir: str) -> list[str]:
    """Register the small source plus one coercing view per table; returns
    the view names (each has a real date column ``when``)."""
    src = os.path.join(base_dir, "smallsrc")
    tables = write_small_sources(rng, src)
    cat.register_source("gen", "tabular", src, AccessMode.LIVE)
    views = []
    view_dir = os.path.join(base_dir, "small_views")
    os.makedirs(view_dir, exist_ok=True)
    for t in tables:
        vname = f"v_{t}"
        path = os.path.join(view_dir, vname + ".view")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"view {vname}\nfrom gen.{t}\ncoerce when date\nend\n")
        cat.define_view(path)
        views.append(vname)
    return views


class QueryGen:
    """Seeded generator of well-typed queries over the small views."""

    def __init__(self, rng: random.Random, views: list[str]):
        self.rng = rng
        self.views = views
        # column kinds of the small views after coercion
        self.int_cols = ["id", "n"]
        self.text_cols = ["name", "tag"]
        self.date_cols = ["when"]

    def _literal_text(self) -> str:
        return self.rng.choice(_NAMES + _TAGS)

    def _pred(self, alias: str, allow_cross: list[str]) -> str:
        rng = self.rng
        kind = rng.random()
        if kind < 0.35:
            col = rng.choice(self.int_cols)
            op = rng.choice(["=", "!=", "<", ">", "<=", ">="])
            return f"{alias}.{col} {op} {rng.randint(0, 9)}"
        if kind < 0.6:
            col = rng.choice(self.text_cols)
            op = rng.choice(["=", "!=", "<", ">="])
            return f"{alias}.{col} {op} '{self._literal_text()}'"
        if kind < 0.75:
            col = rng.choice(self.text_cols)
            needle = self._literal_text()
            i = rng.randint(0, max(0, len(needle) - 3))
            frag = needle[i : i + rng.randint(2, 4)]
            if rng.random() < 0.5:
                frag = frag.upper()
            return f"{alias}.{col} CONTAINS '{frag}'"
        if kind < 0.88:
            lo = rng.choice(_YEARS)
            hi = lo + rng.randint(0, 80)
            return f"DATE_WITHIN({alias}.when, '{lo:04d}', '{hi:04d}')"
        other = rng.choice(allow_cross) if allow_cross and rng.random() < 0.7 else alias
        return f"DATE_NEAR({alias}.when, {other}.when, {rng.randint(0, 10)})"

    def query(self) -> str:
        rng = self.rng
        n_rels = rng.choice([1, 1, 1, 2, 2, 3])
        rels = [rng.choice(self.views) for _ in range(n_rels)]
        aliases = [f"r{i}" for i in range(n_rels)]
        join_cols = ["id", "n", "tag", "name", "when"]
        sql = []
        if rng.random() < 0.3:
            select = "*"
        else:
            cols = []
            seen = set()
            for _ in range(rng.randint(1, 4)):
                a = rng.choice(aliases)
                c = rng.choice(self.int_cols + self.text_cols + self.date_cols)
                if (a, c) not in seen:
                    seen.add((a, c))
                    cols.append(f"{a}.{c}")
            select = ", ".join(cols)
        sql.append(f"SELECT {select} FROM {rels[0]} {aliases[0]}")
        for i in range(1, n_rels):
            col = rng.choice(join_cols)
            prev = rng.choice(aliases[:i])
            sql.append(f"JOIN {rels[i]} {aliases[i]} ON {prev}.{col} = {aliases[i]}.{col}")
        n_preds = rng.randint(0, 3)
        preds = [self._pred(rng.choice(aliases), aliases) for _ in range(n_preds)]
        if preds:
            sql.append("WHERE " + " AND ".join(preds))
        if rng.random() < 0.25:
            sql.append(f"LIMIT {rng.randint(1, 20)}")
        return " ".join(sql)


def canonical_date_text(text: str) -> str:
    return format_uncertain_date(parse_uncertain_date(text))


# ---------------------------------------------------------------------------
# an independent reader of the XML document subset, for differential tests
# of the connector's expat reader (kept out of vdc.query.reference, whose
# scans go through the engine's connectors)

def _nfc_or_null(text: str | None) -> str | None:
    text = (text or "").strip()
    return unicodedata.normalize("NFC", text) if text else None


def etree_docs_row(data: bytes) -> tuple:
    """The ``docs`` row of a valid subset document, read with ElementTree:
    id, title, findspot, not_before, not_after, category, persons, body.
    Empty or all-whitespace metadata and an empty body are null; persons
    are the non-empty ``persName`` texts joined with ``|``; the body is all
    character data inside ``<text>``, whitespace runs collapsed."""
    root = ET.fromstring(data)
    meta = root.find("meta")
    cells = dict.fromkeys(("title", "findspot", "not_before", "not_after", "category"))
    persons = []
    for el in meta if meta is not None else ():
        if el.tag == "date":
            for attr, key in (("notBefore", "not_before"), ("notAfter", "not_after")):
                if el.get(attr):
                    cells[key] = unicodedata.normalize("NFC", el.get(attr))
        elif el.tag == "persName":
            person = _nfc_or_null("".join(el.itertext()))
            if person is not None:
                persons.append(person)
        else:
            cells[el.tag] = _nfc_or_null("".join(el.itertext()))
    text = root.find("text")
    body = None if text is None else _nfc_or_null(" ".join("".join(text.itertext()).split()))
    return (
        unicodedata.normalize("NFC", root.get("id")),
        *cells.values(),
        "|".join(persons) or None,
        body,
    )
