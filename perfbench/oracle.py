"""Expected stdout of every request, computed by paths independent of the
engine under test, plus the vocabulary the request generator draws from.

* queries: ``vdc.query.reference_eval`` (full materialization, nested
  loops, its own predicates), rendered with ``result_to_csv`` /
  ``result_to_jsonl``;
* searches: a brute-force tokenizing scan of ``Catalogue.ingest`` output,
  as acceptance test 6 does;
* resolved collections: a direct ``csv`` / XML read of the fixture files.

Everything here runs in the benchmark process, outside the timed loop.
"""

from __future__ import annotations

import csv
import os
import re
import unicodedata
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace

from vdc.datacentre import Catalogue
from vdc.model import ColumnKind, row_sort_key
from vdc.query import ResultSet, parse_query, reference_eval, result_to_csv, result_to_jsonl
from vdc.query.binder import Binding
from vdc.textindex import parse_recipe_file, tokenize

SEARCH_HEADER = "doc_id,ref,score\n"


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a fixture CSV, NFC-normalized like the connector."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = [_nfc(h) for h in next(reader)]
        return header, [[_nfc(c) for c in row] for row in reader]


# -- queries -----------------------------------------------------------------

class _Rows:
    """Catalogue stand-in for ``reference_eval``: resolves relations through
    the real catalogue but serves every base scan from rows read once."""

    def __init__(self, catalogue, rows: dict[str, list[list]], keep=None):
        self._catalogue = catalogue
        self._rows = rows
        self._keep = keep or {}

    def resolve_relation(self, name: str):
        relation = self._catalogue.resolve_relation(name)
        if name not in self._rows:
            self._rows[name] = [
                list(relation.scan_base(b, (), False, None))
                for b in range(len(relation.bases))
            ]
        bases = self._rows[name]
        keep = self._keep.get(name)

        def scan_base(base_index, raw_preds, use_connector, raw_eval):
            if raw_preds:
                raise ValueError("the reference scan pushes no predicates")
            for row, warnings in bases[base_index]:
                if keep is None or keep(row):
                    yield row, warnings

        relation.scan_base = scan_base
        return relation


class QueryOracle:
    def __init__(self, catalogue: Catalogue):
        self._catalogue = catalogue
        self._rows: dict[str, list[list]] = {}

    def expected(self, argv: tuple[str, ...]) -> str:
        text, fmt = argv[1], "csv"
        if argv[2:] == ("--format", "json"):
            fmt = "json"
        ast = parse_query(text)
        rs = self._join(ast) if ast.joins else reference_eval(ast, _Rows(self._catalogue, self._rows))
        return result_to_csv(rs) if fmt == "csv" else result_to_jsonl(rs)

    def _join(self, ast):
        """``reference_eval`` once per join-key value, merged and re-sorted.

        The full cross product of volterra_texts x iaph_docs is 7.5M rows
        (tens of seconds and over a gigabyte).  An equi-join matches only
        rows with equal keys and a null key matches nothing, so evaluating
        each key value's rows separately gives the same multiset of rows.
        """
        if len(ast.joins) != 1:
            raise ValueError("the partitioned oracle handles one join")
        source = _Rows(self._catalogue, self._rows)
        binding = Binding(ast, source)
        join = ast.joins[0]
        slots = [binding.slots[binding.bind(c)] for c in (join.left, join.right)]
        names = [binding.relations[s.rel_index].relation.name for s in slots]
        if names[0] == names[1] or any(s.column.kind is ColumnKind.DATE for s in slots):
            raise ValueError("the partitioned oracle needs two relations and non-date keys")
        keys = []
        for name, slot in zip(names, slots):
            keys.append({row[slot.col_index] for base in self._rows[name] for row, _ in base})
        shared = sorted(k for k in keys[0] & keys[1] if k is not None)
        unlimited = replace(ast, limit=None)
        rows = []
        schema = None
        for key in shared or [None]:
            keep = {
                name: (lambda row, i=slot.col_index, key=key: row[i] == key)
                for name, slot in zip(names, slots)
            }
            rs = reference_eval(unlimited, _Rows(self._catalogue, self._rows, keep))
            rows.extend(rs.rows)
            schema = rs.schema
        rows.sort(key=row_sort_key)
        if ast.limit is not None:
            rows = rows[: ast.limit]
        return ResultSet(schema, rows, [])


def query_vocab(fx: str) -> dict:
    """Literals for the query classes, read from the fixture files."""
    header, rows = read_table(os.path.join(fx, "hgv", "papyri.csv"))
    col = {name: i for i, name in enumerate(header)}
    pairs = Counter((r[col["Fundort"]], r[col["Kategorie"]]) for r in rows)
    _, xlate = read_table(os.path.join(fx, "xlate", "de_en.csv"))
    de_en = dict(xlate)
    categories = {r[col["Kategorie"]] for r in rows}
    years = [int(m.group(1)) for r in rows
             if (m := re.match(r"(?:ca\. )?(\d{4})", r[col["Datierung"]]))]
    vheader, vrows = read_table(os.path.join(fx, "volterra", "legal_texts.csv"))
    summary = vheader.index("summary")
    df = Counter(w for r in vrows for w in set(r[summary].split()))
    return {
        "filter_pairs": sorted(p for p, n in pairs.items() if n >= 10),
        "union_categories": sorted(de_en[c] for c in categories if c in de_en),
        "decades": list(range(-(-min(years) // 10), (max(years) - 9) // 10 + 1)),
        "needles": sorted(w for w, n in df.items() if n >= len(vrows) // 5),
    }


# -- searches ----------------------------------------------------------------

class SearchOracle:
    """Brute-force search over the documents a recipe ingests."""

    def __init__(self, catalogue: Catalogue, recipe_path: str):
        with open(recipe_path, "r", encoding="utf-8") as f:
            recipe = parse_recipe_file(f.read())
        docs, _ = catalogue.ingest(recipe)
        self.fields = sorted(recipe.indexed)
        self.docs = [
            (d.doc_id, d.ref.text(), d.geo,
             {f: Counter(tokenize(d.body if f == "body" else d.fields.get(f, "")))
              for f in self.fields})
            for d in docs
        ]

    def vocab(self) -> dict:
        body = Counter(t for *_, tf in self.docs for t in tf.get("body", ()))
        anywhere = Counter(t for *_, tf in self.docs for t in set().union(*tf.values()))
        geo = [g for _, _, g, _ in self.docs if g is not None]
        return {
            "frequent": sorted(t for t, n in body.items() if n >= len(self.docs) // 20),
            "rare": sorted(t for t, n in anywhere.items() if n <= 3),
            "fields": self.fields,
            "geo": (min(g[0] for g in geo), min(g[1] for g in geo),
                    max(g[0] for g in geo), max(g[1] for g in geo)) if geo else None,
        }

    def expected(self, argv: tuple[str, ...]) -> str:
        terms = tokenize(argv[2])
        opts = dict(zip(argv[3::2], argv[4::2]))
        field = opts.get("--field")
        scopes = self.fields if field is None else [f for f in self.fields if f == field]
        bbox = tuple(float(x) for x in opts["--bbox"].split(",")) if "--bbox" in opts else None
        ranked = []
        for doc_id, ref, geo, tf in self.docs:
            score = 0
            for term in terms:
                n = sum(tf[s][term] for s in scopes)
                if n == 0:
                    break
                score += n
            else:
                if bbox is not None and not (
                    geo is not None and bbox[0] <= geo[0] <= bbox[2] and bbox[1] <= geo[1] <= bbox[3]
                ):
                    continue
                ranked.append((-score, doc_id, ref))
        ranked.sort()
        if "--limit" in opts:
            ranked = ranked[: int(opts["--limit"])]
        return SEARCH_HEADER + "".join(f"{d},{r},{-s}\n" for s, d, r in ranked)


# -- resolved collections -----------------------------------------------------

class ResolveOracle:
    """``coll resolve`` lines from a direct read of the fixture files."""

    def __init__(self, fx: str):
        self._fx = fx
        self._tables: dict[str, tuple[list[str], dict[str, list[str]]]] = {}

    def _row(self, source: str, table: str, key: str) -> str:
        if (source, table) not in self._tables:
            header, rows = read_table(os.path.join(self._fx, source, table + ".csv"))
            by_key: dict[str, list[str]] = {}
            for r in rows:
                by_key.setdefault(r[0], r)  # fetch_record returns the first match
            self._tables[source, table] = header, by_key
        header, by_key = self._tables[source, table]
        return ";".join(f"{h}={c}" for h, c in zip(header, by_key[key]))

    def _doc(self, doc_id: str) -> ET.Element:
        root = ET.parse(os.path.join(self._fx, "iaph", doc_id + ".xml")).getroot()
        if root.get("id") != doc_id:
            raise ValueError(f"{doc_id}.xml holds document {root.get('id')!r}")
        return root

    def line(self, ref: str) -> str:
        source, table, key = ref.split("/")
        if source in ("hgv", "volterra"):
            return f"{ref}\trow\t{self._row(source, table, key)}\n"
        root = self._doc(key)
        meta = root.find("meta")
        text = lambda tag: _nfc((meta.findtext(tag) or "").strip())
        persons = "|".join(_nfc(p.text.strip()) for p in meta.findall("persName"))
        if source == "iaph_sealed":
            # index-only: the doc id and the stored manifest fields; only
            # the title is published, the other fields read "-"
            parts = [f"doc_id={key}", f"title={text('title')}", "findspot=-", "category=-"]
            if persons:
                parts.append("persons=-")
            return f"{ref}\tstub\t{';'.join(parts)}\n"
        parts = [f"id={key}", f"title={text('title')}", f"findspot={text('findspot')}"]
        date = meta.find("date")
        for attr, name in (("notBefore", "not_before"), ("notAfter", "not_after")):
            if date is not None and date.get(attr):
                parts.append(f"{name}={_nfc(date.get(attr))}")
        parts.append(f"category={text('category')}")
        if persons:
            parts.append(f"persons={persons}")
        body = re.sub(r"\s+", " ", "".join(root.find("text").itertext())).strip()
        parts.append(f"body={_nfc(body)}")
        return f"{ref}\tdoc\t{';'.join(parts)}\n"

    def expected(self, refs: list[str]) -> str:
        return "".join(self.line(r) for r in refs)


def curate_vocab(fx: str) -> dict:
    """Item keys: first-column values of the tables, corpus document ids."""
    _, hgv = read_table(os.path.join(fx, "hgv", "papyri.csv"))
    _, vol = read_table(os.path.join(fx, "volterra", "legal_texts.csv"))
    return {
        "hgv_keys": [r[0] for r in hgv],
        "vol_keys": [r[0] for r in vol],
        "iaph_ids": sorted(n[:-4] for n in os.listdir(os.path.join(fx, "iaph")) if n.endswith(".xml")),
    }
