"""Mutation fuzzing of the text readers: the catalogue file, a view file, a
recipe, a translation table, and a CSV table with its ``.schema`` sidecar.

Each input is a valid file of the desk centre after a few cuts, inserted
bytes, bit flips and spliced spans.  Every one must load (or scan), or
raise a ``VdcError`` subclass: the CLI maps only those (and ``OSError``)
to an exit code, so any other exception would show as a traceback.  The
XML reader and the column image have their own fuzz tests."""

import csv
import os
import shutil
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdc.connectors import open_source
from vdc.datacentre import AccessMode, Catalogue
from vdc.errors import VdcError
from vdc.mediation import load_translation_table
from vdc.model import ItemRef

from helpers import FIXTURE_VIEWS

# bytes that mean something to one of the readers, or to UTF-8
_TOKENS = [
    b"\n", b"\r", b"\r\n", b" ", b"\t", b'"', b'""', b",", b":", b"#", b"=", b"->", b"/", b".",
    b"-", b"0", b"99999999999", b"\x00", b"\xff", b"\xc3", b"\xef\xbb\xbf", b"\xe2\x80\x8b",
    b"e\xcc\x81", b"VDCCAT 1", b"SOURCE", b"VIEWFILE", b"XLATE", b"INDEX", b"COLL", b"RECIPE",
    b"vault", b"live", b"index-only", b"tabular", b"xml_corpus", b"view", b"from", b"union",
    b"rename", b"coerce", b"translate", b"using", b"end", b"recipe", b"id", b"field", b"body",
    b"index", b"int", b"text", b"date_text", b"hgv.papyri", b"de_en", b"hgv/papyri/1",
]


@st.composite
def _mutated(draw, seed: bytes) -> bytes:
    """``seed`` after one to four edits: a cut span or a cut tail, an
    inserted token, a flipped bit, or a span of the input spliced in."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["cut", "tail", "insert", "flip", "splice"]))
        if edit == "cut":
            del data[at:at + draw(st.integers(1, 24))]
        elif edit == "tail":
            del data[at:]
        elif edit == "insert":
            data[at:at] = draw(st.sampled_from(_TOKENS))
        elif edit == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif edit == "splice":
            start = draw(st.integers(0, len(data)))
            data[at:at] = data[start:start + draw(st.integers(1, 40))]
    return bytes(data)


def _trim_table(src: str, dst: str, table: str, records: int) -> None:
    os.makedirs(dst)
    shutil.copyfile(os.path.join(src, table + ".schema"), os.path.join(dst, table + ".schema"))
    with open(os.path.join(src, table + ".csv"), encoding="utf-8", newline="") as f:
        rows = list(islice(csv.reader(f), records + 1))
    with open(os.path.join(dst, table + ".csv"), "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def centre(desk_fixtures, tmp_path_factory):
    """The desk centre over its first few records: ``hgv`` a vault,
    ``volterra`` and ``iaph`` live, the translation table, every view, an
    index and a collection, persisted to ``catalogue.vdc``; and
    ``bare.vdc``, the same catalogue without its views."""
    fx, _ = desk_fixtures
    d = tmp_path_factory.mktemp("fuzz")
    _trim_table(os.path.join(fx, "hgv"), str(d / "hgv"), "papyri", 6)
    _trim_table(os.path.join(fx, "volterra"), str(d / "volterra"), "legal_texts", 6)
    os.makedirs(d / "iaph")
    for name in sorted(os.listdir(os.path.join(fx, "iaph")))[:3]:
        shutil.copyfile(os.path.join(fx, "iaph", name), d / "iaph" / name)
    cat = Catalogue(str(d / "catalogue.vdc"))
    cat.register_source("hgv", "tabular", str(d / "hgv"), AccessMode.VAULT)
    cat.register_source("volterra", "tabular", str(d / "volterra"), AccessMode.LIVE)
    cat.register_source("iaph", "xml_corpus", str(d / "iaph"), AccessMode.LIVE)
    cat.add_translation("de_en", os.path.join(fx, "xlate", "de_en.csv"))
    for name in FIXTURE_VIEWS:
        cat.define_view(os.path.join(fx, "views", name + ".view"))
    cat.build_index("vol_texts", cat.read_recipe(os.path.join(fx, "recipes", "volterra.recipe")))
    cat.update_collection("finds", [ItemRef("hgv", "papyri", "1"), ItemRef("iaph", "docs", "i0000")])
    cat.persist()
    text = cat.serialize()
    bare = "".join(line for line in text.splitlines(True) if not line.startswith("VIEWFILE "))
    (d / "bare.vdc").write_text(bare, encoding="utf-8")
    return d, fx


def _seed(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_catalogue_loads_or_raises(centre, data):
    d, _ = centre
    path = d / "mutated.vdc"
    path.write_bytes(data.draw(_mutated(_seed(d / "catalogue.vdc"))))
    try:
        Catalogue.load(str(path))
    except VdcError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(FIXTURE_VIEWS))
def test_view_defines_or_raises(centre, data, name):
    d, fx = centre
    path = d / "mutated.view"
    path.write_bytes(data.draw(_mutated(_seed(os.path.join(fx, "views", name + ".view")))))
    cat = Catalogue.load(str(d / "bare.vdc"))
    try:
        cat.define_view(str(path))
    except VdcError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(["hgv", "volterra", "iaph"]))
def test_recipe_reads_and_ingests_or_raises(centre, data, name):
    d, fx = centre
    path = d / "mutated.recipe"
    path.write_bytes(data.draw(_mutated(_seed(os.path.join(fx, "recipes", name + ".recipe")))))
    cat = Catalogue.load(str(d / "catalogue.vdc"))
    try:
        cat.ingest(cat.read_recipe(str(path)))
    except VdcError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_translation_table_loads_or_raises(centre, data):
    d, fx = centre
    path = d / "mutated.csv"
    path.write_bytes(data.draw(_mutated(_seed(os.path.join(fx, "xlate", "de_en.csv")))))
    try:
        load_translation_table("t", str(path))
    except VdcError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data(), table=st.sampled_from(["hgv/papyri", "volterra/legal_texts"]),
       damaged=st.sampled_from([(".csv",), (".schema",), (".csv", ".schema")]))
def test_table_scans_or_raises(centre, data, table, damaged):
    """Scanned with every column and with the key alone: both give the same
    rows, up to the cells the second leaves undecoded, or both raise."""
    d, _ = centre
    source = d / "mutated_table"
    shutil.rmtree(source, ignore_errors=True)
    os.makedirs(source)
    for ext in (".csv", ".schema"):
        seed = _seed(str(d / table) + ext)
        (source / ("t" + ext)).write_bytes(data.draw(_mutated(seed)) if ext in damaged else seed)
    try:
        handle = open_source("m", "tabular", str(source))
    except VdcError:
        return
    outcomes = []
    for columns in (None, [0]):
        try:
            outcomes.append(list(handle.scan("t", columns=columns)))
        except VdcError as e:
            outcomes.append(type(e))
    full, key = outcomes
    if isinstance(full, list):
        assert key == [(row[0],) + (None,) * (len(row) - 1) for row in full]
    else:
        assert key == full
