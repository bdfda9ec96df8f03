"""The benchmark's traced child runs the commands it times unchanged.

``perfbench/trace_child.py`` patches names of the program where callers
look them up (catalogue methods, connector and index functions); a name
that moves or disappears breaks the traced run without failing any other
test.  This runs that file as it is, on a desk centre, for one query, one
search and one collection resolve that includes an index-only stub, and
checks that each prints what the plain command prints, and that every
span that times work in the command records at least one call.  On the same
centre, whose catalogue names recipes and indexes, a plain query process
never imports the index code, and no other command imports the query
engine."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import vdc
from vdc.datacentre import AccessMode, Catalogue
from vdc.model import ItemRef

from helpers import register_desk

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_CHILD = os.path.join(REPO, "perfbench", "trace_child.py")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(vdc.__file__)))


@pytest.fixture(scope="module")
def centre(desk_fixtures, tmp_path_factory):
    fx, _ = desk_fixtures
    d = tmp_path_factory.mktemp("traced")
    cat = Catalogue(str(d / "catalogue.vdc"))
    register_desk(cat, fx)
    cat.register_source("sealed", "xml_corpus", os.path.join(fx, "iaph"), AccessMode.INDEX_ONLY)
    recipe = open(os.path.join(fx, "recipes", "iaph.recipe"), encoding="utf-8").read()
    recipe = recipe.replace("from iaph.docs", "from sealed.docs", 1)
    (d / "sealed.recipe").write_text(recipe, encoding="utf-8")
    cat.build_index("sealed_texts", cat.read_recipe(str(d / "sealed.recipe")))
    volterra = cat.read_recipe(os.path.join(fx, "recipes", "volterra.recipe"))
    cat.build_index("vol_texts", volterra)
    cat.update_collection("finds", [
        ItemRef("hgv", "papyri", "1"), ItemRef("iaph", "docs", "i0000"),
        ItemRef("sealed", "docs", "i0001"), ItemRef("volterra", "legal_texts", "2"),
    ])
    cat.persist()
    return d


def _run(centre, argv, *prefix):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, *prefix, "--catalogue", str(centre / "catalogue.vdc"), *argv]
    return subprocess.run(cmd, cwd=centre, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ("query", "SELECT v.id, i.id FROM volterra_texts v JOIN iaph_docs i "
              "ON v.person = i.persons LIMIT 10"),
    ("search", "vol_texts", "lex", "--limit", "5"),
    ("coll", "resolve", "finds"),
], ids=["query", "search", "coll-resolve"])
def test_traced_run_prints_what_the_plain_run_prints(centre, argv):
    plain = _run(centre, argv, "-m", "vdc.cli")
    spans = centre / f"{argv[0]}.spans.jsonl"
    traced = _run(centre, argv, TRACE_CHILD, str(spans))
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert plain.stdout.count(b"\n") > 1
    if argv[0] == "coll":
        kinds = [line.split(b"\t")[1] for line in plain.stdout.splitlines()]
        assert kinds == [b"row", b"doc", b"stub", b"row"]
    calls = Counter()
    for line in spans.read_text().splitlines():
        record = json.loads(line)
        calls[record["name"]] += record.get("n", 0)
    assert {name for name in _TIMED[argv[0]] if calls[name] < 1} == set()


# the spans that time work in each traced command; the query's engine
# stages show that the wrappers replace vdc.cli's own names
_TIMED = {
    "query": {"query.parse", "query.plan", "query.execute", "query.serialize", "datacentre.load",
              "datacentre.resolve", "connectors.open", "connectors.scan", "mediation.apply",
              "model.date_parse"},
    "search": {"textindex.read_index", "textindex.search"},
    "coll": {"connectors.open", "textindex.read_index"},
}


# runs one command, then reports on stderr whether vdc.textindex was imported
_PROBE = (
    "import sys, vdc.cli\n"
    "code = vdc.cli.run(sys.argv[1:])\n"
    "print('textindex imported:', 'vdc.textindex' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("argv,imported", [
    (("query", "SELECT id FROM papyri LIMIT 2"), False),
    (("search", "vol_texts", "lex", "--limit", "5"), True),
], ids=["query", "search"])
def test_only_index_commands_import_the_index_code(centre, argv, imported):
    catalogue = (centre / "catalogue.vdc").read_bytes()
    assert b"\nINDEX " in catalogue
    run = _run(centre, argv, "-c", _PROBE)
    assert run.returncode == 0, run.stderr
    assert run.stderr.endswith(f"textindex imported: {imported}\n".encode())


# runs one command, then writes the names of every module it loaded as the
# last line of stderr
_MODULES_PROBE = (
    "import sys, vdc.cli\n"
    "code = vdc.cli.run(sys.argv[1:])\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
_ENGINE = ("vdc.query", "dataclasses")


@pytest.mark.parametrize("argv,absent", [
    (("search", "vol_texts", "lex", "--limit", "5"), _ENGINE + ("vdc.colimage",)),
    (("coll", "update", "probe", "--add", "hgv/papyri/3"), _ENGINE),
    (("coll", "resolve", "finds"), _ENGINE),
    (("index", "build", "probe_texts", "--recipe", "{fx}/recipes/volterra.recipe"), _ENGINE),
    (("ingest", "hgv", "--recipe", "{fx}/recipes/hgv.recipe"), _ENGINE),
    (("source", "verify", "volterra"), _ENGINE),
    (("fixtures", "generate", "--seed", "3", "--scale", "desk", "--out", "{tmp}/fx"), _ENGINE),
    (("query", "SELECT id FROM papyri LIMIT 2"), ("vdc.textindex",)),
], ids=["search", "coll-update", "coll-resolve", "index-build", "ingest", "source-verify",
        "fixtures-generate", "query"])
def test_a_command_imports_only_its_part(centre, desk_fixtures, tmp_path, argv, absent):
    """Without site, whose hooks may load modules first: only vdc query
    loads the query engine (and with it dataclasses), and it loads no
    index code; a search loads no column image code."""
    argv = [a.format(fx=desk_fixtures[0], tmp=tmp_path) for a in argv]
    run = _run(centre, argv, "-S", "-c", _MODULES_PROBE)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stderr.decode().splitlines()[-1].split())
    assert "vdc.cli" in loaded
    assert not loaded.intersection(absent)
