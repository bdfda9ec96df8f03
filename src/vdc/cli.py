"""Command-line surface of the data centre.

One invocation is one process; mutating subcommands take a non-blocking
lock on the catalogue and fail fast (exit 1) if another mutator holds it.
Diagnostics go to stderr, data to stdout.  Exit codes: 0 success, 1 usage
error or lock contention, 2 data/parse error, 3 access denied.
"""

from __future__ import annotations

import argparse
import os
import sys

from .datacentre import AccessMode, Catalogue, catalogue_lock
from .errors import AccessDenied, LockedError, NotFound, VdcError
from .model import ItemRef, cell_text, csv_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DENIED = 3

# the exit code of each error a command may raise; the first match counts.
# Any other exception is a fault of the program, and shows as a traceback.
_ERROR_EXITS = (
    (LockedError, EXIT_USAGE),
    (AccessDenied, EXIT_DENIED),
    ((VdcError, OSError), EXIT_DATA),
)

_KIND_FLAGS = {"tabular": "tabular", "xml": "xml_corpus"}


def _from_query_engine(name: str):
    """``vdc.query``'s function ``name``, imported when called: only
    ``vdc query`` pays for compiling the engine."""

    def call(*args, **kwargs):
        from . import query

        return getattr(query, name)(*args, **kwargs)

    return call


# _cmd_query looks these up as module globals, so perfbench/trace_child.py can
# replace them here with its query.* spans (until ROADMAP item 2 step B)
parse_query = _from_query_engine("parse_query")
plan_query = _from_query_engine("plan_query")
execute_plan = _from_query_engine("execute_plan")
result_to_csv = _from_query_engine("result_to_csv")
result_to_jsonl = _from_query_engine("result_to_jsonl")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="vdc", description="single-node virtual data centre")
    p.add_argument(
        "--catalogue",
        default=os.environ.get("VDC_CATALOGUE", "./catalogue.vdc"),
        help="catalogue file (default ./catalogue.vdc, or $VDC_CATALOGUE)",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    source = sub.add_parser("source", help="manage sources").add_subparsers(
        dest="sub", required=True
    )
    s_add = source.add_parser("add", help="register a source")
    s_add.add_argument("id")
    s_add.add_argument("--kind", choices=sorted(_KIND_FLAGS), required=True)
    s_add.add_argument("--path", required=True)
    s_add.add_argument("--mode", choices=[m.value for m in AccessMode], required=True)
    s_verify = source.add_parser("verify", help="check a source's content against its checksums")
    s_verify.add_argument("id")

    view = sub.add_parser("view", help="manage views").add_subparsers(
        dest="sub", required=True
    )
    v_def = view.add_parser("define", help="define a view from a file")
    v_def.add_argument("file")

    xlate = sub.add_parser("xlate", help="manage translation tables").add_subparsers(
        dest="sub", required=True
    )
    x_add = xlate.add_parser("add", help="register a translation table")
    x_add.add_argument("id")
    x_add.add_argument("file")

    q = sub.add_parser("query", help="run a federated query")
    q.add_argument("q")
    q.add_argument("--format", choices=["csv", "json"], default="csv")
    q.add_argument("--no-pushdown", action="store_true")

    ing = sub.add_parser("ingest", help="run a recipe and list the documents")
    ing.add_argument("source")
    ing.add_argument("--recipe", required=True)

    index = sub.add_parser("index", help="manage indexes").add_subparsers(
        dest="sub", required=True
    )
    i_build = index.add_parser("build", help="ingest + build + publish an index")
    i_build.add_argument("collection")
    i_build.add_argument("--recipe", required=True)
    i_verify = index.add_parser("verify", help="decode and check all of a published index")
    i_verify.add_argument("collection")

    se = sub.add_parser("search", help="search a published index")
    se.add_argument("collection")
    se.add_argument("terms")
    se.add_argument("--field")
    se.add_argument("--bbox", help="min_lat,min_lon,max_lat,max_lon")
    se.add_argument("--limit", type=int)

    coll = sub.add_parser("coll", help="manage virtual collections").add_subparsers(
        dest="sub", required=True
    )
    c_upd = coll.add_parser("update", help="add refs to a collection")
    c_upd.add_argument("name")
    c_upd.add_argument("--add", nargs="+", action="extend", required=True, metavar="REF")
    c_res = coll.add_parser("resolve", help="resolve a collection's refs")
    c_res.add_argument("name")

    fx = sub.add_parser("fixtures", help="synthetic datasets").add_subparsers(
        dest="sub", required=True
    )
    f_gen = fx.add_parser("generate", help="emit the synthetic sources")
    f_gen.add_argument("--seed", type=int, required=True)
    f_gen.add_argument("--scale", choices=["desk", "paper"], required=True)
    f_gen.add_argument("--out", required=True)

    return p


def _load_catalogue(path: str) -> Catalogue:
    if not os.path.exists(path):
        raise VdcError(f"no catalogue at {path} (register a source first)")
    return Catalogue.load(path)


def _mutate(args, fn) -> int:
    """Run a catalogue mutation under the non-blocking lock and persist;
    the line ``fn`` returns reports it once it is persisted."""
    with catalogue_lock(args.catalogue):
        if os.path.exists(args.catalogue):
            cat = Catalogue.load(args.catalogue)
        else:
            cat = Catalogue(args.catalogue)
        done = fn(cat)
        cat.persist()
    print(done, file=sys.stderr)
    return EXIT_OK


def _cmd_source_add(args) -> int:
    def fn(cat: Catalogue):
        desc = cat.register_source(
            args.id, _KIND_FLAGS[args.kind], args.path, AccessMode(args.mode)
        )
        return f"registered {desc.source_id} ({desc.kind}, {desc.mode.value})"

    return _mutate(args, fn)


def _cmd_source_verify(args) -> int:
    cat = _load_catalogue(args.catalogue)
    print(f"verified {args.id}: {cat.verify_source(args.id)}", file=sys.stderr)
    return EXIT_OK


def _cmd_view_define(args) -> int:
    def fn(cat: Catalogue):
        view = cat.define_view(args.file)
        return f"defined view {view.name}"

    return _mutate(args, fn)


def _cmd_xlate_add(args) -> int:
    def fn(cat: Catalogue):
        table = cat.add_translation(args.id, args.file)
        return f"registered translation table {table.id} ({len(table.entries)} terms)"

    return _mutate(args, fn)


def _cmd_query(args) -> int:
    cat = _load_catalogue(args.catalogue)
    ast = parse_query(args.q)
    plan = plan_query(ast, cat, pushdown=not args.no_pushdown)
    rs = execute_plan(plan)
    out = result_to_csv(rs) if args.format == "csv" else result_to_jsonl(rs)
    sys.stdout.write(out)
    for w in rs.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def _cmd_ingest(args) -> int:
    cat = _load_catalogue(args.catalogue)
    recipe = cat.read_recipe(args.recipe)
    if recipe.source.source_id != args.source:
        raise VdcError(f"recipe reads {recipe.source.source_id!r}, not {args.source!r}")
    docs, warnings = cat.ingest(recipe)
    sys.stdout.write(csv_text([("doc_id", "ref"), *((d.doc_id, d.ref.text()) for d in docs)]))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def _cmd_index_build(args) -> int:
    def fn(cat: Catalogue):
        recipe = cat.read_recipe(args.recipe)
        path, warnings = cat.build_index(args.collection, recipe)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        return f"published index {args.collection} at {path}"

    return _mutate(args, fn)


def _cmd_index_verify(args) -> int:
    cat = _load_catalogue(args.catalogue)
    print(f"verified {args.collection}: {cat.get_index(args.collection).verify()}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_search(args) -> int:
    from . import textindex  # only the index commands load it

    cat = _load_catalogue(args.catalogue)
    index = cat.get_index(args.collection)
    bbox = None
    if args.bbox:
        parts = args.bbox.split(",")
        if len(parts) != 4:
            raise VdcError("--bbox needs min_lat,min_lon,max_lat,max_lon")
        try:
            bbox = tuple(float(x) for x in parts)
        except ValueError as e:
            raise VdcError(f"bad --bbox value: {e}") from e
    terms = tuple(textindex.tokenize(args.terms))
    try:
        q = textindex.SearchQuery(terms, args.field, bbox, args.limit)
    except ValueError as e:
        raise VdcError(str(e)) from e
    hits = textindex.search(index, q)
    rows = ((doc_id, ref, str(score)) for doc_id, ref, score in hits)
    sys.stdout.write(csv_text([("doc_id", "ref", "score"), *rows]))
    return EXIT_OK


def _cmd_coll_update(args) -> int:
    refs = []
    for text in args.add:
        try:
            refs.append(ItemRef.parse(text))
        except ValueError as e:
            raise VdcError(str(e)) from e

    def fn(cat: Catalogue):
        members = cat.update_collection(args.name, refs)
        return f"collection {args.name}: {len(members)} refs"

    return _mutate(args, fn)


def _cmd_coll_resolve(args) -> int:
    cat = _load_catalogue(args.catalogue)
    if args.name not in cat.collections:
        raise NotFound(f"no collection {args.name!r}")
    for item in cat.resolve_refs(cat.collections[args.name]):
        if item.kind in ("row", "doc"):
            schema, row = item.payload
            cells = list(zip(schema.column_names(), row))
            if item.kind == "doc":  # the metadata it has, then its body
                cells = [(n, v) for n, v in cells[:-1] if v is not None] + [cells[-1]]
            detail = ";".join(f"{n}={cell_text(v)}" for n, v in cells)
        elif item.kind == "stub":
            parts = [f"doc_id={item.payload['doc_id']}"]
            parts += [f"{k}={v}" for k, v in item.payload["fields"].items()]
            detail = ";".join(parts)
        else:
            print(f"error: {item.ref.text()}: {item.payload}", file=sys.stderr)
            continue
        print(f"{item.ref.text()}\t{item.kind}\t{detail}")
    return EXIT_OK


def _cmd_fixtures_generate(args) -> int:
    from . import fixtures as fixturegen  # only this command needs it

    spec = fixturegen.FixtureSpec(args.seed, args.scale, args.out)
    manifest = fixturegen.generate_fixtures(spec)
    near = len(manifest.near_pairs())
    print(
        f"generated {args.scale} fixtures in {args.out}: "
        f"{len(manifest.of_kind('homonym'))} homonym pairs ({near} within 5y), "
        f"{len(manifest.of_kind('shared_findspot'))} shared findspots, "
        f"{len(manifest.of_kind('shared_category'))} shared categories",
        file=sys.stderr,
    )
    return EXIT_OK


def _join_bbox(argv: list[str]) -> list[str]:
    """``--bbox -10,20,30,40`` as ``--bbox=-10,20,30,40``: argparse reads a
    value that starts with ``-`` and is not a plain number as an option, so
    a box reaching south of the equator would need the ``=`` form."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--bbox" and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and "," in argv[i + 1]:
            out.append("--bbox=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def run(argv: list[str]) -> int:
    """Parse argv and execute one subcommand, mapping errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_bbox(argv))
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {
        ("source", "add"): _cmd_source_add,
        ("source", "verify"): _cmd_source_verify,
        ("view", "define"): _cmd_view_define,
        ("xlate", "add"): _cmd_xlate_add,
        ("query", None): _cmd_query,
        ("ingest", None): _cmd_ingest,
        ("index", "build"): _cmd_index_build,
        ("index", "verify"): _cmd_index_verify,
        ("search", None): _cmd_search,
        ("coll", "update"): _cmd_coll_update,
        ("coll", "resolve"): _cmd_coll_resolve,
        ("fixtures", "generate"): _cmd_fixtures_generate,
    }
    handler = handlers[(args.cmd, getattr(args, "sub", None))]
    try:
        return handler(args)
    except (VdcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_EXITS if isinstance(e, kinds))


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
