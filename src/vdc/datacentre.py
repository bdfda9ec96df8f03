"""The catalogue: source registration under trust modes, record fetching,
relation resolution for the query engine, and persistence.

Trust modes fix what the centre may do with a source:

* vault — the source is snapshotted byte-for-byte into the centre's storage
  directory at registration; every later read hits the snapshot, so the
  original may move or vanish without affecting results.
* live — every read passes through to the original path, read-only; if the
  owner withdraws the source, the next scan fails cleanly.
* index-only — the content is readable solely while building a text index;
  afterwards only the index is retained and record fetches are denied.

The catalogue file is line-based UTF-8 and references view/recipe/xlate
definition files by path; persistence is atomic (temp file + rename) and
serialized by an advisory file lock.
"""

from __future__ import annotations

import fcntl
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

from . import connectors, mediation, textindex
from .atomic import write_atomic
from .connectors import CorpusDoc, SourceDescriptor, SourceHandle, row_item_key
from .errors import (
    AccessDenied,
    IntegrityError,
    LockedError,
    NotFound,
    ParseError,
    PlanError,
    SourceError,
    VdcError,
)
from .mediation import (
    CompiledView,
    RelationRef,
    TranslationTable,
    ViewDefinition,
)
from .model import ItemRef, Row, TableSchema
from .predicates import Compare, Contains
from .textindex import (
    IngestRecipe,
    InvertedIndex,
    ResolvedItem,
    VirtualCollection,
)

CATALOGUE_MAGIC = "VDCCAT 1"
DEFAULT_MANIFEST_FIELDS = ("title",)


class AccessMode(Enum):
    VAULT = "vault"
    LIVE = "live"
    INDEX_ONLY = "index-only"

    @classmethod
    def parse(cls, s: str) -> "AccessMode":
        for m in cls:
            if m.value == s:
                return m
        raise ValueError(f"unknown access mode {s!r}")


@contextmanager
def catalogue_lock(catalogue_path: str, blocking: bool = True):
    """Advisory exclusive lock guarding catalogue mutation and persistence."""
    lock_path = catalogue_path + ".lock"
    fd = open(lock_path, "a+")
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB))
        except OSError as e:
            raise LockedError(f"catalogue {catalogue_path} is locked") from e
        yield
    finally:
        fd.close()  # releases the lock


# --------------------------------------------------------------------------
# relations (the query engine's view of the catalogue)

@dataclass
class BaseBinding:
    ref: RelationRef
    raw_schema: TableSchema
    supports_compare: bool
    supports_contains: bool
    # view column -> (raw column, transformed); identity for raw tables
    origin: dict[str, tuple[str, bool]]


class Relation:
    """A registered raw table or view, scannable base by base."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        bases: list[BaseBinding],
        catalogue: "Catalogue",
        compiled: CompiledView | None,
    ):
        self.name = name
        self.schema = schema
        self.bases = bases
        self._catalogue = catalogue
        self._compiled = compiled

    def scannable(self, column: str) -> bool:
        """True when a predicate on this column may run on raw rows."""
        for b in self.bases:
            origin = b.origin.get(column)
            if origin is None or origin[1]:
                return False
        return True

    def rewrite_raw(self, base_index: int, pred):
        raw_name = self.bases[base_index].origin[pred.column][0]
        if isinstance(pred, Compare):
            return Compare(raw_name, pred.op, pred.literal)
        return Contains(raw_name, pred.needle)

    def connector_supports(self, base_index: int, preds: Sequence) -> bool:
        b = self.bases[base_index]
        for p in preds:
            if isinstance(p, Contains) and not b.supports_contains:
                return False
            if isinstance(p, Compare) and not b.supports_compare:
                return False
        return True

    def estimate_rows(self) -> int:
        """Raw row count over all bases.  The planner does not use it; the
        benchmark's traced run wraps it by name, so it stays until that
        benchmark changes."""
        total = 0
        for b in self.bases:
            handle = self._catalogue.open_handle(b.ref.source_id)
            total += handle.estimate_rows(b.ref.table)
        return total

    def scan_base(
        self,
        base_index: int,
        raw_preds: Sequence,
        use_connector: bool,
        raw_eval: Callable | None,
    ) -> Iterator[tuple[Row, list]]:
        """Yield (mediated row, coercion warnings) for one base relation.

        ``raw_preds`` are raw-space scan predicates; the connector applies
        them when ``use_connector``, otherwise ``raw_eval`` does, on the raw
        rows, before mediation.  Both routes run ``predicates.matches``: the
        connector calls it itself and the executor passes it as
        ``raw_eval``.
        """
        b = self.bases[base_index]
        handle = self._catalogue.open_handle(b.ref.source_id)
        if use_connector and raw_preds:
            rows = handle.scan(b.ref.table, pushed=raw_preds)
        else:
            rows = handle.scan(b.ref.table)
        for raw_row in rows:
            if raw_preds and not use_connector:
                if not raw_eval(b.raw_schema, raw_preds, raw_row):
                    continue
            if self._compiled is None:
                yield raw_row, []
            else:
                ref = ItemRef(
                    b.ref.source_id, b.ref.table, row_item_key(raw_row) or "?"
                ).text()
                yield self._compiled.apply(base_index, raw_row, ref)


# --------------------------------------------------------------------------
# the catalogue

@dataclass
class _ViewEntry:
    path: str
    definition: ViewDefinition


@dataclass
class _XlateEntry:
    path: str
    table: TranslationTable


@dataclass
class _RecipeEntry:
    path: str
    recipe: IngestRecipe


class Catalogue:
    """All registrations of one data centre, backed by one catalogue file."""

    def __init__(
        self,
        path: str = "./catalogue.vdc",
        strict_translate: bool = False,
        manifest_fields: Sequence[str] = DEFAULT_MANIFEST_FIELDS,
    ):
        self.path = path
        self.store_dir = path + ".store"
        self.strict_translate = strict_translate
        self.manifest_fields = tuple(manifest_fields)
        self.sources: dict[str, SourceDescriptor] = {}
        self.views: dict[str, _ViewEntry] = {}
        self.xlates: dict[str, _XlateEntry] = {}
        self.recipes: dict[str, _RecipeEntry] = {}
        self.indexes: dict[str, str] = {}  # collection -> index file path
        self.collections: dict[str, VirtualCollection] = {}
        self._vault_handles: dict[str, SourceHandle] = {}
        self._index_cache: dict[str, InvertedIndex] = {}

    # -- sources -----------------------------------------------------------
    def register_source(self, source_id: str, kind: str, path: str, mode: AccessMode) -> SourceDescriptor:
        if source_id in self.sources:
            raise IntegrityError(f"source id {source_id!r} already registered")
        if "/" in source_id or not source_id:
            raise IntegrityError(f"bad source id {source_id!r}")
        if not os.path.isdir(path):
            raise SourceError("source path is not a readable directory", path=path)
        # validate layout before accepting (and before snapshotting)
        connectors.open_source(SourceDescriptor(source_id, kind, path, mode))
        if mode is AccessMode.VAULT:
            path = self._snapshot(source_id, path)
        desc = SourceDescriptor(source_id, kind, path, mode)
        self.sources[source_id] = desc
        return desc

    def _snapshot(self, source_id: str, original: str) -> str:
        """Copy a source byte-for-byte into the centre's storage directory."""
        vault_root = os.path.join(self.store_dir, "vault")
        os.makedirs(vault_root, exist_ok=True)
        final = os.path.join(vault_root, source_id)
        if os.path.exists(final):
            raise IntegrityError(f"vault snapshot for {source_id!r} already exists")
        tmp = tempfile.mkdtemp(prefix=source_id + ".", dir=vault_root)
        try:
            for name in sorted(os.listdir(original)):
                src = os.path.join(original, name)
                if os.path.isfile(src):
                    shutil.copyfile(src, os.path.join(tmp, name))
            os.replace(tmp, final)
        except OSError as e:
            shutil.rmtree(tmp, ignore_errors=True)
            raise SourceError(f"vault snapshot failed: {e}", path=original) from e
        return final

    def remove_source(self, source_id: str) -> None:
        """Deregister a source.  Collections keep their refs (they are
        metadata); resolving them reports dangling items per ref."""
        if source_id not in self.sources:
            raise NotFound(f"no source {source_id!r}")
        del self.sources[source_id]
        self._vault_handles.pop(source_id, None)

    def _descriptor(self, source_id: str) -> SourceDescriptor:
        try:
            return self.sources[source_id]
        except KeyError:
            raise NotFound(f"no source {source_id!r}") from None

    def open_handle(self, source_id: str, for_ingest: bool = False) -> SourceHandle:
        """Open a source under its mode rules.

        Index-only content is reachable only with ``for_ingest`` (the
        ingest+index run); vault handles are cached (snapshots are
        immutable), live sources are re-opened every time.
        """
        desc = self._descriptor(source_id)
        if desc.mode is AccessMode.INDEX_ONLY and not for_ingest:
            raise AccessDenied(
                f"source {source_id!r} is index-only: records are not retrievable"
            )
        if desc.mode is AccessMode.VAULT:
            if source_id not in self._vault_handles:
                self._vault_handles[source_id] = connectors.open_source(desc)
            return self._vault_handles[source_id]
        return connectors.open_source(desc)

    def table_schema(self, source_id: str, table: str) -> TableSchema:
        return self.open_handle(source_id).schema(table)

    # -- views and translation tables ---------------------------------------
    def add_translation(self, xlate_id: str, path: str) -> TranslationTable:
        if xlate_id in self.xlates:
            raise IntegrityError(f"translation table {xlate_id!r} already registered")
        table = mediation.load_translation_table(xlate_id, path)
        self.xlates[xlate_id] = _XlateEntry(path, table)
        return table

    def define_view(self, path: str) -> ViewDefinition:
        try:
            with open(path, "r", encoding="utf-8") as f:
                view = mediation.parse_view_file(f.read())
        except OSError as e:
            raise SourceError(f"cannot read view file: {e}", path=path) from e
        if view.name in self.views:
            raise IntegrityError(f"view {view.name!r} already defined")
        self._compile_view(view)  # fail fast on unresolvable views
        self.views[view.name] = _ViewEntry(path, view)
        return view

    def _compile_view(self, view: ViewDefinition) -> CompiledView:
        schemas = []
        for ref in view.base:
            desc = self._descriptor(ref.source_id)
            if desc.mode is AccessMode.INDEX_ONLY:
                raise AccessDenied(
                    f"source {ref.source_id!r} is index-only: not queryable"
                )
            schemas.append(self.table_schema(ref.source_id, ref.table))
        xlates = {xid: e.table for xid, e in self.xlates.items()}
        return mediation.compile_view(
            view, schemas, xlates, strict_translate=self.strict_translate
        )

    # -- relation resolution -------------------------------------------------
    def resolve_relation(self, name: str) -> Relation:
        """Resolve a query FROM term: a view name, ``source.table``, or a
        bare table name unique across the registered sources."""
        if "." in name:
            try:
                ref = RelationRef.parse(name)
            except ValueError as e:
                raise PlanError(str(e)) from e
            return self._raw_relation(ref)
        if name in self.views:
            view = self.views[name].definition
            compiled = self._compile_view(view)
            bases = []
            for b, ref in enumerate(view.base):
                handle = self.open_handle(ref.source_id)
                bases.append(
                    BaseBinding(
                        ref,
                        handle.schema(ref.table),
                        supports_compare=handle.kind == connectors.TABULAR,
                        supports_contains=handle.supports_contains,
                        origin=compiled.origins[b],
                    )
                )
            return Relation(view.name, compiled.schema, bases, self, compiled)
        candidates = []
        for source_id, desc in self.sources.items():
            if desc.mode is AccessMode.INDEX_ONLY:
                # Table names are metadata: a bare-name match on an
                # index-only source is reported as denied, not hidden.
                try:
                    handle = connectors.open_source(desc)
                except SourceError:
                    continue  # original withdrawn; only its index remains
            else:
                handle = self.open_handle(source_id)
            for schema in handle.list_tables():
                if schema.name == name:
                    if desc.mode is AccessMode.INDEX_ONLY:
                        raise AccessDenied(
                            f"source {source_id!r} is index-only: not queryable"
                        )
                    candidates.append(RelationRef(source_id, name))
        if not candidates:
            raise NotFound(f"no view or table named {name!r}")
        if len(candidates) > 1:
            owners = ", ".join(c.source_id for c in candidates)
            raise PlanError(f"table {name!r} is ambiguous across sources: {owners}")
        return self._raw_relation(candidates[0])

    def _raw_relation(self, ref: RelationRef) -> Relation:
        desc = self._descriptor(ref.source_id)
        if desc.mode is AccessMode.INDEX_ONLY:
            raise AccessDenied(f"source {ref.source_id!r} is index-only: not queryable")
        handle = self.open_handle(ref.source_id)
        schema = handle.schema(ref.table)
        binding = BaseBinding(
            ref,
            schema,
            supports_compare=handle.kind == connectors.TABULAR,
            supports_contains=handle.supports_contains,
            origin={c.name: (c.name, False) for c in schema.columns},
        )
        return Relation(ref.text(), schema, [binding], self, None)

    # -- record fetching -------------------------------------------------------
    def fetch_record(self, ref: ItemRef) -> Row | CorpusDoc:
        """Fetch one item under its source's mode (vault/live only)."""
        desc = self._descriptor(ref.source_id)
        if desc.mode is AccessMode.INDEX_ONLY:
            raise AccessDenied(
                f"source {ref.source_id!r} is index-only: fetch denied"
            )
        handle = self.open_handle(ref.source_id)
        if handle.kind == connectors.XML_CORPUS:
            if ref.container != "docs":
                raise NotFound(f"xml corpus has no container {ref.container!r}")
            for doc in handle.documents():
                if doc.id == ref.item_id:
                    return doc
            raise NotFound(f"no document {ref.item_id!r} in {ref.source_id!r}")
        for row in handle.scan(ref.container):
            if row_item_key(row) == ref.item_id:
                return row
        raise NotFound(f"no item {ref.item_id!r} in {ref.source_id}/{ref.container}")

    def check_ref(self, ref: ItemRef) -> None:
        """Validate a ref for collection membership under mode rules."""
        desc = self._descriptor(ref.source_id)
        if desc.mode is AccessMode.INDEX_ONLY:
            return  # refs are metadata; content checks would need the records
        self.fetch_record(ref)

    def resolve_ref(self, ref: ItemRef) -> ResolvedItem:
        """Resolve a collection ref to a record or an index-only stub."""
        desc = self._descriptor(ref.source_id)
        if desc.mode is AccessMode.INDEX_ONLY:
            entry = self._find_stub(ref)
            if entry is None:
                raise NotFound(f"ref {ref.text()} not present in any published index")
            return ResolvedItem(
                ref,
                "stub",
                {"doc_id": entry.doc_id, "fields": dict(entry.stored)},
            )
        record = self.fetch_record(ref)
        if isinstance(record, CorpusDoc):
            return ResolvedItem(ref, "doc", record)
        schema = self.table_schema(ref.source_id, ref.container)
        return ResolvedItem(ref, "row", (schema, record))

    def _find_stub(self, ref: ItemRef):
        for collection in self.indexes:
            index = self.get_index(collection)
            for entry in index.docs:
                if entry.ref == ref.text():
                    return entry
        return None

    # -- recipes and indexes -------------------------------------------------
    def register_recipe(self, path: str) -> IngestRecipe:
        try:
            with open(path, "r", encoding="utf-8") as f:
                recipe = textindex.parse_recipe_file(f.read())
        except OSError as e:
            raise SourceError(f"cannot read recipe file: {e}", path=path) from e
        self._descriptor(recipe.source.source_id)  # must be registered
        self.recipes[recipe.name] = _RecipeEntry(path, recipe)
        return recipe

    def ingest(self, recipe: IngestRecipe, privileged: bool = False):
        """Run a recipe.  ``privileged`` marks the ingest+index run, the one
        path allowed to read index-only content."""
        desc = self._descriptor(recipe.source.source_id)
        if desc.mode is AccessMode.INDEX_ONLY and not privileged:
            raise AccessDenied(
                f"source {recipe.source.source_id!r} is index-only: "
                "content is only readable while building its index"
            )
        handle = self.open_handle(recipe.source.source_id, for_ingest=True)
        return textindex.ingest_documents(handle, recipe)

    def build_index(self, collection: str, recipe: IngestRecipe) -> tuple[str, list[str]]:
        """Ingest + index + publish: returns (index path, ingest warnings)."""
        desc = self._descriptor(recipe.source.source_id)
        docs, warnings = self.ingest(recipe, privileged=True)
        whitelist = None
        if desc.mode is AccessMode.INDEX_ONLY:
            whitelist = self.manifest_fields
        index = textindex.build_index(docs, recipe, stored_whitelist=whitelist)
        index_dir = os.path.join(self.store_dir, "index")
        os.makedirs(index_dir, exist_ok=True)
        path = os.path.join(index_dir, collection + ".idx")
        textindex.write_index(index, path)
        self.indexes[collection] = path
        self._index_cache[collection] = index
        return path, warnings

    def get_index(self, collection: str) -> InvertedIndex:
        if collection not in self.indexes:
            raise NotFound(f"no index for collection {collection!r}")
        if collection not in self._index_cache:
            self._index_cache[collection] = textindex.read_index(self.indexes[collection])
        return self._index_cache[collection]

    # -- persistence -----------------------------------------------------------
    def serialize(self) -> str:
        lines = [CATALOGUE_MAGIC]
        for sid, desc in self.sources.items():
            lines.append(f"SOURCE {sid} {desc.kind} {desc.mode.value} {desc.path}")
        for entry in self.views.values():
            lines.append(f"VIEWFILE {entry.path}")
        for xid, entry in self.xlates.items():
            lines.append(f"XLATE {xid} {entry.path}")
        for entry in self.recipes.values():
            lines.append(f"RECIPE {entry.path}")
        for collection, path in self.indexes.items():
            lines.append(f"INDEX {collection} {path}")
        for coll in self.collections.values():
            refs = ",".join(r.text() for r in coll.refs)
            lines.append(f"COLL {coll.name} {refs}")
        return "\n".join(lines) + "\n"

    def persist(self, path: str | None = None, take_lock: bool = True) -> None:
        """Atomically write the catalogue file (temp file + rename).

        ``take_lock=False`` is for callers already holding the catalogue
        lock (flock is not reentrant across file descriptors).
        """
        path = path or self.path
        data = self.serialize()
        if take_lock:
            with catalogue_lock(path, blocking=True):
                write_atomic(path, data)
        else:
            write_atomic(path, data)

    @classmethod
    def load(
        cls,
        path: str,
        strict_translate: bool = False,
        manifest_fields: Sequence[str] = DEFAULT_MANIFEST_FIELDS,
    ) -> "Catalogue":
        """Load and integrity-check a catalogue file.

        Referenced definition files are re-read and re-parsed; entries that
        name unregistered sources or missing centre-owned files fail the
        load.  Sources themselves are opened lazily (a live source may be
        temporarily unreachable without invalidating the catalogue).
        """
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise IntegrityError(f"cannot read catalogue: {e}") from e
        lines = text.splitlines()
        if not lines or lines[0] != CATALOGUE_MAGIC:
            raise IntegrityError(
                f"bad catalogue header {(lines[0] if lines else '')!r}"
            )
        cat = cls(path, strict_translate=strict_translate, manifest_fields=manifest_fields)
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            tag, _, rest = line.partition(" ")
            try:
                cat._load_line(tag, rest)
            except VdcError:
                raise
            except Exception as e:
                raise IntegrityError(f"catalogue line {lineno}: {e}") from e
        # cross-entity integrity: views may precede their translation tables
        # in the file, so check the references after everything is loaded
        for entry in cat.views.values():
            for rule in entry.definition.rules:
                if isinstance(rule, mediation.Translate) and rule.table_id not in cat.xlates:
                    raise IntegrityError(
                        f"view {entry.definition.name!r} references unregistered "
                        f"translation table {rule.table_id!r}"
                    )
        return cat

    def _load_line(self, tag: str, rest: str) -> None:
        if tag == "SOURCE":
            sid, kind, mode_s, path = rest.split(" ", 3)
            mode = AccessMode.parse(mode_s)
            if sid in self.sources:
                raise IntegrityError(f"duplicate source {sid!r}")
            if mode is AccessMode.VAULT and not os.path.isdir(path):
                raise IntegrityError(f"vault snapshot missing for {sid!r}: {path}")
            self.sources[sid] = SourceDescriptor(sid, kind, path, mode)
        elif tag == "VIEWFILE":
            try:
                with open(rest, "r", encoding="utf-8") as f:
                    view = mediation.parse_view_file(f.read())
            except OSError as e:
                raise IntegrityError(f"view file unreadable: {e}") from e
            except ParseError as e:
                raise IntegrityError(f"view file {rest}: {e}") from e
            for ref in view.base:
                if ref.source_id not in self.sources:
                    raise IntegrityError(
                        f"view {view.name!r} references unregistered source {ref.source_id!r}"
                    )
            self.views[view.name] = _ViewEntry(rest, view)
        elif tag == "XLATE":
            xid, _, p = rest.partition(" ")
            try:
                table = mediation.load_translation_table(xid, p)
            except VdcError as e:
                raise IntegrityError(f"translation table {xid!r}: {e}") from e
            self.xlates[xid] = _XlateEntry(p, table)
        elif tag == "RECIPE":
            try:
                with open(rest, "r", encoding="utf-8") as f:
                    recipe = textindex.parse_recipe_file(f.read())
            except OSError as e:
                raise IntegrityError(f"recipe file unreadable: {e}") from e
            except ParseError as e:
                raise IntegrityError(f"recipe file {rest}: {e}") from e
            if recipe.source.source_id not in self.sources:
                raise IntegrityError(
                    f"recipe {recipe.name!r} references unregistered source "
                    f"{recipe.source.source_id!r}"
                )
            self.recipes[recipe.name] = _RecipeEntry(rest, recipe)
        elif tag == "INDEX":
            collection, _, p = rest.partition(" ")
            if not os.path.isfile(p):
                raise IntegrityError(f"index file missing for {collection!r}: {p}")
            with open(p, "r", encoding="utf-8") as f:
                if f.readline().rstrip("\n") != textindex.INDEX_MAGIC:
                    raise IntegrityError(f"bad index header in {p}")
            self.indexes[collection] = p
        elif tag == "COLL":
            name, _, refs_s = rest.partition(" ")
            refs = []
            for ref_text in refs_s.split(","):
                try:
                    ref = ItemRef.parse(ref_text)
                except ValueError as e:
                    raise IntegrityError(f"collection {name!r}: {e}") from e
                if ref.source_id not in self.sources:
                    raise IntegrityError(
                        f"collection {name!r} references unregistered source "
                        f"{ref.source_id!r}"
                    )
                refs.append(ref)
            self.collections[name] = VirtualCollection(name, refs)
        else:
            raise IntegrityError(f"unknown catalogue record {tag!r}")

