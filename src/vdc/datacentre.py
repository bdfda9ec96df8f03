"""The catalogue: source registration under trust modes, relation
resolution for the query engine, virtual collections, and persistence.

Trust modes fix what the centre may do with a source:

* vault — the source is snapshotted byte-for-byte, with its column image,
  into the centre's store at registration; every later read hits the
  snapshot, so the original may move or vanish without affecting results.
* live — every read passes through to the original path, read-only; if the
  owner withdraws the source, the next scan fails cleanly.
* index-only — the content is readable solely while building a text index;
  afterwards only the index is retained and record fetches are denied.

A virtual collection is a named list of item refs across sources: it links
items so they can be explored as a unity without copying any content, and
each ref resolves under its own source's mode.  The catalogue decides only
whether a source may be read; how a ref is read is the source handle's
``lookup`` (:mod:`vdc.connectors`).

The catalogue file is UTF-8, one record per LF-terminated line, and
references view and translation-table files by path; persistence is atomic
(temp file + rename) and serialized by an advisory file lock, which the
CLI takes around each mutation (``vdc.cli._mutate``).
"""

from __future__ import annotations

import fcntl
import os
from contextlib import contextmanager
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import connectors, mediation
from .atomic import write_atomic
from .connectors import SourceHandle
from .errors import (
    AccessDenied,
    CollectionError,
    IndexFormatError,
    IntegrityError,
    LockedError,
    NotFound,
    PlanError,
    SourceError,
    VdcError,
)
from .mediation import (
    CompiledView,
    IngestRecipe,
    RelationRef,
    TranslationTable,
    ViewDefinition,
)
from .model import IDENT_RE, ItemRef, Record, Row
from .predicates import matches

if TYPE_CHECKING:  # vdc.textindex is imported by the methods that use it
    from .textindex import DocEntry, InvertedIndex

CATALOGUE_MAGIC = "VDCCAT 1"
# the stored fields an index of an index-only source publishes; every other
# stored field of such an index reads "-"
MANIFEST_FIELDS = ("title",)


class AccessMode(Enum):
    VAULT = "vault"
    LIVE = "live"
    INDEX_ONLY = "index-only"


class SourceDescriptor(Record):
    """A registered source: where it is, how to read it, and its mode."""

    __slots__ = ("source_id", "kind", "path", "mode")

    def open(self) -> SourceHandle:
        """Open the source read-only; its mode is ``Catalogue.open_handle``'s
        to apply.  A vault's handle carries its snapshot's checked column
        image."""
        handle = connectors.open_source(self.source_id, self.kind, self.path)
        if self.mode is AccessMode.VAULT:
            from . import colimage

            handle.image = colimage.open_image(handle)
        return handle


def _one_line(text: str) -> None:
    """A catalogue record is one LF-ended line, so neither a record nor a
    path it is to hold may contain a line feed."""
    if "\n" in text:
        raise IntegrityError(f"a catalogue record cannot hold a line feed: {text!r}")


def _check_name(name: str, what: str, error: type[VdcError] = IntegrityError) -> None:
    """Names the catalogue writes are identifiers, as queries, views and
    recipes spell them."""
    if not IDENT_RE.match(name):
        raise error(f"bad {what} {name!r}")


@contextmanager
def catalogue_lock(catalogue_path: str):
    """Advisory exclusive lock guarding catalogue mutation and persistence;
    LockedError at once if another holds it."""
    lock_path = catalogue_path + ".lock"
    fd = open(lock_path, "a+")
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as e:
            raise LockedError(f"catalogue {catalogue_path} is locked") from e
        yield
    finally:
        fd.close()  # releases the lock


# --------------------------------------------------------------------------
# relations (the query engine's view of the catalogue)

class Relation:
    """A registered view, scannable base by base through ``handles``, one
    per base: the handles whose schemas the view was compiled against.  A
    raw table is the identity view over itself, so every relation has the
    same shape.  ``compiled`` answers the planner's questions about the
    view: which columns mediation reads, and which predicates may run on
    raw rows."""

    def __init__(self, compiled: CompiledView, handles: list[SourceHandle]):
        self.name = compiled.view.name
        self.schema = compiled.schema
        self.bases: tuple[RelationRef, ...] = compiled.view.base
        self.compiled = compiled
        self.handles = handles

    def estimate_rows(self) -> int:
        """Raw row count over all bases.  The planner does not use it; the
        benchmark's traced run wraps it by name, so it stays until that
        benchmark changes."""
        return sum(sum(1 for _ in handle.scan(ref.table, columns=()))
                   for ref, handle in zip(self.bases, self.handles))

    def scan_base(
        self,
        base_index: int,
        preds: Sequence,
        pushdown: bool,
        columns: Iterable[int] | None = None,
    ) -> Iterator[tuple[Row, list]]:
        """Yield (mediated row, coercion warnings) for one base relation.

        ``preds`` are scan predicates, by position in the raw row (which is
        the view's row); the connector applies them when ``pushdown``,
        otherwise they are tested here, on the raw rows, before mediation;
        both routes run the one evaluator of ``vdc.predicates``.
        ``columns`` are the positions the caller reads (all when None); the
        connector may leave every other cell None, so they must cover the
        columns of ``preds`` and of ``compiled.mediation_reads()``.

        Every position here was bound against the schema of the base's
        handle, which this scan reads through; a table file whose header
        no longer names that schema's columns (a live source rewritten on
        disk) fails the scan rather than answer by the wrong columns.
        """
        ref = self.bases[base_index]
        rows = self.handles[base_index].scan(ref.table, pushed=preds if pushdown else None, columns=columns)
        if preds and not pushdown:
            rows = (r for r in rows if matches(preds, r))
        apply = self.compiled.apply
        for raw_row in rows:
            yield apply(base_index, raw_row)


# --------------------------------------------------------------------------
# the catalogue

class _ViewEntry(Record):
    __slots__ = ("path", "definition")


class ResolvedItem(Record):
    """One collection ref, resolved under its source's mode to a "row", "doc", "stub" or "error"."""

    __slots__ = ("ref", "kind", "payload")


class Catalogue:
    """All registrations of one data centre, backed by one catalogue file."""

    def __init__(self, path: str):
        self.path = path
        self.store_dir = path + ".store"
        self.sources: dict[str, SourceDescriptor] = {}
        self.views: dict[str, _ViewEntry] = {}
        self.xlates: dict[str, TranslationTable] = {}
        self.indexes: dict[str, str] = {}  # collection -> index file path
        self.collections: dict[str, list[ItemRef]] = {}  # name -> refs
        self._index_cache: dict[str, InvertedIndex] = {}

    # -- sources -----------------------------------------------------------
    def register_source(self, source_id: str, kind: str, path: str, mode: AccessMode) -> SourceDescriptor:
        """Accept a source once its layout is checked, and its content by
        one rule for either kind: a vault's copy is read in full by the
        checked scan that writes its image, a live source is read in full
        as ``verify_source`` reads it, and an index-only source is read only
        by its index build."""
        if source_id in self.sources:
            raise IntegrityError(f"source id {source_id!r} already registered")
        _check_name(source_id, "source id")
        handle = connectors.open_source(source_id, kind, path)
        if mode is AccessMode.LIVE:
            _read_all(handle)
        elif mode is AccessMode.VAULT:
            path = self._snapshot(source_id, kind, path)
        desc = SourceDescriptor(source_id, kind, path, mode)
        self.sources[source_id] = desc
        return desc

    def _snapshot(self, source_id: str, kind: str, original: str) -> str:
        """Copy a source byte-for-byte into the centre's storage directory.
        The copy also gets its column image, from one checked scan of each
        copied table, so a malformed record or document fails the registration;
        one rename publishes the copy and its image, and any failure before
        it leaves neither.  A snapshot already there is an orphan, since
        ``register_source`` refuses a registered id: an add that stopped
        before its catalogue was renamed left it, and the new copy
        replaces it."""
        import shutil
        import tempfile

        from . import colwriter

        vault_root = os.path.join(self.store_dir, "vault")
        final = os.path.join(vault_root, source_id)
        _one_line(final)  # the catalogue is to record it: check before any write
        if os.path.isfile(os.path.join(original, colwriter.IMAGE)):
            raise SourceError(
                f"a vault source may not hold a file named {colwriter.IMAGE!r}", path=original
            )
        os.makedirs(vault_root, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=source_id + ".", dir=vault_root)
        try:
            for name in sorted(os.listdir(original)):
                src = os.path.join(original, name)
                if os.path.isfile(src):
                    shutil.copyfile(src, os.path.join(tmp, name))
            colwriter.write(connectors.open_source(source_id, kind, tmp), original)
            if os.path.lexists(final):
                shutil.rmtree(final)
            os.replace(tmp, final)
        except BaseException as e:
            shutil.rmtree(tmp, ignore_errors=True)
            if isinstance(e, OSError):
                raise SourceError(f"vault snapshot failed: {e}", path=original) from e
            raise
        return final

    def _descriptor(self, source_id: str) -> SourceDescriptor:
        try:
            return self.sources[source_id]
        except KeyError:
            raise NotFound(f"no source {source_id!r}") from None

    def open_handle(self, source_id: str, for_ingest: bool = False) -> SourceHandle:
        """Open a source under its mode rules.

        This is the one place that denies index-only content: it is
        reachable only with ``for_ingest`` (an index build).  Every call
        opens the source anew.
        """
        desc = self._descriptor(source_id)
        if desc.mode is AccessMode.INDEX_ONLY and not for_ingest:
            raise AccessDenied(
                f"source {source_id!r} is index-only: its content is readable "
                "only while building its index"
            )
        return desc.open()

    # -- views and translation tables ---------------------------------------
    # Each kind of definition file has one reader, used both to register a
    # file and to load the catalogue line that names it: it reads the file
    # and parses it.  Only registration rejects a duplicate name.  A view's
    # references to sources and translation tables are checked where it is
    # compiled against its sources' schemas: at registration, and by each
    # query that names it.

    def add_translation(self, xlate_id: str, path: str) -> TranslationTable:
        if xlate_id in self.xlates:
            raise IntegrityError(f"translation table {xlate_id!r} already registered")
        _check_name(xlate_id, "translation table id")
        table = mediation.load_translation_table(xlate_id, path)
        self.xlates[xlate_id] = table
        return table

    def define_view(self, path: str) -> ViewDefinition:
        view = self._read_view(path)
        if view.name in self.views:
            raise IntegrityError(f"view {view.name!r} already defined")
        self._relation(view)  # fail fast on unresolvable views
        self.views[view.name] = _ViewEntry(path, view)
        return view

    def _read_view(self, path: str) -> ViewDefinition:
        return mediation.parse_view_file(_read_definition(path, "view file"))

    def _relation(self, view: ViewDefinition, handles: list[SourceHandle] | None = None) -> Relation:
        """``view`` compiled against a handle for each base, which its
        relation then scans through: ``handles``, or one opened for each."""
        if handles is None:
            handles = [self.open_handle(ref.source_id) for ref in view.base]
        schemas = [h.schema(ref.table) for ref, h in zip(view.base, handles)]
        return Relation(mediation.compile_view(view, schemas, self.xlates), handles)

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
            return self._relation(self.views[name].definition)
        candidates = []  # (ref, [the handle that listed it], or None to open one)
        for source_id, desc in self.sources.items():
            # Table names are metadata: a bare-name match on an index-only
            # source is reported as denied (by open_handle, when the
            # relation is compiled), not hidden.
            try:
                handle = desc.open()
            except SourceError:
                if desc.mode is AccessMode.INDEX_ONLY:
                    continue  # original withdrawn; only its index remains
                raise
            if any(schema.name == name for schema in handle.list_tables()):
                # an index-only handle is not to be read: open_handle denies it
                handles = None if desc.mode is AccessMode.INDEX_ONLY else [handle]
                candidates.append((RelationRef(source_id, name), handles))
        if not candidates:
            raise NotFound(f"no view or table named {name!r}")
        if len(candidates) > 1:
            owners = ", ".join(ref.source_id for ref, _ in candidates)
            raise PlanError(f"table {name!r} is ambiguous across sources: {owners}")
        return self._raw_relation(*candidates[0])

    def _raw_relation(self, ref: RelationRef, handles: list[SourceHandle] | None = None) -> Relation:
        """A raw table, as the identity view over itself."""
        return self._relation(ViewDefinition(ref.text(), (ref,), ()), handles)

    # -- record fetching -------------------------------------------------------
    def fetch_record(self, ref: ItemRef) -> Row:
        """Fetch one item under its source's mode (vault/live only)."""
        return _pick(self.open_handle(ref.source_id).lookup(ref.container, [ref.item_id]), ref)

    def verify_source(self, source_id: str) -> str:
        """Check a source's content and say what was checked.  A vault is
        checked against its column image: the size and CRC-32 of each
        table's files, and every chunk's CRC-32.  Any other source is read
        in full, every record or document checked as a scan checks it.  The
        first fault raises, naming its file."""
        handle = self.open_handle(source_id)
        if handle.image is not None:
            chunks = handle.image.verify()
            files = sum(len(handle.files(t.name)) for t in handle.list_tables())
            return f"every table file and image chunk matches (files: {files}, chunks: {chunks})"
        return f"{_read_all(handle)} rows read"

    # -- virtual collections -------------------------------------------------
    def update_collection(self, name: str, add: Sequence[ItemRef]) -> list[ItemRef]:
        """Add refs to a (possibly new) collection and return its refs;
        duplicates are skipped.

        Refs into index-only sources are metadata and accepted unchecked;
        every other ref must name an existing record now.  Raises
        CollectionError naming the first unresolvable ref, in ``add``
        order, and leaves the collection unchanged.
        """
        _check_name(name, "collection name", CollectionError)
        if not add and name not in self.collections:
            raise CollectionError("a new collection needs at least one ref")
        checked = [r for r in add if not self._index_only(r.source_id)]
        for item in self.resolve_refs(checked):
            if item.kind == "error":
                raise CollectionError(f"unresolvable ref {item.ref.text()}: {item.payload}")
        refs = self.collections.setdefault(name, [])
        seen = {r.text() for r in refs}
        for ref in add:
            if ref.text() not in seen:
                refs.append(ref)
                seen.add(ref.text())
        return refs

    def resolve_refs(self, refs: Sequence[ItemRef]) -> list[ResolvedItem]:
        """Resolve collection refs, in order, to records or index-only stubs.

        Index-only sources yield stubs (doc id plus stored manifest fields).
        The refs of one source container outside index-only sources are
        fetched together, by one ``lookup`` of its source's handle.  A ref
        that cannot be resolved becomes an ``error`` item and resolution
        continues, unless the centre's own store is at fault: a vault's
        IntegrityError (a damaged or missing column image, or a changed
        table file) raises.
        """
        groups: dict[tuple[str, str], list[str]] = {}
        for ref in refs:
            if not self._index_only(ref.source_id):
                groups.setdefault((ref.source_id, ref.container), []).append(ref.item_id)
        fetched: dict[tuple[str, str], tuple | VdcError] = {}
        for (source_id, container), ids in groups.items():
            try:
                handle = self.open_handle(source_id)
                fetched[source_id, container] = (handle.schema(container), handle.lookup(container, ids))
            except IntegrityError:
                raise
            except VdcError as e:
                fetched[source_id, container] = e
        out = []
        for ref in refs:
            try:
                out.append(self._resolve(ref, fetched.get((ref.source_id, ref.container))))
            except VdcError as e:
                out.append(ResolvedItem(ref, "error", str(e)))
        return out

    def _index_only(self, source_id: str) -> bool:
        desc = self.sources.get(source_id)
        return desc is not None and desc.mode is AccessMode.INDEX_ONLY

    def _resolve(self, ref: ItemRef, fetched: tuple | VdcError | None) -> ResolvedItem:
        """A ``row`` or ``doc`` item carries ``(schema, row)``; a stub its
        index entry's doc id and stored fields."""
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
        if isinstance(fetched, VdcError):
            raise fetched
        schema, records = fetched
        kind = "doc" if desc.kind == connectors.XML_CORPUS else "row"
        return ResolvedItem(ref, kind, (schema, _pick(records, ref)))

    def _find_stub(self, ref: ItemRef) -> DocEntry | None:
        """The first DOCS entry for ``ref`` in the indexes built from its
        relation; of the others only the header line is read.  If none has
        it, an index whose header is unreadable (and may hold it) raises."""
        from . import textindex

        relation = RelationRef(ref.source_id, ref.container).text()
        unread = None
        for collection, path in self.indexes.items():
            try:
                if textindex.index_relation(path) != relation:
                    continue
            except IndexFormatError as e:
                unread = unread or IndexFormatError(f"index {collection!r}: {e}")
                continue
            entry = self.get_index(collection).find_ref(ref.text())
            if entry is not None:
                return entry
        if unread is not None:
            raise unread
        return None

    # -- recipes and indexes -------------------------------------------------
    def read_recipe(self, path: str) -> IngestRecipe:
        """Read and check a recipe file; the catalogue records nothing of
        it, since every command that runs a recipe names its file."""
        recipe = mediation.parse_recipe_file(_read_definition(path, "recipe file"))
        self._descriptor(recipe.source.source_id)  # must be registered
        return recipe

    def ingest(self, recipe: IngestRecipe):
        """Run a recipe: (documents, warnings).  An index-only source is
        denied; only its index build reads it."""
        from . import textindex

        handle = self.open_handle(recipe.source.source_id)
        return textindex.ingest_documents(handle, recipe)

    def build_index(self, collection: str, recipe: IngestRecipe) -> tuple[str, list[str]]:
        """Ingest + index + publish: returns (index path, ingest warnings).
        The scanned rows stream into the build's pass one a batch at a
        time, none kept, so an ingest fault raises before any file is made;
        the image is then written to the file as it is encoded."""
        from . import textindex

        _check_name(collection, "collection name", CollectionError)
        desc = self._descriptor(recipe.source.source_id)
        handle = self.open_handle(desc.source_id, for_ingest=True)
        warnings: list[str] = []
        whitelist = MANIFEST_FIELDS if desc.mode is AccessMode.INDEX_ONLY else None
        index = textindex.build_index(
            textindex.iter_batches(handle, recipe, warnings), recipe, stored_whitelist=whitelist
        )
        index_dir = os.path.join(self.store_dir, "index")
        path = os.path.join(index_dir, collection + ".idx")
        _one_line(path)  # the catalogue is to record it: check before any write
        os.makedirs(index_dir, exist_ok=True)
        textindex.write_index(index, path)
        self.indexes[collection] = path
        self._index_cache.pop(collection, None)  # get_index reads the new file
        return path, warnings

    def get_index(self, collection: str) -> InvertedIndex:
        """The collection's index, read and checked on first use."""
        from . import textindex

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
        for xid, table in self.xlates.items():
            lines.append(f"XLATE {xid} {table.path}")
        for collection, path in self.indexes.items():
            lines.append(f"INDEX {collection} {path}")
        for name, refs in self.collections.items():
            lines.append(f"COLL {name} {','.join(r.text() for r in refs)}")
        for line in lines:  # a path may hold one; names and refs cannot
            _one_line(line)
        return "\n".join(lines) + "\n"

    def persist(self) -> None:
        """Atomically write the catalogue file (temp file + rename); the
        CLI holds the catalogue lock around the mutation and this write."""
        write_atomic(self.path, self.serialize().encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "Catalogue":
        """Load and integrity-check a catalogue file.

        Each record is checked as it is read, and referenced definition
        files are re-read and parsed by the readers that registered them;
        a malformed record, a collection naming an unregistered source or a
        missing centre-owned file fails the load, each fault as one
        IntegrityError naming the catalogue line.  A view's references to
        sources and translation tables are not checked here: compiling the
        view checks them, so only a query naming the view fails.  Sources
        are opened lazily (a live source may be temporarily unreachable
        without invalidating the catalogue), and so are index files: an
        index of an older format loads, fails where it is read, and is
        replaced by `vdc index build`.
        """
        try:
            text = connectors.read_utf8(path)
        except (OSError, SourceError) as e:
            raise IntegrityError(f"cannot read catalogue: {e}") from e
        lines = text.split("\n")  # as serialize writes them
        if not lines or lines[0] != CATALOGUE_MAGIC:
            raise IntegrityError(
                f"bad catalogue header {(lines[0] if lines else '')!r}"
            )
        cat = cls(path)
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            tag, _, rest = line.partition(" ")
            try:
                cat._load_line(tag, rest)
            except Exception as e:
                raise IntegrityError(f"catalogue line {lineno}: {e}") from e
        return cat

    def _load_line(self, tag: str, rest: str) -> None:
        if tag == "SOURCE":
            sid, kind, mode_s, path = _record_fields(tag, rest)
            # kind first: a space in an older catalogue's source id shifts
            # the kind into the mode field
            if kind not in (connectors.TABULAR, connectors.XML_CORPUS):
                raise IntegrityError(f"unknown source kind {kind!r}")
            if mode_s not in {m.value for m in AccessMode}:
                raise IntegrityError(f"unknown access mode {mode_s!r}")
            mode = AccessMode(mode_s)
            if sid in self.sources:
                raise IntegrityError(f"duplicate source {sid!r}")
            if mode is AccessMode.VAULT and not os.path.isdir(path):
                raise IntegrityError(f"vault snapshot missing for {sid!r}: {path}")
            self.sources[sid] = SourceDescriptor(sid, kind, path, mode)
        elif tag == "VIEWFILE":
            view = self._read_view(rest)
            self.views[view.name] = _ViewEntry(rest, view)
        elif tag == "XLATE":
            xid, p = _record_fields(tag, rest)
            self.xlates[xid] = mediation.load_translation_table(xid, p)
        elif tag == "RECIPE":
            pass  # written by older catalogues; the next persist drops it
        elif tag == "INDEX":
            collection, p = _record_fields(tag, rest)
            if not os.path.isfile(p):
                raise IntegrityError(f"index file missing for {collection!r}: {p}")
            self.indexes[collection] = p
        elif tag == "COLL":
            name, refs_s = _record_fields(tag, rest)
            refs = [ItemRef.parse(text) for text in refs_s.split(",")]
            for ref in refs:
                self._descriptor(ref.source_id)
            self.collections[name] = refs
        else:
            raise IntegrityError(f"unknown catalogue record {tag!r}")


# the fields of each catalogue record that has more than one, as serialize
# writes them; the last may hold spaces
_RECORD_FIELDS = {
    "SOURCE": "id kind mode path",
    "XLATE": "id path",
    "INDEX": "collection path",
    "COLL": "name refs",
}


def _record_fields(tag: str, rest: str) -> list[str]:
    """The fields of a catalogue record, after its tag; a record with too
    few names the fields it needs, and one with an empty field names it."""
    names = _RECORD_FIELDS[tag]
    n = names.count(" ") + 1
    fields = rest.split(" ", n - 1) if rest else []
    if len(fields) != n:
        raise IntegrityError(f"{tag} record needs {n} fields ({names}), got {len(fields)}")
    for name, field in zip(names.split(), fields):
        if not field:
            raise IntegrityError(f"{tag} record has an empty {name}")
    return fields


def _read_definition(path: str, what: str) -> str:
    """The text of a definition file; an unreadable one is a SourceError."""
    try:
        return connectors.read_utf8(path)
    except OSError as e:
        raise SourceError(f"cannot read {what}: {e}", path=path) from e


def _read_all(handle: SourceHandle) -> int:
    """The number of rows of every table of ``handle``, each record or
    document read and checked as a scan checks it; the first fault raises."""
    return sum(1 for t in handle.list_tables() for _ in handle.scan(t.name, columns=()))


def _pick(records: dict[str, Row | VdcError], ref: ItemRef) -> Row:
    """The record of ``ref`` among a container's fetched records; the
    error fetched in its place raises."""
    try:
        found = records[ref.item_id]
    except KeyError:
        raise NotFound(f"no item {ref.item_id!r} in {ref.source_id}/{ref.container}") from None
    if isinstance(found, VdcError):
        raise found
    return found
