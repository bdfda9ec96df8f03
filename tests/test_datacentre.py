"""Catalogue tests: trust modes, vault isolation, index-only leak freedom,
persistence round trips, integrity checks, locking."""

import os
import shutil

import pytest

from vdc.datacentre import AccessMode, Catalogue, catalogue_lock
from vdc.errors import (
    AccessDenied,
    IntegrityError,
    LockedError,
    NotFound,
    SourceError,
)
from vdc.model import ItemRef
from vdc.query import execute_plan, parse_query, plan_query, result_to_csv
from vdc.textindex import (
    SearchQuery,
    collection_resolve,
    collection_update,
    parse_recipe_file,
    search,
)

from helpers import register_desk

SENTINEL = "XYZZY::SENTINEL::73"


def write_secret_source(d):
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "t.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write("id,title,secret,note\n")
        f.write(f"1,Stone one,{SENTINEL},plain note alpha\n")
        f.write("2,Stone two,harmless,beta note\n")
    with open(os.path.join(d, "t.schema"), "w", encoding="utf-8") as f:
        f.write("id : int\ntitle : text\nsecret : text\nnote : text\n")


RECIPE = (
    "recipe secret_ingest\nfrom sec.t\nid id\nfield title = title\n"
    "field secret = secret\nbody note\nbody secret\nindex body\nindex title\nend\n"
)


class TestVaultMode:
    def test_snapshot_survives_deletion_of_original(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        original = tmp_path / "orig"
        shutil.copytree(os.path.join(fx, "volterra"), original)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", str(original), AccessMode.VAULT)
        shutil.rmtree(original)
        rs = execute_plan(plan_query(parse_query("SELECT id FROM vol.legal_texts"), cat))
        assert len(rs.rows) == 500

    def test_vault_isolated_from_later_mutation(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        original = tmp_path / "orig"
        shutil.copytree(os.path.join(fx, "volterra"), original)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", str(original), AccessMode.VAULT)
        before = result_to_csv(
            execute_plan(plan_query(parse_query("SELECT * FROM vol.legal_texts"), cat))
        )
        with open(original / "legal_texts.csv", "a", encoding="utf-8") as f:
            f.write("9999,evil,nobody,Nowhere,,letter,tampered,,\n")
        after = result_to_csv(
            execute_plan(plan_query(parse_query("SELECT * FROM vol.legal_texts"), cat))
        )
        assert before == after

    def test_fetch_record_under_vault(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", os.path.join(fx, "volterra"), AccessMode.VAULT)
        row = cat.fetch_record(ItemRef("vol", "legal_texts", "1"))
        assert row[0] == 1

    def test_duplicate_source_id(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", os.path.join(fx, "volterra"), AccessMode.LIVE)
        with pytest.raises(IntegrityError):
            cat.register_source("vol", "tabular", os.path.join(fx, "volterra"), AccessMode.LIVE)


class TestLiveMode:
    def test_fails_cleanly_after_deletion(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        original = tmp_path / "orig"
        shutil.copytree(os.path.join(fx, "volterra"), original)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", str(original), AccessMode.LIVE)
        assert cat.fetch_record(ItemRef("vol", "legal_texts", "1"))[0] == 1
        shutil.rmtree(original)
        with pytest.raises(SourceError):
            execute_plan(plan_query(parse_query("SELECT id FROM vol.legal_texts"), cat))

    def test_unknown_item_is_not_found(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("vol", "tabular", os.path.join(fx, "volterra"), AccessMode.LIVE)
        with pytest.raises(NotFound):
            cat.fetch_record(ItemRef("vol", "legal_texts", "does-not-exist"))


class TestIndexOnlyMode:
    def build(self, tmp_path):
        src = tmp_path / "secret_src"
        write_secret_source(src)
        cat = Catalogue(str(tmp_path / "c.vdc"))
        cat.register_source("sec", "tabular", str(src), AccessMode.INDEX_ONLY)
        recipe = parse_recipe_file(RECIPE)
        cat.build_index("secrets", recipe)
        return cat

    def test_fetch_denied_search_succeeds(self, tmp_path):
        cat = self.build(tmp_path)
        with pytest.raises(AccessDenied):
            cat.fetch_record(ItemRef("sec", "t", "1"))
        hits = search(cat.get_index("secrets"), SearchQuery(("alpha",)))
        assert [h.doc_id for h in hits] == ["1"]

    def test_queries_denied(self, tmp_path):
        cat = self.build(tmp_path)
        with pytest.raises(AccessDenied):
            plan_query(parse_query("SELECT * FROM sec.t"), cat)
        with pytest.raises(AccessDenied):
            plan_query(parse_query("SELECT * FROM t"), cat)

    def test_plain_ingest_denied(self, tmp_path):
        cat = self.build(tmp_path)
        with pytest.raises(AccessDenied):
            cat.ingest(parse_recipe_file(RECIPE))

    def test_stub_resolution_masks_fields(self, tmp_path):
        cat = self.build(tmp_path)
        coll = collection_update(cat, "finds", [ItemRef("sec", "t", "1")])
        assert len(coll.refs) == 1  # index-only refs are metadata, allowed
        items = collection_resolve(cat, "finds")
        assert items[0].kind == "stub"
        stub = items[0].payload
        assert stub["doc_id"] == "1"
        assert stub["fields"]["title"] == "Stone one"  # whitelisted (default)
        assert stub["fields"]["secret"] == "-"  # masked

    def test_sentinel_never_leaks(self, tmp_path):
        cat = self.build(tmp_path)
        collection_update(cat, "finds", [ItemRef("sec", "t", "1")])
        cat.persist()

        surfaces = []
        idx = cat.get_index("secrets")
        surfaces.append(repr(search(idx, SearchQuery(("alpha",)))))
        surfaces.append(repr(search(idx, SearchQuery(("xyzzy",)))))
        surfaces.append(repr([i.__dict__ for i in collection_resolve(cat, "finds")]))
        surfaces.append(repr([e.__dict__ for e in idx.docs]))
        surfaces.append(open(cat.indexes["secrets"], encoding="utf-8").read())
        surfaces.append(open(cat.path, encoding="utf-8").read())
        with pytest.raises(AccessDenied):
            cat.fetch_record(ItemRef("sec", "t", "1"))
        for surface in surfaces:
            assert SENTINEL not in surface

    def test_terms_are_still_published(self, tmp_path):
        # tokens of indexed content are the point of publishing an index
        cat = self.build(tmp_path)
        hits = search(cat.get_index("secrets"), SearchQuery(("xyzzy",)))
        assert [h.doc_id for h in hits] == ["1"]


class TestPersistence:
    def test_save_load_save_identical_bytes(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.register_recipe(os.path.join(fx, "recipes", "volterra.recipe"))
        cat.build_index("vol_texts", cat.recipes["volterra_ingest"].recipe)
        collection_update(cat, "finds", [ItemRef("volterra", "legal_texts", "1")])
        cat.persist()
        first = open(cat.path, "rb").read()
        loaded = Catalogue.load(cat.path)
        loaded.persist()
        assert open(cat.path, "rb").read() == first
        assert list(loaded.views) == list(cat.views)
        assert list(loaded.collections["finds"].refs) == list(cat.collections["finds"].refs)

    def test_loaded_catalogue_answers_queries(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        loaded = Catalogue.load(cat.path)
        rs = execute_plan(plan_query(parse_query("SELECT id FROM papyri LIMIT 2"), loaded))
        assert len(rs.rows) == 2

    def test_load_missing_view_file_fails(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        view_path = cat.views["all_texts"].path
        data = open(cat.path, encoding="utf-8").read()
        with open(cat.path, "w", encoding="utf-8") as f:
            f.write(data.replace(view_path, view_path + ".gone"))
        with pytest.raises(IntegrityError):
            Catalogue.load(cat.path)

    def test_load_missing_index_file_fails(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        with open(cat.path, "a", encoding="utf-8") as f:
            f.write("INDEX ghost /nonexistent/g.idx\n")
        with pytest.raises(IntegrityError):
            Catalogue.load(cat.path)

    def test_load_coll_with_unregistered_source_fails(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        with open(cat.path, "a", encoding="utf-8") as f:
            f.write("COLL x ghost/t/1\n")
        with pytest.raises(IntegrityError):
            Catalogue.load(cat.path)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "c.vdc"
        p.write_text("NOTVDC 1\n")
        with pytest.raises(IntegrityError):
            Catalogue.load(str(p))

    def test_remove_source_then_resolve_reports_dangling(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        collection_update(cat, "finds", [ItemRef("volterra", "legal_texts", "1")])
        cat.remove_source("volterra")
        items = collection_resolve(cat, "finds")
        assert items[0].kind == "error"


class TestRegistrationIntegrity:
    def test_view_over_unregistered_source_fails_at_define(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        view = tmp_path / "bad.view"
        view.write_text("view v\nfrom ghost.t\nend\n", encoding="utf-8")
        with pytest.raises(NotFound):
            cat.define_view(str(view))

    def test_duplicate_xlate_id(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        path = os.path.join(fx, "xlate", "de_en.csv")
        cat.add_translation("de_en", path)
        with pytest.raises(IntegrityError):
            cat.add_translation("de_en", path)

    def test_load_rejects_view_with_missing_xlate(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        cat.persist()
        data = open(cat.path, encoding="utf-8").read()
        with open(cat.path, "w", encoding="utf-8") as f:
            f.write("\n".join(l for l in data.splitlines() if not l.startswith("XLATE")) + "\n")
        with pytest.raises(IntegrityError) as e:
            Catalogue.load(cat.path)
        assert "translation table" in str(e.value)

    def test_strict_translate_catalogue_rejects_unmapped_terms(self, tmp_path, desk_fixtures):
        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"), strict_translate=True)
        register_desk(cat, fx)
        from vdc.mediation import TranslationError

        # the fixture category vocabulary includes an untranslated German term
        with pytest.raises(TranslationError):
            execute_plan(plan_query(parse_query("SELECT category FROM papyri_en"), cat))

    def test_hash_build_cap_guards_memory(self, tmp_path, desk_fixtures):
        from vdc.errors import ExecutionError

        fx, _ = desk_fixtures
        cat = Catalogue(str(tmp_path / "c.vdc"))
        register_desk(cat, fx)
        plan = plan_query(
            parse_query(
                "SELECT h.id FROM hgv.papyri h JOIN volterra.legal_texts v "
                "ON h.Fundort = v.findspot"
            ),
            cat,
        )
        with pytest.raises(ExecutionError):
            execute_plan(plan, max_hash_build=10)


class TestLocking:
    def test_non_blocking_lock_fails_fast_when_held(self, tmp_path):
        path = str(tmp_path / "c.vdc")
        with catalogue_lock(path, blocking=True):
            with pytest.raises(LockedError):
                with catalogue_lock(path, blocking=False):
                    pass

    def test_lock_released_after_use(self, tmp_path):
        path = str(tmp_path / "c.vdc")
        with catalogue_lock(path, blocking=False):
            pass
        with catalogue_lock(path, blocking=False):
            pass
