"""Fixture generator tests: cross-seed manifest soundness, byte-level
determinism, schema fidelity, and date-grammar coverage."""

import hashlib
import os

import pytest

from vdc.connectors import open_source, parse_sidecar
from vdc.errors import VdcError
from vdc.fixtures import (
    NEAR_PAIRS,
    FAR_PAIRS,
    FixtureSpec,
    SplitMix64,
    generate_fixtures,
    load_manifest,
    verify_manifest,
)
from vdc.model import parse_uncertain_date


def tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            p = os.path.join(dirpath, name)
            h.update(os.path.relpath(p, root).encode())
            h.update(open(p, "rb").read())
    return h.hexdigest()


class TestPrng:
    def test_splitmix64_reference_values(self):
        # first outputs for seed 1234567, per the published algorithm
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_below_is_in_range(self):
        rng = SplitMix64(42)
        for _ in range(1000):
            assert 0 <= rng.below(7) < 7


class TestGeneration:
    def test_refuses_nonempty_dir(self, tmp_path):
        out = tmp_path / "fx"
        os.makedirs(out)
        (out / "junk").write_text("x")
        with pytest.raises(VdcError):
            generate_fixtures(FixtureSpec(1, "desk", str(out)))

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        generate_fixtures(FixtureSpec(7, "desk", a))
        generate_fixtures(FixtureSpec(7, "desk", b))
        assert tree_digest(a) == tree_digest(b)

    def test_desk_seed_42_bytes_are_pinned(self, desk_fixtures):
        """Generation is part of the format: a change that moves one draw
        changes every answer the fixtures give."""
        fx, _ = desk_fixtures
        assert tree_digest(fx) == (
            "cc366e22d19d86263a3028758ef175b29cda84271c2edd86be0320a722164f04"
        )

    def test_different_seed_different_content_same_schemas(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        generate_fixtures(FixtureSpec(7, "desk", a))
        generate_fixtures(FixtureSpec(8, "desk", b))
        assert tree_digest(a) != tree_digest(b)
        for sub, table in (("hgv", "papyri"), ("volterra", "legal_texts")):
            sa = open(os.path.join(a, sub, table + ".schema"), encoding="utf-8").read()
            sb = open(os.path.join(b, sub, table + ".schema"), encoding="utf-8").read()
            assert sa == sb

    def test_planted_counts(self, desk_fixtures):
        _, manifest = desk_fixtures
        homonyms = manifest.of_kind("homonym")
        assert len(homonyms) == NEAR_PAIRS + FAR_PAIRS
        assert len(manifest.near_pairs()) == NEAR_PAIRS
        assert len(manifest.of_kind("shared_findspot")) == 6
        assert len(manifest.of_kind("shared_category")) == 4

    def test_manifest_file_round_trips(self, desk_fixtures):
        fx, manifest = desk_fixtures
        loaded = load_manifest(os.path.join(fx, "manifest.csv"))
        assert len(loaded) == len(manifest.entries)
        assert {(e.kind, e.ref_a, e.ref_b) for e in loaded} == {
            (e.kind, e.ref_a, e.ref_b) for e in manifest.entries
        }


class TestManifestSoundness:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_verify_passes_for_ten_seeds(self, tmp_path, seed):
        out = str(tmp_path / f"s{seed}")
        generate_fixtures(FixtureSpec(seed, "desk", out))
        assert verify_manifest(out) == []

    def test_corruption_is_detected(self, tmp_path):
        out = str(tmp_path / "fx")
        generate_fixtures(FixtureSpec(3, "desk", out))
        manifest = load_manifest(os.path.join(out, "manifest.csv"))
        victim = next(e for e in manifest if e.kind == "homonym")
        doc_id = victim.ref_b.split("/")[-1]
        path = os.path.join(out, "iaph", doc_id + ".xml")
        text = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace("<persName>", "<persName>Corrupted ", 1))
        assert verify_manifest(out) == ["homonym: pair sets or gaps differ"]

    def test_empty_dir_reports_no_fixture(self, tmp_path):
        void = str(tmp_path / "void")
        assert verify_manifest(void) == ["no fixture in " + void]


class TestSchemaFidelity:
    def test_sidecars_parse_and_exercise_quoting(self, desk_fixtures):
        fx, _ = desk_fixtures
        text = open(os.path.join(fx, "hgv", "papyri.schema"), encoding="utf-8").read()
        schema = parse_sidecar(text, "papyri", "papyri.schema")
        names = schema.column_names()
        assert "Erwähnte Person" in names  # space + umlaut, quoted
        assert "Länge" in names
        assert any(not n.isascii() for n in names)

    def test_sources_open(self, desk_fixtures):
        fx, _ = desk_fixtures
        for sub, kind, tables in (
            ("hgv", "tabular", ["papyri"]),
            ("volterra", "tabular", ["legal_texts"]),
            ("iaph", "xml_corpus", ["docs"]),
        ):
            handle = open_source(sub, kind, os.path.join(fx, sub))
            assert [t.name for t in handle.list_tables()] == tables


class TestDateRealism:
    def test_every_grammar_branch_appears(self, desk_fixtures):
        fx, _ = desk_fixtures
        texts = []
        for sub, table, col in (("hgv", "papyri", "Datierung"), ("volterra", "legal_texts", "date")):
            handle = open_source(sub, "tabular", os.path.join(fx, sub))
            idx = handle.schema(table).index_of(col)
            texts += [r[idx] for r in handle.scan(table) if r[idx]]

        def classify(t):
            if t.startswith("ca. "):
                return "circa"
            if "/" in t:
                lo, hi = t.split("/")
                span = int(hi) - int(lo) + 1
                return f"span{span}" if span in (50, 100) else "span"
            return {1: "year", 2: "month", 3: "day"}[
                len(t.split("-")) - (1 if t.startswith("-") else 0)
            ]

        seen = {classify(t) for t in texts if _parses(t)}
        assert {"year", "month", "day", "circa", "span50", "span100"} <= seen

    def test_some_dates_are_deliberately_bad(self, desk_fixtures):
        fx, _ = desk_fixtures
        handle = open_source("hgv", "tabular", os.path.join(fx, "hgv"))
        idx = handle.schema("papyri").index_of("Datierung")
        bad = [r[idx] for r in handle.scan("papyri") if r[idx] and not _parses(r[idx])]
        assert bad  # coercion warning paths stay exercised


def _parses(t):
    try:
        parse_uncertain_date(t)
        return True
    except Exception:
        return False
