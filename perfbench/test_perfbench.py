"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import subprocess

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import CYCLES, TYPICAL_MS, iter_cycles, run_cycles, slot_class  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _vocab():
    terms = {
        "frequent": ["alpha", "beta", "gamma", "delta", "eps"],
        "rare": ["r1", "r2", "r3", "r4"],
        "fields": ["body", "title"],
        "geo": (24.0, 29.5, 31.0, 33.0),
    }
    return {
        "filter_pairs": [("Memphis", "Brief"), ("Theben", "Liste"), ("Arsinoe", "Dekret")],
        "union_categories": ["contract", "decree", "letter", "receipt"],
        "decades": list(range(10, 40)),
        "needles": ["lex", "aqua", "ager", "heres"],
        "hgv_keys": [str(i) for i in range(1, 1001)],
        "vol_keys": [str(i) for i in range(1, 101)],
        "iaph_ids": [f"i{i:04d}" for i in range(50)],
        "terms": {
            "hgv_texts": dict(terms, geo=None),
            "vol_texts": terms,
            "iaph_texts": dict(terms, geo=None, fields=["body", "persons", "title"]),
        },
    }


def _first(workload, seed, cycles=3):
    it = iter_cycles(workload, seed, _vocab())
    return [req for _ in range(cycles) for req in next(it)]


@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_generator_is_deterministic_per_seed(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert workloads.prepared_collections(7, _vocab()) == workloads.prepared_collections(7, _vocab())
    other = _first(workload, 8)
    assert [r.cls for r in other] == [r.cls for r in _first(workload, 7)]
    assert [r.argv for r in other] != [r.argv for r in _first(workload, 7)]


def test_generated_refs_use_first_column_keys():
    vocab = _vocab()
    refs = [r for reqs in workloads.prepared_collections(3, vocab).values() for r in reqs]
    refs += [a for req in _first("index", 3) if req.cls == "update" for a in req.argv[4:]]
    for ref in refs:
        source, table, key = ref.split("/")
        keys = {"hgv": vocab["hgv_keys"], "volterra": vocab["vol_keys"]}.get(source, vocab["iaph_ids"])
        assert key in keys, ref


def test_mirrored_keys_cost_one_scan():
    keys = [str(i) for i in range(10)]
    rng = workloads.random.Random(1)
    for _ in range(20):
        a, b = workloads.mirrored_keys(rng, keys)
        assert keys.index(a) + keys.index(b) == len(keys) - 1


@pytest.mark.parametrize("n", [11, 12, 24, 42, 100])
def test_tail_leaves_ten_samples_beyond(n):
    values = [float(v) for v in range(n)][::-1]
    value, percentile = stats.tail(values)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - stats.TAIL_BEYOND) / n)


def test_tail_needs_eleven_samples():
    assert stats.tail([1.0] * 10) is None


def test_self_time_on_a_span_tree():
    # root 0..10 with children a (1..4, which has child c 2..3) and b (5..9);
    # d folds 3 calls of 0.5 under b
    records = [
        {"id": 0, "name": "root", "parent": None, "dur": 10.0, "n": 1},
        {"id": 1, "name": "a", "parent": 0, "dur": 3.0, "n": 1},
        {"id": 2, "name": "c", "parent": 1, "dur": 1.0, "n": 1},
        {"id": 3, "name": "b", "parent": 0, "dur": 4.0, "n": 1},
        {"id": 4, "name": "d", "parent": 3, "dur": 1.5, "n": 3, "attrs": {"rows": 3}},
        {"id": 5, "name": "a", "parent": 3, "dur": 0.5, "n": 1},
    ]
    own = stats.self_times(records)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.5, 5: 0.5}
    assert stats.layer_totals(records) == {"root": 3.0, "a": 2.5, "c": 1.0, "b": 2.0, "d": 1.5}
    assert sum(own.values()) == records[0]["dur"]
    counts = stats.counter_totals(records)
    assert counts["d.calls"] == 3 and counts["d.rows"] == 3 and counts["a.calls"] == 2


@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_mix_gives_every_class_samples_and_keeps_tail_off_boundaries(workload):
    cycles = run_cycles(workload, RUN_SECONDS)
    slots = [slot_class(s) for s in CYCLES[workload]] * cycles
    counts = {c: slots.count(c) for c in set(slots)}
    assert min(counts.values()) >= 2, counts
    assert len(slots) > stats.TAIL_BEYOND
    # latencies sorted by class: the tail rank and both neighbours must
    # fall in the same class's block
    ordered = sorted(slots, key=lambda c: TYPICAL_MS[c])
    i = len(slots) - stats.TAIL_BEYOND - 1
    assert ordered[i - 1] == ordered[i] == ordered[i + 1], (ordered, i)
    # a traced run does half the cycles; it still needs a sample per class
    assert max(1, cycles // 2) * len(CYCLES[workload]) >= len(counts)


@pytest.mark.skipif(sys.platform != "linux", reason="wait4 max RSS semantics of Linux")
def test_launcher_keeps_the_spawners_memory_out_of_max_rss(tmp_path):
    ballast = b"x" * (120 << 20)  # stands in for the driver's expected answers
    bare = [sys.executable, "-S", "-c", "pass"]
    direct = subprocess.Popen(bare)
    _, _, usage = os.wait4(direct.pid, 0)
    direct.returncode = 0
    assert usage.ru_maxrss / 1024 > 120  # the child counts its spawner's pages
    launcher = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")], cwd=tmp_path,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        launcher.stdin.write(json.dumps({"argv": bare, "stdout": "o", "stderr": "e"}) + "\n")
        launcher.stdin.flush()
        reply = json.loads(launcher.stdout.readline())
    finally:
        launcher.stdin.close()
        launcher.stdout.close()
        launcher.wait()
    assert reply["rc"] == 0
    assert reply["rss_mb"] < 40 and reply["launcher_rss_mb"] < 40, reply
    assert len(ballast) == 120 << 20


# -- oracles against the engine, at desk scale --------------------------------------

@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    from vdc.cli import run

    root = tmp_path_factory.mktemp("desk")
    old = os.getcwd()
    os.chdir(root)
    try:
        def vdc(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert run(["--catalogue", "c.vdc", *argv]) == 0, argv
            return out.getvalue()

        vdc("fixtures", "generate", "--seed", "4", "--scale", "desk", "--out", "fx")
        vdc("source", "add", "hgv", "--kind", "tabular", "--path", "fx/hgv", "--mode", "vault")
        vdc("source", "add", "volterra", "--kind", "tabular", "--path", "fx/volterra", "--mode", "live")
        vdc("source", "add", "iaph", "--kind", "xml", "--path", "fx/iaph", "--mode", "live")
        vdc("source", "add", "iaph_sealed", "--kind", "xml", "--path", "fx/iaph", "--mode", "index-only")
        vdc("xlate", "add", "de_en", "fx/xlate/de_en.csv")
        for view in ("papyri_en", "volterra_texts", "iaph_docs", "all_texts"):
            vdc("view", "define", f"fx/views/{view}.view")
        recipe = Path("fx/recipes/iaph.recipe").read_text(encoding="utf-8")
        Path("sealed.recipe").write_text(
            recipe.replace("recipe iaph_ingest", "recipe sealed_ingest")
            .replace("from iaph.docs", "from iaph_sealed.docs"), encoding="utf-8")
        for collection, path in (("hgv_texts", "fx/recipes/hgv.recipe"),
                                 ("vol_texts", "fx/recipes/volterra.recipe"),
                                 ("iaph_texts", "fx/recipes/iaph.recipe"),
                                 ("sealed_texts", "sealed.recipe")):
            vdc("index", "build", collection, "--recipe", path)
        yield vdc
    finally:
        os.chdir(old)


def test_partitioned_join_oracle_matches_reference_eval(desk):
    import oracle
    from vdc.datacentre import Catalogue
    from vdc.query import parse_query, reference_eval, result_to_csv

    answers = oracle.QueryOracle(Catalogue.load("c.vdc"))
    for k in (2, 20):
        text = ("SELECT v.person, v.id, i.id FROM volterra_texts v "
                f"JOIN iaph_docs i ON v.person = i.persons WHERE DATE_NEAR(v.date, i.not_before, {k})")
        want = result_to_csv(reference_eval(parse_query(text), Catalogue.load("c.vdc")))
        assert answers.expected(("query", text)) == want
        assert want.count("\n") > 1


def test_oracles_agree_with_the_cli(desk):
    import oracle
    from vdc.datacentre import Catalogue

    vocab = oracle.query_vocab("fx")
    vocab.update(oracle.curate_vocab("fx"))
    catalogue = Catalogue.load("c.vdc")
    searches = {c: oracle.SearchOracle(catalogue, r) for c, r in (
        ("hgv_texts", "fx/recipes/hgv.recipe"),
        ("vol_texts", "fx/recipes/volterra.recipe"),
        ("iaph_texts", "fx/recipes/iaph.recipe"))}
    vocab["terms"] = {c: s.vocab() for c, s in searches.items()}
    answers = oracle.QueryOracle(catalogue)
    for workload in sorted(CYCLES):
        for pool in workloads.pools(workload, 9, vocab).values():
            for req in pool:
                if req.cls.startswith("query"):
                    assert desk(*req.argv) == answers.expected(req.argv), req
                elif req.cls.startswith("search"):
                    assert desk(*req.argv) == searches[req.argv[1]].expected(req.argv), req
    resolver = oracle.ResolveOracle("fx")
    for name, refs in workloads.prepared_collections(9, vocab).items():
        desk("coll", "update", name, "--add", *refs)
        assert desk("coll", "resolve", name) == resolver.expected(refs)
