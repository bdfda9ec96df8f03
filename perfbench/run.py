"""Fresh-process benchmark of the paper-scale data centre.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload query|index --seed N \
        --seconds S --trace 0|1

One run:

1. set-up (timed as ``setup_s``): ``fixtures generate --scale paper`` with
   the seed, registration of hgv (vault), volterra and iaph (live),
   iaph_sealed (the iaph corpus, index-only), the de_en table and the four
   views, then index builds of hgv_texts, vol_texts, iaph_texts and
   sealed_texts, all as ``vdc`` commands;
2. expected answers for the run's requests, from the independent paths in
   ``oracle.py`` (not timed);
3. a closed loop with one client: each request is one fresh ``vdc``
   process and only one runs at a time.  The run does the whole cycles of
   the workload's mix that ``--seconds`` buy (``workloads.run_cycles``).
   Every response is checked; a non-zero exit or stdout that differs from
   the expected bytes is a failed request.

Latency is the wall time of one request process, from spawn to exit.
``ops_per_s`` is the number of requests divided by the elapsed time of the
measured loop, the driver's checks between requests included.
``peak_rss_mb`` is the largest max RSS of one request process; every
process is spawned by ``launcher.py`` so that the driver's own memory is
not counted.  With ``--trace 0`` the lines before the last print, per request class,
the median wall time (under the class's metric name), the best wall time,
the median CPU time and the largest max-RSS, then the tail percentile;
the last line reports the end-to-end metrics.  With ``--trace 1`` every
request runs twice, plainly and through ``trace_child.py``, over half the
cycles; the last line reports the per-layer metrics (means per request of
span self times and counts), the tracing overhead and the time no span
covers.

Nothing in ``vdc`` survives from one process to the next, so every request
pays for loading what it reads; the fixture files (about 16 MB) stay in
the OS page cache.  There is no program cache to size the workloads
against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from itertools import chain, islice
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_CHILD = HERE / "trace_child.py"
LAUNCHER = HERE / "launcher.py"
CATALOGUE = "c.vdc"
HGV_INDEX = os.path.join(CATALOGUE + ".store", "index", "hgv_texts.idx")

sys.path.insert(0, str(HERE))
from stats import counter_totals, layer_totals, self_times, tail  # noqa: E402
from workloads import (  # noqa: E402
    CYCLES, UPDATE_COLLECTIONS, classes, iter_cycles, run_cycles,
)

# ROADMAP Baseline rows (best of 3, fresh process) and the metric that
# covers each.  The ``--no-pushdown`` row is a correctness gate (pushdown on
# and off give the same bytes), not a user workload, and is left out.
BASELINE = {
    "query_filter_ms": (940, "query with pushdown, the acceptance-8 query"),
    "query_union_ms": (2200, "query on the all_texts union, LIMIT 5"),
    "query_join_ms": (700, "DATE_NEAR join, volterra x iaph"),
    "search_large_ms": (2820, "search hgv_texts quittung --limit 10"),
    "resolve_ms": (1250, "coll resolve on 2 refs (here: 5 refs)"),
    "cli.import_ms": (340, "import vdc.cli"),
}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> span name, for ``_ms`` metrics (self time), or
# counter name (``<span>.calls`` or a summed attribute) for counts
PER_LAYER = {
    "cli.import_ms": "cli.import",
    "datacentre.load_ms": "datacentre.load",
    "datacentre.resolve_ms": "datacentre.resolve",
    "datacentre.estimate_ms": "datacentre.estimate",
    "datacentre.estimate_calls": "datacentre.estimate.calls",
    "datacentre.fetch_ms": "datacentre.fetch",
    "datacentre.fetch_calls": "datacentre.fetch.calls",
    "datacentre.persist_ms": "datacentre.persist",
    "datacentre.lock_wait_ms": "datacentre.lock_wait",
    "connectors.open_ms": "connectors.open",
    "connectors.open_calls": "connectors.open.calls",
    "connectors.scan_ms": "connectors.scan",
    "connectors.rows": "connectors.scan.rows",
    "connectors.xml_parse_ms": "connectors.xml_parse",
    "mediation.apply_ms": "mediation.apply",
    "mediation.rows": "mediation.apply.calls",
    "mediation.warnings": "mediation.apply.warnings",
    "model.date_parse_ms": "model.date_parse",
    "model.date_parses": "model.date_parse.calls",
    "query.parse_ms": "query.parse",
    "query.plan_self_ms": "query.plan",
    "query.execute_self_ms": "query.execute",
    "query.rows_out": "query.execute.rows_out",
    "query.serialize_ms": "query.serialize",
    "textindex.read_index_ms": "textindex.read_index",
    "textindex.bytes_read": "textindex.read_index.bytes_read",
    "textindex.search_ms": "textindex.search",
    "textindex.hits": "textindex.search.hits",
    "textindex.ingest_ms": "textindex.ingest",
    "textindex.build_index_ms": "textindex.build_index",
    "textindex.write_index_ms": "textindex.write_index",
    "textindex.bytes_written": "textindex.write_index.bytes_written",
}
PER_LAYER_UNITS = {name: ("ms" if name.endswith("_ms") else "B" if "bytes" in name else "count")
                   for name in PER_LAYER}
PER_LAYER_UNITS.update({
    "cli.process_ms": "ms", "fixtures.generate_ms": "ms",
    "trace.unattributed_ms": "ms", "trace.overhead_ms": "ms",
})


class SetupError(Exception):
    pass


class Child:
    """Runs ``vdc`` commands in fresh processes inside the centre directory.

    Every process is spawned by ``launcher.py``, a small process started
    before the driver holds any expected answers, so that a request's max
    RSS does not include the driver's memory (see the launcher's docstring).
    """

    def __init__(self, centre: Path):
        self.centre = centre
        self.stdout = centre.parent / "stdout.bin"
        self.stderr = centre.parent / "stderr.txt"
        self.spans = centre.parent / "spans.jsonl"
        self.launcher_rss_mb = 0.0
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCHER)], cwd=centre,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, argv, traced: bool = False) -> dict:
        """One request: exit code, stdout bytes, wall, CPU and max RSS from
        ``os.wait4`` (per child, unlike ``RUSAGE_CHILDREN``), and the span
        records when traced."""
        if traced:
            self.spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(TRACE_CHILD), str(self.spans)]
        else:
            cmd = [sys.executable, "-m", "vdc.cli"]
        cmd += ["--catalogue", CATALOGUE, *argv]
        request = {"argv": cmd, "stdout": str(self.stdout), "stderr": str(self.stderr)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SetupError(f"the launcher exited with {self.launcher.wait()}")
        result = json.loads(reply)
        self.launcher_rss_mb = result.pop("launcher_rss_mb")
        result["out"] = self.stdout.read_bytes()
        if traced:
            with open(self.spans, encoding="utf-8") as f:
                lines = [json.loads(line) for line in f]
            result["write_ms"] = lines[-1]["dur"] * 1000
            result["records"] = lines[:-1]
        return result

    def must(self, argv, traced: bool = False) -> dict:
        r = self.run(argv, traced)
        if r["rc"] != 0:
            raise SetupError(f"vdc {' '.join(argv)} exited {r['rc']}: "
                             f"{self.stderr.read_text(errors='replace')[-500:]}")
        return r


# -- set-up -----------------------------------------------------------------------

def setup(child: Child, seed: int, traced: bool) -> tuple[float, list[dict]]:
    """Build the paper-scale centre through the CLI; returns (seconds, results)."""
    results = []

    def vdc(*argv):
        results.append(child.must(argv, traced))

    start = time.perf_counter()
    vdc("fixtures", "generate", "--seed", str(seed), "--scale", "paper", "--out", "fx")
    vdc("source", "add", "hgv", "--kind", "tabular", "--path", "fx/hgv", "--mode", "vault")
    vdc("source", "add", "volterra", "--kind", "tabular", "--path", "fx/volterra", "--mode", "live")
    vdc("source", "add", "iaph", "--kind", "xml", "--path", "fx/iaph", "--mode", "live")
    vdc("source", "add", "iaph_sealed", "--kind", "xml", "--path", "fx/iaph", "--mode", "index-only")
    vdc("xlate", "add", "de_en", "fx/xlate/de_en.csv")
    for view in ("papyri_en", "volterra_texts", "iaph_docs", "all_texts"):
        vdc("view", "define", f"fx/views/{view}.view")
    # the benchmark's own copy of the iaph recipe, reading the index-only source
    recipe = (child.centre / "fx" / "recipes" / "iaph.recipe").read_text(encoding="utf-8")
    recipe = recipe.replace("recipe iaph_ingest", "recipe sealed_ingest", 1)
    recipe = recipe.replace("from iaph.docs", "from iaph_sealed.docs", 1)
    (child.centre / "sealed.recipe").write_text(recipe, encoding="utf-8")
    for collection, path in (("hgv_texts", "fx/recipes/hgv.recipe"),
                             ("vol_texts", "fx/recipes/volterra.recipe"),
                             ("iaph_texts", "fx/recipes/iaph.recipe"),
                             ("sealed_texts", "sealed.recipe")):
        vdc("index", "build", collection, "--recipe", path)
    return time.perf_counter() - start, results


# -- expected answers ------------------------------------------------------------

def prepare(workload: str, seed: int, child: Child) -> tuple[dict, dict]:
    """Vocabulary for the generator and expected stdout per request argv.

    Runs with the centre as the working directory: the catalogue's paths
    are relative to it.
    """
    import oracle
    import workloads
    from vdc.datacentre import Catalogue

    expected: dict[tuple, str] = {}
    if workload == "query":
        vocab = oracle.query_vocab("fx")
        answers = oracle.QueryOracle(Catalogue.load(CATALOGUE))
        for pool in workloads.pools(workload, seed, vocab).values():
            for req in pool:
                expected[req.argv] = answers.expected(req.argv)
        return vocab, expected

    catalogue = Catalogue.load(CATALOGUE)
    searches = {
        collection: oracle.SearchOracle(catalogue, recipe)
        for collection, recipe in (("hgv_texts", "fx/recipes/hgv.recipe"),
                                   ("vol_texts", "fx/recipes/volterra.recipe"),
                                   ("iaph_texts", "fx/recipes/iaph.recipe"))
    }
    vocab = oracle.curate_vocab("fx")
    vocab["terms"] = {c: a.vocab() for c, a in searches.items()}
    for pool in workloads.pools(workload, seed, vocab).values():
        for req in pool:
            if req.cls.startswith("search"):
                expected[req.argv] = searches[req.argv[1]].expected(req.argv)
    resolver = oracle.ResolveOracle("fx")
    for name, refs in workloads.prepared_collections(seed, vocab).items():
        child.must(("coll", "update", name, "--add", *refs))
        expected[("coll", "resolve", name)] = resolver.expected(refs)
    expected[workloads.BUILD.argv] = ""
    return vocab, expected


def file_hash(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def collection_lines(path: str) -> dict[str, list[str]]:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("COLL "):
                name, _, refs = line.rstrip("\n")[5:].partition(" ")
                out[name] = refs.split(",")
    return out


# -- the measured loop --------------------------------------------------------------

def measure(workload, seed, seconds, traced, child, vocab, expected):
    """Run the whole cycles that ``seconds`` buy; returns the samples (one
    per request: class, plain result, traced result) and the failures."""
    build_hash = file_hash(HGV_INDEX) if workload == "index" else None
    added: dict[str, list[str]] = {name: [] for name in UPDATE_COLLECTIONS}
    samples, failures = [], []
    n = run_cycles(workload, seconds)
    if traced:  # each request runs twice: half the cycles keep the run length
        n = max(1, n // 2)
    cycles = islice(iter_cycles(workload, seed, vocab), n)
    for req in chain.from_iterable(cycles):
        # traced runs alternate which of the pair goes first
        order = (False, True) if len(samples) % 2 == 0 else (True, False)
        results = {t: child.run(req.argv, t) for t in (order if traced else (False,))}
        plain = results[False]
        want = b"" if req.cls == "update" else expected[req.argv].encode("utf-8")
        problems = [f"exit {r['rc']}" for r in results.values() if r["rc"] != 0]
        if plain["out"] != want:
            problems.append("stdout differs from the expected answer")
        if traced and results[True]["out"] != plain["out"]:
            problems.append("traced stdout differs from untraced stdout")
        if req.cls == "build" and file_hash(HGV_INDEX) != build_hash:
            problems.append("rebuilt index bytes differ from the set-up build")
        if req.cls == "update":
            refs = added[req.argv[2]]
            refs.extend(r for r in req.argv[4:] if r not in refs)
        if problems:
            failures.append(f"{req.cls} {' '.join(req.argv)[:120]}: {'; '.join(problems)}")
        samples.append((req.cls, plain, results.get(True)))
    if workload == "index":
        stored = collection_lines(CATALOGUE)
        for name, refs in added.items():
            if refs and stored.get(name) != refs:
                failures.append(f"collection {name}: catalogue holds {stored.get(name)}, expected {refs}")
    return samples, failures


# -- reports ---------------------------------------------------------------------------

def class_walls(samples, key=1):
    by_class = defaultdict(list)
    for s in samples:
        by_class[s[0]].append(s[key])
    return by_class


def end_to_end(workload, samples, setup_s, loop_s):
    plain = [s[1] for s in samples]
    walls = [r["wall_ms"] for r in plain]
    by_class = class_walls(samples)
    tail_ms, percentile = tail(walls) or (max(walls), 100.0)
    lines = [f"workload {workload}: {len(samples)} requests in "
             f"{len(samples) // len(CYCLES[workload])} cycles, one client, closed loop"]
    for cls in classes(workload):
        rs = by_class[cls]
        name = cls + "_ms"
        line = (f"metric {name} {median([r['wall_ms'] for r in rs]):.1f} ms median of {len(rs)} "
                f"(best {min(r['wall_ms'] for r in rs):.1f} ms; "
                f"cpu {median([r['cpu_ms'] for r in rs]):.1f} ms; "
                f"max rss {max(r['rss_mb'] for r in rs):.1f} MB)")
        if name in BASELINE:
            line += f"  ROADMAP Baseline {BASELINE[name][0]} ms: {BASELINE[name][1]}"
        lines.append(line)
    lines.append(f"metric tail_ms {tail_ms:.1f} ms at p{percentile:.1f} of {len(walls)}")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(walls) / loop_s,
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
    }
    return metrics, lines


def per_layer(workload, samples, setup_results):
    totals = defaultdict(float)
    overhead, unattributed, process = [], [], []
    for _, plain, traced in samples:
        records = traced["records"]
        own = layer_totals(records)
        counts = counter_totals(records)
        for metric, key in PER_LAYER.items():
            if metric.endswith("_ms"):
                totals[metric] += own.get(key, 0.0) * 1000
            else:
                totals[metric] += counts.get(key, 0.0)
        spans = {r["name"]: r for r in records if r["parent"] is None}
        inside = sum(spans[n]["dur"] for n in ("cli.import", "cli.run")) * 1000
        process.append(traced["wall_ms"] - inside - traced["write_ms"])
        unattributed.append(self_times(records)[spans["cli.run"]["id"]] * 1000)
        overhead.append(traced["wall_ms"] - plain["wall_ms"])
    n = len(samples)
    metrics = {name: totals[name] / n for name in PER_LAYER}
    generate = layer_totals(setup_results[0]["records"])
    metrics["cli.process_ms"] = sum(process) / n
    metrics["fixtures.generate_ms"] = generate["fixtures.generate"] * 1000
    metrics["trace.unattributed_ms"] = sum(unattributed) / n
    metrics["trace.overhead_ms"] = sum(overhead) / n
    # each request runs twice here, so the loop's elapsed time cannot be
    # split between the two: both rates are 1 / mean request wall time
    plain_ops = n / (sum(s[1]["wall_ms"] for s in samples) / 1000)
    traced_ops = n / (sum(s[2]["wall_ms"] for s in samples) / 1000)
    lines = [
        f"workload {workload}: {n} requests, each run plainly and traced",
        f"tracing overhead: 1 / mean request wall {plain_ops:.3f}/s plain, {traced_ops:.3f}/s traced "
        f"({100 * (traced_ops - plain_ops) / plain_ops:+.1f}%)",
    ]
    walls = class_walls([(c, t) for c, _, t in samples])
    remainder = class_walls([(c, u) for (c, _, _), u in zip(samples, unattributed)])
    for cls in classes(workload):
        lines.append(f"class {cls}: traced wall {median([r['wall_ms'] for r in walls[cls]]):.1f} ms, "
                     f"unattributed {median(remainder[cls]):.1f} ms (medians of {len(walls[cls])})")
    lines.append(f"metric cli.import_ms {metrics['cli.import_ms']:.1f} ms  "
                 f"ROADMAP Baseline {BASELINE['cli.import_ms'][0]} ms: {BASELINE['cli.import_ms'][1]}")
    return metrics, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(CYCLES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "vdc" / "cli.py").is_file():
        print(f"no vdc sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    traced = bool(args.trace)

    shutil.rmtree(WORK, ignore_errors=True)
    centre = WORK / "centre"
    centre.mkdir(parents=True)
    cwd = os.getcwd()
    child = Child(centre)  # before anything big is built: see launcher.py
    try:
        os.chdir(centre)
        setup_s, setup_results = setup(child, args.seed, traced)
        t_prepare = time.perf_counter()
        vocab, expected = prepare(args.workload, args.seed, child)
        t_measure = time.perf_counter()
        samples, failures = measure(args.workload, args.seed, args.seconds, traced,
                                    child, vocab, expected)
        loop_s = time.perf_counter() - t_measure
    except SetupError as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        child.close()
        shutil.rmtree(WORK, ignore_errors=True)

    if traced:
        metrics, lines = per_layer(args.workload, samples, setup_results)
        units = PER_LAYER_UNITS
    else:
        metrics, lines = end_to_end(args.workload, samples, setup_s, loop_s)
        units = END_TO_END_UNITS
    lines.append(f"phases: set-up {setup_s:.1f} s, expected answers "
                 f"{t_measure - t_prepare:.1f} s, loop {loop_s:.1f} s")
    lines.append(f"max rss floor: {child.launcher_rss_mb:.1f} MB, the peak of the "
                 "launcher that spawns every request")
    lines.append(f"setup {setup_s:.3f} s; failed {len(failures)} of {len(samples)} "
                 f"(failed_ratio {len(failures) / len(samples):.3f})")
    lines.extend(f"FAILED {f}" for f in failures)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
