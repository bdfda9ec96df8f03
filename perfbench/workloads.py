"""The two workloads: request classes, the mix of one cycle, and the
seeded generator of ``vdc`` command lines.

Every workload is a closed loop with one client that runs a fixed number
of whole cycles, so each class gets the same number of samples in every
run.  ``vdc`` receives only the generated argument lists; the literals in
them come from ``--seed`` and from the centre generated with that seed
(the ``vocab`` dict that ``run.py`` extracts from the fixture files).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

# Slots of one cycle, in the order they run.  A slot names the class it
# samples; search_vol and search_iaph are both search_small.  The counts
# give every class at least two samples per run and keep the tail
# percentile inside one class's block of latencies (see test_perfbench.py
# and TYPICAL_MS).
#
# query only runs mediated queries and never touches the text index.
# index runs searches beside index rebuilds, collection updates and
# resolves: it reads and writes the index format, and reaches the
# connectors only for whole-table ingest and point lookups.
CYCLES: dict[str, tuple[str, ...]] = {
    "query": (
        "query_small", "query_union", "query_filter",
        "query_join", "query_small", "query_range",
    ),
    "index": (
        "search_large", "search_vol", "build", "search_iaph", "update",
        "search_vol", "resolve", "update", "update",
    ),
}

# Nominal seconds per cycle.  A run does round(--seconds / NOMINAL_CYCLE_S)
# whole cycles, a fixed amount of work: the CPU speed of a shared machine
# can move between levels up to 1.8x apart for seconds to minutes, and a
# time-based stop would change a run's mix with it.
NOMINAL_CYCLE_S = {"query": 6.25, "index": 12.5}

SLOT_CLASS = {"search_vol": "search_small", "search_iaph": "search_small"}

# Median wall ms per class measured at paper scale (2 vCPU, Python 3.11).
# Only the tests use them, to check that the mix keeps the tail percentile
# off a class boundary.
TYPICAL_MS = {
    "query_filter": 1050, "query_union": 2300, "query_join": 700,
    "query_range": 2000, "query_small": 380,
    "search_large": 2800, "search_small": 480,
    "build": 4000, "update": 800, "resolve": 3700,
}

NEAR_K = (2, 5, 10, 20)  # DATE_NEAR years; two are used per run
POOL = 2  # distinct literals per query class and run
RESOLVE_COLLECTIONS = ("res0", "res1")
UPDATE_COLLECTIONS = ("upd0", "upd1")


@dataclass(frozen=True)
class Request:
    cls: str
    argv: tuple[str, ...]


def run_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def slot_class(slot: str) -> str:
    return SLOT_CLASS.get(slot, slot)


def classes(workload: str) -> list[str]:
    return sorted({slot_class(s) for s in CYCLES[workload]})


# -- request pools -------------------------------------------------------------

def _query(cls: str, text: str, *extra: str) -> Request:
    return Request(cls, ("query", text, *extra))


def query_pools(rng: random.Random, vocab: dict) -> dict[str, list[Request]]:
    filters = rng.sample(vocab["filter_pairs"], POOL)
    categories = rng.sample(vocab["union_categories"], POOL)
    ks = rng.sample(NEAR_K, 2)
    decades = rng.sample(vocab["decades"], POOL)
    needles = rng.sample(vocab["needles"], POOL)
    return {
        "query_filter": [
            _query("query_filter",
                   f"SELECT id FROM hgv.papyri WHERE Fundort = '{f}' "
                   f"AND Kategorie = '{c}' LIMIT 10")
            for f, c in filters
        ],
        "query_union": [
            _query("query_union",
                   f"SELECT * FROM all_texts WHERE category = '{c}' LIMIT 5")
            for c in categories
        ],
        "query_join": [
            _query("query_join",
                   "SELECT v.person, v.id, i.id FROM volterra_texts v "
                   "JOIN iaph_docs i ON v.person = i.persons "
                   f"WHERE DATE_NEAR(v.date, i.not_before, {k})")
            for k in ks
        ],
        "query_range": [
            _query("query_range",
                   "SELECT id, date FROM papyri_en WHERE "
                   f"DATE_WITHIN(date, '{d:03d}0', '{d:03d}9')")
            for d in decades
        ],
        "query_small": [
            _query("query_small",
                   "SELECT id, title FROM volterra.legal_texts "
                   f"WHERE summary CONTAINS '{w}'", "--format", "json")
            for w in needles
        ],
    }


def _search_variants(rng: random.Random, cls: str, collection: str, terms: dict) -> list[Request]:
    """Four searches: a frequent term, a rare term, two frequent terms in
    one field, and a frequent term in a bbox (or a rare term in a stored
    field when the collection has no coordinates)."""
    frequent = rng.sample(terms["frequent"], 4)
    rare = rng.sample(terms["rare"], 2)
    out = [
        (frequent[0], "--limit", "10"),
        (rare[0],),
        (f"{frequent[1]} {frequent[2]}", "--field", "body", "--limit", "10"),
    ]
    if terms["geo"] is not None:
        lat0, lon0, lat1, lon1 = terms["geo"]
        a = round(rng.uniform(lat0, (lat0 + lat1) / 2), 2)
        b = round(rng.uniform(lon0, (lon0 + lon1) / 2), 2)
        box = f"{a},{b},{round(a + (lat1 - lat0) / 2, 2)},{round(b + (lon1 - lon0) / 2, 2)}"
        out.append((frequent[3], "--bbox", box, "--limit", "10"))
    else:
        out.append((rare[1], "--field", terms["fields"][-1]))
    return [Request(cls, ("search", collection, *v)) for v in out]


def search_pools(rng: random.Random, vocab: dict) -> dict[str, list[Request]]:
    terms = vocab["terms"]
    return {
        "search_large": _search_variants(rng, "search_large", "hgv_texts", terms["hgv_texts"]),
        "search_vol": _search_variants(rng, "search_small", "vol_texts", terms["vol_texts"]),
        "search_iaph": _search_variants(rng, "search_small", "iaph_texts", terms["iaph_texts"]),
    }


def mirrored_keys(rng: random.Random, keys: list[str]) -> tuple[str, str]:
    """Two keys at mirrored positions (p, n-1-p) of a table.

    ``fetch_record`` scans a table from its start, so the pair costs one
    full scan wherever p falls: the literal varies with the seed, the cost
    does not.
    """
    p = rng.randrange(len(keys) // 2)
    return keys[p], keys[len(keys) - 1 - p]


def resolve_refs(rng: random.Random, vocab: dict) -> list[str]:
    """Refs of one resolve collection: two vault rows, a live row, a live
    document and an index-only stub."""
    a, b = mirrored_keys(rng, vocab["hgv_keys"])
    return [
        f"hgv/papyri/{a}",
        f"volterra/legal_texts/{rng.choice(vocab['vol_keys'])}",
        f"iaph/docs/{rng.choice(vocab['iaph_ids'])}",
        f"iaph_sealed/docs/{rng.choice(vocab['iaph_ids'])}",
        f"hgv/papyri/{b}",
    ]


def _update(rng: random.Random, vocab: dict, stratum: int, strata: int, name: str) -> Request:
    """One ``coll update`` with a vault row from the given stratum of the
    table, so the strata of a cycle scan the whole table between them."""
    keys = vocab["hgv_keys"]
    lo, hi = stratum * len(keys) // strata, (stratum + 1) * len(keys) // strata
    return Request("update", (
        "coll", "update", name, "--add",
        f"hgv/papyri/{keys[rng.randrange(lo, hi)]}",
        f"volterra/legal_texts/{rng.choice(vocab['vol_keys'])}",
        f"iaph/docs/{rng.choice(vocab['iaph_ids'])}",
        f"iaph_sealed/docs/{rng.choice(vocab['iaph_ids'])}",
    ))


BUILD = Request("build", ("index", "build", "hgv_texts", "--recipe", "fx/recipes/hgv.recipe"))


def index_pools(rng: random.Random, vocab: dict) -> dict[str, list[Request]]:
    return {
        **search_pools(rng, vocab),
        "build": [BUILD],
        "resolve": [Request("resolve", ("coll", "resolve", name)) for name in RESOLVE_COLLECTIONS],
    }


_POOLS = {"query": query_pools, "index": index_pools}


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def pools(workload: str, seed: int, vocab: dict) -> dict[str, list[Request]]:
    """The finite set of requests a run draws from, per slot (updates aside)."""
    return _POOLS[workload](_rng(workload, seed, "pools"), vocab)


def prepared_collections(seed: int, vocab: dict) -> dict[str, list[str]]:
    """The resolve collections the index workload creates before timing."""
    rng = _rng("index", seed, "collections")
    return {name: resolve_refs(rng, vocab) for name in RESOLVE_COLLECTIONS}


def iter_cycles(workload: str, seed: int, vocab: dict) -> Iterator[list[Request]]:
    """Cycles of requests, forever; the same seed gives the same sequence."""
    pool = pools(workload, seed, vocab)
    rng = _rng(workload, seed, "updates")
    seen: dict[str, int] = {}
    slots = CYCLES[workload]
    strata = slots.count("update")
    while True:
        cycle = []
        stratum = 0
        for slot in slots:
            i = seen.get(slot, 0)
            seen[slot] = i + 1
            if slot == "update":
                name = UPDATE_COLLECTIONS[i % len(UPDATE_COLLECTIONS)]
                cycle.append(_update(rng, vocab, stratum, strata, name))
                stratum += 1
            else:
                cycle.append(pool[slot][i % len(pool[slot])])
        yield cycle
