"""Deterministic synthetic fixtures emulating the three source datasets.

Emits, at a configurable scale:

* ``hgv/``      — a German-named tabular source (``papyri``) with text-typed
  date columns, umlauts and spaces in column names;
* ``volterra/`` — an English-named tabular source (``legal_texts``) of legal
  pronouncements with persons, findspots and coordinates;
* ``iaph/``     — an XML corpus of inscription documents with persName and
  notBefore/notAfter dating;

plus a German→English translation table, ready-made view and recipe files,
and ``manifest.csv`` — the ground truth of planted cross-source overlaps
(homonymous persons with date gaps, shared findspots, shared categories).

All randomness comes from a pinned SplitMix64 generator, so the same
(seed, scale) always produces byte-identical trees on any platform.
:func:`verify_manifest` re-derives every overlap class directly from the
emitted files, with no generator state; generation self-checks with it.
"""

from __future__ import annotations

import csv
import os
from xml.sax.saxutils import escape, quoteattr

from . import connectors
from .errors import ParseError, VdcError
from .mediation import load_translation_table
from .model import Record, UncertainDate, date_gap_days, parse_uncertain_date

DESK = "desk"
PAPER = "paper"

_ROWS = {
    DESK: {"hgv": 500, "volterra": 500, "iaph": 500},
    PAPER: {"hgv": 55000, "volterra": 5000, "iaph": 1500},
}

NEAR_PAIRS = 12  # planted homonym pairs with gap <= 5 years
FAR_PAIRS = 8  # planted homonym pairs well outside 5 years
SHARED_FINDSPOTS = 6
NEAR_LIMIT_DAYS = 5 * 365

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Pinned PRNG (SplitMix64), stable across platforms and releases."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:  # rejection sampling keeps the draw unbiased
                return v % n

    def randint(self, a: int, b: int) -> int:
        return a + self.below(b - a + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num


# -- vocabulary pools ---------------------------------------------------------

_PRAENOMINA = ["Marcus", "Gaius", "Lucius", "Titus", "Publius", "Quintus", "Sextus", "Aulus"]
_NOMINA = ["Aurelius", "Iulius", "Claudius", "Flavius", "Antonius", "Valerius", "Cornelius", "Ulpius"]
# Disjoint cognomen pools: pairs planted across sources never collide with
# random per-source names, so the manifest is complete by construction.
_COG_VOLTERRA = ["Severus", "Priscus", "Rufus", "Crispus", "Bassus", "Celer", "Macer", "Niger"]
_COG_IAPH = ["Apollonios", "Demetrios", "Theodoros", "Philippos", "Hermias", "Dionysios", "Eutyches", "Karpos"]
_COG_HGV = ["Sarapion", "Ptolemaios", "Heron", "Pachomios", "Ammonios", "Petosiris", "Horos", "Thonis"]
_COG_PLANTED = [
    "Zeno", "Pytheas", "Zoilos", "Athenagoras", "Chariton", "Menippos",
    "Diogenes", "Metrodoros", "Hierokles", "Kallikrates", "Artemidoros",
    "Molon", "Straton", "Euphron", "Nikandros", "Teleson", "Agathon",
    "Philetos", "Sostratos", "Lysimachos",
]

_FINDSPOTS_VOLTERRA = ["Rome", "Ravenna", "Constantinople", "Mediolanum", "Carthage"]
_FINDSPOTS_HGV = ["Theben", "Hermopolis", "Memphis", "Elephantine", "Arsinoe"]
_FINDSPOTS_SHARED = [
    "Oxyrhynchos", "Alexandria", "Antinoopolis", "Herakleopolis",
    "Panopolis", "Tebtynis", "Karanis", "Soknopaiou Nesos",
]
_FINDSPOTS_IAPH = ["Aphrodisias", "Aphrodisias, Theatre", "Aphrodisias, Agora"]

_CATEGORIES_DE = ["Brief", "Dekret", "Ehrung", "Vertrag", "Quittung", "Petition", "Liste"]
_CATEGORIES_EN_IAPH = ["letter", "decree", "honour", "contract", "epitaph", "dedication"]
_CATEGORIES_EN_VOLTERRA = ["letter", "decree", "honour", "contract", "rescript", "edict"]

_TRANSLATIONS = [
    ("Brief", "letter"),
    ("Dekret", "decree"),
    ("Ehrung", "honour"),
    ("Vertrag", "contract"),
    ("Quittung", "receipt"),
    ("Petition", "petition"),
    ("Weihung", "dedication"),
    ("Testament", "testament"),
]

_LATIN_WORDS = [
    "imperator", "senatus", "provincia", "praefectus", "legatus", "testamentum",
    "possessio", "poena", "iudex", "rescriptum", "colonia", "tributum",
    "heres", "servus", "libertus", "aqua", "ager", "lex",
]
_GREEK_WORDS = [
    "λόγος", "πόλις", "βουλή", "δῆμος", "ἱερεύς", "ἀγορά",
    "θεός", "τιμή", "γραμματεύς", "στρατηγός", "Λόγος", "Πόλις",
]
_GERMAN_WORDS = [
    "Quittung", "Getreide", "Steuer", "Pacht", "Darlehen", "Brief",
    "Tempel", "Dorf", "Schreiber", "Zeuge", "Siegel", "Kaufvertrag",
]


class FixtureSpec(Record):
    """What to generate: a seed, a scale ("desk" or "paper"), a directory."""

    __slots__ = ("seed", "scale", "out_dir")

    def __init__(self, seed: int, scale: str, out_dir: str):
        if scale not in _ROWS:
            raise ValueError(f"unknown scale {scale!r}")
        Record.__init__(self, seed, scale, out_dir)


class ManifestEntry(Record):
    """One planted overlap, of kind homonym, shared_findspot or shared_category."""

    __slots__ = ("kind", "person", "value", "ref_a", "ref_b", "gap_days", "near5")


class OverlapManifest(Record):
    __slots__ = ("entries",)

    def of_kind(self, kind: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.kind == kind]

    def near_pairs(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.kind == "homonym" and e.near5]


# -- generation ---------------------------------------------------------------

def _compose(rng: SplitMix64, cognomina: list[str]) -> str:
    return f"{rng.choice(_PRAENOMINA)} {rng.choice(_NOMINA)} {rng.choice(cognomina)}"


def _words(rng: SplitMix64, pool: list[str], n: int) -> str:
    return " ".join(rng.choice(pool) for _ in range(n))


def _year_text(year: int) -> str:
    return f"{year:04d}"


def _random_date_text(rng: SplitMix64) -> str:
    """A date in one of the grammar's branches, weighted towards years."""
    year = rng.randint(100, 400)
    pick = rng.below(10)
    if pick < 4:
        return _year_text(year)
    if pick < 6:
        return f"{_year_text(year)}-{rng.randint(1, 12):02d}"
    if pick < 8:
        month = rng.randint(1, 12)
        return f"{_year_text(year)}-{month:02d}-{rng.randint(1, 28):02d}"
    if pick < 9:
        return f"ca. {_year_text(year)}"
    span = rng.choice([10, 25, 50, 100])
    return f"{_year_text(year)}/{_year_text(year + span - 1)}"


class _Planted(Record):
    """Homonym pair ``i``: volterra row ``i + 1`` and iaph doc ``i{i:04d}``."""

    __slots__ = ("person", "volterra_date", "iaph_year", "gap")


def _plan_pairs(rng: SplitMix64) -> list[_Planted]:
    pairs = []
    for i in range(NEAR_PAIRS + FAR_PAIRS):
        near = i < NEAR_PAIRS
        person = (
            f"{_PRAENOMINA[i % len(_PRAENOMINA)]} "
            f"{_NOMINA[(i * 3) % len(_NOMINA)]} {_COG_PLANTED[i]}"
        )
        v_year = rng.randint(150, 350)
        delta = rng.randint(0, 4) if near else rng.randint(6, 40)
        day_precise = rng.chance(1, 3)
        i_year = v_year + (delta if rng.chance(1, 2) else -delta)
        if day_precise:
            v_date = f"{_year_text(v_year)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        else:
            v_date = _year_text(v_year)
        gap = date_gap_days(
            parse_uncertain_date(v_date), parse_uncertain_date(_year_text(i_year))
        )
        assert (gap <= NEAR_LIMIT_DAYS) == near, "planted pair violates its intent"
        pairs.append(_Planted(person, v_date, i_year, gap))
    return pairs


def generate_fixtures(spec: FixtureSpec) -> OverlapManifest:
    """Emit the three sources, translation table, views, recipes, manifest."""
    out = spec.out_dir
    if os.path.exists(out) and os.listdir(out):
        raise VdcError(f"fixture output dir {out!r} is not empty")
    rows = _ROWS[spec.scale]
    rng = SplitMix64(spec.seed)
    pairs = _plan_pairs(rng)

    for sub in ("hgv", "volterra", "iaph", "xlate", "views", "recipes"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)

    entries: list[ManifestEntry] = []
    hgv_cats_en: dict[str, str] = {}  # en category -> representative hgv ref
    iaph_cats_en: dict[str, str] = {}
    de_to_en = dict(_TRANSLATIONS)

    # ---- volterra/legal_texts.csv
    n_vol = rows["volterra"]
    vol_rows = []
    shared_rows = range(len(pairs), len(pairs) + SHARED_FINDSPOTS)
    branch_rows = range(shared_rows.stop, shared_rows.stop + 6)
    bad_rows = range(branch_rows.stop, branch_rows.stop + 2)
    branch_dates = ["0213-03-15", "0213-03", "0213", "0200/0249", "0150/0249", "ca. 0213"]
    for i in range(n_vol):
        rid = i + 1
        if i < len(pairs):
            person, date = pairs[i].person, pairs[i].volterra_date
        else:
            person = _compose(rng, _COG_VOLTERRA)
            if i in shared_rows:
                date = _random_date_text(rng)
            elif i in branch_rows:
                date = branch_dates[i - branch_rows.start]
            elif i in bad_rows:
                date = "unknown date"
            else:
                date = "" if rng.chance(1, 20) else _random_date_text(rng)
        if i in shared_rows:
            findspot = _FINDSPOTS_SHARED[i - shared_rows.start]
        else:
            findspot = rng.choice(_FINDSPOTS_VOLTERRA)
        category = (
            _CATEGORIES_EN_VOLTERRA[i % len(_CATEGORIES_EN_VOLTERRA)]
            if i < len(_CATEGORIES_EN_VOLTERRA)
            else rng.choice(_CATEGORIES_EN_VOLTERRA)
        )
        summary = f"{_words(rng, _LATIN_WORDS, 6)} {person} {category}"
        if i == 0:
            lat, lon = "91.5", "30.00"  # out of range: ingest warning
        elif i == 1:
            lat, lon = "north", "east"  # unparseable: ingest warning
        elif rng.chance(1, 10):
            lat, lon = "", ""
        else:
            lat = f"{rng.randint(2500, 3150) / 100:.2f}"
            lon = f"{rng.randint(2900, 3300) / 100:.2f}"
        title = f"Pronouncement {rid} on {_words(rng, _LATIN_WORDS, 2)}"
        vol_rows.append([str(rid), title, person, findspot, date, category, summary, lat, lon])

    _write_csv(
        os.path.join(out, "volterra", "legal_texts.csv"),
        ["id", "title", "person", "findspot", "date", "category", "summary", "lat", "lon"],
        vol_rows,
    )
    _write(
        os.path.join(out, "volterra", "legal_texts.schema"),
        "id : int\ntitle : text\nperson : text\nfindspot : text\n"
        "date : date_text\ncategory : text\nsummary : text\nlat : text\nlon : text\n",
    )

    # ---- hgv/papyri.csv
    n_hgv = rows["hgv"]
    hgv_rows = []
    hgv_branch = range(0, 6)
    hgv_shared = range(6, 6 + SHARED_FINDSPOTS)
    hgv_cat = range(hgv_shared.stop, hgv_shared.stop + len(_CATEGORIES_DE))
    hgv_bad = range(hgv_cat.stop, hgv_cat.stop + 3)
    for i in range(n_hgv):
        rid = i + 1
        if i in hgv_branch:
            date = branch_dates[i - hgv_branch.start]
        elif i in hgv_bad:
            date = "unbekannt"
        elif rng.chance(1, 20):
            date = ""
        else:
            date = _random_date_text(rng)
        if i in hgv_shared:
            findspot = _FINDSPOTS_SHARED[i - hgv_shared.start]
        else:
            findspot = rng.choice(_FINDSPOTS_HGV)
        if i in hgv_cat:
            category = _CATEGORIES_DE[i - hgv_cat.start]
        else:
            category = rng.choice(_CATEGORIES_DE)
        en = de_to_en.get(category, category)
        ref = f"hgv/papyri/{rid}"
        hgv_cats_en.setdefault(en, ref)
        person = _compose(rng, _COG_HGV)
        inhalt = f"{_words(rng, _GERMAN_WORDS, 5)} {_words(rng, _GREEK_WORDS, 3)}"
        titel = f"Papyrus {rid} {rng.choice(_GERMAN_WORDS)}"
        lat = f"{rng.randint(2400, 3120) / 100:.2f}"
        lon = f"{rng.randint(2950, 3280) / 100:.2f}"
        hgv_rows.append([str(rid), titel, person, findspot, date, category, inhalt, lat, lon])

    _write_csv(
        os.path.join(out, "hgv", "papyri.csv"),
        ["id", "Titel", "Erwähnte Person", "Fundort", "Datierung", "Kategorie", "Inhalt", "Breite", "Länge"],
        hgv_rows,
    )
    _write(
        os.path.join(out, "hgv", "papyri.schema"),
        'id : int\nTitel : text\n"Erwähnte Person" : text\nFundort : text\n'
        'Datierung : date_text\nKategorie : text\nInhalt : text\n'
        'Breite : text\n"Länge" : text\n',
    )

    # ---- iaph/*.xml
    n_iaph = rows["iaph"]
    iaph_cat_rows = range(len(pairs), len(pairs) + len(_CATEGORIES_EN_IAPH))
    for i in range(n_iaph):
        doc_id = f"i{i:04d}"
        persons: list[str] = []
        date_attr: str | None = None
        if i < len(pairs):
            persons = [pairs[i].person]
            date_attr = _year_text(pairs[i].iaph_year)
            category = rng.choice(_CATEGORIES_EN_IAPH)
        else:
            if i in iaph_cat_rows:
                category = _CATEGORIES_EN_IAPH[i - iaph_cat_rows.start]
            else:
                category = rng.choice(_CATEGORIES_EN_IAPH)
            n_pers = rng.below(3)
            persons = [_compose(rng, _COG_IAPH) for _ in range(n_pers)]
            if not rng.chance(1, 5):
                date_attr = _year_text(rng.randint(100, 500))
        iaph_cats_en.setdefault(category, f"iaph/docs/{doc_id}")
        findspot = rng.choice(_FINDSPOTS_IAPH)
        body = f"{_words(rng, _GREEK_WORDS, 8)} {' '.join(persons)} {_words(rng, _LATIN_WORDS, 3)}"
        title = f"Inscription {doc_id}"
        _write(os.path.join(out, "iaph", doc_id + ".xml"),
               _xml_doc(doc_id, title, findspot, date_attr, category, persons, body))

    # ---- translation table, views, recipes
    _write(
        os.path.join(out, "xlate", "de_en.csv"),
        "source_term,target_term\n"
        + "".join(f"{de},{en}\n" for de, en in _TRANSLATIONS),
    )
    _write_views_and_recipes(out)

    # ---- manifest
    for i, p in enumerate(pairs):
        entries.append(
            ManifestEntry(
                "homonym", p.person, "", f"volterra/legal_texts/{i + 1}", f"iaph/docs/i{i:04d}",
                p.gap, p.gap <= NEAR_LIMIT_DAYS,
            )
        )
    for j, spot in enumerate(_FINDSPOTS_SHARED[:SHARED_FINDSPOTS]):
        vol_id = shared_rows.start + j + 1
        hgv_id = hgv_shared.start + j + 1
        entries.append(
            ManifestEntry(
                "shared_findspot", "", spot,
                f"volterra/legal_texts/{vol_id}", f"hgv/papyri/{hgv_id}", None, None,
            )
        )
    for en in sorted(set(hgv_cats_en) & set(iaph_cats_en)):
        entries.append(
            ManifestEntry(
                "shared_category", "", en, hgv_cats_en[en], iaph_cats_en[en], None, None
            )
        )

    manifest = OverlapManifest(entries)
    _write_manifest(os.path.join(out, "manifest.csv"), manifest)

    faults = verify_manifest(out)
    if faults:
        raise VdcError(f"fixture self-check failed: {'; '.join(faults)}")
    return manifest


def _xml_doc(
    doc_id: str,
    title: str,
    findspot: str,
    date_attr: str | None,
    category: str,
    persons: list[str],
    body: str,
) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', f"<doc id={quoteattr(doc_id)}>", "  <meta>"]
    lines.append(f"    <title>{escape(title)}</title>")
    lines.append(f"    <findspot>{escape(findspot)}</findspot>")
    if date_attr is not None:
        lines.append(
            f"    <date notBefore={quoteattr(date_attr)} notAfter={quoteattr(date_attr)}/>"
        )
    lines.append(f"    <category>{escape(category)}</category>")
    for person in persons:
        lines.append(f"    <persName>{escape(person)}</persName>")
    lines.append("  </meta>")
    lines.append(f"  <text>{escape(body)}</text>")
    lines.append("</doc>")
    return "\n".join(lines) + "\n"


_HGV_RENAMES = """rename "Titel" -> title
rename "Erwähnte Person" -> person
rename "Fundort" -> findspot
rename "Datierung" -> date
rename "Kategorie" -> category
rename "Inhalt" -> summary
rename "Breite" -> lat
rename "Länge" -> lon
"""


def _write_views_and_recipes(out: str) -> None:
    _write(
        os.path.join(out, "views", "papyri_en.view"),
        "view papyri_en\nfrom hgv.papyri\n" + _HGV_RENAMES
        + "coerce date date\ntranslate category using de_en\nend\n",
    )
    _write(
        os.path.join(out, "views", "volterra_texts.view"),
        "view volterra_texts\nfrom volterra.legal_texts\ncoerce date date\nend\n",
    )
    _write(
        os.path.join(out, "views", "iaph_docs.view"),
        "view iaph_docs\nfrom iaph.docs\ncoerce not_before date\ncoerce not_after date\nend\n",
    )
    _write(
        os.path.join(out, "views", "all_texts.view"),
        "view all_texts\nfrom hgv.papyri\nunion volterra.legal_texts\n" + _HGV_RENAMES
        + "coerce date date\ntranslate category using de_en\nend\n",
    )
    _write(
        os.path.join(out, "recipes", "volterra.recipe"),
        "recipe volterra_ingest\nfrom volterra.legal_texts\nid id\n"
        "field title = title\nfield person = person\nfield findspot = findspot\n"
        "field category = category\ngeo lat lon\nbody summary\n"
        "index body\nindex title\nindex person\nend\n",
    )
    _write(
        os.path.join(out, "recipes", "hgv.recipe"),
        "recipe hgv_ingest\nfrom hgv.papyri\nid id\n"
        "field title = Titel\nfield findspot = Fundort\nfield category = Kategorie\n"
        "body Inhalt\nindex body\nindex title\nend\n",
    )
    _write(
        os.path.join(out, "recipes", "iaph.recipe"),
        "recipe iaph_ingest\nfrom iaph.docs\nid id\n"
        "field title = title\nfield findspot = findspot\nfield category = category\n"
        "field persons = persons\nbody body\nindex body\nindex title\nindex persons\nend\n",
    )


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_MANIFEST_HEADER = ["kind", "person", "value", "ref_a", "ref_b", "gap_days", "near5"]


def _write_manifest(path: str, manifest: OverlapManifest) -> None:
    _write_csv(path, _MANIFEST_HEADER, [
        [e.kind, e.person, e.value, e.ref_a, e.ref_b,
         "" if e.gap_days is None else str(e.gap_days),
         "" if e.near5 is None else ("yes" if e.near5 else "no")]
        for e in manifest.entries
    ])


def load_manifest(path: str) -> list[ManifestEntry]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != _MANIFEST_HEADER:
            raise VdcError(f"bad manifest header {header!r}")
        out = []
        for rec in reader:
            kind, person, value, ref_a, ref_b, gap_s, near_s = rec
            out.append(
                ManifestEntry(
                    kind, person, value, ref_a, ref_b,
                    int(gap_s) if gap_s else None,
                    None if near_s == "" else near_s == "yes",
                )
            )
        return out


# -- verification ---------------------------------------------------------------

def _try_date(text: str | None) -> UncertainDate | None:
    if not text:
        return None
    try:
        return parse_uncertain_date(text)
    except ParseError:
        return None


def verify_manifest(fixture_dir: str) -> list[str]:
    """Re-derive all overlap classes from the emitted files, by brute force,
    and compare against manifest.csv.  Returns the faults, one per class
    that differs, empty when the tree matches; any fault is a generator
    bug."""
    manifest_path = os.path.join(fixture_dir, "manifest.csv")
    if not os.path.isfile(manifest_path):
        return ["no fixture in " + fixture_dir]
    entries = load_manifest(manifest_path)

    def open_dir(name: str, kind: str):
        return connectors.open_source(name, kind, os.path.join(fixture_dir, name))

    volterra = open_dir("volterra", connectors.TABULAR)
    hgv = open_dir("hgv", connectors.TABULAR)
    iaph = open_dir("iaph", connectors.XML_CORPUS)
    xlate = load_translation_table("de_en", os.path.join(fixture_dir, "xlate", "de_en.csv"))

    # one scan per table, decoding only the columns compared
    vol_schema = volterra.schema("legal_texts")
    vp, vd, vf = (vol_schema.index_of(c) for c in ("person", "date", "findspot"))
    by_person: dict[str, list[tuple[str, UncertainDate | None]]] = {}
    vol_spots = set()
    for row in volterra.scan("legal_texts", columns=(0, vp, vd, vf)):
        if row[vf]:
            vol_spots.add(row[vf])
        if row[vp] is not None:
            ref = f"volterra/legal_texts/{row[0]}"
            by_person.setdefault(row[vp], []).append((ref, _try_date(row[vd])))
    hgv_schema = hgv.schema("papyri")
    hf, hk = hgv_schema.index_of("Fundort"), hgv_schema.index_of("Kategorie")
    hgv_spots, hgv_en = set(), set()
    for row in hgv.scan("papyri", columns=(hf, hk)):
        if row[hf]:
            hgv_spots.add(row[hf])
        if row[hk]:
            hgv_en.add(xlate.translate(row[hk]))
    docs_schema = iaph.schema("docs")
    di, dp, dn, dc = (docs_schema.index_of(c) for c in ("id", "persons", "not_before", "category"))
    derived_pairs = {}
    iaph_en = set()
    for doc in iaph.scan("docs"):
        if doc[dc] is not None:
            iaph_en.add(doc[dc])
        persons = doc[dp]
        if not persons or persons not in by_person:
            continue
        d_date = _try_date(doc[dn])
        for vref, v_date in by_person[persons]:
            if v_date is None or d_date is None:
                continue
            derived_pairs[(vref, f"iaph/docs/{doc[di]}")] = date_gap_days(v_date, d_date)

    faults = []

    # homonym pairs: person equality between volterra.person and iaph.persons,
    # gap measured volterra date vs the document's notBefore year.
    manifest_pairs = {
        (e.ref_a, e.ref_b): e.gap_days for e in entries if e.kind == "homonym"
    }
    if derived_pairs != manifest_pairs or not all(
        (e.near5 == (e.gap_days <= NEAR_LIMIT_DAYS))
        for e in entries
        if e.kind == "homonym"
    ):
        faults.append("homonym: pair sets or gaps differ")

    # shared findspots: values occurring in both tabular sources.
    derived_spots = hgv_spots & vol_spots
    if derived_spots != {e.value for e in entries if e.kind == "shared_findspot"}:
        faults.append(f"shared_findspot: derived {sorted(derived_spots)}")

    # shared categories: English categories reachable from both hgv (through
    # the translation table) and iaph.
    derived_cats = hgv_en & iaph_en
    if derived_cats != {e.value for e in entries if e.kind == "shared_category"}:
        faults.append(f"shared_category: derived {sorted(derived_cats)}")
    return faults
