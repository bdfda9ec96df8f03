"""Traced child: run one ``vdc`` command with spans around each layer.

Usage: ``python3 trace_child.py <spans.jsonl> <vdc arguments...>``

The wrapper imports ``vdc.cli``, patches the public functions of each
module where they are looked up, runs ``vdc.cli.run`` and exits with its
code.  Spans stay in memory and are written as JSON lines to
``<spans.jsonl>`` when the command has finished; nothing is written to the
command's stdout or stderr, so its output bytes are unchanged.

Each record is ``{"id", "name", "parent", "start", "end", "n", "dur",
"attrs"}`` with times in seconds from ``time.perf_counter``.  Calls made
once per row (scan steps, view mediation, date parsing) are folded into
one aggregate record per (name, parent): ``n`` calls, ``dur`` their summed
time, ``start``/``end`` the first start and last end.  Every other record
is one call (``n`` = 1).
"""

import json
import os
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.records: list[dict] = []
        self.stack: list[int | None] = [None]
        self._aggs: dict[tuple[str, int | None], dict] = {}

    def _new(self, name: str, start: float) -> dict:
        rec = {"id": len(self.records), "name": name, "parent": self.stack[-1],
               "start": start, "end": start, "n": 0, "dur": 0.0, "attrs": {}}
        self.records.append(rec)
        return rec

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own; returns (result, record)."""
        start = _now()
        rec = self._new(name, start)
        self.stack.append(rec["id"])
        try:
            return fn(*args, **kwargs), rec
        finally:
            end = _now()
            self.stack.pop()
            rec["end"], rec["n"], rec["dur"] = end, 1, end - start

    def fold(self, name: str, fn, *args):
        """Run ``fn`` inside the aggregate span (name, current parent)."""
        key = (name, self.stack[-1])
        rec = self._aggs.get(key)
        start = _now()
        if rec is None:
            rec = self._aggs[key] = self._new(name, start)
        self.stack.append(rec["id"])
        try:
            return fn(*args), rec
        finally:
            end = _now()
            self.stack.pop()
            rec["end"] = end
            rec["n"] += 1
            rec["dur"] += end - start


def _add(rec: dict, key: str, value) -> None:
    rec["attrs"][key] = rec["attrs"].get(key, 0) + value


def _span(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        result, rec = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(rec, result, args)
        return result

    return wrapper


class _TracedScan:
    """Iterator over a connector scan that times each ``next()``."""

    def __init__(self, tracer: Tracer, it):
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        row, rec = self._tracer.fold("connectors.scan", next, self._it)
        _add(rec, "rows", 1)
        return row


class _TimedLock:
    """Context manager whose acquisition is timed as lock wait."""

    def __init__(self, tracer: Tracer, cm):
        self._tracer = tracer
        self._cm = cm

    def __enter__(self):
        return self._tracer.call("datacentre.lock_wait", self._cm.__enter__)[0]

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


def install(tracer: Tracer) -> None:
    """Patch every traced name at the place the callers look it up."""
    import vdc.cli as cli
    from vdc import connectors, datacentre, fixtures, mediation, textindex

    # bound into vdc.cli at import
    cli.parse_query = _span(tracer, "query.parse", cli.parse_query)
    cli.plan_query = _span(tracer, "query.plan", cli.plan_query)
    cli.execute_plan = _span(
        tracer, "query.execute", cli.execute_plan,
        lambda rec, rs, _: _add(rec, "rows_out", len(rs.rows)),
    )
    cli.result_to_csv = _span(tracer, "query.serialize", cli.result_to_csv)
    cli.result_to_jsonl = _span(tracer, "query.serialize", cli.result_to_jsonl)
    lock = cli.catalogue_lock
    cli.catalogue_lock = lambda *a, **kw: _TimedLock(tracer, lock(*a, **kw))

    # catalogue methods, looked up on the class
    cat = datacentre.Catalogue
    load = cat.__dict__["load"].__func__
    cat.load = classmethod(_span(tracer, "datacentre.load", load))
    cat.resolve_relation = _span(tracer, "datacentre.resolve", cat.resolve_relation)
    cat.fetch_record = _span(tracer, "datacentre.fetch", cat.fetch_record)
    cat.persist = _span(tracer, "datacentre.persist", cat.persist)
    rel = datacentre.Relation
    rel.estimate_rows = _span(tracer, "datacentre.estimate", rel.estimate_rows)

    # vdc.datacentre reaches these through module attributes
    connectors.open_source = _span(tracer, "connectors.open", connectors.open_source)
    for name, key, size_of in (
        ("read_index", "bytes_read", lambda args: os.path.getsize(args[0])),
        ("write_index", "bytes_written", lambda args: os.path.getsize(args[1])),
    ):
        def after(rec, _result, args, key=key, size_of=size_of):
            _add(rec, key, size_of(args))

        setattr(textindex, name, _span(tracer, "textindex." + name, getattr(textindex, name), after))
    textindex.ingest_documents = _span(tracer, "textindex.ingest", textindex.ingest_documents)
    textindex.build_index = _span(tracer, "textindex.build_index", textindex.build_index)
    textindex.search = _span(
        tracer, "textindex.search", textindex.search,
        lambda rec, hits, _: _add(rec, "hits", len(hits)),
    )
    fixtures.generate_fixtures = _span(tracer, "fixtures.generate", fixtures.generate_fixtures)

    # connector scans are generators: time each step
    for source in (connectors.TabularSource, connectors.XmlCorpusSource):
        def scan(self, *args, _orig=source.scan, **kwargs):
            return _TracedScan(tracer, _orig(self, *args, **kwargs))

        source.scan = scan
    docs = connectors.XmlCorpusSource.documents
    connectors.XmlCorpusSource.documents = _span(tracer, "connectors.xml_parse", docs)

    # once per row: folded into aggregate records
    apply = mediation.CompiledView.apply

    def traced_apply(self, *args):
        (row, warnings), rec = tracer.fold("mediation.apply", apply, self, *args)
        if warnings:
            _add(rec, "warnings", len(warnings))
        return row, warnings

    mediation.CompiledView.apply = traced_apply
    parse_date = mediation.parse_uncertain_date
    mediation.parse_uncertain_date = lambda text: tracer.fold(
        "model.date_parse", parse_date, text
    )[0]


def main(argv: list[str]) -> int:
    spans_path, vdc_args = argv[0], argv[1:]
    tracer = Tracer()
    try:
        tracer.call("cli.import", __import__, "vdc.cli")
        install(tracer)
        import vdc.cli

        code, _ = tracer.call("cli.run", vdc.cli.run, vdc_args)
    finally:
        start = _now()
        body = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in tracer.records)
        meta = {"name": "trace.write", "dur": _now() - start}
        with open(spans_path, "w", encoding="utf-8") as f:
            f.write(body)
            f.write(json.dumps(meta) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
