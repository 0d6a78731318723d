"""Span nesting, buffer exchange, and JSONL round-trips."""

import pytest

from repro.obs.tracer import NULL_TRACER, Tracer, read_jsonl_tolerant


def test_span_paths_encode_nesting():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
        with tracer.span("middle"):
            pass
    paths = [r["path"] for r in tracer.records]
    # Children close before parents, so depth-first exit order.
    assert paths == ["outer/middle/inner", "outer/middle",
                     "outer/middle", "outer"]
    assert all(r["dur"] >= 0.0 for r in tracer.records)


def test_current_path_tracks_open_spans():
    tracer = Tracer()
    assert tracer.current_path() == ""
    with tracer.span("a"):
        with tracer.span("b"):
            assert tracer.current_path() == "a/b"
        assert tracer.current_path() == "a"
    assert tracer.current_path() == ""


def test_span_attrs_are_coerced_to_jsonable():
    tracer = Tracer()
    with tracer.span("s", n=3, ratio=0.5, flag=True, none=None) as span:
        span.set(obj=object())
    attrs = tracer.records[0]["attrs"]
    assert attrs["n"] == 3 and attrs["ratio"] == 0.5
    assert attrs["flag"] is True and attrs["none"] is None
    assert isinstance(attrs["obj"], str)


def test_record_complete_lands_under_open_span():
    tracer = Tracer()
    with tracer.span("campaign"):
        tracer.record_complete("interp.run", 0.25, {"cached": True})
    record = tracer.records[0]
    assert record["path"] == "campaign/interp.run"
    assert record["dur"] == 0.25
    assert record["attrs"] == {"cached": True}
    assert record["start"] >= 0.0


def test_absorb_reroots_and_preserves_shape():
    worker = Tracer()
    with worker.span("interp.run"):
        with worker.span("step"):
            pass
    parent = Tracer()
    with parent.span("campaign"):
        parent.absorb(worker.to_records())
    paths = sorted(r["path"] for r in parent.records)
    assert paths == ["campaign", "campaign/interp.run",
                     "campaign/interp.run/step"]
    by_name = {r["name"]: r for r in parent.records}
    original = {r["name"]: r for r in worker.records}
    for name in ("interp.run", "step"):
        assert by_name[name]["dur"] == original[name]["dur"]


def test_absorb_explicit_root_and_empty_buffer():
    tracer = Tracer()
    tracer.absorb([], under="anything")          # no-op
    tracer.absorb([{"name": "x", "path": "x", "start": 0.0,
                    "dur": 0.1, "attrs": {}}], under="root")
    assert tracer.records[0]["path"] == "root/x"


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("a", k=1):
        with tracer.span("b"):
            pass
    path = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(path))
    assert read_jsonl_tolerant(str(path)) == (tracer.records, 0)


def test_null_tracer_is_inert_but_loud_on_export(tmp_path):
    with NULL_TRACER.span("ignored", n=1) as span:
        assert span.set(more=2) is span
    assert NULL_TRACER.to_records() == []
    NULL_TRACER.record_complete("x", 1.0)
    NULL_TRACER.absorb([{"name": "x"}])
    with pytest.raises(RuntimeError):
        NULL_TRACER.export_jsonl(str(tmp_path / "nope.jsonl"))
