"""Tests for the live-tailing primitives (tailer, bus, latency sink).

The rotation-race tests are the satellite-4 coverage: a JsonlTailer
following a JsonlSink that rotates mid-stream must yield every complete
line exactly once — no drops, no duplicates — and account for torn
final lines instead of parsing garbage.
"""

import json
import os
import threading

import pytest

from repro.telemetry import (
    EventBus,
    JsonlSink,
    JsonlTailer,
    MetricsRegistry,
    SpanLatencySink,
)
from repro.telemetry import stream as stream_module


def write_lines(path, events, *, torn_suffix=None):
    with open(path, "a") as f:
        for ev in events:
            f.write(json.dumps(ev) + "\n")
        if torn_suffix is not None:
            f.write(torn_suffix)  # no newline: a torn tail


class TestJsonlTailer:
    def test_replays_existing_file_once(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, [{"i": i} for i in range(5)])
        tailer = JsonlTailer(path)
        assert [e["i"] for e in tailer.poll()] == list(range(5))
        assert tailer.poll() == []

    def test_missing_file_then_created(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tailer = JsonlTailer(path)
        assert tailer.poll() == []
        write_lines(path, [{"i": 0}])
        assert [e["i"] for e in tailer.poll()] == [0]

    def test_skips_header_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, [{"kind": "header"}, {"event": "header"}, {"i": 1}])
        assert [e for e in JsonlTailer(path).poll()] == [{"i": 1}]

    def test_keeps_header_when_asked(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, [{"kind": "header"}, {"i": 1}])
        tailer = JsonlTailer(path, skip_header=False)
        assert len(tailer.poll()) == 2

    def test_torn_live_tail_held_until_completed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, [{"i": 0}], torn_suffix='{"i": 1')
        tailer = JsonlTailer(path)
        assert [e["i"] for e in tailer.poll()] == [0]
        assert tailer.torn_lines == 0  # live tail may still complete
        with open(path, "a") as f:
            f.write('}\n')  # writer finishes the line
        assert [e["i"] for e in tailer.poll()] == [1]

    def test_incremental_polls_no_dup(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tailer = JsonlTailer(path)
        seen = []
        for batch in range(10):
            write_lines(path, [{"i": batch * 3 + k} for k in range(3)])
            seen += [e["i"] for e in tailer.poll()]
        assert seen == list(range(30))

    # -- rotation races (satellite 4) -----------------------------------
    def test_follow_across_sink_rotation(self, tmp_path):
        """A tailer racing a rotating JsonlSink misses nothing."""
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, max_bytes=256, max_files=8)
        tailer = JsonlTailer(path)
        seen = []
        for i in range(100):
            sink.emit({"kind": "eval", "scope": "m", "seq": i, "best": 1.0})
            if i % 7 == 0:  # poll mid-stream, often straddling a rotation
                seen += [e["seq"] for e in tailer.poll()]
        sink.close()
        seen += [e["seq"] for e in tailer.poll()]
        assert seen == list(range(100))
        assert os.path.exists(f"{path}.1")  # rotation actually happened
        assert tailer.torn_lines == 0
        assert tailer.lost_segments == 0

    def test_rotation_between_polls(self, tmp_path):
        """Rotation while the tailer sleeps: old segments finished first
        (retention is wide enough that nothing is unlinked)."""
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, max_bytes=128, max_files=64)
        tailer = JsonlTailer(path)
        for i in range(3):
            sink.emit({"kind": "eval", "scope": "m", "seq": i})
        first = [e["seq"] for e in tailer.poll()]
        # Force several rotations before the next poll.
        for i in range(3, 40):
            sink.emit({"kind": "eval", "scope": "m", "seq": i})
        sink.close()
        rest = [e["seq"] for e in tailer.poll()]
        assert first + rest == list(range(40))
        assert tailer.lost_segments == 0

    def test_retention_loss_flagged_not_silent(self, tmp_path):
        """When rotation outruns retention between polls, the unlinked
        lines are unrecoverable — but the tailer says so."""
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, max_bytes=128, max_files=2)
        tailer = JsonlTailer(path)
        sink.emit({"kind": "eval", "scope": "m", "seq": 0})
        assert [e["seq"] for e in tailer.poll()] == [0]
        for i in range(1, 40):  # far past max_files=2 retention
            sink.emit({"kind": "eval", "scope": "m", "seq": i})
        sink.close()
        rest = [e["seq"] for e in tailer.poll()]
        assert tailer.lost_segments == 1  # the hole is flagged
        assert rest == list(range(rest[0], 40))  # suffix intact, in order
        assert rest[-1] == 39

    def test_rename_chain_mid_scan_skips_no_segment(self, tmp_path, monkeypatch):
        """The writer renames ``.i`` -> ``.i+1`` oldest first, then the
        live file to ``.1``.  A chain that runs while the tailer opens
        the family must not hide a segment from it.  The chain here runs
        right after the tailer's first open of a rotated segment and
        stops before the final rename, so the live file keeps its inode
        and the scan is accepted."""
        path = tmp_path / "t.jsonl"
        for idx, seqs in {3: (0, 1), 2: (2, 3), 1: (4, 5)}.items():
            write_lines(f"{path}.{idx}", [{"seq": s} for s in seqs])
        write_lines(path, [{"seq": 6}])

        class RenameChainOnFirstOpen:
            chained = False

            def __getattr__(self, name):
                return getattr(os, name)

            def open(self, name, flags):
                fd = os.open(name, flags)
                if not self.chained and os.fspath(name) != os.fspath(path):
                    self.chained = True
                    for i in (3, 2, 1):
                        os.replace(f"{path}.{i}", f"{path}.{i + 1}")
                return fd

        monkeypatch.setattr(stream_module, "os", RenameChainOnFirstOpen())
        tailer = JsonlTailer(path)
        assert [e["seq"] for e in tailer.poll()] == list(range(7))
        assert tailer.lost_segments == 0

    def test_concurrent_writer_and_tailer_threads(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, max_bytes=512, max_files=128)
        tailer = JsonlTailer(path)
        seen, stop = [], threading.Event()

        def consume():
            while not stop.is_set():
                seen.extend(e["seq"] for e in tailer.poll())
            seen.extend(e["seq"] for e in tailer.poll())

        t = threading.Thread(target=consume)
        t.start()
        for i in range(500):
            sink.emit({"kind": "eval", "scope": "m", "seq": i})
        sink.close()
        stop.set()
        t.join()
        assert seen == list(range(500))  # exactly once, in order

    def test_torn_final_line_in_rotated_segment_counted(self, tmp_path):
        """A rotated-away segment ending mid-line can never be completed:
        the fragment is dropped, counted, and the stream continues."""
        path = tmp_path / "t.jsonl"
        write_lines(f"{path}.1", [{"i": 0}], torn_suffix='{"i": 1, "x"')
        write_lines(path, [{"i": 2}])
        tailer = JsonlTailer(path)
        assert [e["i"] for e in tailer.poll()] == [0, 2]
        assert tailer.torn_lines == 1

    def test_torn_line_discovered_after_rotation(self, tmp_path):
        """The live torn tail is held; if the file then rotates away the
        held fragment is accounted as torn, not silently skipped."""
        path = tmp_path / "t.jsonl"
        write_lines(path, [{"i": 0}], torn_suffix='{"i": 1')
        tailer = JsonlTailer(path)
        assert [e["i"] for e in tailer.poll()] == [0]
        os.replace(path, f"{path}.1")  # crash + external rotation
        write_lines(path, [{"i": 2}])
        assert [e["i"] for e in tailer.poll()] == [2]
        assert tailer.torn_lines == 1

    def test_lost_segment_detected_on_replacement(self, tmp_path):
        """Wholesale replacement (WAL compaction) resumes at the new file
        and flags the discontinuity."""
        path = tmp_path / "t.jsonl"
        write_lines(path, [{"i": 0}])
        tailer = JsonlTailer(path)
        tailer.poll()
        os.unlink(path)
        write_lines(path, [{"i": 10}])
        assert [e["i"] for e in tailer.poll()] == [10]
        assert tailer.lost_segments == 1

    def test_garbage_interior_line_counted_not_fatal(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as f:
            f.write('{"i": 0}\nnot json at all\n{"i": 1}\n')
        tailer = JsonlTailer(path)
        assert [e["i"] for e in tailer.poll()] == [0, 1]
        assert tailer.torn_lines == 1


class TestJsonlSinkTornTailRepair:
    def test_reopen_after_torn_tail_does_not_glue(self, tmp_path):
        """Appending after a crash's torn tail must not weld the next
        event onto the fragment (corrupting a recoverable trace)."""
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"kind": "eval", "scope": "m", "seq": 0})
        sink.close()
        with open(path, "a") as f:
            f.write('{"kind": "eval", "scope": "m", "seq": 1')  # torn
        sink = JsonlSink(path)
        sink.emit({"kind": "eval", "scope": "m", "seq": 1})
        sink.close()
        events = [json.loads(l) for l in open(path)]
        assert [e.get("seq") for e in events if e.get("kind") == "eval"] == [0, 1]


class TestEventBus:
    def test_cursors_monotonic_from_one(self):
        bus = EventBus()
        assert bus.cursor == 0
        assert bus.publish({"a": 1}) == 1
        assert bus.publish({"a": 2}) == 2
        assert bus.cursor == 2

    def test_subscribe_replays_then_lives(self):
        bus = EventBus()
        for i in range(5):
            bus.publish({"i": i})
        sub = bus.subscribe(after=2)
        bus.publish({"i": 5})
        got = [sub.get(timeout=0) for _ in range(4)]
        assert [(c, e["i"]) for c, e in got] == [(3, 2), (4, 3), (5, 4), (6, 5)]
        assert sub.get(timeout=0) is None

    def test_no_gap_no_dup_under_concurrent_publish(self):
        bus = EventBus()
        stop = threading.Event()
        published = []

        def produce():
            i = 0
            while not stop.is_set():
                published.append(bus.publish({"i": i}))
                i += 1

        t = threading.Thread(target=produce)
        t.start()
        subs = [bus.subscribe(after=0) for _ in range(4)]
        stop.set()
        t.join()
        total = bus.cursor
        for sub in subs:
            cursors = []
            while True:
                item = sub.get(timeout=0)
                if item is None:
                    break
                cursors.append(item[0])
            # Contiguous suffix ending at the final cursor: no gap, no dup.
            assert cursors == list(range(cursors[0], total + 1))
            sub.close()

    def test_predicate_filters(self):
        bus = EventBus()
        sub = bus.subscribe(predicate=lambda e: e.get("job") == "a")
        bus.publish({"job": "a", "i": 1})
        bus.publish({"job": "b", "i": 2})
        bus.publish({"job": "a", "i": 3})
        assert [e["i"] for _, e in iter(lambda: sub.get(timeout=0), None)] == [1, 3]

    def test_history_bound(self):
        bus = EventBus(history=3)
        for i in range(10):
            bus.publish({"i": i})
        sub = bus.subscribe(after=0)
        got = [item for item in iter(lambda: sub.get(timeout=0), None)]
        assert [c for c, _ in got] == [8, 9, 10]  # only the retained window

    def test_close_wakes_blocked_get(self):
        bus = EventBus()
        sub = bus.subscribe()
        result = []

        def consume():
            result.append(sub.get(timeout=5.0))

        t = threading.Thread(target=consume)
        t.start()
        bus.close()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert result == [None]
        assert sub.closed

    def test_publish_after_close_raises(self):
        bus = EventBus()
        bus.close()
        with pytest.raises(RuntimeError):
            bus.publish({})

    def test_subscriber_count_tracks_close(self):
        bus = EventBus()
        sub = bus.subscribe()
        assert bus.subscriber_count == 1
        sub.close()
        assert bus.subscriber_count == 0


class TestSpanLatencySink:
    def span(self, name, t0, t1):
        return {"kind": "span", "scope": "m", "name": name, "t0": t0, "t1": t1}

    def test_named_spans_feed_histograms(self):
        reg = MetricsRegistry()
        sink = SpanLatencySink(reg)
        sink.emit(self.span("gp_fit", 0.0, 0.25))
        sink.emit(self.span("acquisition", 1.0, 1.5))
        sink.emit(self.span("irrelevant", 0.0, 9.0))
        snap = reg.snapshot()["histograms"]
        assert "span_seconds{span=gp_fit}" in snap
        assert "span_seconds{span=acquisition}" in snap
        assert not any("irrelevant" in k for k in snap)
        assert snap["span_seconds{span=gp_fit}"]["total"] == pytest.approx(0.25)

    def test_non_span_events_ignored(self):
        reg = MetricsRegistry()
        sink = SpanLatencySink(reg)
        sink.emit({"kind": "eval", "scope": "m", "seq": 0})
        sink.emit({"kind": "span", "name": "gp_fit"})  # no timestamps
        assert reg.snapshot()["histograms"] == {}

    def test_negative_duration_clamped(self):
        reg = MetricsRegistry()
        SpanLatencySink(reg).emit(self.span("gp_fit", 5.0, 4.0))
        hist = reg.snapshot()["histograms"]["span_seconds{span=gp_fit}"]
        assert hist["total"] == 0.0
        assert hist["count"] == 1
