"""EvaluationStore: persistence, provenance gating, concurrency, repair."""

import builtins
import json
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.search import (
    EvaluationStore,
    MemoizingObjective,
    canonical_key,
    space_fingerprint,
)
from repro.space import SearchSpace
from repro.synthetic import SyntheticFunction

DET = {"noise": 0.0, "seed": 0}


def key(x):
    return canonical_key({"x": x})


class TestRoundTrip:
    def test_record_then_lookup(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        store.record("fp", key(1), 3.5, {"rt": 0.5}, provenance=DET)
        entry = store.lookup("fp", key(1), provenance=DET)
        assert entry.value == 3.5
        assert entry.meta == {"rt": 0.5}

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "s.jsonl"
        EvaluationStore(path).record("fp", key(1), 2.0, provenance=DET)
        assert EvaluationStore(path).lookup("fp", key(1), provenance=DET).value == 2.0

    def test_missing_file_is_empty_store(self, tmp_path):
        store = EvaluationStore(tmp_path / "missing.jsonl")
        assert len(store) == 0
        assert store.lookup("fp", key(1)) is None

    def test_header_line_written(self, tmp_path):
        path = tmp_path / "s.jsonl"
        EvaluationStore(path).record("fp", key(1), 1.0)
        first = json.loads(open(path).readline())
        assert first["format"] == "repro-evaluation-store"

    def test_record_idempotent(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        store.record("fp", key(1), 1.0)
        store.record("fp", key(1), 1.0)
        with open(store.path) as f:
            assert sum(1 for _ in f) == 2  # header + one record

    def test_non_finite_refused(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        assert store.record("fp", key(1), float("nan")) is None
        assert store.record("fp", key(2), float("inf")) is None
        assert store.lookup("fp", key(1)) is None

    def test_lookup_config_and_spaces_scoped(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        store.record("fp-a", key(1), 1.0, provenance=DET)
        assert store.lookup_config("fp-a", {"x": 1}, provenance=DET) is not None
        assert store.lookup_config("fp-b", {"x": 1}, provenance=DET) is None

    def test_pickle_drops_handles(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        store.record("fp", key(1), 1.0, provenance=DET)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.lookup("fp", key(1), provenance=DET).value == 1.0
        clone.record("fp", key(2), 2.0, provenance=DET)  # still writable


class TestProvenanceGating:
    def test_noise_free_served_across_seeds(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        store.record("fp", key(1), 1.0, provenance={"noise": 0.0, "seed": 7})
        assert store.lookup("fp", key(1), provenance={"noise": 0.0, "seed": 99}) is not None

    def test_noisy_needs_exact_noise_and_seed(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        store.record("fp", key(1), 1.0, provenance={"noise": 0.1, "seed": 5})
        assert store.lookup("fp", key(1), provenance={"noise": 0.1, "seed": 5}) is not None
        assert store.lookup("fp", key(1), provenance={"noise": 0.1, "seed": 6}) is None
        assert store.lookup("fp", key(1), provenance={"noise": 0.2, "seed": 5}) is None

    def test_noisy_never_served_to_noise_free(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        store.record("fp", key(1), 1.0, provenance={"noise": 0.1, "seed": 5})
        assert store.lookup("fp", key(1), provenance=DET) is None

    def test_noise_free_not_served_to_noisy(self, tmp_path):
        store = EvaluationStore(tmp_path / "s.jsonl")
        store.record("fp", key(1), 1.0, provenance=DET)
        assert store.lookup("fp", key(1), provenance={"noise": 0.1, "seed": 0}) is None


class TestRefreshAndRepair:
    def test_refresh_sees_other_writer(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reader = EvaluationStore(path)
        writer = EvaluationStore(path)
        writer.record("fp", key(1), 1.0, provenance=DET)
        assert reader.lookup("fp", key(1), provenance=DET) is None
        reader.refresh()
        assert reader.lookup("fp", key(1), provenance=DET).value == 1.0

    def test_incomplete_tail_not_consumed_then_completed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = EvaluationStore(path)
        writer.record("fp", key(1), 1.0, provenance=DET)
        reader = EvaluationStore(path)
        line = json.dumps(
            {"space": "fp", "key": key(2), "value": 2.0,
             "meta": {}, "provenance": dict(DET)}
        )
        with open(path, "a") as f:  # a writer mid-append
            f.write(line[:10])
            f.flush()
            assert reader.refresh() == 0
            f.write(line[10:] + "\n")
        assert reader.refresh() == 1
        assert reader.lookup("fp", key(2), provenance=DET).value == 2.0

    def test_torn_tail_repaired_on_writer_open(self, tmp_path):
        path = tmp_path / "s.jsonl"
        EvaluationStore(path).record("fp", key(1), 1.0, provenance=DET)
        with open(path, "a") as f:
            f.write('{"space": "fp", "key"')  # crash mid-write
        store = EvaluationStore(path)
        assert store.lookup("fp", key(1), provenance=DET) is not None
        store.record("fp", key(2), 2.0, provenance=DET)
        # Every line parses after the repair + append.
        reloaded = EvaluationStore(path)
        assert reloaded.lookup("fp", key(2), provenance=DET).value == 2.0
        for raw in open(path):
            json.loads(raw)

    def test_malformed_line_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        EvaluationStore(path).record("fp", key(1), 1.0, provenance=DET)
        with open(path, "a") as f:
            f.write("not json\n")
            f.write('{"missing": "fields"}\n')
        store = EvaluationStore(path)
        assert store.lookup("fp", key(1), provenance=DET) is not None


def _append_worker(path, space, start, count):
    store = EvaluationStore(path)
    for i in range(start, start + count):
        store.record(space, key(i), float(i), provenance={"noise": 0.0, "seed": 0})


class TestConcurrentWriters:
    def test_racing_processes_interleave_whole_lines(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        EvaluationStore(path).record("warm", key(-1), 0.0, provenance=DET)
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_append_worker, args=(path, f"fp-{w}", w * 100, 25))
            for w in range(4)
        ]
        for p in workers:
            p.start()
        for p in workers:
            p.join()
            assert p.exitcode == 0
        store = EvaluationStore(path)
        for w in range(4):
            for i in range(w * 100, w * 100 + 25):
                entry = store.lookup(f"fp-{w}", key(i), provenance=DET)
                assert entry is not None and entry.value == float(i)
        for raw in open(path):  # no torn or interleaved bytes
            json.loads(raw)


def _measure_one_key(path, calls, barrier):
    """Miss one key right after the barrier releases both racers."""

    def slow(config):
        with open(calls, "a") as f:
            f.write("measured\n")
        time.sleep(0.3)
        return 2.0 * config["x"], {}

    memo = MemoizingObjective(
        slow, store=EvaluationStore(path), store_scope="fp", provenance=DET
    )
    barrier.wait()
    assert memo({"x": 7})[0] == 14.0


class TestSingleFlightMisses:
    @pytest.mark.parametrize("n_racers", [2, 4])
    def test_racing_processes_measure_a_key_once(self, tmp_path, n_racers):
        """Racing processes miss one key at the same moment.  The first
        claims it and measures; the others wait out the claim and are
        served its record."""
        path, calls = str(tmp_path / "s.jsonl"), str(tmp_path / "calls")
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n_racers)
        racers = [
            ctx.Process(target=_measure_one_key, args=(path, calls, barrier))
            for _ in range(n_racers)
        ]
        for p in racers:
            p.start()
        for p in racers:
            p.join(60)
        assert [p.exitcode for p in racers] == [0] * n_racers
        with open(calls) as f:
            assert f.read().count("measured") == 1
        with open(path) as f:
            lines = [json.loads(raw) for raw in f]
        assert len([d for d in lines if "format" not in d]) == 1

    def test_claim_is_released_when_its_holder_dies(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        ctx = multiprocessing.get_context("fork")
        held = ctx.Event()

        def hold_forever():
            with EvaluationStore(path).claim("fp", key(1)):
                held.set()
                time.sleep(60)

        holder = ctx.Process(target=hold_forever)
        holder.start()
        assert held.wait(30)
        holder.kill()
        holder.join()
        with EvaluationStore(path).claim("fp", key(1)):
            pass  # would block forever if the dead holder kept the claim


def _pause_before_truncating(at_cut, resume):
    """From now on, this process stops right before it truncates a file
    (through ``os.ftruncate`` or a file object's ``truncate``): it sets
    ``at_cut`` and waits up to 1 s for ``resume``."""

    def pause():
        at_cut.set()
        resume.wait(1.0)

    real_ftruncate, real_open = os.ftruncate, builtins.open

    def ftruncate(fd, length):
        pause()
        return real_ftruncate(fd, length)

    class Pausing:
        def __init__(self, f):
            self._f = f

        def __getattr__(self, name):
            return getattr(self._f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

        def truncate(self, *args):
            pause()
            return self._f.truncate(*args)

    def open_(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return Pausing(f) if "+" in mode else f

    os.ftruncate, builtins.open = ftruncate, open_


def _repair_then_record(path, at_cut, resume):
    _pause_before_truncating(at_cut, resume)
    EvaluationStore(path).record("fp", "kA", 1.0, provenance=DET)


def _record_during_repair(path, at_cut, resume):
    assert at_cut.wait(30)
    EvaluationStore(path).record("fp", "kB", 2.0, provenance=DET)
    resume.set()


class TestConcurrentRepair:
    def test_a_repair_never_cuts_another_writers_record(self, tmp_path):
        """After a crash, two writers open a store with a torn tail.  A
        has read the tail and is about to cut the fragment when B
        repairs, appends and fsyncs kB.  A's cut must not erase kB."""
        path = str(tmp_path / "s.jsonl")
        EvaluationStore(path).record("fp", "k0", 0.0, provenance=DET)
        with open(path, "a") as f:
            f.write('{"key": "torn"')  # power cut mid-append
        ctx = multiprocessing.get_context("fork")
        at_cut, resume = ctx.Event(), ctx.Event()
        procs = [
            ctx.Process(target=target, args=(path, at_cut, resume))
            for target in (_repair_then_record, _record_during_repair)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        assert [p.exitcode for p in procs] == [0, 0]
        assert at_cut.is_set()
        with open(path) as f:
            lines = [json.loads(raw) for raw in f]
        assert lines[0]["format"] == "repro-evaluation-store"
        assert sorted(d["key"] for d in lines[1:]) == ["k0", "kA", "kB"]

    def test_a_repair_never_cuts_a_write_in_flight(self, tmp_path):
        """Writers that open while another appends must not take its
        half-visible line for a torn tail and cut it."""
        path = str(tmp_path / "s.jsonl")
        EvaluationStore(path).record("warm", "w", 0.0, provenance=DET)
        ctx = multiprocessing.get_context("fork")
        go = ctx.Barrier(4)
        procs = [ctx.Process(target=_append_big_records, args=(path, 200, go))]
        procs += [
            ctx.Process(target=_open_and_record, args=(path, w, 50, go))
            for w in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(120)
        assert [p.exitcode for p in procs] == [0] * 4
        with open(path) as f:
            keys = [json.loads(raw).get("key") for raw in f]
        assert len(keys) == len(set(keys)) == 1 + 1 + 200 + 150


def _append_big_records(path, n, go):
    store = EvaluationStore(path, fsync=False)
    go.wait()
    for i in range(n):  # each line spans pages, so a write is seen in parts
        store.record("big", f"b{i}", 1.0, {"pad": "x" * 9000}, provenance=DET)
    store.close()


def _open_and_record(path, w, n, go):
    go.wait()
    for i in range(n):
        store = EvaluationStore(path, fsync=False)
        store.record("small", f"s{w}-{i}", 1.0, provenance=DET)
        store.close()


class TestSpaceFingerprint:
    def test_deterministic(self):
        app = SyntheticFunction(case=1)
        extra = {"app": "synthetic", "case": 1}
        assert space_fingerprint(app.search_space(), extra=extra) == (
            space_fingerprint(SyntheticFunction(case=1).search_space(), extra=extra)
        )

    def test_extra_context_separates_cases(self):
        space = SyntheticFunction(case=1).search_space()
        assert space_fingerprint(space, extra={"case": 1}) != space_fingerprint(
            space, extra={"case": 2}
        )

    def test_pinned_values_separate_subspaces(self):
        space = SyntheticFunction(case=1).search_space()
        names = [p.name for p in space.parameters]
        keep = names[:2]
        pin_param = space.parameters[2]
        sub_lo = space.subspace(keep, pinned={pin_param.name: pin_param.low})
        sub_hi = space.subspace(keep, pinned={pin_param.name: pin_param.high})
        assert space_fingerprint(sub_lo) != space_fingerprint(sub_hi)

    def test_different_spaces_differ(self):
        assert space_fingerprint(
            SyntheticFunction(case=1).search_space()
        ) != space_fingerprint(SyntheticFunction(case=3).search_space())


class TestMemoizingObjectiveStore:
    def _objective(self, calls):
        def obj(config):
            calls.append(dict(config))
            return float(config["x"]) * 2.0, {"m": 1}
        return obj

    def test_write_through_and_cross_job_hit(self, tmp_path):
        path = tmp_path / "s.jsonl"
        calls = []
        first = MemoizingObjective(
            self._objective(calls), store=EvaluationStore(path),
            store_scope="fp", provenance=DET,
        )
        assert first({"x": 3})[0] == 6.0
        assert first.misses == 1 and first.cross_hits == 0

        second = MemoizingObjective(
            self._objective(calls), store=EvaluationStore(path),
            store_scope="fp", provenance=DET,
        )
        value, meta = second({"x": 3})
        assert value == 6.0
        assert meta["cache_hit"] is True
        assert meta["cache_scope"] == "cross_job"
        assert second.cross_hits == 1 and second.misses == 0
        assert len(calls) == 1  # the objective ran exactly once overall

    def test_miss_polls_store_for_concurrent_appends(self, tmp_path):
        path = tmp_path / "s.jsonl"
        calls = []
        memo = MemoizingObjective(
            self._objective(calls), store=EvaluationStore(path),
            store_scope="fp", provenance=DET,
        )
        # Another job's write lands after this memoizer opened the store.
        EvaluationStore(path).record("fp", key(5), 42.0, provenance=DET)
        value, meta = memo({"x": 5})
        assert value == 42.0 and not calls
        assert memo.cross_hits == 1

    def test_local_hits_do_not_touch_cross_counter(self, tmp_path):
        calls = []
        memo = MemoizingObjective(
            self._objective(calls), store=EvaluationStore(tmp_path / "s.jsonl"),
            store_scope="fp", provenance=DET,
        )
        memo({"x": 1})
        memo({"x": 1})
        assert memo.hits == 1 and memo.cross_hits == 0 and len(calls) == 1

    def test_incompatible_provenance_is_a_miss(self, tmp_path):
        path = tmp_path / "s.jsonl"
        EvaluationStore(path).record(
            "fp", key(1), 9.0, provenance={"noise": 0.5, "seed": 3}
        )
        calls = []
        memo = MemoizingObjective(
            self._objective(calls), store=EvaluationStore(path),
            store_scope="fp", provenance=DET,
        )
        value, _ = memo({"x": 1})
        assert value == 2.0 and len(calls) == 1  # evaluated, not served
