"""The trial cache's append-only log: process safety, crash safety,
migration from the v1 JSON file and compaction."""

import json
import multiprocessing

from repro.slapo.tuner import TrialCache
from repro.slapo.tuner.cache import COMPACT_RATIO

PROCESSES = 4
ROWS_PER_PROCESS = 100


def line(row: dict) -> bytes:
    return (json.dumps(row, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def put_and_save_rows(path, writer, barrier):
    """Spawned writer: after the barrier, put + save its own rows one by
    one, so saves from every process interleave.  Each save also
    re-puts two hot rows, which makes the log outgrow its live rows and
    forces compactions while the other writers append."""
    cache = TrialCache(path)
    barrier.wait(timeout=60)
    for i in range(ROWS_PER_PROCESS):
        cache.put({"writer": writer, "i": i}, float(i), True,
                  context={"family": "GPT", "world_size": 8})
        for hot in range(2):
            cache.put({"writer": writer, "hot": hot}, float(i), True)
        cache.save()


def test_processes_racing_on_one_path_lose_no_rows(tmp_path):
    path = tmp_path / "trials.json"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(PROCESSES)
    workers = [ctx.Process(target=put_and_save_rows,
                           args=(path, writer, barrier))
               for writer in range(PROCESSES)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    assert [worker.exitcode for worker in workers] == [0] * PROCESSES
    rows = TrialCache(path).entries()
    assert len(rows) == PROCESSES * (ROWS_PER_PROCESS + 2)
    assert {row["throughput"] for row in rows if "hot" in row["config"]} \
        == {ROWS_PER_PROCESS - 1.0}


class TestCrashSafety:
    def saved(self, path, rows):
        cache = TrialCache(path)
        for x in rows:
            cache.put({"x": x}, 10.0 + x, True)
        cache.save()
        return cache

    def test_torn_last_line_is_skipped_then_terminated(self, tmp_path):
        path = tmp_path / "trials.json"
        self.saved(path, range(3))
        with open(path, "ab") as handle:
            handle.write(line({"config": {"x": 9}, "throughput": 19.0,
                               "valid": True})[:20])  # a crash mid-append

        cache = TrialCache(path)
        assert [e["config"]["x"] for e in cache.entries()] == [0, 1, 2]
        cache.put({"x": 3}, 13.0, True)
        cache.put({"x": 4}, 14.0, True)
        cache.save()

        header, *rows = path.read_bytes().split(b"\n")[:-1]
        assert len(rows) == 6  # three rows, the torn line, two rows
        assert rows[4:] == [line(e)[:-1] for e in cache.entries()[3:]]
        reloaded = TrialCache(path)
        assert reloaded.entries() == cache.entries()
        assert [e["config"]["x"] for e in reloaded.entries()] == \
            [0, 1, 2, 3, 4]

    def test_save_appends_exactly_the_rows_added(self, tmp_path):
        path = tmp_path / "trials.json"
        cache = self.saved(path, range(50))
        before = path.read_bytes()
        added = [{"config": {"x": x}, "throughput": 0.5 * x,
                  "valid": x % 2 == 0} for x in range(100, 107)]
        for row in added:
            cache.put(row["config"], row["throughput"], row["valid"])
        cache.save()
        after = path.read_bytes()
        assert after == before + b"".join(line(row) for row in added)
        assert len(after) - len(before) == sum(len(line(r)) for r in added)
        assert after.count(b"\n") == before.count(b"\n") + len(added)

    def test_save_with_nothing_new_writes_nothing(self, tmp_path):
        path = tmp_path / "trials.json"
        cache = self.saved(path, range(5))
        before = path.read_bytes()
        cache.save()
        TrialCache(path).save()
        assert path.read_bytes() == before


class TestWhichRowsWin:
    def test_rows_put_since_the_last_save_win(self, tmp_path):
        path = tmp_path / "trials.json"
        a, b = TrialCache(path), TrialCache(path)
        a.put({"x": 1}, 10.0, True)
        a.save()
        b.put({"x": 1}, 20.0, True)
        b.save()
        assert a.get({"x": 1})["throughput"] == 10.0
        assert b.get({"x": 1})["throughput"] == 20.0
        assert TrialCache(path).get({"x": 1})["throughput"] == 20.0

    def test_rows_only_loaded_do_not_win(self, tmp_path):
        path = tmp_path / "trials.json"
        a = TrialCache(path)
        a.put({"x": 1}, 10.0, True)
        a.save()
        b = TrialCache(path)  # loads x=1 at 10.0
        a.put({"x": 1}, 11.0, True)
        a.save()
        b.put({"x": 2}, 20.0, True)
        b.save()  # folds in a's newer x=1
        assert b.get({"x": 1})["throughput"] == 11.0
        assert TrialCache(path).get({"x": 1})["throughput"] == 11.0

    def test_rows_of_a_deleted_file_are_written_again(self, tmp_path):
        path = tmp_path / "trials.json"
        cache = TrialCache(path)
        cache.put({"x": 1}, 10.0, True)
        cache.save()
        path.unlink()
        cache.put({"x": 2}, 20.0, True)
        cache.save()
        assert TrialCache(path).entries() == cache.entries()
        assert len(cache) == 2


class TestMigrationAndCompaction:
    def test_v1_file_round_trips_as_v2(self, tmp_path):
        path = tmp_path / "trials.json"
        trials = [
            {"config": {"batch_size": 104, "ckpt_ratio": 0.5},
             "throughput": 92.16, "valid": True},
            {"config": {"batch_size": 176, "ckpt_ratio": 0.25},
             "throughput": 0.0, "valid": False},
            {"config": {"dp": 8, "micro_batch": 4, "tp": 1},
             "throughput": 61.3, "valid": True,
             "context": {"family": "BERT", "world_size": 8}},
            {"config": {"dp": 8, "micro_batch": 4, "tp": 1},
             "throughput": 48.9, "valid": True,
             "context": {"family": "GPT", "world_size": 8}},
        ]
        path.write_text(json.dumps({"version": 1, "trials": trials},
                                   indent=1))
        loaded = TrialCache(path)
        assert len(loaded) == 4
        assert loaded.get({"dp": 8, "micro_batch": 4, "tp": 1},
                          {"family": "GPT", "world_size": 8}
                          )["throughput"] == 48.9
        loaded.save()
        header, *rows = path.read_text().splitlines()
        assert json.loads(header) == {"version": 2}
        assert len(rows) == 4
        assert TrialCache(path).entries() == loaded.entries()

    def test_reputs_keep_the_log_compact(self, tmp_path):
        path = tmp_path / "trials.json"
        cache = TrialCache(path)
        live = 5
        for step in range(1000):
            cache.put({"x": step % live}, float(step), True)
            cache.save()
            lines = path.read_bytes().count(b"\n")
            assert lines <= COMPACT_RATIO * live + 1
        assert [e["throughput"] for e in TrialCache(path).entries()] == \
            [995.0, 996.0, 997.0, 998.0, 999.0]

    def test_rows_of_a_second_live_instance_survive_compaction(
            self, tmp_path):
        path = tmp_path / "trials.json"
        a, b = TrialCache(path), TrialCache(path)
        for x in range(3):
            b.put({"b": x}, float(x), True)
        b.save()
        for step in range(20):  # a's re-puts force compactions
            a.put({"a": 0}, float(step), True)
            a.save()
        assert path.read_bytes().count(b"\n") <= COMPACT_RATIO * 4 + 1
        assert len(TrialCache(path)) == 4
        b.put({"b": 3}, 3.0, True)
        b.save()  # appends to the compacted log, not the replaced one
        reloaded = TrialCache(path)
        assert len(reloaded) == 5
        assert reloaded.get({"a": 0})["throughput"] == 19.0
        assert reloaded.entries() == b.entries()

    def test_an_idle_instance_survives_two_compactions(self, tmp_path):
        """Two compactions by another instance can hand the log back the
        inode number it had when this instance last read it (ext4 reuses
        them at once); the instance must still read the new log whole."""
        path = tmp_path / "trials.json"
        a, b = TrialCache(path), TrialCache(path)
        b.put({"b": 0}, 0.0, True)
        b.save()
        for x in range(6):
            a.put({"a": x}, 1.0, True)
        a.save()
        inodes = [path.stat().st_ino]
        for step in range(100):  # until a has compacted twice
            a.put({"a": 0}, float(step), True)
            a.save()
            if path.stat().st_ino != inodes[-1]:
                inodes.append(path.stat().st_ino)
            if len(inodes) == 3:
                break
        assert len(inodes) == 3
        b.save()
        assert b.entries() == a.entries()
        for step in range(40):  # b's re-puts force its own compactions
            b.put({"b": 0}, float(step), True)
            b.save()
        assert len(TrialCache(path)) == 7
