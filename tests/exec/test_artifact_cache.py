"""The artifact cache: layers, counters, bypasses, budget discipline.

The autouse ``_isolated_artifact_cache`` fixture (tests/conftest.py)
points ``REPRO_CACHE_DIR`` at a per-test tmp dir and clears the
process-wide memory layer around every test, so counter assertions here
are deltas, never absolutes.
"""

import hashlib
import json
import os

import pytest

from repro.errors import ReproError
from repro.exec.artifact import CompiledArtifact, build_artifact
from repro.exec.cache import DEFAULT_CACHE, ArtifactCache, cache_key, cached_artifact
from repro.fast.cli import EXIT_BUDGET, EXIT_OK, main
from repro.fast.evaluator import run_artifact
from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import tracer
from repro.smt import Solver

EASY = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

OTHER = EASY.replace("v > 0", "v > 1")
THIRD = EASY.replace("v > 0", "v > 2")

COUNTERS = (
    "exec.cache.hit",
    "exec.cache.miss",
    "exec.cache.store",
    "exec.cache.disk_errors",
    "exec.artifact.builds",
    "fast.parse",
)


def counts():
    return {name: obs_metrics.REGISTRY.counter(name).snapshot() for name in COUNTERS}


def delta(before, name):
    return obs_metrics.REGISTRY.counter(name).snapshot() - before[name]


def cache_dir():
    return os.environ["REPRO_CACHE_DIR"]


class TestLayers:
    def test_memory_hit_returns_same_object(self):
        before = counts()
        first = cached_artifact(EASY)
        second = cached_artifact(EASY)
        assert second is first
        assert delta(before, "exec.cache.miss") == 1
        assert delta(before, "exec.cache.hit") == 1
        assert delta(before, "exec.artifact.builds") == 1
        assert delta(before, "fast.parse") == 1
        assert delta(before, "exec.cache.store") == 1

    def test_disk_hit_after_memory_clear(self):
        before = counts()
        cached_artifact(EASY)
        DEFAULT_CACHE.clear()  # memory only; the disk entry survives
        artifact = cached_artifact(EASY)
        assert isinstance(artifact, CompiledArtifact)
        assert delta(before, "fast.parse") == 1  # never re-parsed
        assert delta(before, "exec.cache.hit") == 1
        # The revived artifact actually evaluates.
        report = run_artifact(artifact)
        assert report.ok

    def test_corrupt_disk_entry_is_dropped_and_recompiled(self):
        cached_artifact(EASY)
        DEFAULT_CACHE.clear()
        path = os.path.join(cache_dir(), f"{cache_key(EASY)}.json")
        with open(path, "w") as f:
            f.write("{not json")
        before = counts()
        artifact = cached_artifact(EASY)
        assert isinstance(artifact, CompiledArtifact)
        assert delta(before, "exec.cache.miss") == 1
        assert delta(before, "exec.artifact.builds") == 1
        assert not os.path.exists(path) or os.path.getsize(path) > 20

    def test_lru_evicts_oldest(self):
        cache = ArtifactCache(capacity=2)
        for source in (EASY, OTHER, THIRD):
            cached_artifact(source, cache=cache)
        assert len(cache) == 2
        assert cache_key(EASY) not in cache._memory
        assert cache_key(THIRD) in cache._memory

    def test_prewarm_lifts_disk_entries_into_memory(self):
        cached_artifact(EASY)
        cached_artifact(OTHER)
        DEFAULT_CACHE.clear()
        assert len(DEFAULT_CACHE) == 0
        before = counts()
        loaded = DEFAULT_CACHE.prewarm_from_disk()
        assert loaded == 2
        assert len(DEFAULT_CACHE) == 2
        # Prewarm is not a hit; the next get is (a memory one).
        assert delta(before, "exec.cache.hit") == 0
        cached_artifact(EASY)
        assert delta(before, "exec.cache.hit") == 1


class TestIntegrity:
    """Disk corruption degrades to a counted miss — never a wrong program.

    Every disk entry is a checksummed envelope; these tests vandalize
    the stored bytes in the ways real disks do (truncation, bit flips)
    and check the cache fails closed: recompile, count the incident
    under ``exec.cache.disk_errors``, drop the bad entry.
    """

    def _entry_path(self):
        return os.path.join(cache_dir(), f"{cache_key(EASY)}.json")

    def _vandalize(self, mutate):
        """Warm the disk entry, clear memory, and corrupt the file."""
        cached_artifact(EASY)
        DEFAULT_CACHE.clear()
        path = self._entry_path()
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(mutate(blob))
        return path

    def test_truncated_entry_is_counted_miss(self):
        path = self._vandalize(lambda blob: blob[: len(blob) // 2])
        before = counts()
        artifact = cached_artifact(EASY)
        report = run_artifact(artifact)
        assert report.ok
        assert delta(before, "exec.cache.miss") == 1
        assert delta(before, "exec.cache.disk_errors") == 1
        assert delta(before, "exec.artifact.builds") == 1

    def test_bit_flip_inside_payload_is_detected(self):
        # Flip one bit deep inside the payload: still valid-enough JSON
        # structure in many positions, but the checksum always catches
        # it — a silently-altered artifact must never be revived.
        def flip(blob):
            i = (3 * len(blob)) // 4
            return blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1 :]

        self._vandalize(flip)
        before = counts()
        artifact = cached_artifact(EASY)
        assert run_artifact(artifact).ok
        assert delta(before, "exec.cache.hit") == 0
        assert delta(before, "exec.cache.disk_errors") == 1
        assert delta(before, "exec.artifact.builds") == 1

    def test_unenveloped_legacy_entry_is_dropped(self):
        # A pre-envelope cache file (raw payload, no checksum) is
        # treated as corrupt: dropped, counted, recompiled.
        import json

        cached_artifact(EASY)
        path = self._entry_path()
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)["payload"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        DEFAULT_CACHE.clear()
        before = counts()
        assert run_artifact(cached_artifact(EASY)).ok
        assert delta(before, "exec.cache.disk_errors") == 1

    def test_corrupt_entry_is_unlinked_and_rewritten(self):
        path = self._vandalize(lambda blob: b"\x00" + blob)
        before = counts()
        cached_artifact(EASY)
        # The bad entry was replaced by a fresh, loadable envelope.
        DEFAULT_CACHE.clear()
        assert cached_artifact(EASY) is not None
        assert delta(before, "exec.cache.disk_errors") == 1
        assert delta(before, "exec.cache.store") == 1

    def test_missing_file_is_a_plain_miss_not_a_disk_error(self):
        before = counts()
        cached_artifact(EASY)  # no disk entry yet: plain miss
        assert delta(before, "exec.cache.miss") == 1
        assert delta(before, "exec.cache.disk_errors") == 0

    def test_entry_is_one_json_object_with_sha256_and_payload(self):
        cached_artifact(EASY)
        with open(self._entry_path(), encoding="utf-8") as f:
            envelope = json.load(f)
        assert set(envelope) == {"sha256", "payload"}
        assert isinstance(envelope["payload"], dict)

    def test_checksum_covers_the_stored_payload_bytes(self):
        cached_artifact(EASY)
        with open(self._entry_path(), "rb") as f:
            blob = f.read()
        digest = json.loads(blob)["sha256"]
        head = b'{"sha256":"' + digest.encode("ascii") + b'","payload":'
        assert blob.startswith(head) and blob.endswith(b"}")
        payload = blob[len(head) : -1]
        assert hashlib.sha256(payload).hexdigest() == digest

    def test_flipped_checksum_digit_is_counted_miss(self):
        def flip_digit(blob):
            i = blob.index(b'"sha256":"') + len(b'"sha256":"') + 7
            digit = b"0" if blob[i : i + 1] != b"0" else b"1"
            return blob[:i] + digit + blob[i + 1 :]

        self._vandalize(flip_digit)
        before = counts()
        assert run_artifact(cached_artifact(EASY)).ok
        assert delta(before, "exec.cache.hit") == 0
        assert delta(before, "exec.cache.disk_errors") == 1
        assert delta(before, "exec.artifact.builds") == 1

    def test_older_envelope_layout_is_recompiled_once(self):
        # The earlier writer streamed ``json.dump(envelope, f)`` with
        # default separators.  Such an entry costs one counted
        # recompile, is rewritten in the current layout, and the
        # program's verdict does not change.
        verdict = run_artifact(cached_artifact(EASY)).ok
        path = self._entry_path()
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)["payload"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        envelope = {
            "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "payload": payload,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(envelope, f)
        DEFAULT_CACHE.clear()
        before = counts()
        assert run_artifact(cached_artifact(EASY)).ok == verdict
        assert delta(before, "exec.cache.disk_errors") == 1
        assert delta(before, "exec.artifact.builds") == 1
        assert delta(before, "exec.cache.store") == 1
        DEFAULT_CACHE.clear()
        assert run_artifact(cached_artifact(EASY)).ok == verdict
        assert delta(before, "exec.cache.hit") == 1
        assert delta(before, "exec.cache.disk_errors") == 1


class TestDiskSpans:
    def test_store_and_load_are_traced(self):
        def walk(spans):
            for sp in spans:
                yield sp
                yield from walk(sp.children)

        with obs.observed():
            tracer.reset_trace()
            try:
                cached_artifact(EASY)  # miss (no entry yet, no load) + store
                DEFAULT_CACHE.clear()
                cached_artifact(EASY)  # disk hit: one load
                spans = list(walk(tracer.trace()))
            finally:
                tracer.reset_trace()
        stores = [sp for sp in spans if sp.name == "exec.cache.store"]
        loads = [sp for sp in spans if sp.name == "exec.cache.load"]
        assert len(stores) == 1 and len(loads) == 1
        size = os.path.getsize(os.path.join(cache_dir(), f"{cache_key(EASY)}.json"))
        assert stores[0].attrs["bytes"] == loads[0].attrs["bytes"] == size
        assert "error" not in loads[0].attrs


class TestBypasses:
    def test_env_off_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        before = counts()
        first = cached_artifact(EASY)
        second = cached_artifact(EASY)
        assert second is not first
        assert delta(before, "exec.artifact.builds") == 2
        assert delta(before, "exec.cache.hit") == 0
        assert delta(before, "exec.cache.miss") == 0

    def test_explicit_solver_bypasses_cache(self):
        cached_artifact(EASY)
        before = counts()
        artifact = cached_artifact(EASY, solver=Solver())
        assert delta(before, "exec.artifact.builds") == 1
        assert delta(before, "exec.cache.hit") == 0
        assert run_artifact(artifact).ok

    def test_failed_compile_is_never_stored(self):
        bad = "type )(("
        with pytest.raises(ReproError):
            cached_artifact(bad)
        assert len(DEFAULT_CACHE) == 0
        assert not os.path.exists(
            os.path.join(cache_dir(), f"{cache_key(bad)}.json")
        )
        with pytest.raises(ReproError):
            cached_artifact(bad)


class TestBudgetDiscipline:
    def test_warm_check_still_hits_step_budget(self, tmp_path):
        """A budget too small to compile must stay too small when cached."""
        path = tmp_path / "prog.fast"
        path.write_text(EASY)
        assert main(["check", str(path)]) == EXIT_OK  # warms the cache
        assert main(["check", "--max-steps", "1", str(path)]) == EXIT_BUDGET

    def test_warm_check_with_room_passes(self, tmp_path):
        path = tmp_path / "prog.fast"
        path.write_text(EASY)
        assert main(["check", str(path)]) == EXIT_OK
        assert main(["check", "--max-steps", "1000", str(path)]) == EXIT_OK

    def test_no_cache_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        path = tmp_path / "prog.fast"
        path.write_text(EASY)
        before = counts()
        assert main(["check", "--no-cache", str(path)]) == EXIT_OK
        assert os.environ["REPRO_CACHE"] == "off"
        assert delta(before, "exec.cache.miss") == 0


def test_version_salt_changes_key(monkeypatch):
    from repro.exec import cache as cache_mod

    key = cache_key(EASY)
    monkeypatch.setattr(cache_mod, "_SALT", "other-version:other-schema")
    assert cache_mod.cache_key(EASY) != key


class TestPrewarmPlan:
    """The plan/apply split that worker respawns ride.

    A supervisor computes the key plan once (cheap: listdir + stats)
    and ships the same tuple to every spawned or recycled worker, so
    replacements warm in one pass with no directory re-scan.
    """

    def test_plan_lists_newest_first_without_loading(self):
        cached_artifact(EASY)
        cached_artifact(OTHER)
        before = counts()
        plan = DEFAULT_CACHE.prewarm_plan()
        assert set(plan) == {cache_key(EASY), cache_key(OTHER)}
        assert plan[0] == cache_key(OTHER)  # newest first
        # Planning is metadata-only: no hits, no prewarm loads.
        assert delta(before, "exec.cache.hit") == 0

    def test_plan_respects_limit(self):
        for source in (EASY, OTHER, THIRD):
            cached_artifact(source)
        assert len(DEFAULT_CACHE.prewarm_plan(limit=2)) == 2

    def test_plan_on_empty_dir_is_empty(self):
        assert DEFAULT_CACHE.prewarm_plan() == ()

    def test_prewarm_from_keys_lifts_exactly_the_plan(self):
        cached_artifact(EASY)
        cached_artifact(OTHER)
        plan = DEFAULT_CACHE.prewarm_plan()
        DEFAULT_CACHE.clear()
        loaded = DEFAULT_CACHE.prewarm_from_keys(plan)
        assert loaded == 2
        assert len(DEFAULT_CACHE) == 2

    def test_stale_plan_entries_are_skipped(self):
        cached_artifact(EASY)
        plan = DEFAULT_CACHE.prewarm_plan() + ("not-a-real-key",)
        DEFAULT_CACHE.clear()
        assert DEFAULT_CACHE.prewarm_from_keys(plan) == 1

    def test_in_memory_entries_are_not_reloaded(self):
        cached_artifact(EASY)
        plan = DEFAULT_CACHE.prewarm_plan()
        # Still resident: applying the plan loads nothing.
        assert DEFAULT_CACHE.prewarm_from_keys(plan) == 0

    def test_prewarm_from_disk_is_plan_plus_apply(self):
        cached_artifact(EASY)
        cached_artifact(OTHER)
        DEFAULT_CACHE.clear()
        assert DEFAULT_CACHE.prewarm_from_disk() == 2
