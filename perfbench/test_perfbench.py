"""The benchmark's own tests: its oracles catch a wrong output.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs briefly with one output corrupted before it is
checked; the corrupted operation must count as failed, and ``correct``
must turn false.  The same short run without corruption must pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import Spans  # noqa: E402


def _flip_outcome(reply: dict) -> dict:
    flipped = "REFUTED" if reply.get("outcome") == "PROVED" else "PROVED"
    return dict(reply, outcome=flipped)


CORRUPT = {
    "sanitize": lambda out: out[:-1],
    "deforest": lambda out: out.children[0],
    "conflicts": lambda out: (not out[0], out[1]),
    "serve": _flip_outcome,
}
SECONDS = {"sanitize": 2, "deforest": 2, "conflicts": 2, "serve": 4}


def _run(workload: str, corrupt=None, trace: int = 0) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", str(SECONDS[workload]),
            "--trace", str(trace)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, corrupt=corrupt)
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 else {}


@pytest.mark.parametrize("workload", sorted(CORRUPT))
def test_corrupted_output_counts_as_failed(workload):
    damage = CORRUPT[workload]
    code, result = _run(workload, corrupt=lambda i, out: damage(out) if i == 0 else out)
    assert code == 0
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", sorted(CORRUPT))
def test_clean_run_passes(workload):
    code, result = _run(workload)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1


def test_traced_run_reports_every_per_layer_metric():
    code, result = _run("deforest", trace=1)
    assert code == 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["apply_us_per_node"]["value"] > 0


@pytest.mark.parametrize("var", ["REPRO_EXEC", "REPRO_CACHE_DIR", "REPRO_OBS", "REPRO_CHAOS"])
def test_refuses_program_selecting_environment(monkeypatch, var):
    monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "deforest", "--seed", "1", "--seconds", "1"]) == 2


def test_self_time_subtracts_direct_children():
    spans = Spans(True)
    spans.op = 0
    spans.add("op", 0.0, 10.0)
    spans.add("a", 1.0, 4.0, depth=1)
    spans.add("b", 2.0, 3.0, depth=2)
    spans.add("c", 5.0, 9.0, depth=1)
    spans.op = 1  # an overlapping operation is not a child
    spans.add("op", 3.0, 6.0)
    totals = spans.self_times()
    assert totals == {"op": 3.0 + 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
