"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

They run a small mix of operations in this process, traced and untraced,
and check that tracing is repeatable, changes no report body and leaves
catqm exactly as it found it.  The file is not named ``test_*.py`` so the
repository's main test run does not collect it.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Op  # noqa: E402

# One cell of each space kind, a crash, the ball route of the expressway
# code, wpd searches and a small extension certificate: every layer, in a
# few seconds.
MIX = [Op("tree_aab", "qm"), Op("tree_aab", "equiv"), Op("half_plane", "rank1"),
       Op("half_plane", "qm"), Op("euclidean_control", "contract"),
       Op(None, radius=3)]
SEED = 5
SPANS = ROOT / ".perfbench" / "selftest-spans.json"


@pytest.fixture
def mix(monkeypatch):
    monkeypatch.setitem(worker.WORKLOADS, "mix", MIX)
    SPANS.parent.mkdir(exist_ok=True)
    return "mix"


def catqm_attributes() -> dict:
    """Every attribute of every catqm module and of every class they
    define, as (owner, name) -> object."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "catqm" and not name.startswith("catqm."):
            continue
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    out[(f"{name}.{attr}", cattr)] = cobj
    return out


def counts(summary: dict) -> dict:
    return {"calls": {k: v[0] for k, v in summary["stats"].items()},
            "counters": summary["counters"], "spans": summary["spans"]}


def test_traced_counts_repeat(mix):
    first = worker.run_pass(mix, SEED, False, str(SPANS))["trace"]
    second = worker.run_pass(mix, SEED, False, str(SPANS))["trace"]
    assert counts(first) == counts(second)
    assert first["stats"]["spaces.tree.project"][0] > 0
    assert first["stats"]["spaces.half-plane.project"][0] > 0
    assert first["counters"]["algebra.extension_defect.pairs"] == 70 ** 2


def test_traced_bodies_equal_untraced(mix):
    plain = worker.run_pass(mix, SEED, True, None)
    traced = worker.run_pass(mix, SEED, True, str(SPANS))
    assert [r["digest"] for r in plain["ops"]] == [r["digest"] for r in traced["ops"]]
    assert [r["status"] for r in plain["ops"]] == [r["status"] for r in traced["ops"]]
    assert all(not r["problems"] for r in plain["ops"] + traced["ops"])


def test_restore_puts_back_every_original(mix):
    import catqm.cli  # noqa: F401  (loads every module)
    before = catqm_attributes()
    worker.run_pass(mix, SEED, False, str(SPANS))
    after = catqm_attributes()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_from_imports_are_rebound():
    from catqm import contraction, runner, spaces
    original = contraction.certify_contracting
    tracer = Tracer()
    tracer.install("catqm")
    try:
        assert runner.certify_contracting is contraction.certify_contracting
        assert runner.certify_contracting.__wrapped__ is original
        assert spaces.TreeSpace.project.__wrapped__ is not None
    finally:
        tracer.restore()
    assert runner.certify_contracting is original


def test_every_declared_metric_is_measured(mix):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = worker.run_pass(mix, SEED, False, str(SPANS))["trace"]
    extra = {"runner.replay.s": 0.1, "trace.overhead_s": 0.1}
    for m in spec["per_layer"]:
        layers.metric(summary, m["name"], extra)   # raises on an unknown name
    with pytest.raises(KeyError):
        layers.metric(summary, "spaces.tree.no_such_method.calls", extra)


def test_result_line_on_a_short_run():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "curved_flat",
         "--seed", str(SEED), "--seconds", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    attempted, failed = result["attempted"], result["failed"]
    assert attempted == 14 and 0 <= failed < attempted
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ops_ok"]["value"] == (attempted - failed) / attempted
    assert f"ops_failed   {failed}/{attempted}" in proc.stdout
