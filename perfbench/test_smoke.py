"""Tiny-settings run of every workload, in both trace modes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run passes its own checks and emits exactly the metrics
BENCHMARK.json declares, each with its declared unit.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FlagshipSettings, HarnessSettings, SupSettings  # noqa: E402

TINY = {
    "flagship": FlagshipSettings(quad=16, builds=1, dp_rows=2),
    "sup_witness": SupSettings(quad=16, builds=1, n=16, check_ops=2),
    "harness": HarnessSettings(samples=10, builds=1, ili_angles=8),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_the_emitted_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    result, info = run.run(workload, 1, 0.0, trace, state_dir=tmp_path,
                           settings=TINY[workload], traced_ops=1)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # a second run of the same seed passes the determinism guard
    again, info = run.run(workload, 1, 0.0, trace, state_dir=tmp_path,
                          settings=TINY[workload], traced_ops=1)
    assert again["correct"], info["failures"]


class _Stage:
    def __init__(self, fn):
        self.fn = fn


def _sleepy(th):
    time.sleep(0.02)
    return th[:, 0]


def test_tracer_self_time_excludes_nested_spans_of_a_stage_with_two_callers():
    leaf = _Stage(_sleepy)
    mid = _Stage(lambda th: leaf.fn(th) + leaf.fn(th))
    top = _Stage(lambda th: mid.fn(th) + leaf.fn(th))
    originals = [leaf.fn, mid.fn, top.fn]
    tracer = Tracer()
    for name, obj in (("leaf", leaf), ("mid", mid), ("top", top)):
        tracer.wrap(name, obj)
    top.fn(np.zeros((4, 2)))
    tracer.unwrap_all()
    stats = tracer.take()
    assert [leaf.fn, mid.fn, top.fn] == originals
    assert [stats[n]["calls"] for n in ("top", "mid", "leaf")] == [1, 1, 3]
    assert stats["leaf"]["rows"] == 12
    assert stats["leaf"]["self_s"] == stats["leaf"]["incl_s"] >= 0.06
    assert stats["top"]["incl_s"] >= stats["mid"]["incl_s"] + 0.02
    assert stats["top"]["self_s"] < 0.01 and stats["mid"]["self_s"] < 0.01
    assert tracer.take()["leaf"]["calls"] == 0


def test_guard_key_follows_the_source(tmp_path, monkeypatch):
    args = ("harness", 1, 0.0, False)
    kw = dict(state_dir=tmp_path, settings=TINY["harness"], traced_ops=1)
    run.run(*args, **kw)
    monkeypatch.setattr(run, "_src_digest", lambda: b"changed sources")
    run.run(*args, **kw)
    assert len(list(tmp_path.glob("harness-1-*.json"))) == 2
