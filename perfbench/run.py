"""Benchmark of the staircase package: set-up, evaluation and harness cost.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and fails (exit 2) when that is missing.  Workloads are ``flagship``,
``sup_witness`` and ``harness`` (see ``workloads.py`` for what each one
exercises and why).  Every workload is one caller in one process, serial,
with STAIRCASE_THREADS removed from the environment.

A run sets up ``builds`` times from scratch and reports the median as
``setup_s``; then it repeats the workload's op on fresh inputs, generated
from ``--seed`` before each op's timer starts, until the ops have taken
``--seconds``, and reports the median op time as ``op_ms``, with the
process's ``peak_rss_mb``.  Every output is checked against the budget the
repository uses for it; a miss, a non-finite value or a StaircaseError
counts as a failed op.  The last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
``{"info": ...}`` with the residuals, sup values, per-part rates, versions,
``nproc``, STAIRCASE_THREADS and the ``src/`` line count of the run.

``--trace 1`` reports per-layer metrics in place of the end-to-end ones.  It
wraps the ``fn`` of the cocycle and of every stage ``staircase_chain``
returns (see ``tracer.py``): builds 1, 3, ... and ops 1, 3, 5 are traced,
builds 2, 4, ... and ops 2, 4, 6 are not, and the differences in time are reported
as ``trace.overhead_setup_s`` and ``trace.overhead_op_s``.  Names are
``<phase>.<module>.<stage>.<field>`` with phase ``setup`` (the last traced
build) or ``eval`` (the sum over the three traced ops), plus memo hits and
lookups, the
per-probe times of the harness (``cli.suite.*_s``) and input generation
(``rng.sample_s``).

Determinism guard: the builds of one run must agree, and every run records
the fingerprints of its outputs (set-up value, per-op residuals and sup
values, traced per-stage row counts) in ``perfbench/.runs/``; a later run
of the same workload, seed and settings, on the same contents of
``src/staircase/*.py``, whose outputs differ fails.  The
row counts of the traced run are therefore exact counts for their seed.

Claims are measured on seeds 1 to 10; confirm them on seeds 101 to 110.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".runs"

TRACED_OPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_OPS = 100_000

END_TO_END = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict:
    from tracer import FIELDS
    from workloads import LAYERS, MEMO_STAGES, PROBES
    units = {}
    for ph in ("setup", "eval"):
        for stage, layer in LAYERS.items():
            for field in FIELDS:
                units[f"{ph}.{layer}.{stage}.{field}"] = "s" if field.endswith("_s") else "count"
        for stage in MEMO_STAGES:
            for field in ("hits", "lookups"):
                units[f"{ph}.boundary_functions.memo.{stage}.{field}"] = "count"
        units[f"{ph}.wall_s"] = "s"
    for probe in PROBES:
        units[f"cli.suite.{probe}_s"] = "s"
    units["rng.sample_s"] = "s"
    units["trace.overhead_setup_s"] = "s"
    units["trace.overhead_op_s"] = "s"
    return units


def _rows(stats: dict) -> dict:
    return {name: s["rows"] for name, s in stats.items()}


def _median(values):
    return statistics.median(values) if values else 0.0


def _guard(path: Path, record: dict) -> list:
    """Compare this run's fingerprints with earlier runs of the same key,
    over the ops both runs made, and store the longer record."""
    record = json.loads(json.dumps(record))
    old = json.loads(path.read_text()) if path.exists() else {}
    fails, merged = [], dict(old)
    for key, new in record.items():
        prev = old.get(key)
        if isinstance(new, list) and isinstance(prev, list):
            n = min(len(new), len(prev))
            if new[:n] != prev[:n]:
                fails.append(f"{key} differ from an earlier run of this seed")
            if len(new) > len(prev):
                merged[key] = new
        elif prev is None:
            merged[key] = new
        elif new != prev:
            fails.append(f"{key} differ from an earlier run of this seed")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged))
    os.replace(tmp, path)
    return fails


class _Tally:
    """Items checked and failed; an item fails once however many checks it misses."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages = []

    def add(self, fails):
        self.attempted += 1
        self.failed += bool(fails)
        self.messages.extend(fails)


class _Phase:
    """Times of one phase; with a tracer, the per-stage counts of its traced
    part and the times of its traced and untraced items."""

    def __init__(self):
        self.times, self.traced, self.untraced, self.fps, self.rows = [], [], [], [], []
        self.stats, self.memo = {}, {}

    def record(self, dt, tracer, traced, paired=True):
        self.times.append(dt)
        if traced:
            self.traced.append(dt)
            stats = tracer.take()
            self.rows.append(_rows(stats))
            return stats
        if tracer is not None and paired:
            self.untraced.append(dt)
        return {}


def _setup(wl, tracer, tally) -> _Phase:
    """Build ``builds`` times; with a tracer, trace the 1st, 3rd, ... build."""
    ph = _Phase()
    for b in range(wl.s.builds):
        traced = tracer is not None and b % 2 == 0
        t0 = time.perf_counter()
        try:
            fp, fails = wl.setup(tracer if traced else None)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.unwrap_all()
        stats = ph.record(dt, tracer, traced)
        if traced:
            ph.stats, ph.memo = stats, wl.memo()
        ph.fps.append(fp)
        tally.add(fails)
    same = all(fp == ph.fps[0] for fp in ph.fps) and all(r == ph.rows[0] for r in ph.rows)
    tally.add([] if same else ["builds of one seed gave different outputs"])
    return ph


def _evaluate(wl, tracer, seconds, traced_ops, tally):
    """Run ops until they have taken ``seconds``; with a tracer, trace ops
    0, 2, ... 2 * traced_ops - 2 and leave the ops between them untraced."""
    from staircase.errors import StaircaseError
    ph = _Phase()
    min_ops = max(wl.min_ops, 2 * traced_ops if tracer is not None else 1)
    sample_s, measured, k = 0.0, 0.0, 0
    while k < MAX_OPS and (measured < seconds or k < min_ops):
        t0 = time.perf_counter()
        inp = wl.inputs(k)
        sample_s += time.perf_counter() - t0
        paired = tracer is not None and k < 2 * traced_ops
        traced = paired and k % 2 == 0
        if traced:
            memo0 = wl.memo()
            wl.wrap(tracer)
        err = None
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except StaircaseError as exc:
            err = exc
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.unwrap_all()
        measured += dt
        stats = ph.record(dt, tracer, traced, paired)
        if traced:
            for name, s in stats.items():
                acc = ph.stats.setdefault(name, dict.fromkeys(s, 0))
                for field, v in s.items():
                    acc[field] += v
            for stage, (hits, lookups) in wl.memo().items():
                acc = ph.memo.setdefault(stage, (0, 0))
                ph.memo[stage] = (acc[0] + hits - memo0[stage][0],
                                  acc[1] + lookups - memo0[stage][1])
        if err is not None:
            ph.fps.append(None)
            tally.add([f"op {k}: {type(err).__name__}: {err}"])
        else:
            fp, fails = wl.check(k, inp, out)
            ph.fps.append(fp)
            tally.add(fails)
        k += 1
    return ph, sample_s


def _layer_metrics(setup: _Phase, ev: _Phase, detail: dict, sample_s: float) -> dict:
    from workloads import LAYERS, MEMO_STAGES
    units = per_layer_units()
    m = dict.fromkeys(units, 0)
    for name, ph, wall in (("setup", setup, setup.traced[-1]), ("eval", ev, sum(ev.traced))):
        for stage, s in ph.stats.items():
            for field, v in s.items():
                m[f"{name}.{LAYERS[stage]}.{stage}.{field}"] = v
        for stage in MEMO_STAGES:
            if stage in ph.memo:
                hits, lookups = ph.memo[stage]
                m[f"{name}.boundary_functions.memo.{stage}.hits"] = hits
                m[f"{name}.boundary_functions.memo.{stage}.lookups"] = lookups
        m[f"{name}.wall_s"] = wall
    for probe, s in detail.get("suite_s", {}).items():
        m[f"cli.suite.{probe}_s"] = s
    m["rng.sample_s"] = sample_s
    for name, ph in (("setup", setup), ("op", ev)):
        if ph.untraced:
            m[f"trace.overhead_{name}_s"] = _median(ph.traced) - _median(ph.untraced)
    return {name: {"value": m[name], "unit": unit} for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        state_dir: Path = STATE, settings=None, traced_ops: int = TRACED_OPS):
    """One benchmark run; returns (result, info)."""
    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    cls = WORKLOADS[workload]
    wl = cls(seed) if settings is None else cls(seed, settings)
    init_s = time.perf_counter() - t0
    tracer = Tracer() if trace else None
    tally = _Tally()
    setup = _setup(wl, tracer, tally)
    ev, sample_s = _evaluate(wl, tracer, seconds, traced_ops, tally)

    run_fails, detail = wl.finish()
    record = {"setup": setup.fps, "ops": ev.fps}
    if trace:
        record.update(trace_setup=setup.rows[-1], trace_ops=ev.rows)
    # the code under test is part of the key: a changed src/ may change the numbers
    key = hashlib.sha1(repr(wl.s).encode() + _src_digest()).hexdigest()[:12]
    run_fails += _guard(state_dir / f"{workload}-{seed}-{key}.json", record)
    tally.add(run_fails)

    if trace:
        metrics = _layer_metrics(setup, ev, detail, init_s + sample_s)
    else:
        values = {"setup_s": _median(setup.times), "op_ms": 1e3 * _median(ev.times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "settings": asdict(wl.s), "ops": len(ev.times), "op_s_total": sum(ev.times),
        "setup_s_each": setup.times, "failed_frac": tally.failed / tally.attempted,
        "failures": tally.messages[:20], **detail,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "src_lines": _src_lines(),
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, info


def _src_files() -> list:
    return sorted((SRC / "staircase").glob("*.py"))


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in _src_files())


def _src_digest() -> bytes:
    h = hashlib.sha1()
    for p in _src_files():
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.digest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["flagship", "sup_witness", "harness"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if not (SRC / "staircase" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'staircase'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = os.environ.pop("STAIRCASE_THREADS", None)
    # serial in every layer: numpy's BLAS would otherwise spread the small
    # matrix products over both cores and time the other core's load
    blas = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    import staircase
    if Path(staircase.__file__).resolve().parent != SRC / "staircase":
        print(f"perfbench: imported staircase from {staircase.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info["staircase_threads"] = threads
    info["blas_threads_env"] = blas
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
