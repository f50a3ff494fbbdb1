"""The three closed-loop workloads: one caller in one process, serial.

Each workload builds everything it uses from scratch (``setup``), then
repeats one operation (``op``) on inputs drawn from the run seed before the
timer starts (``inputs``).  ``check`` holds each output to the budget the
repository already uses for it and returns a fingerprint of the output, so a
run can show that one seed always gives the same numbers.

Why these three:

* ``flagship`` -- the ``staircase primitive or_cup_or`` path (criterion 5):
  build the chain, then ``d p = c`` on fresh cocycle rows and ``L p`` on
  fresh primitive rows, the two halves of ``verify_primitive``.  The build
  is almost all ``I L I c`` (the ``ic -> lic -> ilic`` hot path) plus the
  curve-cache build of ``S``; fresh rows give the memo layers no work.
  It runs at quad 48, the middle rung of criterion 5's n = 24/48/96 ladder:
  the CLI default of 96 builds in about 50 s, and a run sets up three times.
* ``sup_witness`` -- the boundedness witness (criterion 6): ``estimate_sup``
  at N and then 2N rows on one seed, so the first N rows of the second call
  repeat and the ``ic``/``R`` memos do real work.  It runs at quad 24, the
  bottom rung of the same ladder.
* ``harness`` -- the ``verify`` suites on smooth families plus the
  ``ili-or`` closed form: no ``ilic`` chain, so the time goes to the generic
  quadrature and finite-difference paths, the curve cache of ``S`` and
  ``R``'s per-row basepoint loop (``map_triple``, ``cartan``).  Two suites
  are left out because they fail on some seeds, and a run must not fail:
  ``commutators`` misses its own 1e-5 budget on about one seed in seven
  (``commutator-dilation-shear``), and ``group`` raises DegenerateMatrix in
  ``map_triple`` on about one config in 200 at 500 samples (config seed
  720907, for one).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from staircase import cli
from staircase.cochain_ops import QuadratureSpec, cauchy_L, coboundary
from staircase.primitive import (StaircaseConfig, estimate_sup, eval_rows,
                                 named_cocycle, staircase_chain)
from staircase.rng import Xorshift64Star, config_points

# stage of a staircase chain -> module that implements it
LAYERS = {
    "c": "boundary_functions",
    "ic": "cochain_ops", "lic": "cochain_ops", "ilic": "cochain_ops",
    "q": "cochain_ops", "psi": "cochain_ops",
    "s": "pde_solvers", "u": "pde_solvers", "r": "pde_solvers",
    "p": "primitive",
}
STAGES = tuple(LAYERS)[1:]
MEMO_STAGES = ("ic", "ilic", "psi", "r")
SUITES = ("contraction", "cup", "solvers")
PROBES = SUITES + ("ili_or",)

# budgets, as the repository states them
PRIMITIVE_BUDGET = 0.05     # `staircase primitive or_cup_or`, criterion 5
SUP_GROWTH_BUDGET = 0.05    # criterion 6
ILI_OR_BUDGET = 5e-3        # `staircase ili-or`, criterion 1

# fixed shapes of the ops
LP_ROWS = 1                 # flagship: fresh L p rows per op
FLAGSHIP_MARGIN = 0.15      # the margin `staircase primitive` samples at
SUP_MARGIN = 0.05           # the margin criterion 6 samples at
SETUP_SAMPLES = 10          # harness set-up: the suites' own floor, so the pass is all fixed cost
ILI_NODES = 1024            # the node count `staircase ili-or` uses


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _op_seed(seed: int, k: int) -> int:
    """Seed of op k of a run; distinct across the ops of one run."""
    return seed * 65537 + k + 1


class _Chain:
    """Shared set-up of the two workloads that build a staircase chain."""

    min_ops = 1

    def __init__(self, quad: int, point_margin: float, seed: int):
        self.cfg = StaircaseConfig(quad=QuadratureSpec(quad))
        self.rng = Xorshift64Star(seed)
        self.point = config_points(self.rng, 1, 4, point_margin)[0]
        self.chain = None
        self.c = None

    def setup(self, tracer=None):
        """Build the chain and evaluate p once, which builds every lazy cache."""
        self.chain = None
        self.c = named_cocycle("or_cup_or")
        if tracer is not None:
            tracer.wrap("c", self.c)       # the build's cocycle spot check calls c
        self.chain = staircase_chain(self.c, self.cfg)
        if tracer is not None:
            self._wrap_stages(tracer)
        p0 = self.chain["p"](self.point)
        return p0, ([] if _finite(p0) else [f"p at the set-up point is {p0}"])

    def wrap(self, tracer):
        tracer.wrap("c", self.c)
        self._wrap_stages(tracer)

    def _wrap_stages(self, tracer):
        for stage in STAGES:
            tracer.wrap(stage, self.chain[stage])

    def memo(self) -> dict:
        out = {}
        for stage in MEMO_STAGES:
            state = self.chain[stage]._memo_state
            out[stage] = (state.hits, state.hits + state.misses)
        return out


@dataclass(frozen=True)
class FlagshipSettings:
    quad: int = 48
    builds: int = 3
    dp_rows: int = 8        # verify_primitive checks L p on samples // 8 rows


class Flagship(_Chain):
    """One op: ``d p = c`` on fresh cocycle rows, then ``L p`` on a fresh row."""

    def __init__(self, seed: int, settings: FlagshipSettings = FlagshipSettings()):
        super().__init__(settings.quad, FLAGSHIP_MARGIN, seed)
        self.s = settings
        self.dp = self.lp = None
        self.dp_s = self.lp_s = 0.0
        self.dp_n = self.lp_n = 0
        self.worst = {"dp": 0.0, "lp": 0.0}

    def setup(self, tracer=None):
        self.dp = self.lp = None    # they hold the previous chain
        out = super().setup(tracer)
        p = self.chain["p"]
        self.dp, self.lp = coboundary(p), cauchy_L(p, self.cfg.fd)
        return out

    def inputs(self, k: int):
        return (config_points(self.rng, self.s.dp_rows, 5, FLAGSHIP_MARGIN),
                config_points(self.rng, LP_ROWS, 4, FLAGSHIP_MARGIN))

    def op(self, inp):
        dp_rows, lp_rows = inp
        t0 = time.perf_counter()
        dpv = eval_rows(self.dp, dp_rows)
        t1 = time.perf_counter()
        lpv = eval_rows(self.lp, lp_rows)
        t2 = time.perf_counter()
        self.dp_s += t1 - t0
        self.lp_s += t2 - t1
        self.dp_n += len(dp_rows)
        self.lp_n += len(lp_rows)
        return dpv, lpv

    def check(self, k, inp, out):
        dp_rows, _ = inp
        dpv, lpv = out
        res = float(np.abs(dpv - eval_rows(self.c, dp_rows)).max())
        flow = float(np.abs(lpv).max())
        self.worst["dp"] = max(self.worst["dp"], res)
        self.worst["lp"] = max(self.worst["lp"], flow)
        fails = []
        if not (_finite(res) and res <= PRIMITIVE_BUDGET):
            fails.append(f"op {k}: |d p - c| = {res} over {PRIMITIVE_BUDGET}")
        if not (_finite(flow) and flow <= PRIMITIVE_BUDGET):
            fails.append(f"op {k}: |L p| = {flow} over {PRIMITIVE_BUDGET}")
        return [res, flow], fails

    def finish(self):
        return [], {
            "dp_rows": self.dp_n, "lp_rows": self.lp_n,
            "dp_rows_per_s": self.dp_n / self.dp_s if self.dp_s else None,
            "lp_rows_per_s": self.lp_n / self.lp_s if self.lp_s else None,
            "dp_residual": self.worst["dp"],
            "flow_residual": self.worst["lp"],
            "budget": PRIMITIVE_BUDGET,
        }


@dataclass(frozen=True)
class SupSettings:
    quad: int = 24
    builds: int = 3
    n: int = 32             # rows of the first estimate_sup call; the second takes 2n
    check_ops: int = 8      # growth is judged over this many ops, n * check_ops rows


class SupWitness(_Chain):
    """One op: ``estimate_sup`` at n rows, then at 2n rows, on the op's seed."""

    def __init__(self, seed: int, settings: SupSettings = SupSettings()):
        super().__init__(settings.quad, SUP_MARGIN, seed)
        self.s = settings
        self.seed = seed
        self.min_ops = settings.check_ops
        self.sups = []
        self.op_s = 0.0
        self.ops = 0

    def inputs(self, k: int):
        return _op_seed(self.seed, k)

    def op(self, op_seed):
        t0 = time.perf_counter()
        sup1 = estimate_sup(self.chain["p"], self.s.n, op_seed, SUP_MARGIN)
        sup2 = estimate_sup(self.chain["p"], 2 * self.s.n, op_seed, SUP_MARGIN)
        self.op_s += time.perf_counter() - t0
        self.ops += 1
        return sup1, sup2

    def check(self, k, inp, out):
        sup1, sup2 = out
        self.sups.append(out)
        # sup2 >= sup1 holds by construction (the 2n rows start with the n
        # rows), so only finiteness is checked per op; growth is judged in finish
        fails = [] if _finite(sup1, sup2) else [f"op {k}: sup estimate {sup1}, {sup2}"]
        return [sup1, sup2], fails

    def finish(self):
        head = self.sups[:self.s.check_ops]
        sup1 = max(s for s, _ in head)
        sup2 = max(s for _, s in head)
        growth = (sup2 - sup1) / sup1 if sup1 > 0 else math.inf
        fails = []
        if not (_finite(growth) and 0.0 <= growth < SUP_GROWTH_BUDGET):
            fails.append(f"sup growth {growth} over {SUP_GROWTH_BUDGET} "
                         f"({sup1} at {self.s.n * len(head)} rows, {sup2} at twice that)")
        return fails, {
            "sup_rows": self.s.n * len(head), "sup1": sup1, "sup2": sup2,
            "growth": growth, "budget": SUP_GROWTH_BUDGET,
            "sup_rows_per_s": 3 * self.s.n * self.ops / self.op_s if self.op_s else None,
        }


@dataclass(frozen=True)
class HarnessSettings:
    samples: int = 500
    builds: int = 9          # a set-up pass takes about 0.25 s; more of them steady the median
    ili_angles: int = 256    # the angle cap of `staircase ili-or`


class Harness:
    """One op is one pass of the suites with a config seed of its own: the
    cost of a pass depends on the seed's families (the curve-cache build of
    ``S`` most), so a run averages over many.  Set-up is a pass at the
    smallest sample count, which leaves each suite's fixed cost (curve-cache
    build, operator construction, Gauss-Legendre tables)."""

    min_ops = 1

    def __init__(self, seed: int, settings: HarnessSettings = HarnessSettings()):
        self.s = settings
        self.seed = seed
        self.probe_s = {name: [] for name in PROBES}
        self.worst = 0.0

    def _pass(self, cfg_seed: int, angles, samples: int):
        cfg = cli.RunConfig({"seed": cfg_seed, "samples": samples})
        reports, times = [], {}
        for name in SUITES:
            t0 = time.perf_counter()
            reports.extend(getattr(cli, f"suite_{name}")(cfg))
            times[name] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ili = cli.ili_or_error(ILI_NODES, cfg["quad_rule"], cfg["fd_h"], angles)
        times["ili_or"] = time.perf_counter() - t0
        return reports, ili, times

    def _check(self, tag, reports, ili):
        values, fails = [], []
        for rep in reports:
            budget = rep.extras["budget"]
            values.append(rep.sup_residual)
            if not (_finite(rep.sup_residual) and rep.sup_residual <= budget):
                fails.append(f"{tag}: {rep.identity_name} {rep.sup_residual} over {budget}")
            elif budget > 0:
                self.worst = max(self.worst, rep.sup_residual / budget)
        values.append(ili)
        if not (_finite(ili) and ili <= ILI_OR_BUDGET):
            fails.append(f"{tag}: ili-or error {ili} over {ILI_OR_BUDGET}")
        return values, fails

    def setup(self, tracer=None):
        reports, ili, _ = self._pass(*self.inputs(-1), samples=SETUP_SAMPLES)
        return self._check("set-up", reports, ili)

    def wrap(self, tracer):
        pass

    def memo(self) -> dict:
        return {}

    def inputs(self, k: int):
        """Config seed and ili-or angles of op k; k = -1 is the set-up pass."""
        cfg_seed = _op_seed(self.seed, k)
        return cfg_seed, Xorshift64Star(cfg_seed).angles(self.s.ili_angles)

    def op(self, inp):
        reports, ili, times = self._pass(*inp, samples=self.s.samples)
        for name, dt in times.items():
            self.probe_s[name].append(dt)
        return reports, ili

    def check(self, k, inp, out):
        return self._check(f"pass {k}", *out)

    def finish(self):
        per = {name: float(np.median(v)) for name, v in self.probe_s.items() if v}
        return [], {"samples": self.s.samples, "suite_s": per,
                    "harness_s": sum(per.values()),
                    "worst_residual_over_budget": self.worst}


WORKLOADS = {"flagship": Flagship, "sup_witness": SupWitness, "harness": Harness}
