"""Layer probes of the Monte Carlo backend, independent of the workload.

- montecarlo.block_ms.<metric>: one 1e6-sample simulate block per metric
  at one worker;
- montecarlo.relay_power.ns_per_sample: relay_power over one block of
  hop powers;
- montecarlo.scaling_eff_w2: a four-block simulate at one and two
  workers, t1 / (2 t2).  Both runs must give bit-identical estimates.

Each time is the median of REPEATS runs.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from afrelay import montecarlo
from afrelay.channel import ChannelParams

REPEATS = 3
PARAMS = ChannelParams(gamma=1000.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)
BLOCK_METRICS = {"cdf": {"x": 1.0}, "bep": {}, "capacity": {}, "pdf": {}}


def _timed(fn, repeats: int = REPEATS):
    times, results = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        results.append(fn())
        times.append(perf_counter() - t0)
    return median(times), results


def same_estimates(results) -> bool:
    return all(r == results[0] for r in results)


def run_probes(seed: int):
    """Returns (metrics, problems): metric name -> (value, unit)."""
    block = montecarlo.SimConfig(seed=seed, samples=montecarlo.BLOCK)
    out = {}
    for metric, kw in BLOCK_METRICS.items():
        t, _ = _timed(lambda: montecarlo.simulate(PARAMS, block, metric, workers=1, **kw))
        out[f"montecarlo.block_ms.{metric}"] = (t * 1e3, "ms")

    rng = np.random.default_rng(seed)
    x = rng.exponential(size=montecarlo.BLOCK)
    y = rng.exponential(size=montecarlo.BLOCK)
    t, _ = _timed(lambda: montecarlo.relay_power(x, y, 1.0 / PARAMS.gamma), 9)
    out["montecarlo.relay_power.ns_per_sample"] = (t * 1e9 / montecarlo.BLOCK, "ns")

    multi = montecarlo.SimConfig(seed=seed, samples=4 * montecarlo.BLOCK)
    t1, r1 = _timed(lambda: montecarlo.simulate(PARAMS, multi, "capacity", workers=1))
    t2, r2 = _timed(lambda: montecarlo.simulate(PARAMS, multi, "capacity", workers=2))
    out["montecarlo.scaling_eff_w2"] = (t1 / (2.0 * t2), "ratio")
    problems = []
    if not same_estimates(r1 + r2):
        problems.append(f"workers 1 and 2 disagree: {r1[0]} vs {r2[0]}")
    return out, problems
