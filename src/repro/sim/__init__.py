"""Cycle-level timing simulation of the partitioned superscalar machine.

The simulator is trace-driven: it replays the dynamic instruction trace
produced by :mod:`repro.runtime` through an out-of-order pipeline with

* partitioned INT / FP(a) issue windows and functional units,
* a gshare (McFarling) branch predictor,
* set-associative I- and D-caches,
* load/store ports on the INT subsystem only, with loads waiting for
  prior store addresses,
* physical-register and in-flight-instruction limits,
* in-order retirement,

all parameterized per the paper's Table 1 (4-way and 8-way machines).
A *conventional* baseline needs no special mode: simulating the
unpartitioned program on the same machine leaves the FP subsystem idle,
exactly as in the paper.  :mod:`repro.sim.bounds` gives sound lower
bounds on a trace's cycle count that do not depend on the simulator.
"""

from repro.sim.config import CacheConfig, PredictorConfig, MachineConfig, four_way, eight_way
from repro.sim.cache import Cache
from repro.sim.bounds import dataflow_bound, resource_bound
from repro.sim.branch_pred import GSharePredictor, PerfectPredictor
from repro.sim.pipeline import TimingSimulator, simulate_trace
from repro.sim.stats import SimStats
from repro.sim.timeline import render_timeline, simulate_with_timeline

__all__ = [
    "CacheConfig",
    "PredictorConfig",
    "MachineConfig",
    "four_way",
    "eight_way",
    "Cache",
    "GSharePredictor",
    "PerfectPredictor",
    "TimingSimulator",
    "simulate_trace",
    "SimStats",
    "render_timeline",
    "simulate_with_timeline",
    "resource_bound",
    "dataflow_bound",
]
