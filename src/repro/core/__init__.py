"""CNT-Cache core: the paper's primary contribution.

Glues the substrates together into the architecture of Fig. 1:

* a data-carrying set-associative cache (:mod:`repro.cache`),
* a line codec (:mod:`repro.encoding`) — the inverter/mux datapath,
* the encoding-direction predictor (:mod:`repro.predictor`) — Algorithm 1,
* the deferred-update data/index FIFOs, and
* per-bit energy accounting over the CNFET SRAM model
  (:mod:`repro.cnfet`), including the H&D metadata overhead.

Public entry points:

* :class:`~repro.core.config.CNTCacheConfig` — one config object selecting
  the scheme (``baseline``/``invert``/``dbi``/``static-invert``/``cnt``/...).
* :class:`~repro.core.cntcache.CNTCache` — the simulator.
* :class:`~repro.core.stats.EnergyStats` — the measured energy breakdown.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.config import CNTCacheConfig, SCHEMES
    from repro.core.cntcache import CNTCache
    from repro.core.presets import preset, preset_names
    from repro.core.policy import (
        AdaptivePolicy,
        BaselinePolicy,
        DBIPolicy,
        EncodingPolicy,
        FillGreedyPolicy,
        QuantizedAdaptivePolicy,
        StaticInvertPolicy,
        make_policy,
    )
    from repro.core.stats import EnergyStats
    from repro.core.update_queue import PendingUpdate, UpdateQueue

__all__ = [
    "CNTCache",
    "CNTCacheConfig",
    "SCHEMES",
    "EnergyStats",
    "EncodingPolicy",
    "BaselinePolicy",
    "StaticInvertPolicy",
    "FillGreedyPolicy",
    "DBIPolicy",
    "AdaptivePolicy",
    "QuantizedAdaptivePolicy",
    "make_policy",
    "UpdateQueue",
    "PendingUpdate",
    "preset",
    "preset_names",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CNTCache": "repro.core.cntcache",
        "CNTCacheConfig": "repro.core.config",
        "SCHEMES": "repro.core.config",
        "EnergyStats": "repro.core.stats",
        "EncodingPolicy": "repro.core.policy",
        "BaselinePolicy": "repro.core.policy",
        "StaticInvertPolicy": "repro.core.policy",
        "FillGreedyPolicy": "repro.core.policy",
        "DBIPolicy": "repro.core.policy",
        "AdaptivePolicy": "repro.core.policy",
        "QuantizedAdaptivePolicy": "repro.core.policy",
        "make_policy": "repro.core.policy",
        "UpdateQueue": "repro.core.update_queue",
        "PendingUpdate": "repro.core.update_queue",
        "preset": "repro.core.presets",
        "preset_names": "repro.core.presets",
    },
)
