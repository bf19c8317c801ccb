"""``repro.dse`` — design-space exploration.

The production-scale sweep engine over the hybrid accelerator's levers:
a declarative :class:`SweepSpec` enumerates the cross product of (N:M
pattern x bus width x MRAM geometry x precision x device corner), the
points are evaluated together — one ``(configs x layers)`` numpy program
per slice of configs — by the analytical models behind the fig7/fig8
harnesses, and everything reduces to a deterministic Pareto frontier
over (area, inference power, training EDP, density).  A sweep
recomputes every config, so its frontier always reflects the current
cost model; the content-hash :class:`DiskCache` backs the server's
``/v1/evaluate`` only.

Determinism guarantees (enforced by ``tests/test_dse_*.py``):

* a config's record is bit-identical whether it is evaluated alone or
  batched with any other configs;
* a record read back from a :class:`DiskCache` equals the computed one;
* the frontier is a function of the record *set* — record order never
  changes it;
* duplicated metric vectors keep exactly one canonical representative.

Entry point: ``python -m repro.dse`` (or ``python -m repro dse``).
"""

from .cache import CACHE_SCHEMA, DEFAULT_CACHE_DIR, DiskCache, NullCache
from .engine import (FRONTIER_SCHEMA, SWEEP_SCHEMA, evaluate_batch,
                     frontier_doc, run_sweep)
from .evaluate import (METRIC_KEYS, RECORD_SCHEMA, build_tech,
                       evaluate_config, evaluate_records, get_workload)
from .export import (dumps_canonical, render_frontier, render_summary,
                     write_csv, write_json)
from .pareto import (OBJECTIVE_KEYS, OBJECTIVES, objective_vector,
                     pareto_reduce, record_sort_key)
from .spec import (CONFIG_KEYS, DEVICE_CORNERS, PRESETS, SPEC_SCHEMA,
                   DEFAULT_SPEC, FULL_SPEC, SMOKE_SPEC, SweepSpec,
                   canonical_json, config_key, normalize_config)

__all__ = [
    "SweepSpec", "SMOKE_SPEC", "DEFAULT_SPEC", "FULL_SPEC", "PRESETS",
    "SPEC_SCHEMA", "CONFIG_KEYS", "DEVICE_CORNERS",
    "canonical_json", "config_key", "normalize_config",
    "evaluate_config", "evaluate_records", "build_tech", "get_workload",
    "METRIC_KEYS", "RECORD_SCHEMA",
    "DiskCache", "NullCache", "CACHE_SCHEMA", "DEFAULT_CACHE_DIR",
    "run_sweep", "evaluate_batch", "frontier_doc",
    "SWEEP_SCHEMA", "FRONTIER_SCHEMA",
    "pareto_reduce", "objective_vector", "record_sort_key",
    "OBJECTIVES", "OBJECTIVE_KEYS",
    "write_json", "write_csv", "dumps_canonical", "render_frontier",
    "render_summary",
]
