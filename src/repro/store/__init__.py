"""Persistent content-addressed storage of experiment cell results.

PR 3 made every experiment cell a pure function of (trace content, variant
derivation, platform point); this package exploits that purity with a
durable cache:

* :mod:`repro.store.keys` -- :class:`CellKey`, the stable SHA-256 address of
  one replay cell (original-trace identity + variant derivation + serialized
  platform point + simulator version salt);
* :mod:`repro.store.base` -- the :class:`ResultStore` interface and
  :class:`StoreStats`;
* :mod:`repro.store.filestore` -- :class:`FileResultStore`, the default
  sharded-JSON directory store (atomic writes, safe for concurrent sweep
  workers, picklable into pool initializers);
* :mod:`repro.store.serde` -- the cached-payload schema shared by the
  executor's write-through and the runner's lookup.

The cache-aware runner (:func:`repro.experiments.runner.run_experiment` with
``store=``/``cache_dir=``) consults the store before executing and only
replays missing cells; workers write completed cells back immediately, so
interrupted sweeps resume from where they stopped.
"""

from repro.store.base import ResultStore, StoreStats
from repro.store.filestore import FileResultStore, open_store
from repro.store.keys import (
    ORIGINAL_VARIANT,
    STORE_FORMAT,
    CellKey,
    derivation_id,
    platform_fingerprint,
    simulator_salt,
    variant_id,
)

__all__ = [
    "CellKey",
    "FileResultStore",
    "ORIGINAL_VARIANT",
    "ResultStore",
    "STORE_FORMAT",
    "StoreStats",
    "derivation_id",
    "open_store",
    "platform_fingerprint",
    "simulator_salt",
    "variant_id",
]
