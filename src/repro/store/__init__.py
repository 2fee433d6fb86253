"""Content-addressed campaign store: persistent cache, query and serve.

Submodules (import :mod:`~repro.store.query` / :mod:`~repro.store.server`
directly -- they are kept out of this namespace to avoid import cycles
with the pipeline layers):

* :mod:`~repro.store.fingerprint` -- canonical stage keys;
* :mod:`~repro.store.artifacts` -- SQLite-indexed blob store;
* :mod:`~repro.store.cache` -- campaign-level cache with provenance;
* :mod:`~repro.store.query` -- filter cached campaigns;
* :mod:`~repro.store.service` -- request coalescing and compute jobs;
* :mod:`~repro.store.server` -- stdlib HTTP serve layer.
"""

from .artifacts import ArtifactCorrupt, ArtifactStore, StoreError, StoreLockError
from .cache import CampaignStore, Stage, StageProvenance, open_stage
from .fingerprint import (
    SCHEMA_VERSION,
    canonical_json,
    digest,
    netlist_fingerprint,
    stage_key,
)

__all__ = [
    "ArtifactCorrupt",
    "ArtifactStore",
    "CampaignStore",
    "SCHEMA_VERSION",
    "Stage",
    "StageProvenance",
    "StoreError",
    "StoreLockError",
    "canonical_json",
    "digest",
    "netlist_fingerprint",
    "open_stage",
    "stage_key",
]
