"""Symbolic execution as a service (ROADMAP's engine-as-a-daemon step).

The paper's argument — symbolic execution for interpreted languages
should be cheap to stand up — extends past engine-as-a-library to a
long-lived multi-tenant daemon: :class:`ChefService` runs many
concurrent sessions inside one process, each serially, with
per-session budget clamps.
:class:`ServiceClient` is the thin blocking client;
``python -m repro.service`` is the CLI (serve / run / stats / ping /
shutdown); :mod:`repro.service.protocol` defines the JSON-lines wire
format.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ChefService, ServiceConfig

__all__ = ["ChefService", "ServiceClient", "ServiceConfig", "ServiceError"]
