"""repro.fleet — distributed sweep fleet (broker, workers, campaigns).

Generalizes the single-host :class:`~repro.exec.runner.PoolRunner` to
many hosts: a lease-based work-queue broker hands
:class:`~repro.fleet.protocol.TaskSpec`\\ s to workers over HTTP, workers
settle results through the content-addressed SimResult cache, and the
campaign driver searches config space via successive halving over
whichever executor (local pool or fleet) is available.
"""

import importlib

#: Public name -> defining submodule. Submodules load on first use (PEP
#: 562), so ``repro serve``, which needs only the broker, the protocol and
#: the HTTP layer, does not import the client, the worker and the campaign
#: driver (and ``http.client``) at boot.
_EXPORTS = {name: f"repro.fleet.{module}" for module, names in {
    "broker": ("BrokerApp", "BrokerMetrics", "FleetBroker", "run_broker"),
    "campaign": ("Campaign", "CampaignResult", "Candidate", "parse_search",
                 "run_campaign"),
    "client": ("FLEET_BENCH_FILENAME", "FleetClient", "FleetError",
               "LocalExecutor"),
    "protocol": ("TaskSpec", "build_spec_config", "expand_specs",
                 "result_from_wire", "result_to_wire"),
    "worker": ("BrokerGone", "FleetWorker", "run_worker"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro.fleet' has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
