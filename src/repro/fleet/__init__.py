"""Fleet-scale threshold calibration (population-vectorized ROC).

Switching activity is instance-independent and power is linear in the
per-row activity counters, so one Monte-Carlo campaign per design prices
a manufactured fleet of any size through a single chunked matmul in
gate-type space::

    P[instances x faults] = S[instances x types] @ (W.T @ A)[types x faults]

Layers:

* :mod:`repro.fleet.activity` -- the per-fault integer activity
  matrices: the grading campaign's captured traces, or their store replay;
* :mod:`repro.fleet.population` -- sample process/tester spread and
  count the threshold ROC from per-column sorted deviations;
* :mod:`repro.fleet.calibrate` -- glue: grading -> activity ->
  bit-identity cross-check -> population kernel -> store artifact.
"""

from .activity import (
    ActivityCampaign,
    activity_campaign,
    recovered_power_uw,
)
from .calibrate import calibrate_fleet, calibrate_report_dict, fleet_store_key
from .population import (
    DEFAULT_THRESHOLDS,
    FLEET_CHUNK_INSTANCES,
    FleetConfig,
    FleetResult,
    activity_matrix,
    choose_threshold,
    run_population,
)

__all__ = [
    "ActivityCampaign",
    "activity_campaign",
    "recovered_power_uw",
    "calibrate_fleet",
    "calibrate_report_dict",
    "fleet_store_key",
    "DEFAULT_THRESHOLDS",
    "FLEET_CHUNK_INSTANCES",
    "FleetConfig",
    "FleetResult",
    "activity_matrix",
    "choose_threshold",
    "run_population",
]
