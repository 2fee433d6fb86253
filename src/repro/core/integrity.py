"""Result-integrity guard layer: audits, invariants and quarantine.

The paper's detection scheme trusts a +/- 5 % power band around the
fault-free value, so a silently wrong simulation -- a NaN that reaches a
mean, a bit-flipped power word, a diverged fault-parallel block -- is
worse than a crash: it misclassifies SFR faults as detected or missed.
This module makes campaign results self-verifying:

* **Differential auditing.**  A deterministic, hash-selected fraction of
  faults (:func:`select_audit`, keyed only by the fault key, so the
  choice is identical for any job count) is re-evaluated
  on one independent reference per layer: cone-restricted
  fault-simulation verdicts are re-checked against the serial per-fault
  simulator ``simulate_one_fault``, classification traces against the
  per-fault ``faulty_control_trace`` and the array replay's
  classifications against the per-fault ``symbolic.replay`` path, and
  the block kernel's Monte-Carlo
  powers are recomputed through the per-fault generate-per-call
  ``monte_carlo_power``.  Any divergence becomes a structured
  :class:`IntegrityViolation` naming the fault, the site and the first
  divergent cycle.  Cone-restricted campaigns additionally re-simulate a
  capped handful of death-pruned faults through the serial reference
  (:data:`DEFAULT_DEATH_AUDIT_CHECKS`), continuously cross-checking the
  pruning proof's premises.

* **Theory-grounded invariants.**  Fault-free power must be finite and
  positive; no power can exceed the library's theoretical ceiling
  (every net toggling every cycle); toggle counts are bounded by
  ``cycles x patterns`` per net; every SFR verdict must also be CFI
  (an SFR fault *changes* control lines -- a no-effect fault is CFR by
  definition); and faults that only *add* register loads never decrease
  estimated power (the paper's Section-5 monotonicity result for gated
  clocks).

* **Quarantine semantics.**  By default a violation is recorded on the
  campaign's :class:`~repro.core.parallel.RunReport` and the offending
  fault is quarantined -- fault-simulation verdicts fall back to the
  trusted serial reference, graded powers are excluded from the result
  -- and the campaign continues.  In strict mode
  (:class:`IntegrityGuard` with ``strict=True``) the first violation
  aborts the campaign with
  :class:`~repro.core.errors.IntegrityError`.

* **Storage integrity.**  Results that persist beyond a run are guarded
  on the way back in: artifact-store blobs are content addressed, so a
  flipped bit on disk surfaces as a :data:`STORE_CORRUPT_CHECK`
  violation and the stage recomputes instead of serving the corrupted
  value (see :mod:`repro.store`).

The guard layer never changes the results of a clean run: audits only
*compare*, and every path they compare against is bit-identical by
construction (see docs/performance.md).  ``tests/test_integrity.py``
enforces this.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .errors import IntegrityError

#: default fraction of faults re-simulated on an independent path
DEFAULT_AUDIT_RATE = 0.02

#: default number of death-pruned faults re-simulated serially per campaign.
#: The cone engine's fault-effect death pruning ends a fault early once its
#: divergence frontier is empty and its site can never be re-excited; the
#: claim is proved in docs/performance.md, and this spot-check keeps the
#: proof honest at runtime ("cone-death-differential" violations).  The
#: checked faults are hash-ranked (salt ``"death-audit"``) and disjoint
#: from the ordinary differential-audit selection, so a clean campaign's
#: ``audited`` count is unchanged.
DEFAULT_DEATH_AUDIT_CHECKS = 2

#: stable check id flagged when a persisted artifact-store blob fails its
#: content hash (the stage falls back to recomputation -- see
#: :mod:`repro.store.cache`)
STORE_CORRUPT_CHECK = "store-blob-corrupt"


@dataclass
class IntegrityViolation:
    """One failed integrity check, structured for reports and JSON.

    ``check`` is a stable machine-readable id; ``fault`` is the campaign
    fault key (``__fault_free__`` for the baseline); ``site`` carries the
    human-readable fault description when a netlist was available;
    ``cycle`` is the first divergent cycle for differential checks (-1
    when the divergence has no cycle, e.g. a bad power value).
    """

    check: str
    fault: str
    detail: str
    site: str = ""
    cycle: int = -1
    expected: str = ""
    actual: str = ""

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "fault": self.fault,
            "detail": self.detail,
            "site": self.site,
            "cycle": self.cycle,
            "expected": self.expected,
            "actual": self.actual,
        }

    def describe(self) -> str:
        loc = f" at {self.site}" if self.site else ""
        cyc = f" (first divergent cycle {self.cycle})" if self.cycle >= 0 else ""
        return f"[{self.check}] fault {self.fault}{loc}: {self.detail}{cyc}"


class IntegrityGuard:
    """Collects violations; quarantines by default, aborts in strict mode."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: list[IntegrityViolation] = []

    def flag(self, violation: IntegrityViolation) -> None:
        """Record one violation; raise immediately when strict."""
        self.violations.append(violation)
        if self.strict:
            raise IntegrityError(
                f"integrity violation (strict mode): {violation.describe()}"
            )

    @property
    def quarantined(self) -> int:
        """Number of distinct faults with at least one violation."""
        return len({v.fault for v in self.violations})

    def attach(self, report: Any, audited: int = 0) -> None:
        """Publish this guard's findings onto a campaign ``RunReport``."""
        if report is None:
            return
        report.violations.extend(self.violations)
        report.quarantined = len({v.fault for v in report.violations})
        report.audited += audited


# ------------------------------------------------------- audit selection
def audit_fraction(key: str, salt: str = "audit") -> float:
    """Deterministic uniform-[0,1) hash of a fault key.

    Depends only on the key and salt -- never on RNG state, fault order,
    or job count -- so the audit set is stable across every
    execution strategy and a clean run stays bit-identical.
    """
    digest = hashlib.sha256(f"{salt}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def select_audit(keys: Iterable[str], rate: float, salt: str = "audit") -> list[str]:
    """The deterministic audit subset of ``keys`` at the given rate."""
    if rate <= 0:
        return []
    return [k for k in keys if audit_fraction(k, salt) < rate]


# ------------------------------------------------------ invariant checks
def check_finite_power(
    guard: IntegrityGuard, key: str, power_uw: float, site: str = ""
) -> bool:
    """Power must be a finite, positive number.  False if quarantined."""
    if math.isfinite(power_uw) and power_uw > 0:
        return True
    guard.flag(
        IntegrityViolation(
            check="non-finite-power",
            fault=key,
            site=site,
            detail=f"power is {power_uw!r}; expected a finite positive value",
            actual=repr(power_uw),
        )
    )
    return False


def check_power_ceiling(
    guard: IntegrityGuard, key: str, power_uw: float, ceiling_uw: float, site: str = ""
) -> bool:
    """Power cannot exceed the all-nets-toggling theoretical maximum."""
    if power_uw <= ceiling_uw:
        return True
    guard.flag(
        IntegrityViolation(
            check="power-ceiling",
            fault=key,
            site=site,
            detail=(
                f"power {power_uw:.6g} uW exceeds the theoretical ceiling "
                f"{ceiling_uw:.6g} uW (every net toggling every cycle)"
            ),
            expected=f"<= {ceiling_uw:.6g}",
            actual=f"{power_uw:.6g}",
        )
    )
    return False


def adds_register_loads(classification: Any) -> bool:
    """True when a fault's control-line effects only *add* register loads.

    The paper's Section-5 monotonicity argument covers faults that make
    registers load extra values under gated clocks; a fault that also
    *skips* loads (or whose effects are unknown) may legitimately lower
    power, so it is excluded from the check.
    """
    from .classify import EffectLabel

    extra = {
        EffectLabel.EXTRA_LOAD_IDLE,
        EffectLabel.EXTRA_LOAD_OVERWRITTEN,
        EffectLabel.EXTRA_LOAD_REWRITE,
        EffectLabel.EXTRA_LOAD_DISRUPTIVE,
    }
    labels = {e.label for e in classification.effects}
    return bool(labels & extra) and EffectLabel.LOAD_SKIPPED not in labels


#: tolerance (percentage points) for the load-monotonicity invariant --
#: an extra-load fault whose loads are all no-ops can sit a hair below
#: the baseline through convergence noise without being wrong.
LOAD_MONOTONICITY_TOL_PCT = 0.5


def check_load_monotonicity(
    guard: IntegrityGuard, key: str, pct_change: float, site: str = ""
) -> bool:
    """A register-load-adding fault must not decrease power."""
    if pct_change >= -LOAD_MONOTONICITY_TOL_PCT:
        return True
    guard.flag(
        IntegrityViolation(
            check="load-monotonicity",
            fault=key,
            site=site,
            detail=(
                f"fault adds register loads yet power changed by "
                f"{pct_change:+.3f}% (Section-5 monotonicity: extra loads "
                f"under gated clocks can only increase power)"
            ),
            expected=f">= {-LOAD_MONOTONICITY_TOL_PCT}%",
            actual=f"{pct_change:+.3f}%",
        )
    )
    return False


def check_sfr_is_cfi(guard: IntegrityGuard, key: str, record: Any) -> bool:
    """Every SFR verdict must also be CFI (the fault changes control lines).

    A controller fault with *no* control-line effect is CFR by
    definition; an SFR classification without effects means the
    classifier and the effect extractor disagree -- a broken oracle, not
    a valid verdict.
    """
    classification = record.classification
    if classification is not None and classification.effects:
        return True
    guard.flag(
        IntegrityViolation(
            check="sfr-without-effects",
            fault=key,
            detail=(
                "fault is classified SFR but has no control-line effects; "
                "SFR implies CFI (a no-effect fault is CFR)"
            ),
        )
    )
    return False


def format_value(value: float) -> str:
    """Repr of a float preserving full precision for violation records."""
    return repr(float(value))


def diff_summary(expected: Sequence[Any], actual: Sequence[Any]) -> str:
    """First index where two sequences differ, rendered for a report."""
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            return f"index {i}: expected {e!r}, got {a!r}"
    if len(expected) != len(actual):
        return f"length mismatch: expected {len(expected)}, got {len(actual)}"
    return "identical"
