"""Structured failure taxonomy and fail-fast campaign validators.

A Section-5 campaign is a long fan-out (per-fault simulation, then a
Monte-Carlo power run per SFR fault).  Failures fall into a small set of
shapes, each with its own exception so callers can react precisely:

* :class:`CampaignError` -- base class; also raised directly by the
  fail-fast validators below when a campaign's inputs are unusable;
* :class:`ChunkTimeout` -- a chunk of work exceeded its per-chunk budget
  on every allowed attempt; retryable.  The executor replays a chunk
  that keeps losing its worker in-process rather than raising;
* :class:`IntegrityError` -- a result failed an integrity check (a
  differential audit diverged, a power value went non-finite or broke a
  theory-grounded invariant) and the campaign runs in strict mode, or
  the violation poisons everything downstream (a bad fault-free
  baseline).  See :mod:`repro.core.integrity`.

The campaign *service* (:mod:`repro.store.service`) adds three shapes of
its own, mapped onto HTTP status codes by the serve layer:

* :class:`InputValidationError` -- untrusted user input (an uploaded
  netlist, a request parameter) was rejected by a fail-fast validator
  (HTTP 400, not retryable);
* :class:`ServiceOverloaded` -- the bounded job queue refused admission
  or the service is draining (HTTP 503 + ``Retry-After``, retryable);
* :class:`DeadlineExceeded` -- a request's deadline expired before its
  compute job finished (HTTP 504, retryable: the abandoned job may
  still land in the store).

:func:`is_retryable` classifies any exception for job-level retry loops
and for the ``retryable`` flag of structured JSON error bodies.

The validators run *before* any process pool, golden-trace simulation or
batch precomputation, so a bad netlist, stimulus or config is rejected in
milliseconds instead of surfacing as a deep-stack numpy error minutes
into a fan-out.
"""

from __future__ import annotations

from typing import Any


class CampaignError(RuntimeError):
    """A fault-analysis campaign could not run or complete."""


class ChunkTimeout(CampaignError, TimeoutError):
    """A chunk of campaign work exceeded its timeout on every attempt."""


class IntegrityError(CampaignError):
    """A result failed an integrity check and cannot be quarantined away
    (strict mode, or a poisoned fault-free baseline)."""


class InputValidationError(CampaignError):
    """Untrusted user input (an uploaded netlist, a request parameter)
    was rejected by a fail-fast validator.  Served as HTTP 400."""


class ServiceOverloaded(CampaignError):
    """The campaign service refused new work: the bounded job queue is
    at depth, or the service is draining.  Served as HTTP 503 with a
    ``Retry-After`` hint (:attr:`retry_after`, seconds)."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(CampaignError, TimeoutError):
    """A request's deadline expired before its compute job finished.
    Served as HTTP 504; the abandoned job is quarantined and may still
    publish to the store, so the request is worth retrying later."""


#: exception classes a job-level retry can plausibly outwait
_RETRYABLE = (
    ChunkTimeout,
    ServiceOverloaded,
    DeadlineExceeded,
)


def is_retryable(exc: BaseException) -> bool:
    """True when retrying the failed operation can plausibly succeed.

    Chunk timeouts are transient (the next attempt replays every stage
    the failed one published to the store); overload and deadline
    expiries clear as load drains.  Validation and integrity failures are
    deterministic -- retrying replays the same rejection.
    """
    if isinstance(exc, (InputValidationError, IntegrityError)):
        return False
    if isinstance(exc, _RETRYABLE):
        return True
    # store lock contention (repro.store.artifacts.StoreLockError) is
    # transient too, but the store layer sits above core -- duck-type it.
    return type(exc).__name__ == "StoreLockError"


# ------------------------------------------------------------- validators
def validate_netlist(netlist: Any) -> None:
    """Reject structurally unusable netlists before any simulation.

    Checks the invariants every campaign stage assumes: the design has
    gates, declared primary inputs/outputs, and every output net is
    actually driven (or is a fed-through primary input).
    """
    if not netlist.gates:
        raise CampaignError(f"netlist {netlist.name!r} has no gates")
    if not netlist.inputs:
        raise CampaignError(f"netlist {netlist.name!r} declares no primary inputs")
    if not netlist.outputs:
        raise CampaignError(f"netlist {netlist.name!r} declares no primary outputs")
    inputs = set(netlist.inputs)
    undriven = [
        netlist.net_names[net]
        for net in netlist.outputs
        if netlist.driver_of(net) is None and net not in inputs
    ]
    if undriven:
        raise CampaignError(
            f"netlist {netlist.name!r} outputs are undriven: {undriven[:5]}"
        )


def validate_stimulus(stimulus: Any) -> None:
    """Reject degenerate stimuli (no patterns / no cycles / no driver)."""
    n_patterns = getattr(stimulus, "n_patterns", 0)
    n_cycles = getattr(stimulus, "n_cycles", 0)
    if n_patterns < 1:
        raise CampaignError(f"stimulus has {n_patterns} patterns; need at least 1")
    if n_cycles < 1:
        raise CampaignError(f"stimulus has {n_cycles} cycles; need at least 1")
    if not callable(getattr(stimulus, "apply", None)):
        raise CampaignError("stimulus has no callable apply(sim, cycle) method")


def validate_config(config: Any) -> None:
    """Reject unusable :class:`~repro.core.pipeline.PipelineConfig` values."""
    if config.n_patterns < 1:
        raise CampaignError(f"n_patterns must be >= 1, got {config.n_patterns}")
    if config.iterations_window < 1:
        raise CampaignError(
            f"iterations_window must be >= 1, got {config.iterations_window}"
        )
    if config.hold_cycles < 1:
        raise CampaignError(f"hold_cycles must be >= 1, got {config.hold_cycles}")
    if not config.iteration_counts or any(c < 1 for c in config.iteration_counts):
        raise CampaignError(
            f"iteration_counts must be non-empty positive ints, "
            f"got {config.iteration_counts!r}"
        )
    if config.tpgr_seed < 0:
        raise CampaignError(f"tpgr_seed must be >= 0, got {config.tpgr_seed}")
    timeout = getattr(config, "timeout", None)
    if timeout is not None and timeout <= 0:
        raise CampaignError(f"timeout must be positive seconds or None, got {timeout}")
    max_retries = getattr(config, "max_retries", 0)
    if max_retries < 0:
        raise CampaignError(f"max_retries must be >= 0, got {max_retries}")
    audit_rate = getattr(config, "audit_rate", 0.0)
    if not 0.0 <= audit_rate < 1.0:
        raise CampaignError(
            f"audit_rate must be a fraction in [0, 1), got {audit_rate}"
        )
    chaos = getattr(config, "chaos", None)
    if chaos is not None:
        from ..testing.chaos import ChaosSpec  # deferred: avoid a module cycle

        spec = ChaosSpec.parse(chaos)  # raises CampaignError on a bad spec
        if spec.hang > 0 and timeout is None:
            raise CampaignError(
                "chaos hang injection needs a per-chunk timeout "
                "(a hung worker would otherwise stall the campaign forever)"
            )


# ------------------------------------------------- untrusted-upload guards
#: default size cap for user-uploaded netlist text (1 MiB)
UPLOAD_MAX_BYTES = 1 << 20


def validate_upload_text(text: Any, max_bytes: int = UPLOAD_MAX_BYTES) -> None:
    """Reject upload payloads before any parsing work.

    Raises :class:`InputValidationError` for non-text, empty or
    oversized uploads, so a worker never tokenizes gigabytes of junk.
    """
    if not isinstance(text, str):
        raise InputValidationError(
            f"upload must be text, got {type(text).__name__}"
        )
    if not text.strip():
        raise InputValidationError("upload is empty")
    size = len(text.encode("utf-8", errors="replace"))
    if size > max_bytes:
        raise InputValidationError(
            f"upload is {size} bytes; the limit is {max_bytes}"
        )


def validate_upload_netlist(netlist: Any) -> None:
    """Full structural + acyclicity validation of an untrusted netlist.

    Runs the structural invariants (:meth:`Netlist.validate` plus the
    campaign-level :func:`validate_netlist` checks) and a topological
    levelization, so a combinational loop -- which would otherwise
    surface as a deep-stack error (or an endless event-simulation) far
    into a campaign -- is rejected here, typed, in milliseconds.

    Raises:
        InputValidationError: naming the first violation found.
    """
    from ..logic.levelize import levelize  # deferred: netlist -> core -> logic

    try:
        netlist.validate()
        validate_netlist(netlist)
        levelize(netlist)  # raises on combinational loops
    except InputValidationError:
        raise
    except (CampaignError, ValueError) as exc:  # NetlistError is a ValueError
        raise InputValidationError(f"invalid netlist upload: {exc}") from exc
