"""Deterministic fault injection for the serving and bulk stacks.

Every fault-tolerance path in this repo — worker crash containment,
client retries, torn-frame recovery, deadline expiry, shard-commit
failure — is driven in tests and the ``chaos-smoke`` CI job through
this one harness, so the failure modes are *reproducible* instead of
depending on races, disk state, or luck.

A fault is **armed** through the environment (environment, not
arguments, because the processes that must misbehave — pre-forked
daemon workers, bulk pool workers, a double-forked detached daemon —
inherit the environment and nothing else):

.. code-block:: bash

    REPRO_FAULTS="worker-kill:op=classify,times=1;slow-handler:seconds=0.5"
    REPRO_FAULTS_STATE=/tmp/faults-state   # optional, see below

``REPRO_FAULTS`` is a ``;``-separated list of armed fault points, each
``<name>`` or ``<name>:k=v,k=v...``.  Recognised keys:

``op=<value>`` / ``shard=<value>``
    Matchers: the fault fires only when the instrumented call site
    reports an equal context value (e.g. the wire op being dispatched,
    the bulk shard id being committed).
``match=<substring>``
    Substring matcher against the call site's ``text`` context (used
    to poison specific URLs in bulk scoring).
``after=<N>``
    Skip the first ``N - 1`` eligible hits; default 1 (fire on the
    first hit).
``times=<N>``
    Fire at most ``N`` times, then fall permanently silent; default 1.
    ``times=inf`` never disarms.
``seconds=<float>``
    Payload for :func:`maybe_sleep`.

**Counting across processes.**  ``after``/``times`` need a hit counter
that survives a worker being SIGKILLed and respawned (the respawned
worker must *not* re-fire a ``times=1`` fault, or a "client retry
completes the call" test would loop forever).  When
``REPRO_FAULTS_STATE`` names a directory, hits are counted there with
``O_CREAT | O_EXCL`` sequence files — atomic on POSIX, shared by every
process that inherits the variable.  Without it, counting is
per-process (fine for single-process call sites).

Call sites pay one ``os.environ.get`` when no faults are armed — cheap
enough for the hot serving path (the benchmark suite asserts the
robustness hooks cost <5% on ``serve_daemon_roundtrip``).
"""

from __future__ import annotations

import errno
import os
import signal
import time
from dataclasses import dataclass, field

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV",
    "FAULTS_STATE_ENV",
    "FaultSpec",
    "active_faults",
    "maybe_kill",
    "maybe_raise",
    "maybe_sleep",
    "should_fire",
]

#: Environment variable arming fault points.
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable naming the cross-process hit-counter directory.
FAULTS_STATE_ENV = "REPRO_FAULTS_STATE"

#: The closed set of instrumented fault points.  Arming anything else
#: raises at parse time — a typo'd point silently never firing would
#: make a chaos test vacuously green.
FAULT_POINTS = (
    "worker-kill",    # daemon worker SIGKILLs itself mid-request
    "torn-frame",     # daemon sends half a response frame, then closes
    "slow-handler",   # daemon dispatch sleeps `seconds` before answering
    "commit-error",   # bulk shard commit raises ENOSPC before rename
    "predict-error",  # bulk scoring pass raises (drives per-row retry)
    "ingest-error",   # result-index shard ingest raises before commit
)

#: Spec keys that are matchers against call-site context.
_MATCHERS = ("op", "shard")


class FaultConfigError(ValueError):
    """``REPRO_FAULTS`` does not parse or names an unknown point."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault point, parsed from the environment."""

    name: str
    after: int = 1
    times: float = 1  # float so "inf" (never disarm) is representable
    seconds: float = 0.0
    matchers: dict = field(default_factory=dict)  # op/shard equality
    match: str | None = None  # substring matcher against `text`

    def matches(self, context: dict) -> bool:
        """True when the call site's context satisfies every matcher."""
        for key, expected in self.matchers.items():
            if str(context.get(key)) != expected:
                return False
        if self.match is not None:
            text = context.get("text")
            if not isinstance(text, str) or self.match not in text:
                return False
        return True


def _parse(value: str) -> dict[str, FaultSpec]:
    specs: dict[str, FaultSpec] = {}
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, options = part.partition(":")
        name = name.strip()
        if name not in FAULT_POINTS:
            raise FaultConfigError(
                f"unknown fault point {name!r} in ${FAULTS_ENV}; "
                f"instrumented points: {', '.join(FAULT_POINTS)}"
            )
        after, times, seconds = 1, 1.0, 0.0
        matchers: dict[str, str] = {}
        match: str | None = None
        for pair in filter(None, options.split(",")):
            key, separator, raw = pair.partition("=")
            key = key.strip()
            if not separator:
                raise FaultConfigError(
                    f"fault option {pair!r} is not key=value "
                    f"(point {name!r} in ${FAULTS_ENV})"
                )
            try:
                if key == "after":
                    after = int(raw)
                elif key == "times":
                    times = float("inf") if raw == "inf" else float(int(raw))
                elif key == "seconds":
                    seconds = float(raw)
                elif key == "match":
                    match = raw
                elif key in _MATCHERS:
                    matchers[key] = raw
                else:
                    raise FaultConfigError(
                        f"unknown fault option {key!r} for point {name!r} "
                        f"in ${FAULTS_ENV}"
                    )
            except FaultConfigError:
                raise
            except ValueError:
                raise FaultConfigError(
                    f"fault option {pair!r} does not parse "
                    f"(point {name!r} in ${FAULTS_ENV})"
                ) from None
        specs[name] = FaultSpec(
            name=name, after=after, times=times, seconds=seconds,
            matchers=matchers, match=match,
        )
    return specs


#: Cache of the last parsed ``REPRO_FAULTS`` value, so the armed path
#: does not re-parse per request.  Keyed by the raw string: tests that
#: monkeypatch the environment between cases get fresh parses.
_parse_cache: tuple[str, dict[str, FaultSpec]] | None = None

#: Per-process hit counters, used when no state directory is named.
_local_hits: dict[str, int] = {}


def active_faults() -> dict[str, FaultSpec]:
    """The armed fault specs, or ``{}`` when the harness is off."""
    global _parse_cache
    value = os.environ.get(FAULTS_ENV)
    if not value:
        return {}
    if _parse_cache is None or _parse_cache[0] != value:
        _parse_cache = (value, _parse(value))
    return _parse_cache[1]


def _next_hit(name: str) -> int:
    """This hit's 1-based sequence number for ``name`` (atomic across
    every process sharing ``REPRO_FAULTS_STATE``)."""
    state_dir = os.environ.get(FAULTS_STATE_ENV)
    if not state_dir:
        _local_hits[name] = _local_hits.get(name, 0) + 1
        return _local_hits[name]
    os.makedirs(state_dir, exist_ok=True)
    hit = 1
    while True:
        try:
            fd = os.open(
                os.path.join(state_dir, f"{name}.{hit}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            hit += 1
            continue
        os.close(fd)
        return hit


def should_fire(name: str, **context) -> FaultSpec | None:
    """The armed spec if fault ``name`` fires for this call, else None.

    A call *hits* when the point is armed and every matcher in its spec
    is satisfied by ``context``; hits are then counted, and the fault
    fires on hits ``after .. after + times - 1``.  Misses (matcher
    mismatches) consume nothing.
    """
    spec = active_faults().get(name)
    if spec is None or not spec.matches(context):
        return None
    hit = _next_hit(name)
    if spec.after <= hit < spec.after + spec.times:
        return spec
    return None


def maybe_kill(name: str, **context) -> None:
    """SIGKILL this process when ``name`` fires (no cleanup, no
    goodbyes — exactly what an OOM kill looks like to the parent)."""
    if should_fire(name, **context) is not None:
        os.kill(os.getpid(), signal.SIGKILL)


def maybe_sleep(name: str, **context) -> bool:
    """Sleep the armed ``seconds`` when ``name`` fires; True if slept."""
    spec = should_fire(name, **context)
    if spec is None:
        return False
    time.sleep(spec.seconds)
    return True


def maybe_raise(name: str, **context) -> None:
    """Raise ``OSError(ENOSPC)`` when ``name`` fires (the canonical
    "disk full at the worst moment" commit failure)."""
    if should_fire(name, **context) is not None:
        raise OSError(
            errno.ENOSPC,
            f"injected fault {name!r} (no space left on device)",
        )
