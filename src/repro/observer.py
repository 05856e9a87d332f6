"""The observer contract shared by every run-time observer of the model.

The invariant checker (:mod:`repro.validate`), the request-timeline
recorder, the causal span tracer (:mod:`repro.tracing`) and the obs
collector (:mod:`repro.obs`) are all :class:`Observer` subclasses with
one lifecycle, driven by ``simulate()``:

1. ``attach(sim, chip)`` at the warmup/measurement boundary, after
   ``chip.begin_measurement()`` and before the cores restart, so every
   request created in the measurement window is seen from birth;
2. request-lifecycle hooks while the measurement phase runs;
3. ``on_drain()`` the moment the last core drains;
4. ``finish(chip, elapsed_ns)``, which returns ``(extras_key, payload)``
   for ``SimResult.extras`` (or ``None`` for a caller-held observer).

``Chip``, ``Core`` and ``CxlChannel`` each hold one ``observers`` tuple,
filled by :meth:`repro.system.builder.Chip.observe` with just the
observers that override one of that component's hooks. The tuple is
empty when nothing is attached, so each hook site costs one truthiness
test when observation is off.

Observers must not schedule events or mutate requests or components:
every ``SimResult`` field outside an observer's own extras key is
bit-identical with the observer attached or not. The obs collector's
sampler is the one exception that schedules, and it only rides
cancellable ticks that leave results unchanged (see
:mod:`repro.obs.collect`).
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Tuple

#: Modes of each observer switch, ``simulate(<kind>=...)`` / ``$REPRO_<KIND>``.
MODES = {
    "obs": ("off", "on", "profile"),
    "tracing": ("off", "on", "kernel"),
    "validate": ("off", "on", "strict"),
}

#: Spellings every switch accepts besides its mode names.
_ALIASES = {
    "": "off", "0": "off", "false": "off", "no": "off", "none": "off",
    "1": "on", "true": "on", "yes": "on",
    "2": "profile",
}


def resolve_mode(kind: str, value=None) -> str:
    """Normalize an observer switch to one of ``MODES[kind]``.

    ``None`` defers to ``$REPRO_<KIND>``; booleans map to on/off; strings
    accept the mode names and the shared aliases (case-insensitive).
    Anything else raises ``ValueError`` naming the argument or the
    environment variable it came from.
    """
    modes = MODES[kind]
    source = kind
    if value is None:
        source = f"REPRO_{kind.upper()}"
        value = os.environ.get(source, "")
    if isinstance(value, bool):
        return "on" if value else "off"
    text = str(value).strip().lower()
    mode = _ALIASES.get(text, text)
    if mode not in modes:
        raise ValueError(f"{source} must be one of {modes} "
                         f"(or a boolean / 0 / 1 alias), got {value!r}")
    return mode


class Observer:
    """No-op base: subclasses override the hooks they need."""

    def attach(self, sim, chip) -> None:
        """Bind to a run at the measurement boundary."""

    # -- request lifecycle (chip) ------------------------------------------
    def on_l2_miss(self, req) -> None:
        """A miss left the L2; ``req.t_create`` is now."""

    def on_mem_submit(self, req, now: float, extra: float) -> None:
        """A read was routed to its memory port (``extra``: migration wait)."""

    def on_mem_response(self, req) -> None:
        """Read data arrived back at the CPU side of the port."""

    def on_complete(self, req) -> None:
        """The response reached the L2; ``req.t_complete`` is now."""

    def on_double_complete(self, req) -> None:
        """The completion handler ran again for a completed request."""

    # -- core ----------------------------------------------------------------
    def on_mshr_stall(self, core_id: int, op_idx: int, t: float) -> None:
        """Op ``op_idx`` queued at a full MSHR file at time ``t``."""

    def on_mshr_merge(self, core_id: int, op_idx: int) -> None:
        """Op ``op_idx`` merged into an in-flight miss to its line."""

    # -- CXL channel ---------------------------------------------------------
    def on_cxl_tx(self, req, now: float, arrive: float) -> None:
        """Request crossing the CPU port and TX link towards the device."""

    def on_cxl_rx(self, req, now: float, arrive: float) -> None:
        """Response crossing the device port and RX link to the CPU."""

    # -- end of run ----------------------------------------------------------
    def on_drain(self) -> None:
        """The last core drained; the measurement phase is over."""

    def finish(self, chip, elapsed_ns: float) -> Optional[Tuple[str, object]]:
        """``(extras_key, payload)`` for ``SimResult.extras``, or ``None``."""
        return None


def overriding(observers: Iterable[Observer], hooks: Tuple[str, ...]) -> tuple:
    """The observers whose class overrides at least one of ``hooks``."""
    return tuple(o for o in observers
                 if any(getattr(type(o), h) is not getattr(Observer, h)
                        for h in hooks))
