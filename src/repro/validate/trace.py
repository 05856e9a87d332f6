"""Per-request trace recorder: the one ring buffer of completed timelines.

Each completed :class:`~repro.request.MemRequest` is flattened into one
flat tuple carrying its identity (id, address, kind, core, CALM/LLC
outcome) and every lifecycle timestamp; row dicts are materialized only
when read. The buffer holds the most recent ``capacity`` entries, so long
runs stay bounded while a violation near the end of a run can still be
matched to its full timeline. The span tracer stores its rows in a
recorder too, attaching its in-flight marks to each entry.

Export formats: JSONL (one timeline object per line, easy to grep/jq)
and ``.npy`` (numpy structured array, easy to slice in analysis code).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.exportutil import dispatch_export
from repro.observer import Observer
from repro.request import MemRequest

#: Column order of one trace row (and of the exported structured array).
TRACE_FIELDS = (
    "req_id", "addr", "kind", "core_id", "calm", "llc_hit",
    "t_create", "t_llc_done", "t_mc_enqueue", "t_mc_issue",
    "t_dram_done", "t_complete", "cxl_delay",
)

_NUMPY_DTYPE = [
    ("req_id", "i8"), ("addr", "u8"), ("kind", "i1"), ("core_id", "i4"),
    ("calm", "?"), ("llc_hit", "i1"),  # -1 unknown / 0 miss / 1 hit
    ("t_create", "f8"), ("t_llc_done", "f8"), ("t_mc_enqueue", "f8"),
    ("t_mc_issue", "f8"), ("t_dram_done", "f8"), ("t_complete", "f8"),
    ("cxl_delay", "f8"),
]


def timeline_of(req: MemRequest) -> Dict[str, Union[int, float, bool, None]]:
    """One request's lifecycle as a plain dict (JSON-serializable)."""
    return req.timeline()


class TraceRecorder(Observer):
    """Fixed-capacity ring buffer of completed-request timelines.

    Passed as ``simulate(..., trace=recorder)`` it observes every request
    completed in the measurement window; its ``finish`` adds nothing to
    ``extras`` (the caller holds the recorder).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: List[tuple] = []
        self._next = 0            # ring write cursor once the buffer is full
        self.recorded = 0         # total record() calls, including evicted

    def record(self, req: MemRequest, extra=None) -> None:
        """Append one completed request (evicting the oldest when full).

        ``extra`` rides along as the entry's last element (see
        :meth:`entries`); it is not part of the exported timeline.
        """
        entry = (req.req_id, req.addr, req.kind, req.core_id, req.calm,
                 req.llc_hit, req.t_create, req.t_llc_done, req.t_mc_enqueue,
                 req.t_mc_issue, req.t_dram_done, req.t_complete,
                 req.cxl_delay, extra)
        if len(self._ring) < self.capacity:
            self._ring.append(entry)
        else:
            self._ring[self._next] = entry
            self._next = (self._next + 1) % self.capacity
        self.recorded += 1

    on_complete = record

    def __len__(self) -> int:
        return len(self._ring)

    def entries(self) -> List[tuple]:
        """Retained raw entries, oldest first: :data:`TRACE_FIELDS` + extra."""
        return self._ring[self._next:] + self._ring[:self._next]

    def rows(self) -> List[Dict]:
        """Retained timelines, oldest first."""
        return [dict(zip(TRACE_FIELDS, e)) for e in self.entries()]

    def find(self, req_id: int) -> Optional[Dict]:
        """The retained timeline of one request, if still in the buffer."""
        for e in self._ring:
            if e[0] == req_id:
                return dict(zip(TRACE_FIELDS, e))
        return None

    # -- export ----------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """The retained timelines as a numpy structured array (oldest first)."""
        rows = self.rows()
        arr = np.zeros(len(rows), dtype=_NUMPY_DTYPE)
        for i, row in enumerate(rows):
            vals = dict(row)
            hit = vals["llc_hit"]
            vals["llc_hit"] = -1 if hit is None else int(hit)
            arr[i] = tuple(vals[f] for f in TRACE_FIELDS)
        return arr

    def export_jsonl(self, path: Union[str, Path]) -> Path:
        """Write one JSON timeline per line; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return path

    def export_npy(self, path: Union[str, Path]) -> Path:
        """Write the structured array as ``.npy``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, self.to_array())
        # np.save appends .npy when missing; report the real file.
        return path if path.suffix == ".npy" else path.with_suffix(path.suffix + ".npy")

    def export(self, path: Union[str, Path], fmt: Optional[str] = None) -> Path:
        """Export by explicit format or by file suffix.

        Without ``fmt``, the suffix picks the format (``.jsonl`` /
        ``.npy``); an unrecognized suffix is an error rather than a
        silent fall-through, so a typo like ``trace.jsnl`` can't quietly
        produce the wrong format.
        """
        return dispatch_export(
            path, fmt,
            {"jsonl": self.export_jsonl, "npy": self.export_npy},
            kind="trace",
            suffix_map={".jsonl": "jsonl", ".npy": "npy", ".json": "jsonl"},
        )
