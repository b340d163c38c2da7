"""Spans kept in memory: name, start, end, parent, wave id.

The benchmark records spans from its own files, around the calls into
each layer; spans inside ``src/`` are ROADMAP item 4, a later change.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["NO_TRACE", "Tracer"]


class _NoTrace:
    """Tracing off: ``span`` costs one attribute load and one call."""

    on = False
    _null = contextlib.nullcontext()

    def span(self, name: str, wave: Optional[int] = None):
        return self._null


NO_TRACE = _NoTrace()


class Tracer:
    """In-memory spans: name, start, end, parent, wave id.

    The current span lives in a context variable, so the tasks a wave
    fans out into record the wave's span as their parent.
    """

    on = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str, wave: Optional[int] = None):
        parent = self._current.get()
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": None if parent is None else parent["id"],
            "wave": wave if wave is not None or parent is None else parent["wave"],
        }
        self.spans.append(record)
        token = self._current.set(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._current.reset(token)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total, and self time (span minus the part
        of it its children cover).  Children that overrun their parent
        make the difference negative; it is reported as 0 and kept signed
        beside it."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            covered, reach = 0.0, s["start"]
            for lo, hi in sorted(children.get(s["id"], ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total = s["end"] - s["start"]
            agg = out.setdefault(
                s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "self_signed_s": 0.0}
            )
            agg["count"] += 1
            agg["total_s"] += total
            agg["self_s"] += max(total - covered, 0.0)
            agg["self_signed_s"] += total - covered
        return out
