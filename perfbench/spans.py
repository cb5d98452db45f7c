"""In-memory spans and counters recorded around calls into molrationale.

A traced function is replaced at every place its name is looked up: in its
defining module and in every module that imported it by name (``train``
imports ``complete_with_trace`` from ``genmodel``, ``metrics`` imports
``morgan_fingerprint``, ...).  Wrapping only the defining module would miss
those call sites and undercount.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span stack plus per-name totals; ``stage`` tags calls by pipeline stage."""

    stats: dict[str, SpanStats] = field(default_factory=dict)
    stage_calls: dict[tuple[str, str], int] = field(default_factory=dict)
    stage: str = ""
    _child_s: list[float] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call records a span; on_result(args, result) may
        collect counters from what the call returned."""
        stats = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - children
                key = (self.stage, name)
                self.stage_calls[key] = self.stage_calls.get(key, 0) + 1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def install(self, qualname: str, on_result=None) -> None:
        """Trace ``module.function`` (module relative to molrationale) at
        every lookup site among the loaded molrationale modules."""
        module_name, func_name = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"molrationale.{module_name}"], func_name)
        wrapped = self.span(qualname, original, on_result)
        replace_everywhere(original, wrapped, self._restore)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    def calls_in(self, stage: str, name: str) -> int:
        return self.stage_calls.get((stage, name), 0)


def replace_everywhere(original, replacement, restore: list) -> None:
    """Point every molrationale module attribute bound to ``original`` at
    ``replacement``, remembering the old binding in ``restore``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("molrationale"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                restore.append((module, attr, value))
                setattr(module, attr, replacement)
