"""Per-layer tracing for the traced child run, installed from outside the package.

Every wrapped function aggregates its call count, self time and total
time in memory; no per-call record is kept, because ``sweep`` makes
about 11.6M ``binomial`` calls.  A stack of child-time accumulators
gives self time (a call's duration minus the time spent in wrapped
callees), which stays right under ``derive_QR``'s and
``TriangleStore.row``'s recursion.

Wrappers replace the function in every btriangles namespace that bound
it (``identities.fib``, ``polyderive.fib``, ``cli.derive_QR``, ...) and
in module-level dicts such as ``cli._FAMILY_SUM``; ``TriangleStore.row``
is replaced on the class.  The closed-form/oracle split comes from
swapping each REGISTRY record for a copy with wrapped sides.  Everything
is restored when :func:`installed` exits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time
from collections.abc import Callable, Iterator

# Wrapped layers, as <module>.<function> or <module>.<class>.<method>.
# Reported as .calls and .self_s:
COUNTED = (
    "exactnum.binomial",
    "fibonacci.fib",
    "gfib.lambda_explicit",
    "gfib.lambda_rec",
    "paths.sum_S",
    "paths.sum_Sbar",
    "paths.sum_T",
    "polyderive.derive_QR",
    "polyderive.discrete_sum",
    "polyderive.poly_eval",
    "polyderive.tm_closed",
    "triangle.TriangleStore.row",
)
# Reported as .s, their total time:
SPANS = (
    "oeis.crosscheck",
    "oeis.load_snapshot",
    "oeis.terms",
)


class Tracer:
    """Aggregated calls, self seconds and total seconds per wrapped name."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stat[2] += elapsed
                if stack:
                    stack[-1] += elapsed

        return functools.update_wrapper(wrapper, fn)

    def add(self, name: str, seconds: float) -> None:
        self.stats.setdefault(name, [0, 0.0, 0.0])[2] += seconds

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_s, total_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.s"] = total_s
        return out


def _replace_everywhere(original: object, replacement: object, undo: list) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("btriangles"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                undo.append(functools.partial(namespace.__setitem__, key, original))
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        undo.append(functools.partial(value.__setitem__, k, original))


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap the traced layers for the duration of the block."""
    undo: list[Callable[[], None]] = []
    try:
        for path in COUNTED + SPANS:
            module_name, _, attr = path.partition(".")
            module = importlib.import_module(f"btriangles.{module_name}")
            if "." in attr:  # a method, wrapped on its class
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                setattr(cls, method, tracer.wrap(path, original))
                undo.append(functools.partial(setattr, cls, method, original))
            elif hasattr(module, attr):  # a later refactor may remove a layer
                original = getattr(module, attr)
                _replace_everywhere(original, tracer.wrap(path, original), undo)

        identities = importlib.import_module("btriangles.identities")
        registry = identities.REGISTRY
        saved = dict(registry)
        undo.append(lambda: registry.update(saved))
        for key, rec in saved.items():
            registry[key] = dataclasses.replace(
                rec,
                closed_form=tracer.wrap("identities.closed", rec.closed_form),
                oracle=tracer.wrap("identities.oracle", rec.oracle),
            )

        verify = identities.verify

        def timed_verify(*args, **kwargs):
            report = verify(*args, **kwargs)
            tracer.add(f"identities.{report.name}", report.elapsed)
            return report

        _replace_everywhere(verify, functools.update_wrapper(timed_verify, verify), undo)
        yield
    finally:
        for restore in reversed(undo):
            restore()
