"""Outside-in tracer: time the program's public functions by wrapping them.

Modules import functions by name (``from .fock import apply_transform``), so
patching the defining module alone would miss most call sites.  The tracer
replaces every public ``dfsdist`` function at every module binding that
holds it, plus ``oracle.expm``, and puts the originals back on exit.

Spans are kept in memory as ``(name, start, end, parent, point, info)``
tuples: ``name`` is ``<defining module>.<function>``, ``parent`` the index of
the enclosing span (-1 at top level), ``point`` the id of the workload point
that was running and ``info`` what a hook read from the call's arguments and
result (term counts, the element a transform applies).
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "dfsdist"
EXTERNAL = (("oracle", "expm"),)  # dense matrix exponentials of the oracle


def _transform_info(args, kwargs, result):
    state, transform = args[0], args[1]
    return {"element": transform.name, "terms_in": len(state.terms),
            "terms_out": len(result.terms),
            "truncated": result.truncated_weight}


def _state_info(args, kwargs, result):
    return {"terms_out": len(result.terms)}


def _final_state_info(args, kwargs, result):
    return {"terms_out": len(result[1].terms)}


HOOKS = {
    "fock.apply_transform": _transform_info,
    "fock.tensor": _state_info,
    "sources.spdc_state": _state_info,
    "sources.pair_state": _state_info,
    "sources.coherent_state": _state_info,
    "sources.single_photon_state": _state_info,
    "protocol.prepare_final_state": _final_state_info,
}


class Tracer:
    """Context manager that records a span for every traced call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.point: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.point, None)
            if hook is not None:
                try:
                    info = hook(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    info = None  # the signature changed; keep the timing
                spans[idx] = spans[idx][:5] + (info,)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(PACKAGE)):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        for layer, attr in EXTERNAL:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is not None and hasattr(module, attr):
                obj = getattr(module, attr)
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, f"{layer}.{attr}"))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result
