"""In-memory span tracer that wraps shlm's public functions from outside.

Nothing under ``src/`` is changed: while a ``Tracer`` is active, every
public function of each traced module is replaced by a wrapper in every
shlm namespace that holds a reference to it (``shlm.predictor.build_mask``
as well as ``shlm.pruning.build_mask``), and a few methods are wrapped on
their class. Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass

LAYERS = ("tensor", "model", "text", "train", "checkpoint", "criteria",
          "pruning", "predictor", "analytics", "cli")

# The tensor primitives (add, matmul, ...) run about sixty times per
# forward; a span on each would cost more than the op it times, so only
# the two whole-tape entry points are traced in that module.
_ONLY = {"tensor": ("backward", "hessian_vector_product")}
# Unit-index arithmetic runs once per unit (2080 units), tens of
# thousands of times per iteration, and would be most of the spans.
_SKIP = {"model": ("num_units", "num_head_units", "unit_at", "unit_index",
                   "all_units")}
# Methods traced on their class. TransformerModel's spans drop the class
# name (model.forward.<capture>, model.stream_nll); others keep it.
_METHODS = {"model": {"TransformerModel": ("forward", "stream_nll", "clone",
                                           "to_dtype")},
            "train": {"AdamW": ("step",)}}


def _assign(holder, key, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run_id: str = ""
    child_s: float = 0.0
    tokens: int = 0
    bytes: int = 0

    @property
    def dur_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur_s - self.child_s


class Tracer:
    """Records nested spans; ``with tracer.patched():`` installs the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""
        self.on_mask = None  # called with (spec, MaskSet) after build_mask

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               run_id=self.run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.dur_s
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        if name == "model.forward":
            @functools.wraps(fn)
            def forward(model, tokens, *args, **kwargs):
                capture = kwargs.get("capture", args[1] if len(args) > 1
                                     else "none")
                idx = tracer.begin(f"model.forward.{capture}")
                try:
                    return fn(model, tokens, *args, **kwargs)
                finally:
                    tracer.end(idx).tokens = len(tokens)
            return forward

        path_arg = {"checkpoint.save_checkpoint": 1,
                    "checkpoint.load_checkpoint": 0}.get(name)
        is_build_mask = name == "pruning.build_mask"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = tracer.end(idx)
            if path_arg is not None:
                span.bytes = os.path.getsize(args[path_arg])
            if is_build_mask and tracer.on_mask is not None:
                tracer.on_mask(args[2], out)
            return out
        return wrapper

    def _targets(self):
        """(owner, attribute, original, span name) for everything traced."""
        for layer in LAYERS:
            mod = importlib.import_module(f"shlm.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr in _ONLY.get(layer, (attr,))
                        and attr not in _SKIP.get(layer, ())):
                    yield mod, attr, obj, f"{layer}.{attr}"
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    name = (f"{layer}.{m}" if cls_name == "TransformerModel"
                            else f"{layer}.{cls_name}.{m}")
                    yield cls, m, cls.__dict__[m], name

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        undo = []
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "shlm" or n.startswith("shlm.")]
        try:
            for owner, attr, orig, name in list(self._targets()):
                wrapped = self._wrap(orig, name)
                holders = [(owner, attr)]
                if inspect.ismodule(owner):
                    holders += [(ns, a) for ns in namespaces
                                for a, v in list(vars(ns).items())
                                if v is orig and ns is not owner]
                    # dispatch tables such as cli._HANDLERS
                    holders += [(table, key) for ns in namespaces
                                for table in list(vars(ns).values())
                                if isinstance(table, dict)
                                for key, v in table.items() if v is orig]
                for holder, a in holders:
                    undo.append((holder, a, orig))
                    _assign(holder, a, wrapped)
            yield self
        finally:
            for holder, a, orig in reversed(undo):
                _assign(holder, a, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run_id": s.run_id,
                    "self_s": s.self_s}) + "\n")
