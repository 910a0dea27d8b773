"""Spans recorded around calls into sgbricks' public functions.

The benchmark wraps each hooked function from outside the package: it
rebinds the name in every loaded ``sgbricks`` module that refers to the
original (``cli`` and ``brickhunt`` import several of them by name), and
restores the originals afterwards.  Spans stay in memory; a span is
``(name, start, end, parent index, pass id, bits)``.  Only single-process
runs are traced, because spans recorded in pool workers would be lost.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# span name -> (module, attribute path) of the public function it wraps
HOOKS = {
    "sgcore.construct": ("sgbricks.sgcore", "NumericalSemigroup.__init__"),
    "sgcore.element_mask": ("sgbricks.sgcore", "NumericalSemigroup.element_mask"),
    "ideal.dual": ("sgbricks.ideal", "RelativeIdeal.dual"),
    "ideal.sum": ("sgbricks.ideal", "RelativeIdeal.__add__"),
    "ideal.brick_check": ("sgbricks.ideal", "brick_check"),
    "balanced.classify": ("sgbricks.balanced", "classify"),
    "brickhunt.search": ("sgbricks.brickhunt", "search"),
    "brickhunt.render": ("sgbricks.brickhunt", "render_reports"),
    "brickhunt.lift": ("sgbricks.brickhunt", "lift"),
    "cli.run": ("sgbricks.cli", "run"),
}


def resolve(module: str, path: str):
    """The object that owns the hooked attribute, and the attribute name."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while installed; ``install`` and ``remove`` bracket
    the traced passes."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.pass_id = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        # element_mask(limit): record the bits the caller asks for
        sized = name == "sgcore.element_mask"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                bits = (args[1] if len(args) > 1 else kwargs["limit"]) + 1 if sized else 0
                spans[idx] = (name, start, end, parent, self.pass_id, bits)

        return traced

    def install(self) -> None:
        for name, (module, path) in HOOKS.items():
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # module-level functions are also bound by name elsewhere
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("sgbricks"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, pass_id: int) -> dict:
        """Per span name: calls, inclusive and self seconds, requested bits
        and the list of inclusive durations, for one traced pass."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[4] == pass_id and span[3] >= 0:
                child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, pid, bits) in enumerate(self.spans):
            if pid != pass_id:
                continue
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                        "bits": 0, "durations": []})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child_time.get(idx, 0.0)
            row["bits"] += bits
            row["durations"].append(end - start)
        return out
