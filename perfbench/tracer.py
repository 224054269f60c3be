"""Span tracer that wraps tripletlab functions at the names callers bind.

``trainer.py`` does ``from .mining import mine``, so the trainer holds its
own reference and patching ``tripletlab.mining.mine`` would miss every
call it makes. Each :class:`Site` therefore names the module whose global
the caller looks up (``tripletlab.trainer.mine``), and the span it opens
names the layer that defines the function (``mining.mine``).

A span's self time is its duration minus the durations of the wrapped
calls nested inside it. Count hooks read arguments and return values only;
their cost is charged to no span, so it shows as tracing overhead rather
than as work of the enclosing layer.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Site:
    module: str  # module whose global is replaced (where the caller looks)
    attr: str
    span: str | None  # "<layer>.<function>"; None counts without timing
    hook: Callable | None = None  # hook(counts, args, kwargs, result)


def arg(args, kwargs, index, name):
    """Positional-or-keyword argument of a wrapped call."""
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Install with ``with Tracer(sites):``; read the totals afterwards."""

    def __init__(self, sites):
        self.sites = list(sites)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        # inclusive seconds of a span called directly inside another
        self.nested: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.hook_errors: Counter[str] = Counter()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, site: Site, fn):
        stack = self._stack
        self_s, calls, nested = self.self_s, self.calls, self.nested
        counts, hook, span = self.counts, site.hook, site.span

        def run_hook(args, kwargs, result):
            try:
                hook(counts, args, kwargs, result)
            except (AttributeError, TypeError, IndexError, KeyError):
                self.hook_errors[f"{site.module}.{site.attr}"] += 1

        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                t0 = perf_counter()
                run_hook(args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - t0
                return result

            return counted

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[span] += elapsed - frame[1]
                calls[span] += 1
                if stack:
                    nested[(stack[-1][0], span)] += elapsed
            if hook is not None:
                run_hook(args, kwargs, result)
            if stack:
                stack[-1][1] += perf_counter() - t0
            return result

        return traced

    def __enter__(self):
        for site in self.sites:
            module = importlib.import_module(site.module)
            fn = getattr(module, site.attr, None)
            if fn is None:
                self.absent.append(f"{site.module}.{site.attr}")
                continue
            self._saved.append((module, site.attr, fn))
            setattr(module, site.attr, self._wrap(site, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def covered_s(self) -> float:
        """Summed self time of every span: the traced share of a run."""
        return sum(self.self_s.values())
