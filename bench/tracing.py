"""Outside-in span tracer for pllab.

The tracer wraps pllab's public functions (and the scipy entry points the
modules import) from outside the package: nothing inside ``src/pllab``
changes.  Each wrapped call records one span - name, parent span, start,
end and an optional count (points evaluated, variates drawn, integrand or
root-function evaluations).  Spans stay in memory in compact arrays and are
aggregated, or written out, when the traced work is over.  Self time is a
span's duration minus the durations of its child spans.

``Tracer.install()`` patches every wrapper in and ``Tracer.uninstall()``
puts the original objects back; untraced runs never install any.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("distributions", "selection", "policies", "environments", "harness", "duality", "cli")

# scipy entry points, wrapped where the named pllab module imported them;
# the first positional argument is the function they evaluate
SCIPY_ENTRY_POINTS = (("selection", "quad"), ("policies", "brentq"), ("duality", "brentq"))

# perturbation-law methods, wrapped on every class that defines them
LAW_METHODS = ("cdf", "pdf", "pdf_prime", "sample_array")


def _points(args, kwargs, result):
    return float(np.size(args[1]))


def _draws(args, kwargs, result):
    return float(np.prod(args[1], dtype=np.int64))


def _components(args, kwargs, result):
    return float(np.size(args[0]))


class Tracer:
    """Records spans around pllab calls while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None, evals=False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(args, kwargs, result)`` gives the span's count; with
        ``evals`` the first argument is a function and the count is the
        number of times the call evaluated it.
        """
        nid = self._id(name)
        ids, parents, starts, ends, counts = self.name_id, self.parent, self.start, self.end, self.count
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if evals:
                inner, cell = args[0], [0]

                def counted(*a):
                    cell[0] += 1
                    return inner(*a)

                args = (counted, *args[1:])
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            counts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if evals:
                counts[idx] = cell[0]
            elif count is not None:
                counts[idx] = count(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, count=None, evals=False):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count=count, evals=evals))

    # -- installing on pllab --------------------------------------------------

    def install(self):
        """Wrap the public functions of every pllab module; returns self."""
        import importlib

        from pllab.distributions import PerturbationDistribution

        mods = {m: importlib.import_module(f"pllab.{m}") for m in MODULES}
        counters = {
            "distributions.cdf": _points,
            "distributions.pdf": _points,
            "distributions.pdf_prime": _points,
            "distributions.sample_array": _draws,
            "selection.phi_quadrature": _components,
            "policies.geometric_resample": self._resample_count,
        }
        for mname, mod in mods.items():
            public = [
                (fname, fn) for fname, fn in vars(mod).items()
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not fname.startswith("_")
            ]
            for fname, fn in public:
                span = f"{mname}.{fname}"
                # patch every module-level alias too (``from .x import f``)
                for holder in mods.values():
                    if holder.__dict__.get(fname) is fn:
                        self.patch(holder, fname, span, count=counters.get(span))
        law_classes = [
            c for c in vars(mods["distributions"]).values()
            if isinstance(c, type) and issubclass(c, PerturbationDistribution)
        ]
        for cls in law_classes:
            for meth in LAW_METHODS:
                if meth in cls.__dict__:
                    span = f"distributions.{meth}"
                    self.patch(cls, meth, span, count=counters.get(span))
        for mname, attr in SCIPY_ENTRY_POINTS:
            self.patch(mods[mname], attr, f"{mname}.{attr}", evals=True)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _resample_count(self, args, kwargs, result):
        if result >= max(1, args[0].cap()):
            self.extra["policies.geometric_resample.cap_hits"] += 1.0
        return float(result)

    # -- aggregation ----------------------------------------------------------

    def arrays(self):
        """The spans as numpy arrays: (name_id, parent, start, end, count)."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.count, dtype=np.float64).copy(),
        )

    def stats(self):
        """Per span name: calls, total_s, self_s, count; plus per (parent, child) pair.

        Returns (by_name, by_edge) where by_edge[(parent_name, child_name)]
        holds the same fields for spans whose direct parent has parent_name.
        """
        nid, parent, start, end, count = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        n = len(self.names)
        fields = {
            "calls": np.bincount(nid, minlength=n).astype(float),
            "total_s": np.bincount(nid, weights=dur, minlength=n),
            "self_s": np.bincount(nid, weights=self_t, minlength=n),
            "count": np.bincount(nid, weights=count, minlength=n),
        }
        by_name = {name: {k: float(v[i]) for k, v in fields.items()} for i, name in enumerate(self.names)}
        pid = np.where(has_parent, nid[np.maximum(parent, 0)], n)  # n = no parent
        edge = pid.astype(np.int64) * (n + 1) + nid
        by_edge = {}
        for key in np.unique(edge[has_parent]):
            sel = edge == key
            p, c = divmod(int(key), n + 1)
            by_edge[(self.names[p], self.names[c])] = {
                "calls": float(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
                "count": float(count[sel].sum()),
            }
        return by_name, by_edge

    def save(self, path):
        """Write the spans (compressed numpy archive) for offline inspection."""
        nid, parent, start, end, count = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=nid, parent=parent,
            start=start - t0, end=end - t0, count=count,
        )
