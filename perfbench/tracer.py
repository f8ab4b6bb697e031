"""In-memory span tracer for the hks benchmark.

The tracer wraps, from outside the package, every public function and
public method defined in each ``hks`` module, plus the transform entry
points of ``numpy.fft`` and ``scipy.fft``.  Names re-bound by
``from ... import`` (``hks.probe.evolve`` is ``hks.solver.evolve``) are
replaced by the same wrapper, so each call yields one span under the
defining module however it was reached.  Functions added to the package
later are traced without editing this file.

A span is ``[id, name, layer, thread, parent, start, end, extra]``.  Each
thread keeps its own stack of open spans.  A span opened on a worker
thread whose stack is empty (a thread-pool task) takes as parent the
innermost span open on the thread that installed the tracer, which is
the thread that submitted the work.  Spans stay in memory until
:meth:`Tracer.dump` writes them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
import time
from collections import defaultdict

COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
REAL_FFTS = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
             "hfft", "ihfft")
FFT_LAYER = "fft"

ID, NAME, LAYER, THREAD, PARENT, START, END, EXTRA = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list] = {}
        self._home = threading.get_ident()
        self._patches: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, extra=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``extra(args, result)`` may return a JSON value kept on the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1][ID]
            elif tid != self._home:
                top = self._stacks.get(self._home, [])[-1:]
                parent = top[0][ID] if top else None
            else:
                parent = None
            span = [next(self._ids), name, layer, tid, parent,
                    time.perf_counter(), None, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapper_for(self, fn, name, layer, extra=None):
        key = id(fn)
        if key not in self._wrappers:
            self._wrappers[key] = (fn, self.wrap(fn, name, layer, extra))
        return self._wrappers[key][1]

    def install(self) -> None:
        """Wrap the FFT entry points and every public function of ``hks``."""
        fft_modules = [importlib.import_module("numpy.fft")]
        try:
            fft_modules.append(importlib.import_module("scipy.fft"))
        except ImportError:
            pass
        for mod in fft_modules:
            for attr in COMPLEX_FFTS + REAL_FFTS:
                fn = mod.__dict__.get(attr)
                if fn is None:
                    continue
                kind = "complex" if attr in COMPLEX_FFTS else "real"
                self._set(mod, attr, self._wrapper_for(
                    fn, f"{mod.__name__}.{attr}", FFT_LAYER,
                    _fft_extra(kind)))

        pkg = importlib.import_module("hks")
        modules = [pkg] + [importlib.import_module(m.name) for m in
                           pkgutil.iter_modules(pkg.__path__, "hks.")]
        # First pass: wrap what each module defines, under its own name.
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    extra = _steps_extra if attr == "evolve" else None
                    self._wrapper_for(obj, f"{layer}.{attr}", layer, extra)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        # Second pass: every module-level binding of a wrapped function,
        # including names imported from sibling modules and numpy.fft.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, entry[1])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(
                    self._wrapper_for(obj.__func__, name, layer)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrapper_for(obj, name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _fft_extra(kind: str):
    def extra(args, result):
        nbytes = getattr(args[0], "nbytes", 0) if args else 0
        return {"kind": kind, "bytes": int(nbytes) + int(getattr(result, "nbytes", 0))}
    return extra


def _steps_extra(args, result):
    return {"steps": len(result.steps)}


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover.

    Children on other threads may overlap each other; the union of their
    intervals is subtracted once, so a parent waiting on a thread pool has
    self time only where no child was running.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START])
            - covered_length(children[s[ID]], s[START], s[END])
            for s in spans}


def _ancestors(spans):
    by_id = {s[ID]: s for s in spans}

    def chain(s):
        p = s[PARENT]
        while p is not None and p in by_id:
            yield by_id[p]
            p = by_id[p][PARENT]
    return chain


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced command run."""
    chain = _ancestors(spans)
    selfs = self_times(spans)

    def outer(name_test):
        """Spans passing ``name_test`` with no ancestor that also passes it."""
        return [s for s in spans if name_test(s[NAME])
                and not any(name_test(a[NAME]) for a in chain(s))]

    def calls(*names):
        return sum(1 for s in spans if s[NAME] in names)

    def incl(*names):
        return sum(s[END] - s[START] for s in outer(lambda n: n in names))

    def self_of(layer):
        return sum(selfs[s[ID]] for s in spans if s[LAYER] == layer)

    ffts = [s for s in spans if s[LAYER] == FFT_LAYER]
    evolves = [s for s in spans if s[NAME] == "solver.evolve"]
    steps = sum(s[EXTRA]["steps"] for s in evolves if s[EXTRA])
    evolve_s = incl("solver.evolve")
    ffts_in_evolve = sum(1 for s in ffts
                         if any(a[NAME] == "solver.evolve" for a in chain(s)))
    store_writes = outer(lambda n: n.startswith("store.ResultStore.write_"))
    return {
        "spectral.fft_calls.complex": sum(1 for s in ffts if s[EXTRA]["kind"] == "complex"),
        "spectral.fft_calls.real": sum(1 for s in ffts if s[EXTRA]["kind"] == "real"),
        "spectral.fft_s": sum(s[END] - s[START] for s in ffts),
        "spectral.fft_bytes": sum(s[EXTRA]["bytes"] for s in ffts),
        "spectral.transform_calls": calls("spectral.transform", "spectral.inverse_transform"),
        "spectral.transform_s": incl("spectral.transform", "spectral.inverse_transform"),
        "spectral.dealiased_product_calls": calls("spectral.dealiased_product"),
        "spectral.dealiased_product_s": incl("spectral.dealiased_product"),
        "solver.evolve_calls": len(evolves),
        "solver.evolve_s": evolve_s,
        "solver.rk4_steps": steps,
        "solver.ffts_per_step": ffts_in_evolve / steps if steps else 0.0,
        "solver.step_s": evolve_s / steps if steps else 0.0,
        "littlewood_paley.lp_block_calls": calls("littlewood_paley.lp_block"),
        "littlewood_paley.lp_block_s": incl("littlewood_paley.lp_block"),
        "littlewood_paley.besov_norm_s": incl("littlewood_paley.besov_norm"),
        "littlewood_paley.commutator_s": incl("littlewood_paley.commutator"),
        "littlewood_paley.make_partition_calls": calls("littlewood_paley.make_partition"),
        "littlewood_paley.smooth_step_calls": calls("littlewood_paley.smooth_step"),
        "littlewood_paley.smooth_step_s": incl("littlewood_paley.smooth_step"),
        "construction.make_initial_data_s": incl("construction.make_initial_data"),
        "probe.self_s": self_of("probe"),
        "cli.self_s": self_of("cli"),
        "store.write_s": sum(s[END] - s[START] for s in store_writes),
        "trace.spans": len(spans),
    }
