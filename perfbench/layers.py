"""Per-layer tracing of sccckit by module, without touching the package.

Each traced call runs under ``cProfile``, whose per-function self time
and per-caller edges are then summed by layer.  A layer is the ``sccckit``
module that defines the called function (dataclass-generated methods count
for the module that defines the class); everything in the numpy package,
and every numpy builtin or ndarray method, is the ``numpy`` layer.  Time in
any other code, such as ``json`` or ``argparse``, goes to the layer that
called it, split by caller where there are several, so ``report`` includes
the JSON encoding it drives and ``cli`` the argument parsing.

numpy ufuncs (``np.matmul``, ``np.conjugate``, array operators) emit no
profile event.  Called directly from sccckit code, their time stays with the
caller.  The semiring kernels are the exception: while traced, each kernel
field of the shipped semirings is wrapped, so a kernel that is a numpy
function is charged to ``numpy`` and one that sccckit defines to
``semirings``.  The wrappers also count kernel calls, the time spent under
them, and ``semirings.bytes_out``, which is computed from the sizes of the
arrays they return.  ``np.random.default_rng`` is wrapped the same way to
count random streams.  Every wrapper is removed when the traced call ends.

Counts come from the profiler's call counts of named functions and from the
public ``cache_info()`` of the ``normalize`` and ``dim`` caches, so for a
given sequence of ops they repeat exactly.  Self times include the
profiler's cost per call; ``trace.overhead_ratio`` states how far.
"""
from __future__ import annotations

import cProfile
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("objects", "morphisms", "semirings", "numpy", "core", "ortho",
          "models", "wproj", "born", "protocols", "suites", "report", "cli")
HARNESS = "harness"
KERNEL_FIELDS = ("matmul", "kron", "scale", "involution")


def _functions_of(cls):
    for attr in vars(cls).values():
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        elif isinstance(attr, property):
            attr = attr.fget
        code = getattr(attr, "__code__", None)
        if code is not None:
            yield attr.__name__, code


class LayerTracer:
    """Accumulates per-layer self time and call counts over traced calls."""

    def __init__(self, sccckit) -> None:
        import numpy
        from sccckit import (born, cli, core, models, morphisms, objects,
                             ortho, protocols, report, semirings, suites,
                             wproj)
        self._np = numpy
        self._semirings = (semirings.COMPLEX, semirings.BOOLEAN, semirings.NONNEG)
        self._caches = (objects.normalize, objects.dim)
        self._pkg_dir = str(Path(sccckit.__file__).resolve().parent)
        self._numpy_dir = str(Path(numpy.__file__).resolve().parent)
        self._bench_dir = str(Path(__file__).resolve().parent)
        self.self_s = dict.fromkeys(LAYERS + (HARNESS,), 0.0)
        self.counts = Counter()
        self.kernel_s = 0.0
        self.bytes_out = 0
        self.cache_hits = 0
        self.cache_lookups = 0

        # Layer of each function whose code does not live in its module's file.
        self._layer = {}
        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
            born, cli, core, models, morphisms, objects, ortho, protocols,
            report, semirings, suites, wproj)}
        for layer, mod in modules.items():
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    for _, code in _functions_of(cls):
                        self._layer[code] = layer

        # Functions whose calls are counted, by code object.
        counted = {}
        for cls in (objects.Unit, objects.Zero, objects.Gen, objects.Dual,
                    objects.Tensor, objects.Oplus):
            counted[cls.__hash__.__code__] = "objects.hash_calls"
        counted[morphisms.Morphism.__init__.__code__] = "morphisms.constructed"
        counted[morphisms.compose.__code__] = "morphisms.compose_calls"
        counted[morphisms.tensor.__code__] = "morphisms.tensor_calls"
        counted[core.name.__code__] = "core.name_calls"
        counted[core.trace.__code__] = "core.trace_calls"
        counted[ortho.derived_sum.__code__] = "ortho.derived_sum_calls"
        counted[ortho.pseudo_projection.__code__] = "ortho.pseudo_map_calls"
        counted[ortho.pseudo_injection.__code__] = "ortho.pseudo_map_calls"
        for name, code in _functions_of(models.ModelHandle):
            if name.startswith("sample_"):
                counted[code] = "models.sample_calls"
        counted[wproj.lift.__code__] = "wproj.lift_calls"
        counted[wproj.wequal.__code__] = "wproj.wequal_calls"
        counted[wproj.WProjModel.scalar_value.__code__] = "wproj.scalar_value_calls"
        counted[born.valuation_norm.__code__] = "born.valuation_calls"
        counted[born.scalar_sum.__code__] = "born.scalar_sum_calls"
        counted[protocols.bell_teleportation_setup.__code__] = "protocols.setup_calls"
        counted[protocols.run_teleportation.__code__] = "protocols.teleport_calls"
        self._counted = counted

        self._numpy_kernel, self._sccckit_kernel, self._rng = self._make_wrappers()
        # All closures of one factory share a code object.  A wrapper around
        # a numpy kernel is numpy time; one around a sccckit kernel passes its
        # small cost to the caller, and the wrapped function is profiled itself.
        numpy_code = self._numpy_kernel("", None).__code__
        sccckit_code = self._sccckit_kernel("", None).__code__
        self._layer[numpy_code] = "numpy"
        self._layer[sccckit_code] = None
        self._layer[self._rng(None).__code__] = "numpy"
        self._kernel_codes = {numpy_code, sccckit_code}

    # -- wrappers installed only while tracing --------------------------------

    def _make_wrappers(self):
        tracer = self
        asarray = self._np.asarray

        def kernel_done(out):
            nbytes = getattr(out, "nbytes", None)
            tracer.bytes_out += asarray(out).nbytes if nbytes is None else nbytes
            return out

        def numpy_kernel(field, fn):
            def kernel(*args):
                tracer.counts[f"kernel.{field}"] += 1
                return kernel_done(fn(*args))
            return kernel

        def sccckit_kernel(field, fn):
            def kernel(*args):
                tracer.counts[f"kernel.{field}"] += 1
                return kernel_done(fn(*args))
            return kernel

        def rng(fn):
            def default_rng(*args, **kwargs):
                tracer.counts["suites.rng_streams"] += 1
                return fn(*args, **kwargs)
            return default_rng

        return numpy_kernel, sccckit_kernel, rng

    def _install(self):
        saved = []
        for s in self._semirings:
            for field in KERNEL_FIELDS:
                fn = getattr(s, field)
                defined_here = getattr(fn, "__module__", "") == "sccckit.semirings"
                wrap = self._sccckit_kernel if defined_here else self._numpy_kernel
                saved.append((s, field, fn))
                object.__setattr__(s, field, wrap(field, fn))
        saved.append((self._np.random, "default_rng", self._np.random.default_rng))
        self._np.random.default_rng = self._rng(self._np.random.default_rng)
        return saved

    @staticmethod
    def _restore(saved):
        for obj, field, fn in reversed(saved):
            object.__setattr__(obj, field, fn)

    # -- attribution -----------------------------------------------------------

    def _layer_of(self, code):
        """The layer of a profiled function, or None for code of no layer.

        ``code`` is a code object, or for a builtin the profiler's text for
        it, such as "<method 'reshape' of 'numpy.ndarray' objects>".
        """
        layer = self._layer.get(code, False)
        if layer is not False:
            return layer
        if isinstance(code, str):
            layer = "numpy" if "numpy" in code else None
        elif code.co_filename.startswith(self._pkg_dir):
            stem = Path(code.co_filename).stem
            layer = stem if stem in LAYERS else None
        elif code.co_filename.startswith(self._numpy_dir):
            layer = "numpy"
        elif code.co_filename.startswith(self._bench_dir):
            layer = HARNESS
        else:
            layer = None
        self._layer[code] = layer
        return layer

    def call(self, fn, *args):
        """Run fn(*args) under the profiler and return its result."""
        info = [c.cache_info() for c in self._caches]
        saved = self._install()
        profiler = cProfile.Profile()
        try:
            return profiler.runcall(fn, *args)
        finally:
            self._restore(saved)
            for cache, before in zip(self._caches, info):
                after = cache.cache_info()
                self.cache_hits += after.hits - before.hits
                self.cache_lookups += (after.hits + after.misses
                                       - before.hits - before.misses)
            self._absorb(profiler.getstats())

    def _absorb(self, stats) -> None:
        """Add one profile's self times and call counts to the totals."""
        layer = self._layer_of
        incoming = defaultdict(list)        # callee -> [(caller, self s, total s)]
        for e in stats:
            for sub in e.calls or ():
                incoming[sub.code].append((e.code, sub.inlinetime, sub.totaltime))

        memo = {}

        def shares(code):
            """How time spent for code splits over layers, through its callers."""
            own = layer(code)
            if own is not None:
                return {own: 1.0}
            if code in memo:
                return memo[code]
            memo[code] = {}             # a call cycle back to code adds nothing
            edges = incoming.get(code, ())
            total = sum(t for _, _, t in edges)
            out = Counter()
            for caller, _, t in edges:
                weight = t / total if total else 1 / len(edges)
                for name, f in shares(caller).items():
                    out[name] += weight * f
            memo[code] = dict(out) or {HARNESS: 1.0}
            return memo[code]

        for e in stats:
            name = self._counted.get(e.code)
            if name is not None:
                self.counts[name] += e.callcount
            if e.code in self._kernel_codes:
                self.kernel_s += e.totaltime
            own = layer(e.code)
            if own is not None:
                self.self_s[own] += e.inlinetime
                continue
            edges = incoming.get(e.code)
            if not edges:
                self.self_s[HARNESS] += e.inlinetime
            for caller, inline, _ in edges or ():
                for name, f in shares(caller).items():
                    self.self_s[name] += inline * f

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over everything traced so far, as (value, unit)."""
        c = self.counts
        kernel_calls = sum(c[f"kernel.{f}"] for f in KERNEL_FIELDS)
        lifts = c["wproj.lift_calls"]
        doubled_reads = 2 * c["wproj.wequal_calls"] + c["wproj.scalar_value_calls"]
        teleports = c["protocols.teleport_calls"]
        out = {
            "objects.hash_calls": (c["objects.hash_calls"], "count"),
            "objects.cache_hit_ratio": (
                self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0,
                "ratio"),
            "morphisms.constructed": (c["morphisms.constructed"], "count"),
            "morphisms.compose_calls": (c["morphisms.compose_calls"], "count"),
            "morphisms.tensor_calls": (c["morphisms.tensor_calls"], "count"),
            "semirings.kernel_calls": (kernel_calls, "count"),
            "semirings.kernel_s": (self.kernel_s, "s"),
            "semirings.bytes_out": (self.bytes_out, "B"),
            "core.name_calls": (c["core.name_calls"], "count"),
            "core.trace_calls": (c["core.trace_calls"], "count"),
            "ortho.derived_sum_calls": (c["ortho.derived_sum_calls"], "count"),
            "ortho.pseudo_map_calls": (c["ortho.pseudo_map_calls"], "count"),
            "models.sample_calls": (c["models.sample_calls"], "count"),
            "wproj.lift_calls": (lifts, "count"),
            "wproj.wequal_calls": (c["wproj.wequal_calls"], "count"),
            "wproj.doubled_used_ratio": (doubled_reads / lifts if lifts else 0.0, "ratio"),
            "born.valuation_calls": (c["born.valuation_calls"], "count"),
            "born.scalar_sum_calls": (c["born.scalar_sum_calls"], "count"),
            "protocols.setup_per_teleport": (
                c["protocols.setup_calls"] / teleports if teleports else 0.0, "ratio"),
            "suites.rng_streams": (c["suites.rng_streams"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out
