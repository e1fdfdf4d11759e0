"""The traced benchmark's hooks into the package.

``perfbench/layers.py`` counts calls by the code objects of named functions
and reads the ``normalize``/``dim`` caches.  Building its tracer fails as
soon as one of them is renamed or removed, so a break shows up here rather
than only in a ``--trace 1`` run.
"""

from pathlib import Path

import numpy as np

import sccckit
from sccckit import (COMPLEX, UNIT, Gen, Morphism, Tensor, core, ortho,
                     protocols, wequal)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_tracer_finds_its_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import LayerTracer

    tracer = LayerTracer(sccckit)
    q = Gen("Q", 2)
    f = Morphism(q, q, np.array([[1, 2], [3, 4]]), COMPLEX)
    # wequal lifts each side to a matrix and builds no tensor arrow, so
    # core.double supplies the tensor calls counted here
    assert tracer.call(wequal, f, f)
    tracer.call(core.double, f)
    metrics = tracer.metrics()
    assert metrics["wproj.wequal_calls"][0] == 1
    assert metrics["wproj.lift_calls"][0] == 2
    assert metrics["morphisms.tensor_calls"][0] > 0
    assert metrics["semirings.kernel_calls"][0] > 0
    assert metrics["objects.cache_hit_ratio"][0] > 0
    # counted through cls.__hash__.__code__: object hashing that bypasses
    # that method reads 0 here
    assert metrics["objects.hash_calls"][0] > 0


def test_layer_tracer_still_counts_memoized_entry_points(monkeypatch):
    # pseudo_projection, pseudo_injection and bell_teleportation_setup are
    # counted by their code objects, so a cache wrapper around one of them
    # would hide its calls; the teleport builds its set-up exactly once
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import LayerTracer

    tracer = LayerTracer(sccckit)
    assert tracer.call(protocols.run_teleportation).ok
    tracer.call(ortho.pseudo_projection, ortho.decomposition(UNIT, UNIT), 0, COMPLEX)
    metrics = tracer.metrics()
    assert metrics["ortho.pseudo_map_calls"][0] > 0
    assert metrics["protocols.setup_per_teleport"][0] == 1.0


def test_layer_tracer_counts_sums_and_traces_behind_their_cached_legs(monkeypatch):
    # derived_sum and trace are counted by their code objects while their
    # array-free legs come from caches; the calls must still show
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import LayerTracer

    tracer = LayerTracer(sccckit)
    q = Gen("Q", 2)
    f = Morphism(q, q, np.array([[1, 2], [3, 4]]), COMPLEX)
    tracer.call(ortho.derived_sum, f, f)
    tracer.call(core.trace, f)
    g = Morphism(Tensor(q, UNIT), Tensor(q, q), np.arange(8).reshape(4, 2), COMPLEX)
    tracer.call(core.partial_trace, g, q)
    metrics = tracer.metrics()
    assert metrics["ortho.derived_sum_calls"][0] == 1
    assert metrics["core.trace_calls"][0] == 1
    assert metrics["morphisms.compose_calls"][0] > 0
