"""Spans around the library's public functions, and the per-layer figures
derived from them.

A Tracer wraps every public, non-generator function of each layer module in
every mosaic_lab namespace that binds it (so `equivalence.verify_lmosaic` is
traced as well as `hyperstructure.verify_lmosaic`).  Each call records a span
with its parent; spans stay in memory until the benchmark writes them out.
Functions of bits.py and errors.py, private helpers, methods and
constructors are not wrapped: their time counts as the calling layer's.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("catalog", "lattice_core", "nakano", "hyperstructure", "equivalence", "io")


def _triples_examined(args, report) -> int:
    """Position of the witness in lexicographic order, or n^3 when the law holds."""
    n = args[0].size
    if report.holds:
        return n ** 3
    x, y, z = report.witness
    return x * n * n + y * n + z + 1


# metric -> (kind, functions): "time" sums the spans of the functions that
# run outside another span of the same metric, "calls" counts those spans,
# "sum" adds up VALUES over them, "self" is the layer's self time.
METRICS = {
    "catalog.self_s": ("self", "catalog"),
    "catalog.enumerate_lattices_s": ("time", ("catalog.enumerate_lattices",)),
    "catalog.enumerate_ortholattices_s": ("time", ("catalog.enumerate_ortholattices",)),
    "catalog.enumerate_lattices_calls": ("calls", ("catalog.enumerate_lattices",)),
    "catalog.classes": ("sum", ("catalog.census",)),
    "catalog.ortho_pairs": ("sum", ("catalog.enumerate_ortholattices",)),
    "lattice_core.self_s": ("self", "lattice_core"),
    "lattice_core.build_s": ("time", ("lattice_core.build_from_covers", "lattice_core.from_leq",
                                      "lattice_core.sublattice")),
    "lattice_core.builds": ("calls", ("lattice_core.build_from_covers", "lattice_core.from_leq",
                                      "lattice_core.sublattice")),
    "lattice_core.orthocomplementations_s": ("time", ("lattice_core.orthocomplementations",)),
    "lattice_core.orthocomplements": ("sum", ("lattice_core.orthocomplementations",)),
    "lattice_core.automorphisms_s": ("time", ("lattice_core.lattice_automorphisms",)),
    "lattice_core.modular_s": ("time", ("lattice_core.is_modular",)),
    "lattice_core.modular_triples": ("sum", ("lattice_core.is_modular",)),
    "lattice_core.om_equivalences_s": ("time", ("lattice_core.check_om_equivalences",)),
    "nakano.self_s": ("self", "nakano"),
    "nakano.build_s": ("time", ("nakano.additive_nakano", "nakano.multiplicative_nakano")),
    "nakano.mosaics": ("calls", ("nakano.additive_nakano", "nakano.multiplicative_nakano")),
    "nakano.cells": ("sum", ("nakano.additive_nakano", "nakano.multiplicative_nakano")),
    "nakano.properties_s": ("time", ("nakano.nakano_property_reports",)),
    "hyperstructure.self_s": ("self", "hyperstructure"),
    "hyperstructure.verify_mosaic_s": ("time", ("hyperstructure.verify_mosaic",)),
    "hyperstructure.verify_mosaic_calls": ("calls", ("hyperstructure.verify_mosaic",)),
    "hyperstructure.verify_lmosaic_s": ("time", ("hyperstructure.verify_lmosaic",)),
    "hyperstructure.verify_lmosaic_calls": ("calls", ("hyperstructure.verify_lmosaic",)),
    "hyperstructure.associative_s": ("time", ("hyperstructure.is_associative",)),
    "hyperstructure.associative_triples": ("sum", ("hyperstructure.is_associative",)),
    "equivalence.self_s": ("self", "equivalence"),
    "equivalence.functor_s": ("time", ("equivalence.functor_E",)),
    "equivalence.reconstruct_s": ("time", ("equivalence.reconstruct_lattice",
                                           "equivalence.reconstruct_from")),
    "equivalence.reconstruct_calls": ("calls", ("equivalence.reconstruct_lattice",
                                                "equivalence.reconstruct_from")),
    "equivalence.om_mosaic_s": ("time", ("equivalence.is_orthomodular_mosaic",)),
    "equivalence.polygroup_s": ("time", ("equivalence.generated_polygroup_check",)),
    "equivalence.polygroup_checks": ("calls", ("equivalence.generated_polygroup_check",)),
    "equivalence.transfer_s": ("time", ("equivalence.morphism_transfer_check",)),
    "equivalence.transfer_maps": ("calls", ("equivalence.morphism_transfer_check",)),
    "io.self_s": ("self", "io"),
    "io.parse_s": ("time", ("io.parse_lattice_json", "io.lattice_from_doc",
                            "io.parse_table_json", "io.table_from_doc")),
    "io.render_s": ("time", ("io.lattice_to_doc", "io.table_doc_from_mosaic",
                             "io.table_doc_to_json", "io.render_table_ascii")),
}

# what a span of these functions adds to its "sum" metric
VALUES = {
    "catalog.census": lambda args, out: len(out),
    "catalog.enumerate_ortholattices": lambda args, out: len(out),
    "lattice_core.orthocomplementations": lambda args, out: len(out),
    "lattice_core.is_modular": _triples_examined,
    "hyperstructure.is_associative": _triples_examined,
    "nakano.additive_nakano": lambda args, out: args[0].size ** 2,
    "nakano.multiplicative_nakano": lambda args, out: args[0].size ** 2,
}


def _groups() -> dict[str, str]:
    """function -> the one timed group it belongs to."""
    out = {}
    for metric, (kind, funcs) in METRICS.items():
        if kind == "time":
            for f in funcs:
                assert f not in out, f"{f} is in two timed groups"
                out[f] = metric
    return out


GROUP_OF = _groups()


class Tracer:
    """Wraps the library while installed; spans accumulate in memory.

    A span is (key, parent index, start, end, self seconds, outermost in its
    group, value); the parent index is -1 at top level.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[list] = []  # [span index, child seconds]
        self._depth = {metric: 0 for metric in set(GROUP_OF.values())}
        self._patched: list[tuple] = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and name.split(".")[0] == "mosaic_lab"]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"mosaic_lab.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        spans, open_spans, depth = self.spans, self._open, self._depth
        group = GROUP_OF.get(key)
        value_of = VALUES.get(key)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1][0] if open_spans else -1
            outermost = group is None or depth[group] == 0
            if group is not None:
                depth[group] += 1
            spans.append(None)
            open_spans.append([index, 0.0])
            start = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                _, child = open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += end - start
                if group is not None:
                    depth[group] -= 1
                value = value_of(args, out) if value_of is not None and out is not None else 0
                spans[index] = (key, parent, start, end, end - start - child, outermost, value)

        traced.__wrapped__ = fn
        return traced


def layer_figures(spans) -> dict[str, float]:
    """Every METRICS figure over a list of closed spans."""
    out = {metric: 0 for metric in METRICS}
    layer_metric = {layer: m for m, (kind, layer) in METRICS.items() if kind == "self"}
    by_func: dict[str, list[str]] = {}
    for metric, (kind, funcs) in METRICS.items():
        if kind != "self":
            for f in funcs:
                by_func.setdefault(f, []).append(metric)
    for key, _parent, start, end, self_s, outermost, value in spans:
        out[layer_metric[key.split(".", 1)[0]]] += self_s
        if not outermost:
            continue
        for metric in by_func.get(key, ()):
            kind = METRICS[metric][0]
            if kind == "time":
                out[metric] += end - start
            elif kind == "calls":
                out[metric] += 1
            else:
                out[metric] += value
    return out
