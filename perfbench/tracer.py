"""Span tracing around the public functions of each pseudoherm module.

The tracer replaces a function by a wrapper in every ``pseudoherm`` module
that binds it (and methods on their class), so calls between modules are
recorded too.  Spans are kept in memory as ``(id, parent, problem, name,
start_ns, end_ns)`` and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

import pseudoherm as ph

# Layer name -> functions recorded under it.  A name with several functions
# (io.serialize) covers the module's whole serialization surface.
LAYERS = {
    "metric.solve_metric_space": [(ph.metric, "solve_metric_space")],
    "metric.find_metric": [(ph.metric, "find_metric")],
    "metric.classify_metric": [(ph.metric, "classify_metric")],
    "metric.residual": [(ph.metric, "residual")],
    "chain.build_chain": [(ph.chain, "build_chain")],
    "chain.chain_via_shift": [(ph.chain, "chain_via_shift")],
    "chain.shift_for_invertibility": [(ph.chain, "shift_for_invertibility")],
    "perturbation.perturb": [(ph.perturbation, "perturb")],
    "perturbation.auto_K": [(ph.perturbation, "auto_K")],
    "quasi.metric_sqrt": [(ph.quasi, "metric_sqrt")],
    "quasi.induced_hamiltonian": [(ph.quasi, "induced_hamiltonian")],
    "weyl.build_shifted_hamiltonian": [(ph.weyl, "build_shifted_hamiltonian")],
    "weyl.boost": [(ph.weyl.WeylPolynomial, "boost")],
    "weyl.adjoint": [(ph.weyl.WeylPolynomial, "adjoint")],
    "weyl.mul": [(ph.weyl.WeylPolynomial, "__mul__")],
    "weyl.check_symbolic": [(ph.weyl, "check_symbolic")],
    "io.parse_matrix": [(ph.io, "parse_matrix")],
    "io.parse_weyl_spec": [(ph.io, "parse_weyl_spec")],
    "io.serialize": [(ph.io, name) for name in (
        "matrix_to_dict", "write_matrix", "basis_to_dict", "chain_to_dict",
        "classification_to_dict", "weyl_terms_to_list")],
    "cli.main": [(ph.cli, "main")],
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.problem = -1
        self.found = 0
        self.terms_out = 0
        self._stack = []
        self._ids = itertools.count(1)
        self._patched = []

    def _wrap(self, layer, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span, parent, self.problem, layer, start, end))
            if layer == "metric.find_metric":
                self.found += result is not None
            elif layer.startswith("weyl."):
                self.terms_out += len(result.terms)
            return result

        return traced

    def install(self):
        """Replace every binding of every traced function by its wrapper."""
        modules = [m for name, m in sys.modules.items()
                   if name == "pseudoherm" or name.startswith("pseudoherm.")]
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                holders = [owner] + [m for m in modules if m is not owner]
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, name, value))
                            setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, value in reversed(self._patched):
            setattr(holder, name, value)
        self._patched.clear()

    def per_layer(self, problems: int) -> dict:
        """calls per list and self time per problem, for every layer."""
        child_ns = {}
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        for span, _, _, layer, start, end in self.spans:
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns.get(span, 0)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_ms"] = (self_ns[layer] / 1e6 / problems, "ms")
        finds = calls["metric.find_metric"]
        out["metric.find_metric.found_share"] = (self.found / finds if finds else 0.0, "share")
        out["weyl.terms_out"] = (self.terms_out, "count")
        return out

    def write(self, path):
        fields = ("id", "parent", "problem", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)
