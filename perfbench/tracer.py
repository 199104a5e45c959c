"""Span tracer for the per-layer run, installed from outside the program.

Every public function and method defined in a layer module is replaced by a
wrapper that records a span: its calls, its inclusive duration (for a few
named entry points) and the layer's self time, which is the span's duration
minus the time its child spans cover.  Names that other modules bound with
`from ... import` are rebound too, so `fixpt.inverse` is traced as
`modmath.inverse`.  Nothing in the program changes; `uninstall` restores the
original objects.

Spans are aggregated as they close rather than stored one by one: a pipeline
run makes millions of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# The program's modules, one layer each.  mhkm has no workload: no CLI or
# pipeline path calls it, and its cost is btg sessions.
LAYERS = ("modmath", "net", "btg", "dispense", "spdz", "fixpt", "gwas", "cli")

# Entry points whose inclusive span durations are kept for percentiles.
KEEP_DURATIONS = frozenset({
    "btg.run_triple_session",
    "gwas.residual_norm_sq",
    "gwas.secure_accept_bit",
    "gwas.secure_inflation_factor",
    "gwas.filter_controls",
    "cli.main",
})


def _send_bytes(amounts, args, kwargs, result):
    amounts["net.bytes"] += len(result.payload)


def _pump_rounds(amounts, args, kwargs, result):
    if result > 0:
        amounts["net.rounds"] += 1


def _opened_values(amounts, args, kwargs, result):
    amounts["spdz.opened_values"] += len(result)


def _batch_products(amounts, args, kwargs, result):
    amounts["fixpt.batch_products"] += len(result)


# Quantities read off a call's result: payload bytes passed to Runtime.send,
# pump calls that delivered at least one message, values per opening, and
# products per batched Beaver multiplication.
OBSERVERS = {
    "net.Runtime.send": _send_bytes,
    "net.Runtime.pump": _pump_rounds,
    "spdz.open_values": _opened_values,
    "fixpt.beaver_mult_batch": _batch_products,
}


class Tracer:
    """Layer spans and counts; records only while `active` is true."""

    def __init__(self):
        self.active = False
        self.calls = Counter()             # "layer.name" -> calls
        self.amounts = Counter()           # see OBSERVERS
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.durations = defaultdict(list)  # KEEP_DURATIONS -> seconds
        self._stack = []                   # child seconds of each open span
        self._patched = []

    def _wrap(self, fn, key, layer):
        tracer = self
        stack = self._stack
        observe = OBSERVERS.get(key)
        keep = key in KEEP_DURATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer.self_s[layer] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                tracer.calls[key] += 1
                if keep:
                    tracer.durations[key].append(dur)
            if observe is not None:
                observe(tracer.amounts, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module("spdzgen." + layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, "%s.%s" % (layer, name), layer))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, "%s.%s" % (layer, name), layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "spdzgen" and not modname.startswith("spdzgen."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        return self

    def _wrap_methods(self, cls, prefix, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = "%s.%s" % (prefix, name)
            if isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(attr.__func__, key, layer)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, key, layer))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def counts(self) -> dict:
        """The deterministic counts that every unit of work must repeat."""
        c, a = self.calls, self.amounts
        return {
            "bytes": a["net.bytes"],
            "rounds": a["net.rounds"],
            "messages": c["net.Runtime.send"],
            "modexp": c["modmath.modexp"],
            "member_checks": c["modmath.is_subgroup_member"],
            "inverses": c["modmath.inverse"],
            "btg_sessions": c["btg.run_triple_session"],
            "dispensed": c["dispense.TripleDispenser.next_triple"],
            "spent": c["spdz.TripleLedger.spend"],
            "openings": c["spdz.open_values"],
            "truncs": c["fixpt.trunc"],
        }


# Tracer counts that must equal a counter the program keeps itself.
RECONCILED = {
    "modexp": "modmath.modexp",
    "messages": "net.Runtime.send",
    "minted": "dispense.TripleDispenser.next_triple",
    "spent": "spdz.TripleLedger.spend",
}
