"""Per-layer tracing by wrapping the program's functions from outside.

``install`` replaces each listed function with a wrapper that records its
call count and self time (its duration minus the time spent in traced
functions it called). It patches the defining module or class and every
name in the program's other modules bound to the same function object, so
calls through ``from module import name`` are traced too. ``uninstall``
puts the originals back.
"""

import functools
import sys
import time
from collections import Counter

# layer -> function names (Class.method for methods); metric names are
# <layer>.<function>.calls and <layer>.<function>.self_ms
TRACED = {
    "matcore": ["lup", "solve", "inv", "triangular_inverse", "triangular_eigvecs", "eig",
                "svd_small"],
    "coupling": ["as_matrix", "apply", "invert", "jacobian", "mlp_forward", "mlp_backward",
                 "sequence_to_json", "sequence_from_json"],
    "decomposer": ["decompose", "permutation_layers", "triangular_layers", "block_diag_layers"],
    "certificates": ["certify_not_a4", "schur_complement"],
    "trainer": ["train_pln", "train_nvp_mle", "PlnModel.forward", "PlnModel.backward",
                "AdamState.update", "AdamList.update"],
    "metrics": ["empirical_wasserstein"],
    "universal": ["LatticeNet.apply", "PaddedNet.apply"],
    "separation": ["SelectorNet.evaluate"],
}

# (outer, inner): calls of inner made while outer is running
NESTED = {"certificates.lup_per_certify": ("certificates.certify_not_a4", "matcore.lup")}

PACKAGE = "couplingflow"


def traced_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.nested = Counter()
        self._open = Counter()   # traced names currently running
        self._stack = []         # [start, time spent in traced callees]
        self._patches = []       # (owner, attribute, original)

    def wrap(self, name, fn):
        calls, self_s, stack, open_names = self.calls, self.self_s, self._stack, self._open
        pairs = [(key, outer) for key, (outer, inner) in NESTED.items() if inner == name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            for key, outer in pairs:
                if open_names[outer]:
                    self.nested[key] += 1
            open_names[name] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                open_names[name] -= 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer, fns in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self.wrap(name, original))
                    continue
                original = getattr(module, fn_name)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self, rounds: int) -> dict:
        """Per-round call counts and self times, plus the nested-call ratios."""
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = {"value": self.calls[name] / rounds, "unit": "calls/round"}
            out[f"{name}.self_ms"] = {"value": self.self_s[name] * 1e3 / rounds, "unit": "ms/round"}
        for key, (outer, _) in NESTED.items():
            ratio = self.nested[key] / self.calls[outer] if self.calls[outer] else 0.0
            out[key] = {"value": ratio, "unit": "lup/call"}
        return out
