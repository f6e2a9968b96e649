"""Spans around the calls that enter a layer of the package.

`Tracer.install()` wraps each traced function of `opetopes.cli`,
`opetope`, `opset`, `oalg` and `theory` in place, in its own module and
in every module namespace that bound it with `from ... import`.  A
wrapper records a span only when its caller lives in another module, so
a layer's calls into itself stay part of that layer's self time.  Spans
are kept in memory as [name, parent, start, end, info, flags] and
shipped out when the job list ends; `layer_metrics` turns them into the
per-layer numbers.

Nothing here changes what a traced function returns or raises.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("main",),
    "opetope": (
        "parse", "render", "target", "validate", "check_identities", "faces", "hom",
        "enumerate_opetopes",
    ),
    "opset": (
        "load_opset", "dump_opset", "spine", "boundary", "validate_opset", "maps",
        "orthogonal_witness", "hlift_check",
    ),
    "oalg": (
        "parse_category", "category_algebra", "check_algebra_laws", "free_cells",
        "nerve_category", "nerve_axioms_check",
    ),
    "theory": (
        "parse_theory", "parse_model", "parse_context", "check_model", "signature_to_lfd",
        "validate_lfd", "lfd_to_signature", "cat_isomorphic", "realize_bindings",
        "presheaf_to_context", "psh_isomorphism",
    ),
}
LAYERS = ("opetope", "opset", "oalg", "theory")
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# calls whose first argument (with the window, for spine) is remembered,
# so a call on an argument already seen in the run counts as a repeat
REPEATS = ("opetope.target", "opetope.faces", "opset.spine")
# bucket edges of the node count of target's argument
TARGET_BUCKETS = ((0, 63, "n0-63"), (64, 127, "n64-127"), (128, None, "n128up"))

REPEAT, RAISED = 1, 2


def _info_before(name: str, args) -> int:
    if name == "opetope.target":
        return len(getattr(args[0], "nodes", ()))
    return -1


def _info_after(name: str, result) -> int:
    if name == "opset.maps":
        return len(result)
    if name == "oalg.check_algebra_laws":
        return result.squares_checked
    if name == "theory.check_model":
        return sum(e.checked for e in result.equations)
    return -1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.seen: dict[int, set] = {}
        self.wrappers: dict[str, object] = {}
        self.patched: list[tuple[dict, str, object]] = []

    def wrap(self, nid: int, fn):
        """A wrapper recording one span per call from outside fn's module."""
        name = NAMES[nid]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        home = fn.__globals__
        getframe = sys._getframe
        seen = self.seen.setdefault(nid, set()) if name in REPEATS else None
        needs_after = name in ("opset.maps", "oalg.check_algebra_laws", "theory.check_model")

        def traced(*args, **kwargs):
            if getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            span = [nid, stack[-1], 0.0, 0.0, _info_before(name, args), 0]
            if seen is not None:
                key = args[0] if name != "opset.spine" else (args[0], args[1] if len(args) > 1 else kwargs.get("window"))
                if key in seen:
                    span[5] = REPEAT
                else:
                    seen.add(key)
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                span[5] |= RAISED
                stack.pop()
                raise
            span[3] = clock()
            stack.pop()
            if needs_after:
                span[4] = _info_after(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every traced function of `modules` (short name -> module)
        wherever a module of the package binds it."""
        originals = {}
        for nid, name in enumerate(NAMES):
            mod, fn = name.split(".")
            original = getattr(modules[mod], fn)
            originals[id(original)] = self.wrap(nid, original)
            self.wrappers[name] = originals[id(original)]
        for module in modules.values():
            namespace = module.__dict__
            for key, value in list(namespace.items()):
                if callable(value) and id(value) in originals:
                    self.patched.append((namespace, key, value))
                    namespace[key] = originals[id(value)]

    def uninstall(self) -> None:
        """Put every original function back."""
        for namespace, key, value in self.patched:
            namespace[key] = value
        self.patched.clear()


# --------------------------------------------------------------------------
# turning spans into per-layer metrics


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced job list (see README.md)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    repeats: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    raised: dict[str, int] = defaultdict(int)
    buckets: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        name = NAMES[span[0]]
        calls[name] += 1
        busy[name] += own
        if span[5] & REPEAT:
            repeats[name] += 1
        if span[5] & RAISED:
            raised[name.split(".")[0]] += 1
        if span[4] >= 0:
            work[name] += span[4]
            if name == "opetope.target":
                for lo, hi, label in TARGET_BUCKETS:
                    if span[4] >= lo and (hi is None or span[4] <= hi):
                        buckets[label] += own
    out: dict[str, float] = {}
    for name in NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = busy[name]
    for name in REPEATS:
        out[f"{name}.repeat_share"] = repeats[name] / calls[name] if calls[name] else 0.0
    for _, _, label in TARGET_BUCKETS:
        out[f"opetope.target.self_s.{label}"] = buckets[label]
    out["opset.maps.found"] = work["opset.maps"]
    out["oalg.check_algebra_laws.squares"] = work["oalg.check_algebra_laws"]
    out["theory.check_model.envs"] = work["theory.check_model"]
    for layer in LAYERS:
        out[f"{layer}.raised"] = raised[layer]
    return out


def layer_self_times(metrics: dict[str, float]) -> dict[str, float]:
    """Total self time per module, cli included."""
    out = {}
    for mod in TRACED:
        out[mod] = sum(metrics[f"{n}.self_s"] for n in NAMES if n.startswith(mod + "."))
    return out
