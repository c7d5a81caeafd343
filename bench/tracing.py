"""Per-layer timing from outside the program.

install() wraps the public functions listed in TRACED and rebinds each
wrapper wherever cubicflex holds the original: in the defining module and
in every module that imported it (singular_points in strata,
hessian_coeffs in track, ...), so calls from inside the program are
caught too.  A call's self time is its duration minus the time of the
traced calls it made.  Only the functions the benchmark reports are
wrapped; everything else a function calls stays in its self time (the
deduplication loop of pencil_crossings, for instance).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

TRACED = {
    "forms": ("substitute_linear", "hessian_coeffs", "hessian_directional"),
    "roots": ("all_roots", "resultant_on_chart"),
    "locus": ("singular_points", "inflection_points"),
    "strata": ("classify", "pencil_discriminant_fit", "pencil_crossings"),
    "track": ("track_loop",),
}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    empty: int = 0            # singular_points calls that found nothing
    fallback: int = 0         # inflection_points(allow_transforms=False)
    steps: int = 0            # track_loop steps


class Tracer:
    def __init__(self):
        self.stats = {}
        self._child_time = []       # one accumulator per open call

    def _wrap(self, key, fn):
        stack = self._child_time
        self.stats[key] = Stat()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self.stats[key]
            if key == "locus.inflection_points" \
                    and kwargs.get("allow_transforms") is False:
                st.fallback += 1        # counted even when the call raises
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                st.calls += 1
                st.self_s += dt - children
                st.total_s += dt
            if key == "locus.singular_points" and out.is_empty():
                st.empty += 1
            elif key == "track.track_loop":
                st.steps += out.steps_taken
            return out
        return traced

    def install(self):
        """Rebind the wrappers in every loaded cubicflex module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "cubicflex" or name.startswith("cubicflex.")]
        for layer, names in TRACED.items():
            defining = sys.modules[f"cubicflex.{layer}"]
            for name in names:
                orig = getattr(defining, name)
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def per_layer(self, ops, group_check_s):
        """The per-layer metrics: self time and calls per operation."""
        s = self.stats
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for key in ("locus.singular_points", "roots.all_roots",
                    "roots.resultant_on_chart", "forms.substitute_linear",
                    "forms.hessian_coeffs", "forms.hessian_directional",
                    "strata.classify", "strata.pencil_discriminant_fit"):
            put(f"{key}.calls", s[key].calls / ops, "1/op")
            put(f"{key}.ms", 1e3 * s[key].self_s / ops, "ms/op")
        sp = s["locus.singular_points"]
        put("locus.singular_points.empty_share",
            sp.empty / sp.calls if sp.calls else 0.0, "share")
        ip = s["locus.inflection_points"]
        put("locus.inflection_points.ms", 1e3 * ip.self_s / ops, "ms/op")
        put("locus.inflection_points.fallback_calls", ip.fallback / ops,
            "1/op")
        tl = s["track.track_loop"]
        put("track.track_loop.ms", 1e3 * tl.self_s / ops, "ms/op")
        put("track.steps_per_loop", tl.steps / tl.calls if tl.calls else 0.0,
            "steps")
        put("track.ms_per_step", 1e3 * tl.total_s / tl.steps if tl.steps
            else 0.0, "ms/step")
        put("strata.pencil_crossings.ms",
            1e3 * s["strata.pencil_crossings"].self_s / ops, "ms/op")
        put("perms.group_check.ms", 1e3 * group_check_s, "ms")
        return out
