"""Per-layer tracing of tensorid from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (inclusive time, self time) and the counts named in the
benchmark's per-layer metrics.  The replacement is made in every loaded
``tensorid`` module that holds the function, so calls through imported
names (``monodromy.track``, ``segre.solve_total_degree``, ...) are
counted like calls through the defining module.  ``uninstall()`` puts
the originals back.

Self time is a span's duration minus the time of its traced child
spans; ``root()`` opens the outermost span, so the self times of all
spans add up to the traced wall time.  Everything runs on one thread.
"""

import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (metric prefix, module, attribute); "Class.method" patches the class.
TRACED = (
    ("poly.full_state", "tensorid.poly", "PolySystem.full_state"),
    ("poly.param_tangent", "tensorid.poly", "PolySystem.param_tangent"),
    ("homotopy.track", "tensorid.homotopy", "track"),
    ("homotopy.solve_total_degree", "tensorid.homotopy", "solve_total_degree"),
    ("monodromy.solve", "tensorid.monodromy", "solve"),
    ("monodromy.triangle_loop", "tensorid.monodromy", "triangle_loop"),
    ("monodromy.insert", "tensorid.monodromy", "SolutionRegistry.insert"),
    ("monodromy.canonical_distance", "tensorid.monodromy", "canonical_distance"),
    ("waring.build_system", "tensorid.waring", "build_system"),
    ("waring.decomposition_sampler", "tensorid.waring", "decomposition_sampler"),
    ("waring.sylvester_oracle", "tensorid.waring", "sylvester_oracle"),
    ("realcert.classify", "tensorid.realcert", "classify"),
    ("segre.solve_section", "tensorid.segre", "solve_section"),
    ("segre.search_signature", "tensorid.segre", "search_signature"),
    ("elliptic.intersect_plane", "tensorid.elliptic", "intersect_plane"),
    ("elliptic.secant_lines_through", "tensorid.elliptic", "secant_lines_through"),
    ("elliptic.classify_point", "tensorid.elliptic", "classify_point"),
    ("cli.main", "tensorid.cli", "main"),
)

ROOT = "bench"
SAMPLER = "waring.sampler"


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self.counts = Counter()
        self.loop_times = []
        self._stack = []  # [name, child seconds] per open span
        self._active = Counter()
        self._loops = []  # (new, transports) per loop of the open solve
        self._patches = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name):
        self._stack.append([name, 0.0])
        self._active[name] += 1
        return time.perf_counter()

    def _leave(self, name, t0):
        dt = time.perf_counter() - t0
        _, child = self._stack.pop()
        self._active[name] -= 1
        span = self.spans[name]
        span.calls += 1
        span.total += dt
        span.self_time += dt - child
        if self._stack:
            self._stack[-1][1] += dt
        return dt

    @contextmanager
    def root(self):
        t0 = self._enter(ROOT)
        try:
            yield
        finally:
            self._leave(ROOT, t0)

    def active(self, name) -> bool:
        return self._active[name] > 0

    # -- per-function bookkeeping ----------------------------------------
    def _after(self, name, result, dt):
        c = self.counts
        if name == "poly.full_state" and self.active("homotopy.track"):
            c["track_evals"] += 1
        elif name == "homotopy.track":
            status = result.status.value
            c["legs_" + status] += 1
            c["steps"] += result.steps_taken
            if status == "success":
                c["steps_success"] += result.steps_taken
            elif self.active("monodromy.triangle_loop"):
                c["transports_lost"] += 1
            if self.active("homotopy.solve_total_degree"):
                c["td_paths"] += 1
            if self.active("segre.solve_section"):
                c["section_paths"] += 1
        elif name == "homotopy.solve_total_degree":
            c["td_roots"] += len(result)
            if self.active("segre.solve_section"):
                c["section_charts"] += 1
        elif name == "monodromy.insert" and result:
            c["insert_new"] += 1
        elif name == "monodromy.triangle_loop":
            self.loop_times.append(dt)
        elif name == "segre.solve_section" and self.active("segre.search_signature"):
            c["search_attempts"] += 1

    def _wrap(self, name, fn):
        tracer = self

        if name == "monodromy.triangle_loop":
            def wrapper(registry, *args, **kwargs):
                transports = len(registry.solutions)
                t0 = tracer._enter(name)
                try:
                    new = fn(registry, *args, **kwargs)
                finally:
                    dt = tracer._leave(name, t0)
                tracer._loops.append((new, transports))
                tracer._after(name, new, dt)
                return new
        elif name == "monodromy.solve":
            def wrapper(*args, **kwargs):
                outer, tracer._loops = tracer._loops, []
                t0 = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._leave(name, t0)
                    tracer._close_solve()
                    tracer._loops = outer
        elif name == "waring.decomposition_sampler":
            def wrapper(*args, **kwargs):
                t0 = tracer._enter(name)
                try:
                    return tracer._wrap(SAMPLER, fn(*args, **kwargs))
                finally:
                    tracer._leave(name, t0)
        else:
            def wrapper(*args, **kwargs):
                t0 = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = tracer._leave(name, t0)
                tracer._after(name, result, dt)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close_solve(self):
        """Split the finished enumeration's loops into finding and confirming.

        Confirmation loops are the fruitless loops after the last loop
        that found a new solution; they only prove the count stable.
        """
        c = self.counts
        for _, transports in self._loops:
            c["loops"] += 1
            c["transports"] += transports
        for new, transports in reversed(self._loops):
            if new:
                break
            c["loops_confirm"] += 1
            c["transports_confirm"] += transports

    # -- installation ------------------------------------------------------
    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("tensorid") and m]
        for name, module_name, attr in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- metrics -------------------------------------------------------------
    def self_seconds(self) -> dict:
        return {name: span.self_time for name, span in self.spans.items()}

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round: (value, unit) by name."""
        c = self.counts
        sp = self.spans
        per = 1.0 / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        def count(v):
            return (v * per, "count")

        def secs(name):
            return (sp[name].self_time * per, "s")

        def us_per_call(name):
            return (1e6 * ratio(sp[name].total, sp[name].calls), "us")

        legs = sp["homotopy.track"].calls
        sections = sp["segre.solve_section"].calls
        m = {
            "poly.full_state.calls": count(sp["poly.full_state"].calls),
            "poly.full_state.us_per_call": us_per_call("poly.full_state"),
            "poly.full_state.self_s": secs("poly.full_state"),
            "poly.param_tangent.calls": count(sp["poly.param_tangent"].calls),
            "poly.param_tangent.us_per_call": us_per_call("poly.param_tangent"),
            "poly.param_tangent.self_s": secs("poly.param_tangent"),
            "homotopy.track.legs": count(legs),
            "homotopy.track.legs_success": count(c["legs_success"]),
            "homotopy.track.legs_singular": count(c["legs_singular"]),
            "homotopy.track.legs_diverged": count(c["legs_diverged"]),
            "homotopy.track.legs_step_limit": count(c["legs_step_limit"]),
            "homotopy.track.success_ratio": (ratio(c["legs_success"], legs), "ratio"),
            "homotopy.track.steps": count(c["steps"]),
            "homotopy.track.steps_per_success_leg": (
                ratio(c["steps_success"], c["legs_success"]), "steps"),
            "homotopy.track.evals_per_step": (ratio(c["track_evals"], c["steps"]), "evals"),
            "homotopy.track.us_per_step": (
                1e6 * ratio(sp["homotopy.track"].total, c["steps"]), "us"),
            "homotopy.track.self_s": secs("homotopy.track"),
            "homotopy.solve_total_degree.calls": count(sp["homotopy.solve_total_degree"].calls),
            "homotopy.solve_total_degree.paths": count(c["td_paths"]),
            "homotopy.solve_total_degree.roots": count(c["td_roots"]),
            "homotopy.solve_total_degree.roots_per_path": (
                ratio(c["td_roots"], c["td_paths"]), "ratio"),
            "homotopy.solve_total_degree.self_s": secs("homotopy.solve_total_degree"),
            "monodromy.loops": count(c["loops"]),
            "monodromy.loops_confirm": count(c["loops_confirm"]),
            "monodromy.transports": count(c["transports"]),
            "monodromy.transports_confirm": count(c["transports_confirm"]),
            "monodromy.transports_lost": count(c["transports_lost"]),
            "monodromy.loop_p50_s": (
                statistics.median(self.loop_times) if self.loop_times else 0.0, "s"),
            "monodromy.solve.self_s": secs("monodromy.solve"),
            "monodromy.triangle_loop.self_s": secs("monodromy.triangle_loop"),
            "monodromy.insert.calls": count(sp["monodromy.insert"].calls),
            "monodromy.insert.new": count(c["insert_new"]),
            "monodromy.insert.self_s": secs("monodromy.insert"),
            "monodromy.canonical_distance.calls": count(sp["monodromy.canonical_distance"].calls),
            "monodromy.canonical_distance.self_s": secs("monodromy.canonical_distance"),
            "waring.build_system.self_s": secs("waring.build_system"),
            "waring.decomposition_sampler.self_s": secs("waring.decomposition_sampler"),
            "waring.sampler.calls": count(sp[SAMPLER].calls),
            "waring.sampler.self_s": secs(SAMPLER),
            "waring.sylvester_oracle.self_s": secs("waring.sylvester_oracle"),
            "realcert.classify.self_s": secs("realcert.classify"),
            "segre.solve_section.calls": count(sections),
            "segre.solve_section.self_s": secs("segre.solve_section"),
            "segre.charts_per_section": (ratio(c["section_charts"], sections), "charts"),
            "segre.paths_per_section": (ratio(c["section_paths"], sections), "paths"),
            "segre.search_signature.attempts": count(c["search_attempts"]),
            "segre.search_signature.self_s": secs("segre.search_signature"),
            "elliptic.intersect_plane.self_s": secs("elliptic.intersect_plane"),
            "elliptic.secant_lines_through.self_s": secs("elliptic.secant_lines_through"),
            "elliptic.classify_point.calls": count(sp["elliptic.classify_point"].calls),
            "elliptic.classify_point.self_s": secs("elliptic.classify_point"),
            "cli.main.self_s": secs("cli.main"),
            "bench.self_s": secs(ROOT),
            "trace.wall_s": (sp[ROOT].total * per, "s"),
        }
        return m
