"""Span tracing of the library's public functions, installed from outside.

Each instrumented function is replaced by a wrapper at its module attribute
and at every alias inside the package (found by identity), so calls between
modules, such as cli -> scheme.verify_scheme or hypergroup ->
verify_generalized, are recorded too.  Spans stay in memory and are written
out when the run ends.  tracemalloc runs only inside the functions listed in
PEAK, and only while peaks_on is set: it slows every allocation while it is
on, so peaks come from a round of their own and times from a round without
it.

Install a Tracer only in traced runs; timed runs never see the wrappers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np


def _arrays_nbytes(arrays) -> int:
    seen, total = set(), 0
    for arr in arrays:
        if isinstance(arr, np.ndarray) and id(arr) not in seen:
            seen.add(id(arr))
            total += arr.nbytes
    return total


def _family_sizes(fam) -> dict:
    stored = sum(m.size for m in fam.matrices.values())
    useful = sum(int(np.count_nonzero(fam.matrices[h][fam.valid[h]]))
                 for h in fam.matrices)
    return {"points": int(fam.labels.shape[0]), "labels": len(fam.matrices),
            "bytes": _arrays_nbytes([*fam.matrices.values(), fam.labels,
                                     *fam.valid.values()]),
            "stored": int(stored), "useful": useful}


def _partition(obj):
    return getattr(obj, "partition", obj)


def _pr(obj) -> dict:
    part = _partition(obj)
    return {"points": part.n_points, "relations": part.n_relations}


# layer -> [(function path, sizes(arguments, result) -> dict)]
SPEC = {
    "scheme": [
        ("verify_scheme", lambda a, r: _pr(a["partition"])),
        ("from_double_cosets", lambda a, r: {"group": len(a["cayley"]),
                                             "subgroup": len(a["subgroup"]),
                                             **_pr(r[1])}),
        ("verify_generalized", lambda a, r: _pr(a["gs"])),
        ("finite_rigidity_check", lambda a, r: _pr(a["gs"])),
        ("canonical_generalized", lambda a, r: _pr(a["scheme"])),
    ],
    "hypergroup": [
        ("from_scheme", lambda a, r: {"relations": r.n}),
        ("from_generalized", lambda a, r: _pr(a["gs"])),
        ("verify_hypergroup", lambda a, r: {"relations": a["h"].n}),
        ("haar", lambda a, r: {"relations": a["h"].n}),
        ("characters", lambda a, r: {"relations": a["h"].n}),
        ("positive_definite_check", lambda a, r: {"relations": a["h"].n}),
        ("semicharacter_deform", lambda a, r: {"relations": a["h"].n}),
        ("FiniteHypergroup.convolve", lambda a, r: {"relations": a["self"].n}),
    ],
    "constructions": [
        ("direct_product", lambda a, r: {"relations": r.n}),
        ("join", lambda a, r: {"relations": r.n}),
        ("direct_product_scheme", lambda a, r: _pr(r)),
        ("join_scheme", lambda a, r: _pr(r)),
    ],
    "dtgraph": [
        ("build_ball", lambda a, r: {"params": [a["params"].a, a["params"].b],
                                     "radius": a["R"], "vertices": r.n}),
        ("Ball.dist_matrix", lambda a, r: {"vertices": a["self"].n,
                                           "bytes": int(r.nbytes)}),
        ("BoundaryRay", lambda a, r: {"vertices": a["ball"].n}),
        ("deform_ball_kernels", lambda a, r: {
            "vertices": a["ball"].n, "radius": a["ball"].radius,
            "bytes": _arrays_nbytes([*r.kernels.values(), *r.valid.values()])}),
        ("gram_min_eig", lambda a, r: {"vertices": a["ball"].n}),
        ("ortho_measure_integrate", lambda a, r: {
            "params": [a["params"].a, a["params"].b]}),
        ("PolyHypergroup.convolve", lambda a, r: {"support": len(a["mu"]) * len(a["nu"])}),
    ],
    "walks": [
        ("KernelFamily.from_ball", lambda a, r: _family_sizes(r)),
        ("KernelFamily.from_deformed", lambda a, r: _family_sizes(r)),
        ("KernelFamily.from_generalized", lambda a, r: _family_sizes(r)),
        ("simulate_walk", lambda a, r: {"steps": a["steps"], "trials": a["trials"]}),
        ("propagate_and_project", lambda a, r: {"steps": a["steps"]}),
        ("convolution_power", lambda a, r: {"steps": a["t"],
                                            "relations": getattr(a["hg"], "n", None)}),
        ("projection_check", lambda a, r: {"steps": a["steps"],
                                           "trials": a["walk"].trials}),
    ],
    "io": [
        ("load", lambda a, r: {}),
        ("save", lambda a, r: {}),
        ("hypergroup_to_dict", lambda a, r: {"relations": a["h"].n}),
        ("hypergroup_from_dict", lambda a, r: {"relations": r.n}),
        ("scheme_to_dict", lambda a, r: {"points": r["n_points"]}),
        ("scheme_from_dict", lambda a, r: _pr(r)),
    ],
    "cli": [
        ("main", lambda a, r: {"command": (a.get("argv") or ["?"])[0], "exit": r}),
    ],
}

PEAK = {
    "scheme.verify_scheme", "scheme.verify_generalized",
    "hypergroup.verify_hypergroup", "constructions.direct_product",
    "dtgraph.Ball.dist_matrix", "dtgraph.deform_ball_kernels",
    "dtgraph.gram_min_eig", "walks.KernelFamily.from_ball",
    "walks.simulate_walk",
}

FAMILY_SPANS = ("walks.KernelFamily.from_ball", "walks.KernelFamily.from_deformed",
                "walks.KernelFamily.from_generalized")


def span_names() -> list:
    return [f"{layer}.{path}" for layer, fns in SPEC.items() for path, _ in fns]


@dataclass
class Span:
    name: str
    parent: int
    job: str
    start: float = 0.0
    end: float = 0.0
    sizes: dict = field(default_factory=dict)
    peak_bytes: int | None = None
    error: str | None = None
    outer: float = 0.0  # duration plus the tracer's own work around the call


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = ""
        self.paused = False
        self.peaks_on = False
        self._peaks: list[list[int]] = []  # [entry bytes, highest bytes seen]

    # -- tracemalloc bracketing that survives nesting ----------------------
    def _peak_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([cur, cur])

    def _peak_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        entry, seen = self._peaks.pop()
        seen = max(seen, peak)
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], seen)
        else:
            tracemalloc.stop()
        return seen - entry

    def wrap(self, name: str, fn, sizes):
        sig = inspect.signature(fn)
        peak = name in PEAK
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            span = Span(name, tracer.stack[-1] if tracer.stack else -1, tracer.job)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            with_peak = peak and tracer.peaks_on
            if with_peak:
                tracer._peak_enter()
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if with_peak:
                    span.peak_bytes = tracer._peak_exit()
                tracer.stack.pop()
                if span.error is None:
                    tracer.paused = True
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        span.sizes = sizes(bound.arguments, result)
                    finally:
                        tracer.paused = False
                span.outer = time.perf_counter() - entered

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every function in SPEC by a recording wrapper."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "hyperscheme" or name.startswith("hyperscheme.")]
        for layer, fns in SPEC.items():
            module = importlib.import_module(f"hyperscheme.{layer}")
            for path, sizes in fns:
                name = f"{layer}.{path}"
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, sizes)))
                    elif isinstance(raw, property):
                        setattr(owner, attr, property(self.wrap(name, raw.fget, sizes)))
                    else:
                        setattr(owner, attr, self.wrap(name, raw, sizes))
                    continue
                orig = getattr(module, attr)
                if isinstance(orig, type):
                    # a class is traced through its constructor
                    orig.__init__ = self.wrap(name, orig.__init__, sizes)
                    continue
                wrapped = self.wrap(name, orig, sizes)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    # -- reduction -------------------------------------------------------
    def self_times(self) -> list:
        """Span duration minus the time covered by its child spans, the
        tracer's work around each child included."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.outer
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, f_points: int, peak_spans: list) -> dict:
        """Per-layer metrics of the recorded spans (one round of jobs);
        peak_mb comes from peak_spans, a round run with peaks_on."""
        names = span_names()
        calls = dict.fromkeys(names, 0)
        busy = dict.fromkeys(names, 0.0)
        peaks = dict.fromkeys(sorted(PEAK), 0)
        for span, self_s in zip(self.spans, self.self_times()):
            calls[span.name] += 1
            busy[span.name] += self_s
        for span in peak_spans:
            if span.peak_bytes is not None:
                peaks[span.name] = max(peaks[span.name], span.peak_bytes)

        out = {}
        for name in names:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (busy[name], "s")
        for name, b in peaks.items():
            out[f"{name}.peak_mb"] = (b / 2 ** 20, "MiB")

        def ancestors(i):
            while i >= 0:
                yield self.spans[i]
                i = self.spans[i].parent

        walks = sum(1 for s in self.spans
                    if s.name == "cli.main" and s.sizes.get("command") == "walk")
        inside = sum(1 for s in self.spans if s.name == "scheme.verify_scheme"
                     and any(a.name == "cli.main" and a.sizes.get("command") == "walk"
                             for a in ancestors(s.parent)))
        out["scheme.verify_scheme.per_cli_walk"] = (
            inside / walks if walks else 0.0, "calls/walk")

        sims = [s for s in self.spans if s.name == "walks.simulate_walk" and s.sizes]
        sim_time = sum(s.end - s.start for s in sims)
        out["walks.simulate_walk.trial_steps_per_s"] = (
            sum(s.sizes["steps"] * s.sizes["trials"] for s in sims) / sim_time
            if sim_time else 0.0, "1/s")

        fams = [s.sizes for s in self.spans if s.name in FAMILY_SPANS and s.sizes]
        out["walks.kernel_bytes"] = (max((f["bytes"] for f in fams), default=0), "B")
        stored = sum(f["stored"] for f in fams)
        out["walks.kernel_useful_frac"] = (
            sum(f["useful"] for f in fams) / stored if stored else 0.0, "ratio")
        for key, span_name in (("dtgraph.dist_bytes", "dtgraph.Ball.dist_matrix"),
                               ("dtgraph.deform_bytes", "dtgraph.deform_ball_kernels")):
            out[key] = (max((s.sizes["bytes"] for s in self.spans
                             if s.name == span_name and s.sizes), default=0), "B")
        out["dtgraph.ortho_measure_integrate.f_points"] = (f_points, "count")
        return out

    def dump(self, path: str, peak_spans: list):
        """Write the spans, and those of the peak round, as JSON."""
        def rows(spans, self_s):
            return [{"name": s.name, "start": s.start, "end": s.end, "self_s": t,
                     "parent": s.parent, "job": s.job, "sizes": s.sizes,
                     "peak_bytes": s.peak_bytes, "error": s.error}
                    for s, t in zip(spans, self_s)]

        with open(path, "w") as fh:
            json.dump({"spans": rows(self.spans, self.self_times()),
                       "peak_spans": rows(peak_spans, [None] * len(peak_spans))},
                      fh, default=str)
