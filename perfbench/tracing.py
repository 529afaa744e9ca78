"""Outside-in span tracer for the bicohom layers.

Every listed public function is replaced by a wrapper in every namespace
that binds it: the module that defines it, each module that imported it by
name, and the package root.  Methods (and the IntMatrix constructor) are
patched on their class, which covers every caller.  Nothing in the package
itself changes; `uninstall` puts the originals back.

A span is (name, start, end, parent span, op id).  Aggregates are kept
online, so the per-layer numbers never need the span log:

- self time = span duration minus the time its child spans cover;
- a memoised call (`hit_ratio`) is one whose span contains no `abgroup`
  or `snf` span;
- `bicomplexes.diff.hit_ratio` = 1 - (induced-map builds inside dprime /
  dsecond spans) / (dprime + dsecond calls);
- bit lengths are scanned only on the functions that report them.
"""

import sys
from array import array
from time import perf_counter

from bicohom import (abgroup, backend, bicomplexes, cli, complexes,
                     constructions, formats, snf, suites, tate)

# (layer, owner, attribute, bits reported): owner is a module for plain
# functions and a class for methods.
TARGETS = [
    ("backend", backend, "col_echelon", "out"),
    ("backend", backend, "snf_transforms", "out"),
    ("backend", backend, "reduce_columns", None),
    ("backend", backend, "minor_gcds", None),
    ("snf", snf, "kernel_basis", "in"),
    ("snf", snf, "solve_mod", None),
    ("snf", snf, "lattice_intersect", None),
    ("snf", snf, "smith_normal_form", None),
    ("snf", snf.IntMatrix, "__init__", None),
    ("abgroup", abgroup, "subquotient", None),
    ("abgroup", abgroup, "kernel_image", None),
    ("abgroup", abgroup, "intersect", None),
    ("abgroup", abgroup, "preimage_element", None),
    ("abgroup", abgroup, "induced_hom_map", None),
    ("abgroup", abgroup, "induced_tensor_map", None),
    ("abgroup", abgroup.FpGroup, "cyclic_decomposition", None),
    ("abgroup", abgroup.FpGroup, "reduce", None),
    ("complexes", complexes, "homology", None),
    ("complexes", complexes, "hom_into_module", None),
    ("complexes", complexes, "hom_from_module", None),
    ("complexes", complexes, "tensor_with_module", None),
    ("complexes", complexes, "module_tensor_with", None),
    ("bicomplexes", bicomplexes, "core_homology", None),
    ("bicomplexes", bicomplexes, "directional_homology", None),
    ("bicomplexes", bicomplexes, "core_homology_alt", None),
    ("bicomplexes", bicomplexes, "diagonal_shift", None),
    ("bicomplexes", bicomplexes._Grid, "dprime", None),
    ("bicomplexes", bicomplexes._Grid, "dsecond", None),
    ("constructions", constructions, "random_exact_complex", None),
    ("constructions", constructions, "hom_bicomplex", None),
    ("constructions", constructions, "tensor_bicomplex", None),
    ("constructions", constructions, "complete_projective_resolution", None),
    ("constructions", constructions, "complete_injective_resolution", None),
    ("tate", tate, "balance_report", None),
    ("tate", tate, "tate_ext", None),
    ("tate", tate, "tate_tor", None),
    ("suites", suites, "run_suite", None),
    ("cli", cli, "main", None),
    ("formats", formats, "parse_complex", None),
    ("formats", formats, "serialize_complex", None),
]

# functions whose memo use is reported as hit_ratio
MEMOISED = {"complexes.homology", "bicomplexes.core_homology",
            "bicomplexes.directional_homology"}
DIFFS = {"bicomplexes.dprime", "bicomplexes.dsecond"}
INDUCED = {"abgroup.induced_hom_map", "abgroup.induced_tensor_map"}
WORK_LAYERS = {"abgroup", "snf"}

# spans of timed ops kept for the written log (set-up spans are not kept);
# the aggregates count every span regardless
SPAN_LOG_LIMIT = 100_000


def span_name(layer, owner, attr):
    if isinstance(owner, type):
        if attr == "__init__":
            return "%s.%s" % (layer, owner.__name__)
        if owner.__name__.startswith("_"):
            return "%s.%s" % (layer, attr)
        return "%s.%s.%s" % (layer, owner.__name__, attr)
    return "%s.%s" % (layer, attr)


def _bits(rows):
    """Largest bit length of any entry of a list-of-lists matrix."""
    best = 0
    for row in rows:
        for e in row:
            b = e.bit_length()
            if b > best:
                best = b
    return best


class Tracer:
    """Spans and per-function aggregates for one traced pass."""

    def __init__(self):
        self.names = [span_name(*t[:3]) for t in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        self.bits_max = [0] * n
        self.entries_in = [0] * n
        self.hits = [0] * n
        self.diff_builds = 0
        self.op = -1
        # open frames: [index, start, child time, work mark, span id]
        self._stack = []
        self._work = 0
        self._span_count = 0
        self._log = {k: array(t) for k, t in (
            ("span", "q"), ("name", "i"), ("start", "d"), ("end", "d"),
            ("parent", "q"), ("op", "i"))}
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _enter(self, idx, layer):
        if layer in WORK_LAYERS:
            self._work += 1
        sid = self._span_count
        self._span_count += 1
        frame = [idx, 0.0, 0.0, self._work, sid]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame, failed):
        end = perf_counter()
        stack = self._stack
        stack.pop()
        idx, start, child, work_mark, sid = frame
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        if failed:
            self.errors[idx] += 1
        if stack:
            stack[-1][2] += dur
        name = self.names[idx]
        if name in MEMOISED and self._work == work_mark:
            self.hits[idx] += 1
        if name in INDUCED:
            for outer in reversed(stack):
                if self.names[outer[0]] in DIFFS:
                    self.diff_builds += 1
                    break
        log = self._log
        if self.op >= 0 and len(log["name"]) < SPAN_LOG_LIMIT:
            log["name"].append(idx)
            log["start"].append(start)
            log["end"].append(end)
            log["span"].append(sid)
            log["parent"].append(stack[-1][4] if stack else -1)
            log["op"].append(self.op)

    def _unaccounted(self, seconds):
        """Keep bit scanning out of every span's self time: the enclosing
        span counts it as if a child span had covered it."""
        if self._stack:
            self._stack[-1][2] += seconds

    def _wrap(self, idx, layer, fn, bits):
        tracer = self
        count_entries = self.names[idx] == "backend.col_echelon"

        def traced(*args, **kwargs):
            if bits == "in":
                t0 = perf_counter()
                a = args[0]
                b = _bits(a._data) if isinstance(a, snf.IntMatrix) else 0
                if b > tracer.bits_max[idx]:
                    tracer.bits_max[idx] = b
                tracer._unaccounted(perf_counter() - t0)
            if count_entries:
                a = args[0]
                tracer.entries_in[idx] += len(a) * (len(a[0]) if a else 0)
            frame = tracer._enter(idx, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, True)
                raise
            tracer._exit(frame, False)
            if bits == "out":
                t0 = perf_counter()
                b = max((_bits(m) for m in out
                         if isinstance(m, list) and m
                         and isinstance(m[0], list)), default=0)
                if b > tracer.bits_max[idx]:
                    tracer.bits_max[idx] = b
                tracer._unaccounted(perf_counter() - t0)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every target at every bind site.  `extra_modules` are the
        benchmark's own modules, which import functions by name too."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bicohom" or name.startswith("bicohom.")]
        modules += list(extra_modules)
        for idx, (layer, owner, attr, bits) in enumerate(TARGETS):
            original = owner.__dict__[attr]
            wrapper = self._wrap(idx, layer, original, bits)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------

    def metrics(self):
        """{metric name: (value, unit, base or None)} for every target."""
        out = {}
        for idx, name in enumerate(self.names):
            calls = self.calls[idx]
            out[name + ".calls"] = (calls, "count", None)
            out[name + ".self_s"] = (self.self_s[idx], "s", None)
            out[name + ".errors"] = (self.errors[idx], "count", calls)
            bits = TARGETS[idx][3]
            if bits:
                out["%s.bits_%s_max" % (name, bits)] = (
                    self.bits_max[idx], "bits", calls)
            if name == "backend.col_echelon":
                out[name + ".entries_in"] = (self.entries_in[idx], "count",
                                             calls)
            if name in MEMOISED:
                out[name + ".hit_ratio"] = (
                    self.hits[idx] / calls if calls else 0.0, "ratio", calls)
        diff_calls = sum(self.calls[self.names.index(n)] for n in DIFFS)
        out["bicomplexes.diff.hit_ratio"] = (
            1.0 - self.diff_builds / diff_calls if diff_calls else 0.0,
            "ratio", diff_calls)
        return out

    def write_spans(self, path):
        log = self._log
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(log["name"])):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    log["span"][i], self.names[log["name"][i]],
                    log["start"][i], log["end"][i], log["parent"][i],
                    log["op"][i]))
        return len(log["name"]), self._span_count
