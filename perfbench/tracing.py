"""Span tracing of the aliasfree layers, installed from outside the package.

A `Tracer` replaces every module-level binding of each traced public name
(and each traced method on its class) with a wrapper that records one span
per call: name, start, end, parent span and operation id. Spans live in
flat arrays in memory and are written out once, when the run ends.
`uninstall` puts every original object back, so untraced cycles run the
package exactly as shipped.

A traced name that no longer exists is reported as missing, and the
metrics that rest only on missing names as absent, instead of failing the
run: a later change may move or remove a public function without editing
this benchmark.
"""

import gzip
import importlib
import json
import statistics
import sys
import time
from array import array

LAYERS = ("rng", "diffusion", "rotation", "resample", "activation",
          "filter_design", "special_functions", "spectral", "image_io", "cli")


def _size(args, kwargs, result):
    return int(getattr(result, "size", 0))


def _macs(args, kwargs, result):
    kernel = kwargs.get("kernel")
    if kernel is None:
        kernel = next(a for a in args if hasattr(a, "taps"))
    return int(kernel.taps.size) * int(result.size)


def _bytes_in(args, kwargs, result):
    return len(args[0] if args else kwargs["data"])


def _bytes_out(args, kwargs, result):
    return len(result)


def _spec_key(args, kwargs, result):
    return args[0] if args else kwargs["spec"]


# family -> (layer, traced names as (module, qualname), work counter).
# A counter maps (args, kwargs, result) to the work one call did: elements,
# multiply-adds or bytes, computed from array sizes.
FAMILIES = {
    "rng.normal": ("rng", [("aliasfree.rng", "Rng.normal")], _size),
    "rng.uniform": ("rng", [("aliasfree.rng", "Rng.uniform")], None),
    "rng.randint": ("rng", [("aliasfree.rng", "Rng.randint")], None),
    "diffusion.schedule": ("diffusion", [("aliasfree.diffusion", "linear_schedule")], None),
    "diffusion.sampler": ("diffusion", [("aliasfree.diffusion", "sample_classical"),
                                        ("aliasfree.diffusion", "sample_rotated")], None),
    "diffusion.predict": ("diffusion", [
        ("aliasfree.diffusion", "AnalyticGaussianDenoiser.predict"),
        ("aliasfree.diffusion", "ConstantDenoiser.predict"),
        ("aliasfree.diffusion", "ZeroDenoiser.predict")], None),
    "diffusion.training_loss": ("diffusion", [("aliasfree.diffusion", "training_loss")], None),
    "diffusion.forward_noise": ("diffusion", [("aliasfree.diffusion", "forward_noise")], None),
    "diffusion.data_draw": ("diffusion", [("aliasfree.diffusion", "GaussianDataSpec.draw")], None),
    "rotation.rotate": ("rotation", [("aliasfree.rotation", "rotate")], _size),
    "resample.convolve2d": ("resample", [("aliasfree.resample", "convolve2d")], _macs),
    "resample.af": ("resample", [("aliasfree.resample", "downsample2x_af"),
                                 ("aliasfree.resample", "upsample2x_af")], None),
    "resample.naive": ("resample", [("aliasfree.resample", "downsample2x_naive"),
                                    ("aliasfree.resample", "upsample2x_naive")], None),
    "resample.check_image": ("resample", [("aliasfree.resample", "check_image")], None),
    "activation.wrapped": ("activation", [("aliasfree.activation", "wrapped_activation")], None),
    "activation.pointwise": ("activation", [("aliasfree.activation", "apply_pointwise")], _size),
    "activation.relu": ("activation", [("aliasfree.activation", "relu")], None),
    "activation.gelu": ("activation", [("aliasfree.activation", "gelu")], None),
    "filter_design.design_kernel": ("filter_design", [("aliasfree.filter_design", "design_kernel")],
                                    _spec_key),
    "special_functions": ("special_functions", [("aliasfree.special_functions", "bessel_j1"),
                                                ("aliasfree.special_functions", "bessel_i0"),
                                                ("aliasfree.special_functions", "jinc")], None),
    "spectral.corpus": ("spectral", [("aliasfree.spectral", "band_limited_corpus")], None),
    "spectral.alias_energy": ("spectral", [("aliasfree.spectral", "alias_energy")], None),
    "spectral.dft": ("spectral", [("aliasfree.spectral", "dft2"),
                                  ("aliasfree.spectral", "freq_response")], None),
    "spectral.pipeline": ("spectral", [("aliasfree.spectral", "apply_pipeline")], None),
    "spectral.equivariance": ("spectral", [("aliasfree.spectral", "equivariance_error")], None),
    "image_io.read": ("image_io", [("aliasfree.image_io", "read_raster")], _bytes_in),
    "image_io.write": ("image_io", [("aliasfree.image_io", "write_raster")], _bytes_out),
    "cli.main": ("cli", [("aliasfree.cli", "main")], None),
    "cli.build_parser": ("cli", [("aliasfree.cli", "build_parser")], None),
}

# Per-layer metrics: (name, unit, better, source, statistic). The source is
# a family or "layer:<name>". Every value is per workload cycle; times are
# the median over traced cycles, counts are exact and equal in every cycle.
METRICS = [
    ("rng.normal.calls", "count", "lower", "rng.normal", "calls"),
    ("rng.normal.draws", "count", "lower", "rng.normal", "work"),
    ("rng.normal.busy_s", "s", "lower", "rng.normal", "busy"),
    ("rng.randint.calls", "count", "lower", "rng.randint", "calls"),
    ("rng.busy_s", "s", "lower", "layer:rng", "busy"),
    ("diffusion.sampler.self_s", "s", "lower", "diffusion.sampler", "self"),
    ("diffusion.predict.calls", "count", "lower", "diffusion.predict", "calls"),
    ("diffusion.predict.busy_s", "s", "lower", "diffusion.predict", "busy"),
    ("diffusion.training_loss.self_s", "s", "lower", "diffusion.training_loss", "self"),
    ("rotation.rotate.calls", "count", "lower", "rotation.rotate", "calls"),
    ("rotation.rotate.pixels", "count", "lower", "rotation.rotate", "work"),
    ("rotation.rotate.busy_s", "s", "lower", "rotation.rotate", "busy"),
    ("resample.convolve2d.calls", "count", "lower", "resample.convolve2d", "calls"),
    ("resample.convolve2d.macs", "count", "lower", "resample.convolve2d", "work"),
    ("resample.convolve2d.busy_s", "s", "lower", "resample.convolve2d", "busy"),
    ("resample.af.self_s", "s", "lower", "resample.af", "self"),
    ("resample.naive.busy_s", "s", "lower", "resample.naive", "busy"),
    ("resample.check_image.calls", "count", "lower", "resample.check_image", "calls"),
    ("activation.wrapped.calls", "count", "lower", "activation.wrapped", "calls"),
    ("activation.wrapped.self_s", "s", "lower", "activation.wrapped", "self"),
    ("activation.relu.busy_s", "s", "lower", "activation.relu", "busy"),
    ("activation.gelu.busy_s", "s", "lower", "activation.gelu", "busy"),
    ("activation.pointwise.elements", "count", "lower", "activation.pointwise", "work"),
    ("filter_design.design_kernel.calls", "count", "lower", "filter_design.design_kernel", "calls"),
    ("filter_design.design_kernel.busy_s", "s", "lower", "filter_design.design_kernel", "busy"),
    ("filter_design.kernel_reuse_ratio", "ratio", "higher", "filter_design.design_kernel", "reuse"),
    ("special_functions.calls", "count", "lower", "special_functions", "calls"),
    ("special_functions.busy_s", "s", "lower", "special_functions", "busy"),
    ("spectral.corpus.busy_s", "s", "lower", "spectral.corpus", "busy"),
    ("spectral.alias_energy.calls", "count", "lower", "spectral.alias_energy", "calls"),
    ("spectral.alias_energy.busy_s", "s", "lower", "spectral.alias_energy", "busy"),
    ("spectral.pipeline.self_s", "s", "lower", "spectral.pipeline", "self"),
    ("spectral.equivariance.self_s", "s", "lower", "spectral.equivariance", "self"),
    ("image_io.read.calls", "count", "lower", "image_io.read", "calls"),
    ("image_io.read.bytes", "count", "lower", "image_io.read", "work"),
    ("image_io.read.busy_s", "s", "lower", "image_io.read", "busy"),
    ("image_io.write.calls", "count", "lower", "image_io.write", "calls"),
    ("image_io.write.bytes", "count", "lower", "image_io.write", "work"),
    ("image_io.write.busy_s", "s", "lower", "image_io.write", "busy"),
    ("cli.main.self_s", "s", "lower", "cli.main", "self"),
    ("cli.build_parser.busy_s", "s", "lower", "cli.build_parser", "busy"),
] + [(f"{layer}.errors", "count", "lower", f"layer:{layer}", "errors") for layer in LAYERS] + [
    ("trace.overhead", "ratio", "lower", "trace", "overhead"),
]

COUNT_STATS = ("calls", "work", "reuse", "errors")


def _resolve(module_name, qualname):
    """Return (owner, attribute, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans of wrapped aliasfree calls into in-memory arrays."""

    def __init__(self):
        self.families = FAMILIES
        self.names = []            # span name table, index = name id
        self.name_family = []      # name id -> family
        self.name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.work = array("d")
        self.keys = {}             # span index -> design key (kernel reuse)
        self.errors = {layer: 0 for layer in LAYERS}
        self.counter_failures = set()
        self.current_op = -1
        self._stack = []
        self._last_error = {}
        self._restore = []
        self.missing = []          # "module:qualname" that could not be found
        self.present_families = set()

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every binding of every traced name that still exists."""
        self.missing = []
        self.present_families = set()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "aliasfree" or n.startswith("aliasfree."))]
        for family, (layer, targets, counter) in self.families.items():
            for module_name, qualname in targets:
                found = _resolve(module_name, qualname)
                if found is None:
                    self.missing.append(f"{module_name}:{qualname}")
                    continue
                owner, attr, original = found
                self.present_families.add(family)
                wrapper = self._wrap(original, qualname, family, layer, counter)
                if isinstance(owner, type):
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, binding, original))
                            setattr(module, binding, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _name_id(self, qualname, family):
        nid = self.name_ids.get(qualname)
        if nid is None:
            nid = self.name_ids[qualname] = len(self.names)
            self.names.append(qualname)
            self.name_family.append(family)
        return nid

    def _wrap(self, fn, qualname, family, layer, counter):
        nid = self._name_id(qualname, family)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.work.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                if self._last_error.get(layer) is not exc:
                    self._last_error[layer] = exc
                    self.errors[layer] += 1
                raise
            else:
                t1 = clock()
            finally:
                stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            if counter is not None:
                try:
                    value = counter(args, kwargs, result)
                except Exception:
                    self.counter_failures.add(family)
                else:
                    if counter is _spec_key:
                        self.keys[idx] = value
                    else:
                        self.work[idx] = value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- summarising ------------------------------------------------------

    def cycle_stats(self, op_cycle):
        """Per-cycle statistics {cycle: {source: {stat: value}}}, and {cycle: summed self time}.

        `op_cycle` maps operation id to cycle index. Busy time counts only
        spans with no ancestor in the same family (or layer), so nested
        calls are not counted twice; self time subtracts the spans that a
        span directly caused.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        family_of = [self.name_family[self.name[i]] for i in range(n)]
        stats = {}
        self_total = {}
        for i in range(n):
            cycle = op_cycle.get(self.op[i])
            if cycle is None:
                continue
            fam = family_of[i]
            layer = self.families[fam][0]
            anc_fams = set()
            p = self.parent[i]
            while p >= 0:
                anc_fams.add(family_of[p])
                p = self.parent[p]
            anc_layers = {self.families[f][0] for f in anc_fams}
            per = stats.setdefault(cycle, {})
            for source, outer in ((fam, fam not in anc_fams),
                                  (f"layer:{layer}", layer not in anc_layers)):
                s = per.setdefault(source, {"calls": 0, "busy": 0.0, "self": 0.0,
                                            "work": 0.0, "keys": set()})
                s["calls"] += 1
                s["self"] += dur[i] - child[i]
                s["work"] += self.work[i]
                if outer:
                    s["busy"] += dur[i]
                if i in self.keys:
                    s["keys"].add(self.keys[i])
            self_total[cycle] = self_total.get(cycle, 0.0) + dur[i] - child[i]
        return stats, self_total

    def metrics(self, op_cycle, overhead):
        """Per-layer metric values, None for absent ones; `overhead` is trace.overhead.

        Returns (values, touched, exact, self_total): `touched` names
        metrics whose source ran at least once; `exact` is False for a count
        that differed between traced cycles; `self_total` maps each traced
        cycle to the sum of all spans' self times.
        """
        stats, self_total = self.cycle_stats(op_cycle)
        cycles = sorted(set(op_cycle.values()))
        values, touched, exact = {}, set(), {}
        layer_present = {self.families[f][0] for f in self.present_families}
        for name, _unit, _better, source, stat in METRICS:
            if source == "trace":
                values[name] = overhead
                touched.add(name)
                continue
            if source.startswith("layer:"):
                present = source[6:] in layer_present
            else:
                present = source in self.present_families
            if not present or (stat == "work" and source in self.counter_failures):
                values[name] = None
                continue
            if stat == "errors":
                values[name] = self.errors[source[6:]]
                touched.add(name)
                continue
            per_cycle = []
            for c in cycles:
                s = stats.get(c, {}).get(source)
                if s is None:
                    per_cycle.append(0)
                elif stat == "reuse":
                    per_cycle.append(len(s["keys"]) / s["calls"])
                else:
                    per_cycle.append(s[stat])
            if any(stats.get(c, {}).get(source) for c in cycles):
                touched.add(name)
            if stat in COUNT_STATS:
                exact[name] = len(set(per_cycle)) <= 1
            value = statistics.median(per_cycle) if per_cycle else 0
            if stat in ("calls", "work") and float(value).is_integer():
                value = int(value)
            values[name] = value
        return values, touched, exact, self_total

    def write(self, path, op_info, t_origin):
        """Write every span as gzipped JSON columns, times relative to t_origin."""
        n = len(self.start)
        payload = {
            "names": self.names,
            "families": self.name_family,
            "ops": op_info,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[self.name[i], round(self.start[i] - t_origin, 9),
                       round(self.end[i] - t_origin, 9), self.parent[i], self.op[i]]
                      for i in range(n)],
            "missing": self.missing,
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(payload, handle, separators=(",", ":"))
