"""Spans around the package's public functions, installed from outside.

Every public function of each layer module is wrapped, and the wrapper
replaces the function wherever a ``bimodal`` module binds it, including
names imported with ``from .x import y``.  ``verify.PairGraph`` gets its
constructor and walk methods wrapped on the class.  Spans (name, start,
end, parent) stay in memory until the run ends; nothing under ``src/``
changes.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("graphs", "spectra", "synth", "verify", "io", "cli")


def _len(x):
    return len(x) if hasattr(x, "__len__") else 0


def _encoder_size(args, kwargs, r):
    g = getattr(r, "graph", None)
    return None if g is None else (len(g.states), len(g.edges))


# per-span values recorded at return, summed into counters later
HOOKS = {
    "graphs.power": lambda a, k, r: _len(getattr(r, "edges", ())),
    "spectra.joint_ae_exists": lambda a, k, r: int(r is not None),
    "verify.PairGraph": lambda a, k, r: _len(getattr(a[0], "nodes", ())),
    "verify.encode_stream": lambda a, k, r: _len(r[0]),
    "verify.decode_stream": lambda a, k, r: _len(r),
    "verify.decode_sliding": lambda a, k, r: _len(r),
    "io.parse_graph_file": lambda a, k, r: _len(a[0]),
    "io.parse_encoder_file": lambda a, k, r: _len(a[0]),
    "io.serialize_graph": lambda a, k, r: _len(r),
    "io.serialize_encoder": lambda a, k, r: _len(r),
}
for _f in ("extract_deterministic", "merge_split_pair", "stether",
           "stether_punctured"):
    HOOKS["synth." + _f] = _encoder_size


class Tracer:
    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.value, self.failed = [], [], []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        names, starts, ends = self.name, self.start, self.end
        parents, values, failed = self.parent, self.value, self.failed
        stack = self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            values.append(None)
            failed.append(False)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                failed[i] = True
                stack.pop()
                raise
            ends[i] = clock()
            stack.pop()
            if hook is not None:
                values[i] = hook(args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import bimodal
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("bimodal." + layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap("%s.%s" % (layer, attr), obj)
        mods = [bimodal] + [m for n, m in sorted(sys.modules.items())
                            if n.startswith("bimodal.")]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        pair_graph = sys.modules["bimodal.verify"].PairGraph
        for attr, name in (("__init__", "verify.PairGraph"),
                           ("ext", "verify.PairGraph.ext"),
                           ("reach_sets", "verify.PairGraph.reach_sets")):
            self._patch(pair_graph, attr,
                        self._wrap(name, getattr(pair_graph, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for row in zip(self.name, self.start, self.end, self.parent):
                fh.write(json.dumps(row) + "\n")

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def shares(self, ranges):
        """Share of each layer in the self time of the spans in ``ranges``
        (a dict of label -> list of (first, stop) span index ranges)."""
        own = self.self_times()
        out = {}
        for label, spans in ranges.items():
            acc = dict.fromkeys(LAYERS, 0.0)
            for first, stop in spans:
                for i in range(first, stop):
                    acc[self.name[i].split(".", 1)[0]] += own[i]
            total = sum(acc.values()) or 1.0
            out[label] = {k: v / total for k, v in acc.items()}
        return out

    def metrics(self, wall_s):
        """Per-layer counters and self times over every recorded span;
        ``bench.self_s`` is the traced wall time outside any span."""
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        own_times = self.self_times()
        m = {}
        for layer in LAYERS:
            m[layer + ".self_s"] = 0.0
            m[layer + ".errors"] = 0
        roots = 0.0

        def add(key, v):
            m[key] = m.get(key, 0) + v

        def outer(i):
            p = self.parent[i]
            return p < 0 or (self.name[p].split(".", 1)[0]
                             != self.name[i].split(".", 1)[0])

        for i, name in enumerate(self.name):
            layer = name.split(".", 1)[0]
            own = own_times[i]
            add(name + ".self_s", own)
            add(name + ".calls", 1)
            add(layer + ".self_s", own)
            add(layer + ".errors", int(self.failed[i]))
            if self.parent[i] < 0:
                roots += dur[i]
            v = self.value[i]
            if v is None:
                continue
            if name == "graphs.power":
                add("graphs.power.edges_out", v)
            elif name == "spectra.joint_ae_exists":
                add("spectra.joint_ae_exists.feasible", v)
                p = self.parent[i]
                if p >= 0 and self.name[p] == "spectra.min_infnorm_ae":
                    add("spectra.min_infnorm_ae.caps_tried", 1)
            elif name == "verify.PairGraph":
                add("verify.PairGraph.pairs", v)
            elif name == "verify.encode_stream":
                add("verify.symbols_encoded", v)
            elif name in ("verify.decode_stream", "verify.decode_sliding"):
                add("verify.symbols_decoded", v)
            elif name.startswith("io.") and outer(i):
                add("io.bytes_read" if ".parse_" in name
                    else "io.bytes_written", v)
            elif layer == "synth" and outer(i):
                add("synth.encoder_states", v[0])
                add("synth.encoder_edges", v[1])
        for method in ("ext", "reach_sets"):
            add("verify.PairGraph.self_s",
                m.pop("verify.PairGraph.%s.self_s" % method, 0.0))
        calls = m.get("spectra.joint_ae_exists.calls", 0)
        m["spectra.joint_ae_exists.feasible_ratio"] = (
            m.pop("spectra.joint_ae_exists.feasible", 0) / calls
            if calls else 0.0)
        m["bench.self_s"] = wall_s - roots
        m["trace.spans"] = n
        return m
