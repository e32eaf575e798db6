"""Per-layer tracing of one astower report, from outside the package.

Usage:  python3 perfbench/tracer.py OUT_JSON <astower arguments...>

The package must be importable (PYTHONPATH=src).  The script imports
astower, replaces public callables with timing wrappers in every astower
module namespace that holds them, runs `astower.cli.main` on the
arguments and, when the report ends, writes what it recorded to OUT_JSON.
Stdout carries the report exactly as the plain CLI prints it, and the
exit code is the CLI's, so the benchmark checks traced reports against
the same pinned references as untraced ones.

Only public names are wrapped: the functions in `astower.__all__`, the
few public functions listed in EXTRA_FUNCTIONS, and the public methods in
METHODS.  Backends, kernels and FieldCtx tables are never touched.  A
name missing from the package is skipped and listed under "missing", so
its metrics read as absent instead of failing the run.

The recorder assumes one thread, which holds because the benchmark never
passes --threads.
"""

import functools
import importlib
import json
import sys
import time

# Public functions outside astower.__all__ that the benchmark also wraps.
EXTRA_FUNCTIONS = [
    ("astower.genus", "class_conductor"),
    ("astower.local", "expand_rational"),
    ("astower.cli", "main"),
]

# Public methods wrapped on their class; dunder operators are reported
# without underscores (`LaurentPoly.__mul__` -> `LaurentPoly.mul`).
METHODS = [
    ("astower.laurent", "LaurentPoly",
     ["__add__", "__sub__", "__mul__", "__neg__", "__pow__", "scale",
      "shift", "pow_pk"]),
    ("astower.laurent", "TruncatedSeries",
     ["__add__", "__sub__", "__mul__", "__neg__", "scale", "pow_pk"]),
    ("astower.tower", "TowerPresentation", ["normalize", "element"]),
    ("astower.tower", "Endo", ["apply", "replace"]),
]

# Names called thousands of times per report (reduce_mod_wp about 59k
# times at (3,2)) keep counters and summed time only; every other wrapped
# call also records a span.
COUNTER_ONLY_LAYERS = {"laurent"}
COUNTER_ONLY = {
    "ff.make_field",
    "local.conductor_of_cover",
    "local.expand_rational",
    "local.reduce_mod_wp",
    "tower.TowerPresentation.normalize",
    "tower.TowerPresentation.element",
    "tower.Endo.apply",
    "tower.Endo.replace",
}


def _maxrss_kb() -> int:
    """This process's peak RSS since exec (VmHWM).  ru_maxrss would start
    at the benchmark's own peak, which a forked child inherits, and hide
    growth below it."""
    with open("/proc/self/status", encoding="ascii") as status:
        line = next(x for x in status if x.startswith("VmHWM:"))
    return int(line.split()[1])


class Recorder:
    """Counters, summed time and spans for the wrapped names of one report.

    stats maps a key such as "local.reduce_mod_wp" to
    [calls, inclusive seconds, self seconds, open calls].  Inclusive time
    counts only the outermost of nested calls to the same name; self time
    is a call's duration minus the time its wrapped callees took.
    """

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.spans = []
        self.missing = []
        self._frames = []

    def wrap(self, key, fn):
        layer = key.split(".", 1)[0]
        record_span = not (layer in COUNTER_ONLY_LAYERS or key in COUNTER_ONLY)
        st = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        frames = self._frames
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st[0] += 1
            st[3] += 1
            parent = frames[-1][1] if frames else None
            if record_span:
                sid = len(spans)
                spans.append([sid, parent, key, 0.0, 0.0])
            else:
                sid = parent
            frame = [0.0, sid]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                st[3] -= 1
                if not st[3]:
                    st[1] += dt
                st[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if record_span:
                    spans[sid][3] = t0
                    spans[sid][4] = t0 + dt

        return traced

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------- probes

    def probe_make_field(self, fn):
        """Count first calls per argument tuple (table builds) and their RSS growth."""
        seen = set()

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
            if key in seen:
                return fn(*args, **kwargs)
            seen.add(key)
            before = _maxrss_kb()
            out = fn(*args, **kwargs)
            self.add("ff.make_field.builds", 1)
            self.add("ff.make_field.rss_delta_kb", _maxrss_kb() - before)
            return out

        return probe

    def probe_ree_line_groups(self, fn):
        """Count the lines whose conductor the returned histogram certifies."""
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            groups = fn(*args, **kwargs)
            self.add("genus.ree_line_groups.lines", sum(groups.values()))
            return groups

        return probe


def _replace_everywhere(old, new) -> None:
    """Point every astower module attribute that holds `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "astower" or name.startswith("astower.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    import astower

    targets = []
    for name in getattr(astower, "__all__", []):
        obj = getattr(astower, name, None)
        if callable(obj) and not isinstance(obj, type):
            targets.append((obj.__module__, name, obj))
    listed = {(mod, name) for mod, name, _ in targets}
    for mod_name, name in EXTRA_FUNCTIONS:
        if (mod_name, name) in listed:
            continue
        try:
            obj = getattr(importlib.import_module(mod_name), name)
        except (ImportError, AttributeError):
            rec.missing.append(f"{mod_name}.{name}")
            continue
        targets.append((mod_name, name, obj))

    probes = {"ff.make_field": rec.probe_make_field,
              "genus.ree_line_groups": rec.probe_ree_line_groups}
    for mod_name, name, obj in targets:
        key = f"{mod_name.rsplit('.', 1)[-1]}.{name}"
        inner = probes[key](obj) if key in probes else obj
        _replace_everywhere(obj, rec.wrap(key, inner))

    for mod_name, cls_name, methods in METHODS:
        try:
            cls = getattr(importlib.import_module(mod_name), cls_name)
        except (ImportError, AttributeError):
            rec.missing.append(f"{mod_name}.{cls_name}")
            continue
        layer = mod_name.rsplit(".", 1)[-1]
        for meth in methods:
            fn = cls.__dict__.get(meth)
            if fn is None or not callable(fn):
                rec.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            key = f"{layer}.{cls_name}.{meth.strip('_')}"
            setattr(cls, meth, rec.wrap(key, fn))


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    t0 = time.perf_counter()
    from astower import cli  # imports every layer
    import_s = time.perf_counter() - t0
    install(rec)
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        laurent = sys.modules.get("astower.laurent")
        watermark = getattr(laurent, "support_watermark", None)
        if watermark is not None:
            rec.counts["laurent.support_max"] = watermark()
        else:
            rec.missing.append("astower.laurent.support_watermark")
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({
                "import_s": import_s,
                "stats": {k: v[:3] for k, v in rec.stats.items()},
                "counts": rec.counts,
                "spans": rec.spans,
                "missing": rec.missing,
            }, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
