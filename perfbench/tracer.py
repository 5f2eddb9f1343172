"""Span tracing of the vdpc package from outside the program.

``Tracer.install`` replaces module-level function references in the
package's modules with wrappers that record a span per call: name, start,
end and parent.  Spans stay in memory; ``summary`` reduces them to the
per-layer metrics and ``write`` dumps them as CSV at the end of a run.
The package itself is not modified on disk, and nothing is wrapped until
``install`` is called, so untraced runs execute the original functions.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
import weakref

import numpy as np

# The package's modules are its layers; ``errors`` does no work.
LAYERS = ("cli", "vdpc", "density", "baselines", "metrics", "dataset")

# Span names follow the stage a call serves rather than the module that
# defines the function: DPC assignment inside vdpc_run is the pipeline's
# initial-label stage, CSV parsing and row writing are the CLI's I/O, and
# ``squareform`` is the square matrix behind ``CondensedDistances.square``.
RENAMED = {
    ("vdpc", "dpc_assign"): "vdpc.dpc_assign",
    ("cli", "load_points_csv"): "cli.load_points_csv",
    ("cli", "_write_rows"): "cli.write_rows",
    ("dataset", "squareform"): "dataset.square",
    ("dataset", "pdist"): "dataset.pdist",
}

# Function names whose per-call time the summary reports, as
# "<layer>.<function>" with the suffix ".s".
TIMED = (
    "dataset.pdist", "dataset.square",
    "density.cutoff_distance", "density.local_density", "density.delta_and_neighbors",
    "vdpc.asnnc", "vdpc.adbscan_level", "vdpc.derive_adbscan_params",
    "vdpc.reassign_boundary", "vdpc.microcluster_postprocess", "vdpc.assign_noise",
    "vdpc.compute_levels", "vdpc.dpc_assign",
    "baselines.dbscan", "baselines.dpc_assign",
    "metrics.adjusted_rand_index", "metrics.normalized_mutual_information",
    "cli.load_bundled", "cli.load_points_csv", "cli.write_rows",
)
SELF_TIMED = ("dataset.pairwise_distances", "vdpc.vdpc_run", "cli.main")
COUNTED = ("dataset.pairwise_distances", "density.density_profile", "vdpc.vdpc_run")
RESULT_COUNTS = ("levels", "level_points", "boundary_points", "noise_points", "representatives")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._builds: dict[int, tuple] = {}  # id(distances) -> (weakref, dataset key)
        self.datasets: list[tuple] = []  # dataset key of each build in this pass
        self.profiles: list[tuple] = []  # (dataset key, pct) of each profile in this pass
        self.reuse = {"builds": [0, 0], "profiles": [0, 0]}  # [distinct, computed]
        self.distance_bytes = 0
        self.result_counts = dict.fromkeys(RESULT_COUNTS, 0)
        self.passes = 0
        self._wrapped: list[tuple] = []  # (module, attribute, original, wrapper)

    # -- wrapping -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer, plus the two SciPy
        calls the dataset layer makes and the CLI's row writer.
        ``uninstall`` puts the original functions back."""
        if not self._wrapped:
            for ns in LAYERS:
                mod = importlib.import_module("vdpc." + ns)
                for attr, value in list(vars(mod).items()):
                    if (ns, attr) in RENAMED:
                        name = RENAMED[(ns, attr)]
                    elif (attr.startswith("_") or not isinstance(value, types.FunctionType)
                          or not value.__module__.startswith("vdpc.")):
                        continue
                    else:
                        name = value.__module__.split(".")[1] + "." + attr
                    self._wrapped.append((mod, attr, value, self._wrap(name, value)))
        for mod, attr, _, traced in self._wrapped:
            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._wrapped:
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = {
            "dataset.pairwise_distances": self._on_build,
            "density.density_profile": self._on_profile,
            "vdpc.vdpc_run": self._on_result,
            "baselines.dbscan": self._on_distances,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counts read at the layer boundaries (outside the spans) ----------

    def _on_build(self, args, cd) -> None:
        ds = args[0]
        key = (ds.name, ds.n)
        self.datasets.append(key)
        self._builds[id(cd)] = (weakref.ref(cd), key)
        self._on_distances((cd,), cd)

    def _on_profile(self, args, profile) -> None:
        cd, pct = args[0], args[1]
        ref, key = self._builds.get(id(cd), (None, None))
        self.profiles.append((key if ref is not None and ref() is cd else None, float(pct)))
        self._on_distances(args, profile)

    def _on_result(self, args, result) -> None:
        c = self.result_counts
        c["levels"] += result.levels.numl
        c["level_points"] += int(np.count_nonzero(result.point_level > 1))
        c["boundary_points"] += len(result.boundary_points)
        c["noise_points"] += int(np.count_nonzero(result.pre_noise_labels < 0))
        c["representatives"] += len(result.representatives)

    def _on_distances(self, args, _result) -> None:
        """Bytes of every array the distance object holds right now."""
        held = sum(v.nbytes for v in vars(args[0]).values() if isinstance(v, np.ndarray))
        self.distance_bytes = max(self.distance_bytes, held)

    def end_pass(self) -> None:
        self.passes += 1
        for kind, keys in (("builds", self.datasets), ("profiles", self.profiles)):
            self.reuse[kind][0] += len(set(keys))
            self.reuse[kind][1] += len(keys)
            keys.clear()
        self._builds.clear()

    # -- reduction --------------------------------------------------------

    def summary(self, traced_walls: list[float], untraced_walls: list[float]) -> dict:
        """Per-layer metrics, each per traced pass: ``{name: (value, unit)}``."""
        passes = max(self.passes, 1)
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        roots = 0.0
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] = total.get(name, 0.0) + d
            own[name] = own.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                roots += d
            else:
                pname = self.spans[parent][0]
                own[pname] = own.get(pname, 0.0) - d
        m: dict[str, tuple] = {}
        for name in TIMED:
            m[name + ".s"] = (total.get(name, 0.0) / passes, "s")
        for name in SELF_TIMED:
            m[name + ".self_s"] = (own.get(name, 0.0) / passes, "s")
        for name in COUNTED:
            m[name + ".calls"] = (calls.get(name, 0) / passes, "count")
        for layer in LAYERS:
            m[layer + ".self_s"] = (
                sum(v for k, v in own.items() if k.split(".")[0] == layer) / passes, "s")
        m["dataset.distance_bytes"] = (float(self.distance_bytes), "bytes")
        m["dataset.build_reuse_ratio"] = (_ratio(*self.reuse["builds"]), "ratio")
        m["density.profile_reuse_ratio"] = (_ratio(*self.reuse["profiles"]), "ratio")
        for key, value in self.result_counts.items():
            m["vdpc." + key] = (value / passes, "count")
        wall = float(np.median(traced_walls))
        untraced = float(np.median(untraced_walls))
        m["trace.wall_s"] = (wall, "s")
        m["trace.untraced_wall_s"] = (untraced, "s")
        m["trace.overhead_s"] = (wall - untraced, "s")
        m["trace.unattributed_s"] = ((sum(traced_walls) - roots) / passes, "s")
        m["trace.spans"] = (len(self.spans) / passes, "count")
        return m

    def write(self, path) -> None:
        """Dump every span as CSV: index, name, start, end, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%d,%s,%.9f,%.9f,%d\n" % (i, name, start - t0, end - t0, parent))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0
