"""Traced-run recorder: spans around calls into each matconv module.

The recorder replaces the module attributes that callers look up (for
example ``matconv.sets.dykstra_solve`` or ``matconv.numkernel.min_eig``) with
wrappers that open a span, call the original, and close the span.  Nothing
is added to the package itself; ``uninstall`` puts every original back.

Each span records a name, start, end, parent span and query id.  Spans stay
in memory and are written out once, at the end of the run.  Self time (a
span's duration minus the time its child spans cover), group totals and
counters are accumulated as spans close, so the summary needs no second
pass.  A span's layer is the module prefix of its name; ``cli`` is the root
span around each ``cli.main`` call.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  The same function appears under every
# module that imported it by name, because that is where callers look it up;
# ``SymmetryGroup`` is the frames class whose methods the CLI calls.
TARGETS = [
    ("jsonio", "load_json", "jsonio.decode"),
    ("jsonio", "decode_tuple", "jsonio.decode"),
    ("jsonio", "decode_polytope", "jsonio.decode"),
    ("jsonio", "decode_frame", "jsonio.decode"),
    ("jsonio", "decode_frame_vectors", "jsonio.decode"),
    ("jsonio", "decode_lambda_family", "jsonio.decode"),
    ("jsonio", "decode_atoms", "jsonio.decode"),
    ("jsonio", "encode_matrix", "jsonio.encode"),
    ("jsonio", "encode_tuple", "jsonio.encode"),
    ("jsonio", "encode_polytope", "jsonio.encode"),
    ("jsonio", "encode_dilation", "jsonio.encode"),
    ("jsonio", "dumps_report", "jsonio.dumps"),
    ("sets", "wmax_member", "sets.sweep"),
    ("sets", "diamond_wmax_member", "sets.sweep"),
    ("sets", "first_violated_sign", "sets.sweep"),
    ("ucp", "first_violated_sign", "sets.sweep"),
    ("dilation", "first_violated_sign", "sets.sweep"),
    ("sets", "wmin_member", "sets.wmin"),
    ("ucp", "wmin_member", "sets.wmin"),
    ("ucp", "zero_interior_range", "sets.range_probe"),
    ("sets", "affine_projector_povm", "sdp.affine_build"),
    ("sets", "dykstra_solve", "sdp.solve"),
    ("ucp", "dykstra_solve", "sdp.solve"),
    ("sdp", "psd_project", "sdp.psd_project"),
    ("ucp", "choi_affine_projector", "ucp.projector_build"),
    ("ucp", "ucp_exists", "ucp.map"),
    ("ucp", "ccp_exists", "ucp.map"),
    ("ucp", "cc_exists", "ucp.map"),
    ("ucp", "spectrahedron_inclusion", "ucp.map"),
    ("ucp", "relax_cube", "ucp.map"),
    ("cli", "flip_dilation", "dilation.build"),
    ("cli", "lambda_dilation", "dilation.build"),
    ("cli", "frame_dilation", "dilation.build"),
    ("cli", "diamond_dilation", "dilation.build"),
    ("cli", "cube_to_diamond_dilation", "dilation.build"),
    ("dilation", "flip_dilation", "dilation.build"),
    ("dilation", "lambda_dilation", "dilation.build"),
    ("dilation", "dilation_residuals", "dilation.residuals"),
    ("numkernel", "min_eig", "numkernel.eig"),
    ("numkernel", "max_eig", "numkernel.eig"),
    ("numkernel", "herm_eig", "numkernel.eig"),
    ("numkernel", "opnorm", "numkernel.eig"),
    ("cli", "symmetry_group", "frames.symmetry"),
    ("cli", "is_vertex_reflexive", "frames.analysis"),
    ("cli", "projection_invariance", "frames.analysis"),
    ("cli", "check_tight", "frames.analysis"),
    ("cli", "build_frame", "frames.analysis"),
    ("SymmetryGroup", "is_transitive", "frames.analysis"),
    ("SymmetryGroup", "verify_closure", "frames.analysis"),
    ("witnesses", "clifford_tuple", "witnesses.check"),
    ("witnesses", "sharpness_check", "witnesses.check"),
    ("witnesses", "sqrt_d_check", "witnesses.check"),
    ("witnesses", "nonscalable_check", "witnesses.check"),
    ("witnesses", "ball_chain_witnesses", "witnesses.check"),
    ("witnesses", "tau_rho_harness", "witnesses.check"),
]

LAYERS = ("cli", "jsonio", "sets", "sdp", "ucp", "dilation", "frames",
          "witnesses", "numkernel")

# Per-layer metrics and their units.  Times and counts are per traced query,
# except where the README names another base (per solve, per sweep, ...).
PER_LAYER = {
    "ucp.projector_build_s": "s",
    "ucp.project_s": "s",
    "ucp.project_calls": "count",
    "sdp.solve_s": "s",
    "sdp.iterations": "count",
    "sdp.ms_per_iter": "ms",
    "sdp.psd_project_s": "s",
    "sdp.psd_project_calls": "count",
    "sdp.decided_ratio": "ratio",
    "sdp.affine_project_s": "s",
    "sets.sweep_s": "s",
    "sets.signs_checked": "count",
    "numkernel.eig_s": "s",
    "numkernel.eig_calls": "count",
    "dilation.build_s": "s",
    "dilation.residuals_s": "s",
    "dilation.dim": "count",
    "jsonio.encode_s": "s",
    "jsonio.bytes_out": "B",
    "jsonio.decode_s": "s",
    "frames.symmetry_s": "s",
    "witnesses.s": "s",
}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({
    "trace.query_s": "s",
    "trace.overhead_frac": "ratio",
})

# Per-layer time metrics: the outermost spans of these groups, summed.
GROUP_METRICS = {
    "ucp.projector_build_s": ("ucp.projector_build",),
    "ucp.project_s": ("ucp.project",),
    "sdp.solve_s": ("sdp.solve",),
    "sdp.psd_project_s": ("sdp.psd_project",),
    "sdp.affine_project_s": ("sdp.affine_project",),
    "sets.sweep_s": ("sets.sweep",),
    "numkernel.eig_s": ("numkernel.eig",),
    "dilation.build_s": ("dilation.build",),
    "dilation.residuals_s": ("dilation.residuals",),
    "jsonio.encode_s": ("jsonio.encode", "jsonio.dumps"),
    "jsonio.decode_s": ("jsonio.decode",),
    "frames.symmetry_s": ("frames.symmetry",),
    "witnesses.s": ("witnesses.check",),
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self._stack: list[int] = []
        self._child = [0.0]           # child time of each open span
        self._depth = defaultdict(int)
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.qid = -1
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.qid)
        self.end.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        self._depth[name] += 1
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, name: str) -> None:
        t = time.perf_counter()
        self.end[sid] = t
        dur = t - self.start[sid]
        self._stack.pop()
        child = self._child.pop()
        self._child[-1] += dur
        self.self_s[name.split(".", 1)[0]] += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.group_s[name] += dur

    def call(self, name, fn, *args, **kwargs):
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name)

    def query_span(self, qid: int, fn, *args):
        """Root span of one query."""
        self.qid = qid
        self.counts["queries"] += 1
        return self.call("cli.main", fn, *args)

    def in_group(self, name: str) -> bool:
        return self._depth[name] > 0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        post = _POST.get(name)

        def wrapper(*args, **kwargs):
            outermost = self._depth[name] == 0
            res = self.call(name, fn, *args, **kwargs)
            return post(self, res, outermost) if post else res

        return wrapper

    def wrap_closure(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self, modules):
        for mod, attr, name in TARGETS:
            target = modules[mod]
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original))

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def summary(self, traced_qps: float, untraced_qps: float) -> dict:
        """Every per-layer metric, each count divided by its base."""
        c = self.counts
        nq = max(c["queries"], 1.0)
        out = {metric: sum(self.group_s[g] for g in groups) / nq
               for metric, groups in GROUP_METRICS.items()}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] / nq
        solves = c["sdp.solves"]
        out.update({
            "ucp.project_calls": c["ucp.project"] / nq,
            "sdp.psd_project_calls": c["sdp.psd_project"] / nq,
            "sdp.iterations": c["sdp.iterations"] / solves if solves else 0.0,
            "sdp.ms_per_iter": (1e3 * self.group_s["sdp.solve"]
                                / c["sdp.iterations"]
                                if c["sdp.iterations"] else 0.0),
            "sdp.decided_ratio": c["sdp.decided"] / solves if solves else 0.0,
            "sets.signs_checked": (c["sets.signs_checked"] / c["sets.sweeps"]
                                   if c["sets.sweeps"] else 0.0),
            "numkernel.eig_calls": c["numkernel.eig"] / nq,
            "dilation.dim": (c["dilation.dim"] / c["dilation.builds"]
                             if c["dilation.builds"] else 0.0),
            "jsonio.bytes_out": c["jsonio.bytes_out"] / nq,
            "trace.query_s": self.group_s["cli.main"] / nq,
            "trace.overhead_frac": 1.0 - traced_qps / untraced_qps,
        })
        return out

    def write(self, path: str) -> None:
        np.savez(path, start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 query=np.frombuffer(self.query, dtype=np.int32),
                 names=np.array(json.dumps(self.names)))


# ---------------------------------------------------------------------------
# Post-processing of results: closures to wrap and counters to read off
# ---------------------------------------------------------------------------


def _post_choi_projector(rec, res, outermost):
    project, short = res
    return rec.wrap_closure("ucp.project", project), short


def _post_povm_projector(rec, res, outermost):
    return rec.wrap_closure("sdp.affine_project", res)


def _post_solve(rec, res, outermost):
    rec.counts["sdp.solves"] += 1
    rec.counts["sdp.iterations"] += res.iterations
    rec.counts["sdp.decided"] += res.status.value != "Undecided"
    return res


def _post_psd(rec, res, outermost):
    rec.counts["sdp.psd_project"] += 1
    return res


def _post_sweep(rec, res, outermost):
    if outermost:
        rec.counts["sets.sweeps"] += 1
    return res


def _post_eig(rec, res, outermost):
    rec.counts["numkernel.eig"] += 1
    if rec.in_group("sets.sweep"):
        rec.counts["sets.signs_checked"] += 1
    return res


def _post_build(rec, res, outermost):
    if outermost:
        rec.counts["dilation.builds"] += 1
        rec.counts["dilation.dim"] += res.dim
    return res


def _post_dumps(rec, res, outermost):
    rec.counts["jsonio.bytes_out"] += len(res)
    return res


_POST = {
    "ucp.projector_build": _post_choi_projector,
    "sdp.affine_build": _post_povm_projector,
    "sdp.solve": _post_solve,
    "sdp.psd_project": _post_psd,
    "sets.sweep": _post_sweep,
    "numkernel.eig": _post_eig,
    "dilation.build": _post_build,
    "jsonio.dumps": _post_dumps,
}
