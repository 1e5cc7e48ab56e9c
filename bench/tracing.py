"""Span tracer for kpidyn, installed from outside the package.

`Tracer.install` wraps every public function and every public method of
the eight kpidyn layers, and rebinds the wrapper at every module-level
name that holds the original (``kpidyn.cli.solve_bvp_shooting``,
``kpidyn.io.el_residual``, the package re-exports, ...).  Methods are
wrapped on their class, so ``GridTabulated.gradient`` is traced also when
a solver reaches it through ``_hot_gradient``.  Nothing under ``src/``
changes; `uninstall` restores every original.

A span is recorded only while an op is active (``tracer.op`` is set), so
set-up, warm-up and reference checks leave no spans.  Spans live in one
in-memory list of tuples and are written out once, by `write`.

Calls made inside the worker processes of ``scan --jobs 2`` are not
traced: a forked worker records into its own copy of the span list,
which dies with it.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("model", "transforms", "variational", "invariants", "planner",
          "oscillators", "io", "cli")

# span tuple fields
NAME, START, END, PARENT, OP, ERROR, UNITS = range(7)


def _rows(arg_index):
    return lambda args, kwargs, out: len(args[arg_index])


def _traj_rows(arg_index):
    return lambda args, kwargs, out: args[arg_index].m


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _integrate_units(args, kwargs, out):
    gain = args[1]
    kind = "grid%dd" % gain.n if type(gain).__name__ == "GridTabulated" else "well"
    return (out.m - 1, kind)


# Work units recorded per span, by span name: rows, steps, dimension or bytes.
UNITS_OF = {
    "model.GridTabulated.gradients": _rows(1),
    "model.QuadraticWell.gradients": _rows(1),
    "variational.compute_profit": _traj_rows(2),
    "variational.el_residual": _traj_rows(2),
    "variational.integrate_ivp": _integrate_units,
    "invariants.build_report": _traj_rows(2),
    "transforms.modal_basis": lambda args, kwargs, out: args[0].n,
    "planner.plan_horizon": lambda args, kwargs, out: out.m - 1,
    "oscillators.simulate_perturbed": lambda args, kwargs, out: out.trajectory.m - 1,
    "io.write_trajectory_csv": lambda args, kwargs, out: (args[1].m, _file_size(args[0])),
    "io.write_series_csv": lambda args, kwargs, out: (
        len(next(iter(args[1].values()))), _file_size(args[0])),
    "io.read_trajectory_csv": lambda args, kwargs, out: (out.m, _file_size(args[0])),
}


class Tracer:
    """Records (name, start, end, parent, op, error, units) spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._plan: list = []
        self._patches: list = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if not self._plan:
            self._plan = self._plan_patches()
        for owner, attr, wrapper in self._plan:
            self._patch(owner, attr, wrapper)

    def _plan_patches(self) -> list:
        """(owner, attribute, wrapper) for every public function and method."""
        import kpidyn  # noqa: F401  (loads every layer)

        plan, wrappers = [], {}
        for layer in LAYERS:
            mod = sys.modules[f"kpidyn.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            plan.append((obj, mname, self._wrap(f"{layer}.{name}.{mname}", meth)))
        # rebind at every name a caller binds
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "kpidyn" or modname.startswith("kpidyn.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    plan.append((mod, attr, wrappers[val]))
        return plan

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        units_of = UNITS_OF.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                units = units_of(args, kwargs, out) if units_of and error is None else None
                spans[idx] = (nid, start, end, parent, op, error, units)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as an uncompressed .npz (one array per field)."""
        import numpy as np

        spans = self.spans
        errors = sorted({s[ERROR] for s in spans if s[ERROR]})
        err_id = {e: i for i, e in enumerate(errors)}

        def first_unit(u):
            if u is None:
                return np.nan
            return float(u[0] if isinstance(u, tuple) else u)

        np.savez(path,
                 names=np.array(self.names), errors=np.array(errors, dtype=str),
                 name=np.array([s[NAME] for s in spans], dtype=np.int32),
                 start=np.array([s[START] for s in spans]),
                 end=np.array([s[END] for s in spans]),
                 parent=np.array([s[PARENT] for s in spans], dtype=np.int64),
                 op=np.array([s[OP] for s in spans], dtype=np.int64),
                 error=np.array([err_id[s[ERROR]] if s[ERROR] else -1 for s in spans],
                                dtype=np.int32),
                 units=np.array([first_unit(s[UNITS]) for s in spans]))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class LayerStats:
    """Per-layer metrics derived from one traced pass.

    `first_round_ops` is the set of op ids of the first round of the
    schedule; counts taken over it repeat exactly for a given seed.
    """

    def __init__(self, tracer: Tracer, op_kinds: dict[int, str], first_round_ops: set[int]):
        self.names = tracer.names
        self.spans = tracer.spans
        self.op_kinds = op_kinds
        self.first = first_round_ops
        self.by_name = defaultdict(list)
        for i, s in enumerate(self.spans):
            self.by_name[self.names[s[NAME]]].append(i)

    def _dur(self, i):
        s = self.spans[i]
        return s[END] - s[START]

    def calls(self, name, first_only=False, where=None):
        ids = self.by_name.get(name, [])
        if first_only:
            ids = [i for i in ids if self.spans[i][OP] in self.first]
        if where is not None:
            ids = [i for i in ids if where(self.spans[i])]
        return ids

    def mean_ms(self, name, where=None):
        ids = self.calls(name, where=where)
        return 1e3 * sum(self._dur(i) for i in ids) / len(ids) if ids else 0.0

    def _unit(self, i, unit_index):
        u = self.spans[i][UNITS]
        return u[unit_index] if unit_index is not None else u

    def us_per_unit(self, names, where=None, unit_index=None):
        ids = [i for name in names for i in self.calls(name, where=where)
               if self.spans[i][UNITS] is not None]
        units = sum(self._unit(i, unit_index) for i in ids)
        return 1e6 * sum(self._dur(i) for i in ids) / units if units else 0.0

    def fail_ratio(self, name):
        ids = self.calls(name)
        return sum(1 for i in ids if self.spans[i][ERROR]) / len(ids) if ids else 0.0

    def first_round_units(self, names, unit_index=None, where=None):
        return sum(self._unit(i, unit_index) for name in names
                   for i in self.calls(name, first_only=True, where=where)
                   if self.spans[i][UNITS] is not None)

    def self_ms_by_layer(self):
        own = self_times(self.spans)
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            out[self.names[s[NAME]].split(".", 1)[0]] += 1e3 * t
        return out


MODAL_DIMS = (1, 2, 3, 4, 8, 16, 64)
CLI_KINDS = ("eig", "solve", "plan", "simulate", "scan_forcing_j1", "scan_forcing_j2",
             "scan_parametric", "invariants", "profit")
FAIL_KINDS = ("NoConvergence", "Degenerate", "OutOfDomain", "check", "other")


def per_layer_metrics(tracer: Tracer, records: list[dict], first_round_ops: set[int],
                      untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), from one traced pass.

    Times are means over the whole pass (per call, row or step); counts
    marked "first round" are taken over the first round only, so they
    repeat exactly for a given seed.
    """
    st = LayerStats(tracer, {i: r["kind"] for i, r in enumerate(records)}, first_round_ops)
    spans, names = st.spans, st.names
    n_ops = len(records)
    grid_one, grid_many = "model.GridTabulated.gradient", "model.GridTabulated.gradients"

    def batched(s):
        return s[PARENT] < 0 or names[spans[s[PARENT]][NAME]] != grid_one

    def first_count(name, where=None):
        return float(len(st.calls(name, first_only=True, where=where)))

    def per_call(total_name, units_name, unit_index=None):
        calls = first_count(total_name)
        return st.first_round_units([units_name], unit_index) / calls if calls else 0.0

    direct = st.calls("variational.solve_bvp_direct", first_only=True)
    direct_set = set(direct)
    direct_grads = sum(
        1 for name in ("model.QuadraticWell.gradients", grid_many)
        for i in st.calls(name, first_only=True) if spans[i][PARENT] in direct_set)

    m = {
        "model.grid_gradient_us": (1e3 * st.mean_ms(grid_one), "us"),
        "model.grid_gradient_calls": (first_count(grid_one), "count"),
        "model.grid_gradients_calls": (first_count(grid_many, batched), "count"),
        "model.grid_gradients_rows": (
            float(st.first_round_units([grid_many], where=batched)), "count"),
        "model.grid_gradients_us_per_row": (st.us_per_unit([grid_many], where=batched), "us"),
        "model.well_gradients_us_per_row": (
            st.us_per_unit(["model.QuadraticWell.gradients"]), "us"),
        "transforms.symmetric_eigen_ms": (st.mean_ms("transforms.symmetric_eigen"), "ms"),
        "transforms.eigen_calls": (first_count("transforms.symmetric_eigen"), "count"),
    }
    for n in MODAL_DIMS:
        m[f"transforms.modal_basis_ms.n{n}"] = (
            st.mean_ms("transforms.modal_basis", where=lambda s, n=n: s[UNITS] == n), "ms")
    integ = "variational.integrate_ivp"
    m.update({
        "variational.shooting_ms": (st.mean_ms("variational.solve_bvp_shooting"), "ms"),
        "variational.shooting_fail_ratio": (
            st.fail_ratio("variational.solve_bvp_shooting"), "ratio"),
        "variational.integrate_us_per_step": (st.us_per_unit([integ], unit_index=0), "us"),
        "variational.integrate_us_per_step.well": (st.us_per_unit(
            [integ], where=lambda s: s[UNITS] and s[UNITS][1] == "well", unit_index=0), "us"),
        "variational.integrate_us_per_step.grid1d": (st.us_per_unit(
            [integ], where=lambda s: s[UNITS] and s[UNITS][1] == "grid1d", unit_index=0), "us"),
        "variational.integrate_steps_per_call": (per_call(integ, integ, 0), "count"),
        "variational.direct_ms": (st.mean_ms("variational.solve_bvp_direct"), "ms"),
        "variational.direct_fail_ratio": (
            st.fail_ratio("variational.solve_bvp_direct"), "ratio"),
        "variational.direct_gradient_calls": (
            direct_grads / len(direct) if direct else 0.0, "count"),
        "variational.profit_us_per_row": (
            st.us_per_unit(["variational.compute_profit"]), "us"),
        "variational.el_residual_us_per_row": (
            st.us_per_unit(["variational.el_residual"]), "us"),
        "invariants.build_report_us_per_row": (
            st.us_per_unit(["invariants.build_report"]), "us"),
        "planner.plan_us_per_step": (st.us_per_unit(["planner.plan_horizon"]), "us"),
        "planner.plan_steps_per_call": (
            per_call("planner.plan_horizon", "planner.plan_horizon"), "count"),
        "oscillators.rk4_us_per_step": (
            st.us_per_unit(["oscillators.simulate_perturbed"]), "us"),
        "oscillators.rk4_steps_per_call": (per_call(
            "oscillators.simulate_perturbed", "oscillators.simulate_perturbed"), "count"),
        "oscillators.forcing_peak_ms": (st.mean_ms("oscillators.forcing_peak"), "ms"),
        "oscillators.growth_rate_ms": (
            st.mean_ms("oscillators.parametric_growth_rate"), "ms"),
    })
    writes = ["io.write_trajectory_csv", "io.write_series_csv"]
    manifests = st.calls("io.write_manifest")
    manifest_s = sum(st._dur(i) for name in ("io.build_manifest", "io.write_manifest")
                     for i in st.calls(name))
    m.update({
        "io.csv_write_us_per_row": (
            st.us_per_unit(["io.write_trajectory_csv"], unit_index=0), "us"),
        "io.csv_read_us_per_row": (
            st.us_per_unit(["io.read_trajectory_csv"], unit_index=0), "us"),
        "io.series_write_us_per_row": (
            st.us_per_unit(["io.write_series_csv"], unit_index=0), "us"),
        "io.load_model_ms": (st.mean_ms("io.load_model"), "ms"),
        "io.manifest_ms": (1e3 * manifest_s / len(manifests) if manifests else 0.0, "ms"),
        "io.csv_rows_written": (float(st.first_round_units(writes, 0)), "count"),
        "io.csv_rows_read": (float(st.first_round_units(["io.read_trajectory_csv"], 0)), "count"),
        "io.bytes_written": (float(st.first_round_units(writes, 1)), "bytes_computed"),
        "io.bytes_read": (
            float(st.first_round_units(["io.read_trajectory_csv"], 1)), "bytes_computed"),
    })
    for kind in CLI_KINDS:
        m[f"cli.{kind}_ms"] = (st.mean_ms(
            "cli.main", where=lambda s, kind=kind: st.op_kinds[s[OP]] == kind), "ms")
    self_ms = st.self_ms_by_layer()
    cli_calls = len(st.calls("cli.main"))
    m["cli.self_ms"] = (self_ms["cli"] / cli_calls if cli_calls else 0.0, "ms")
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_ms_per_op"] = (self_ms[layer] / n_ops, "ms")
    traced_s = sum(r["latency"] for r in records)
    m["trace.overhead_ms_per_op"] = (1e3 * (traced_s - untraced_s) / n_ops, "ms")
    m["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    m["trace.spans_per_op"] = (len(spans) / n_ops, "count")
    failed = [r["status"] for r in records if r["status"] != "ok"]
    m["ops.fail_ratio"] = (len(failed) / n_ops, "ratio")
    for kind in FAIL_KINDS:
        hits = sum(1 for f in failed if f == kind
                   or (kind == "other" and f not in FAIL_KINDS))
        m[f"ops.failed.{kind}"] = (float(hits), "count")
    return m
