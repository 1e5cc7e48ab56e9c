"""The three benchmark workloads: seeded inputs, ops and reference checks.

Every workload is a closed loop with one client: the runner executes one
round of ops after another and times each op's `run`.  A workload's
`prepare` writes fixed files, `generate` draws a round's raw inputs (input
generation, never timed) and `build` turns them into kpidyn models and
ops (set-up work for round 0).  `check` runs outside the timed region
and raises `CheckFailed` when a returned result is wrong.  An op's
`allowed` errors are the honest "no answer" it may give on its inputs;
any other exception makes the run wrong.  Inputs come only from the
seed and the round number, so the same seed gives the same inputs.

Import this module only after ``kpidyn`` itself has been imported: the
runner times that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os

import numpy as np
import scipy.linalg

import kpidyn
import kpidyn.cli
from kpidyn import errors, invariants, io, model, oscillators, planner, transforms, variational


class CheckFailed(Exception):
    """An op returned a result that disagrees with its reference."""


class CliFailed(Exception):
    """A CLI invocation exited non-zero; `error` is the reported error type."""

    def __init__(self, error: str, message: str):
        super().__init__(message)
        self.error = error


class Op:
    def __init__(self, kind: str, run, check, allowed: tuple = ()):
        self.kind = kind
        self.run = run
        self.check = check
        self.allowed = allowed


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def random_spd(rng, n, eig_range=(0.5, 2.0)):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(*eig_range, size=n)) @ q.T


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _spaced(n, lo, hi):
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def well_arrays(rng, n, span):
    """Loss, quadratic well and boundary pair with prescribed mode frequencies.

    Built like ``tests/conftest.py::single_well_instance``, with three
    changes that keep each op's cost independent of the seed: the loss
    eigenvalues (in [0.5, 2]) and the mode frequencies (in [0.5, 1.5]) are
    evenly spaced instead of drawn, and the span is fixed instead of drawn
    from [1, 0.9*pi/omega_max].  The seed draws both rotations, the centre,
    the boundary pair and t1.  Any span below pi/1.5 stays short of the
    first conjugate point.
    """
    rot = random_orthogonal(rng, n)
    kvals = _spaced(n, 0.5, 2.0)
    k = rot @ np.diag(kvals) @ rot.T
    w = np.sqrt(2.0 * kvals)[:, None] * rot.T          # w.T @ w == 2K
    omegas = _spaced(n, 0.5, 1.5)
    q = random_orthogonal(rng, n)
    c = w.T @ (q @ np.diag(omegas ** 2) @ q.T) @ w
    center = rng.uniform(-1.0, 1.0, size=n)
    t1 = rng.uniform(-1.0, 1.0)
    return {"k": 0.5 * (k + k.T), "c": 0.5 * (c + c.T), "center": center,
            "u0": rng.uniform(-1.0, 1.0), "omegas": omegas,
            "x1": center + rng.uniform(-1.0, 1.0, size=n),
            "x2": center + rng.uniform(-1.0, 1.0, size=n), "t1": t1, "t2": t1 + span}


def build_well(a):
    loss = model.LossModel(a["k"])
    gain = model.QuadraticWell(u0=a["u0"], center=a["center"], curvature=a["c"])
    bc = model.BoundaryConditions(x1=a["x1"], t1=a["t1"], x2=a["x2"], t2=a["t2"])
    return loss, gain, bc


def _max_abs_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def check_terminal(traj, bc, settings):
    miss = float(np.linalg.norm(traj.states[-1] - bc.x2))
    tol = settings.resolved_shooting_tol(bc.x2)
    if not miss <= tol:
        raise CheckFailed(f"terminal residual {miss:.3e} exceeds {tol:.3e}")


def check_agrees(traj, ref):
    """Direct solution against shooting on the same grid (about 1e-9 apart)."""
    if traj.states.shape != ref.states.shape:
        raise CheckFailed(f"grid mismatch {traj.states.shape} vs {ref.states.shape}")
    gap = _max_abs_diff(traj.states, ref.states)
    if not gap <= 1e-6 * (1.0 + float(np.abs(ref.states).max())):
        raise CheckFailed(f"direct and shooting paths differ by {gap:.3e}")


def check_stationary(loss, gain, bc, traj, settings):
    """Direct's own criterion, recomputed: endpoints and stationarity residual."""
    ends = _max_abs_diff(traj.states[[0, -1]], [bc.x1, bc.x2])
    resid = float(np.abs(variational.el_residual(loss, gain, traj)).max())
    if not (ends == 0.0 and resid <= 2.0 * settings.direct_grad_tol):
        raise CheckFailed(f"discrete stationarity residual {resid:.3e}")


def discrete_profit(loss, gain, traj):
    """The rectangle-rule profit the direct route maximizes."""
    x = traj.states
    v = np.diff(x, axis=0) / traj.dt
    return float(np.sum(gain.values(x[:-1]) - loss.values(v)) * traj.dt)


def check_agrees_grid(loss, gain, bc, traj, ref, settings):
    """Direct against shooting on a tabulated gain.

    The multilinear gain has kinks at every cell face, so the discrete
    problem can be nearly singular there: a path whose stationarity
    residual meets direct's tolerance may then sit up to ~1e-3 from
    shooting's in position while its profit agrees to ~1e-6.  Such a path
    passes when it is stationary and its profit agrees to 1e-5.
    """
    try:
        check_agrees(traj, ref)
        return
    except CheckFailed:
        pass
    check_stationary(loss, gain, bc, traj, settings)
    got, want = discrete_profit(loss, gain, traj), discrete_profit(loss, gain, ref)
    if not abs(got - want) <= 1e-5 * (1.0 + abs(want)):
        raise CheckFailed(f"direct profit {got:.10g} differs from shooting's {want:.10g}")


# -- bvp-well -----------------------------------------------------------------

WELL_DIMS = (1, 2, 4, 8, 16)
WELL_STEPS = (1e-2, 3e-3, 1e-3)       # 1e-3 is the CLI default --dt
WELL_SPAN = 1.0
# The known defect: at the CLI default --dt the direct route hits its
# iteration cap for every N >= 2 (N = 2 converges on a few seeds).  Every
# other bvp-well op solves its problem, so any error there is a bug.
DIRECT_DEFECT_DT = 1e-3


class BvpWell:
    """Shooting and direct solves of quadratic wells, N x dt in one round.

    Each instance gives two ops on the same grid, each followed by
    compute_profit and build_report with its modal basis.  The tail is
    taken over two rounds: its 11th-slowest op is then a direct solve at
    N=8, dt=3e-3, below the ten slowest direct solves.
    """

    name = "bvp-well"
    load_processes = 1
    tail_rounds = 2

    def prepare(self, seed, workdir):
        return seed

    def generate(self, seed, rnd):
        return [(n, dt, well_arrays(_rng(seed, rnd, i, j), n, WELL_SPAN))
                for i, n in enumerate(WELL_DIMS) for j, dt in enumerate(WELL_STEPS)]

    def build(self, seed, inputs):
        ops = []
        for n, dt, arrays in inputs:
            ops.extend(self._pair(n, dt, *build_well(arrays)))
        return ops

    def _pair(self, n, dt, loss, gain, bc):
        settings = variational.SolverSettings(dt=dt)
        n_steps = max(2, int(round(bc.span / dt)))
        shared = {}

        def follow_up(traj):
            profit = variational.compute_profit(loss, gain, traj)
            basis = transforms.modal_basis(loss, gain)
            report = invariants.build_report(loss, gain, traj, basis=basis)
            return traj, profit, report

        def shoot():
            return follow_up(variational.solve_bvp_shooting(loss, gain, bc, settings))

        def direct():
            return follow_up(variational.solve_bvp_direct(loss, gain, bc, n_steps, settings))

        def check_shoot(out):
            traj, profit, report = out
            check_terminal(traj, bc, settings)
            if not (np.isfinite(profit) and np.all(np.isfinite(report.power_series))):
                raise CheckFailed("non-finite profit or power series")
            shared["ref"] = traj

        def check_direct(out):
            if "ref" not in shared:
                raise CheckFailed("no checked shooting solution to compare with")
            check_agrees(out[0], shared["ref"])

        label = f"n{n}/dt{dt:g}"
        defect = (errors.NoConvergence,) if dt == DIRECT_DEFECT_DT and n >= 2 else ()
        return [Op(f"shooting/{label}", shoot, check_shoot),
                Op(f"direct/{label}", direct, check_direct, allowed=defect)]


# -- bvp-grid -----------------------------------------------------------------

GRID_NODES = {1: 201, 2: 61, 3: 21}
GRID_BOX = 3.0
GRID_WELLS = 4
GRID_STARTS = {1: 2, 2: 1, 3: 2}   # forward runs per landscape and round
GRID_SPAN = 1.0
GRID_SHOOT_DT = 1e-2
GRID_DIRECT_STEPS = 50
GRID_IVP_SPAN = 5.0
GRID_IVP_DT = 1e-3
# What a solve on a kinked, seeded landscape may honestly fail with; the
# forward runs must always succeed.
GRID_SOLVE_ERRORS = (errors.NoConvergence, errors.Degenerate, errors.OutOfDomain)


def grid_arrays(rng, d):
    """A confining bowl with four Gaussian dips, tabulated on [-3, 3]^d.

    Start points lie in [-1, 1]^d and start speeds are small, so energy
    conservation keeps every path inside the box.
    """
    axes = [np.linspace(-GRID_BOX, GRID_BOX, GRID_NODES[d]) for _ in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    u = 0.5 * np.sum(mesh ** 2, axis=-1)
    for _ in range(GRID_WELLS):
        center = rng.uniform(-1.5, 1.5, size=d)
        width = rng.uniform(0.5, 1.0)
        depth = rng.uniform(0.2, 0.4)
        u -= depth * np.exp(-np.sum((mesh - center) ** 2, axis=-1) / (2.0 * width * width))
    return {"axes": axes, "values": u, "k": random_spd(rng, d),
            "x1": rng.uniform(-1.0, 1.0, size=d), "x2": rng.uniform(-1.0, 1.0, size=d),
            "starts": [(rng.uniform(-1.0, 1.0, size=d), rng.uniform(-0.3, 0.3, size=d))
                       for _ in range(GRID_STARTS[d])]}


class BvpGrid:
    """Long forward runs, then a shooting and a direct solve, on tabulated
    1-, 2- and 3-D gains.

    The 3-D landscape gets two forward runs per round, so the six rounds
    the tail is taken over hold twelve of the slowest op: more than the
    ten ops the tail percentile keeps above it.  The 1-D landscape also
    gets two, so the median sits among the 1-D forward runs, whose cost
    does not depend on the seed.  Either way the metric sits inside one
    op kind instead of on the edge between two.
    """

    name = "bvp-grid"
    load_processes = 1
    tail_rounds = 6

    def prepare(self, seed, workdir):
        return seed

    def generate(self, seed, rnd):
        return [(d, grid_arrays(_rng(seed, rnd, d), d)) for d in sorted(GRID_NODES)]

    def build(self, seed, inputs):
        ops = []
        for d, a in inputs:
            loss = model.LossModel(a["k"])
            gain = model.GridTabulated(axes=tuple(a["axes"]), values_grid=a["values"])
            # forward runs come first: their cost does not depend on the
            # seed, which makes the first one the warm-up op
            ops.extend(self._ivp(d, loss, gain, x0, v0) for x0, v0 in a["starts"])
            bc = model.BoundaryConditions(x1=a["x1"], t1=0.0, x2=a["x2"], t2=GRID_SPAN)
            ops.extend(self._solves(d, loss, gain, bc))
        return ops

    def _ivp(self, d, loss, gain, x0, v0):
        def ivp():
            traj = variational.integrate_ivp(loss, gain, x0, v0,
                                             (0.0, GRID_IVP_SPAN), GRID_IVP_DT)
            return traj, invariants.power_series(loss, gain, traj)

        def check_ivp(out):
            traj, power = out
            # Verlet positions satisfy the discrete stationarity stencil exactly,
            # so the residual is round-off in the second difference over dt^2.
            resid = float(np.abs(variational.el_residual(loss, gain, traj)).max())
            grad = float(np.abs(gain.gradients(traj.states)).max())
            scale = 4.0 * float(np.abs(traj.states).max()) * 2.0 * float(
                np.abs(loss.k_matrix).sum(axis=1).max()) / traj.dt ** 2 + grad
            if not resid <= 64.0 * np.finfo(float).eps * scale:
                raise CheckFailed(f"IVP stationarity residual {resid:.3e} (scale {scale:.3e})")
            if not np.all(np.isfinite(power)):
                raise CheckFailed("non-finite power series")

        return Op(f"ivp/grid{d}d", ivp, check_ivp)

    def _solves(self, d, loss, gain, bc):
        shoot_settings = variational.SolverSettings(dt=GRID_SHOOT_DT)
        direct_settings = variational.SolverSettings()

        def shoot():
            return variational.solve_bvp_shooting(loss, gain, bc, shoot_settings)

        def direct():
            return variational.solve_bvp_direct(loss, gain, bc, GRID_DIRECT_STEPS,
                                                direct_settings)

        def check_shoot(traj):
            check_terminal(traj, bc, shoot_settings)

        def check_direct(traj):
            same_grid = variational.SolverSettings(dt=bc.span / GRID_DIRECT_STEPS)
            try:
                ref = variational.solve_bvp_shooting(loss, gain, bc, same_grid)
            except errors.KpidynError:
                check_stationary(loss, gain, bc, traj, direct_settings)
                return
            check_agrees_grid(loss, gain, bc, traj, ref, direct_settings)

        return [Op(f"shooting/grid{d}d", shoot, check_shoot, allowed=GRID_SOLVE_ERRORS),
                Op(f"direct/grid{d}d", direct, check_direct, allowed=GRID_SOLVE_ERRORS)]


# -- cli-lab ------------------------------------------------------------------

EIG_DIM = 64
PLAN_STEPS = 20000
PLAN_DT = 1e-2
SIM_T = 200.0
SIM_DT = 1e-2
FORCING_POINTS = 11
CSV_RTOL = 1e-9            # CSV keeps 10 significant digits
SESSION_OUTPUTS = ("solve.csv", "eig.json", "plan.csv", "sim.csv",
                   "scan_j1.csv", "scan_j2.csv", "scan_p.csv")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _close(a, b, what):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.allclose(a, b, rtol=CSV_RTOL, atol=0.0, equal_nan=True):
        raise CheckFailed(f"{what} differs from the library result")


class CliLab:
    """Sessions of the kpidyn executable, run in-process on fixed files.

    Every command runs on valid files, so a non-zero exit is a wrong
    result.  The tail is taken over seven sessions: its 11th-slowest op
    is then the middle one of the seven `eig` runs, below the seven
    `simulate` runs.
    """

    name = "cli-lab"
    load_processes = 2          # scan --jobs 2 runs two pool workers
    tail_rounds = 7

    def prepare(self, seed, workdir):
        rng = _rng(seed, 0)
        files = {key: os.path.join(workdir, key) for key in (
            "eig64.json", "well3.json", "prev.json", "curr.json", "pert.json")}
        # fixed spectra, seeded rotations: Jacobi takes the same number of
        # sweeps on every seed (with drawn spectra it took 15 to 17)
        e = well_arrays(rng, EIG_DIM, WELL_SPAN)
        _write_json(files["eig64.json"], {
            "schema": io.MODEL_SCHEMA, "n": EIG_DIM, "loss": {"matrix": e["k"].tolist()},
            "gain": {"kind": "quadratic_well", "u0": e["u0"], "center": e["center"].tolist(),
                     "curvature": e["c"].tolist()}})
        w = well_arrays(rng, 3, WELL_SPAN)
        _write_json(files["well3.json"], {
            "schema": io.MODEL_SCHEMA, "n": 3, "loss": {"matrix": w["k"].tolist()},
            "gain": {"kind": "quadratic_well", "u0": w["u0"], "center": w["center"].tolist(),
                     "curvature": w["c"].tolist()},
            "boundary": {"x1": w["x1"].tolist(), "t1": w["t1"],
                         "x2": w["x2"].tolist(), "t2": w["t2"]}})
        prev = w["center"] + rng.uniform(-1.0, 1.0, size=3)
        _write_json(files["prev.json"], prev.tolist())
        _write_json(files["curr.json"], (prev + PLAN_DT * rng.uniform(-1.0, 1.0, size=3)).tolist())
        pump = 0.1 * float(w["omegas"].min()) ** 2      # keeps every stiffness positive
        _write_json(files["pert.json"], {
            "schema": io.PERTURBATION_SCHEMA,
            "forcing": [{"amplitude": float(rng.uniform(0.05, 0.1)),
                         "frequency": float(rng.uniform(0.3, 2.0))} for _ in range(3)],
            "stiffness_modulation": [{"amplitude": pump, "frequency": float(rng.uniform(0.3, 2.0)),
                                      "phase": float(rng.uniform(0.0, 6.0))}, None, None],
            "damping": (0.05 * np.eye(3)).tolist(),
            "cross_stiffness": [{"i": 0, "k": 1, "amplitude": 0.05,
                                 "frequency": float(rng.uniform(0.3, 2.0))},
                                {"i": 2, "k": 0, "amplitude": 0.05,
                                 "frequency": float(rng.uniform(0.3, 2.0))}]})
        omega_max = float(w["omegas"].max())
        state = {
            "files": files, "workdir": workdir,
            "forcing_grid": np.linspace(0.4, 1.6, FORCING_POINTS),
            "pump_grid": np.array([0.0, 0.05, 0.1]) * omega_max ** 2,
            "refs": None, "models": None,
        }
        return state

    def generate(self, state, rnd):
        return None             # every session runs on the files written by prepare

    def build(self, state, inputs):
        if state["models"] is None:         # set-up loads each model file once
            f = state["files"]
            state["models"] = {"eig64": io.load_model(f["eig64.json"]),
                               "well3": io.load_model(f["well3.json"]),
                               "pert": io.load_perturbation(f["pert.json"])}
        # Each session writes fresh files.  ext4 starts write-back when a
        # truncated file is closed, so overwriting the last session's files
        # would time the disk, not kpidyn.
        for name in SESSION_OUTPUTS:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._out(state, name))
        return self._session(state)

    def _out(self, state, name):
        return os.path.join(state["workdir"], name)

    def _session(self, s):
        f = s["files"]
        well, out = f["well3.json"], lambda name: self._out(s, name)
        grid = ",".join(repr(float(x)) for x in s["forcing_grid"])
        pumps = ",".join(repr(float(x)) for x in s["pump_grid"])
        scan = ["scan", "--kind", "forcing", "--model", well, "--grid", grid]
        argvs = {
            "solve": ["solve", "--model", well, "--method", "shooting", "--dt", "1e-3",
                      "--out", out("solve.csv")],
            "eig": ["eig", "--model", f["eig64.json"], "--json", "--out", out("eig.json")],
            "plan": ["plan", "--model", well, "--prev", f["prev.json"], "--curr", f["curr.json"],
                     "--dt", repr(PLAN_DT), "--steps", str(PLAN_STEPS), "--out", out("plan.csv")],
            "invariants": ["invariants", "--model", well, "--traj", out("plan.csv")],
            "profit": ["profit", "--model", well, "--traj", out("plan.csv")],
            "simulate": ["simulate", "--model", well, "--perturb", f["pert.json"],
                         "--t", repr(SIM_T), "--dt", repr(SIM_DT), "--out", out("sim.csv")],
            "scan_forcing_j1": scan + ["--jobs", "1", "--out", out("scan_j1.csv")],
            "scan_forcing_j2": scan + ["--jobs", "2", "--out", out("scan_j2.csv")],
            "scan_parametric": ["scan", "--kind", "parametric", "--model", well,
                                "--grid", pumps, "--out", out("scan_p.csv")],
        }
        return [Op(kind, self._invoke(argv), self._checker(kind, s))
                for kind, argv in argvs.items()]

    @staticmethod
    def _invoke(argv):
        def run():
            stdout, stderr = _stdio.StringIO(), _stdio.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = kpidyn.cli.main(argv)
            if rc != 0:
                try:
                    err = json.loads(stderr.getvalue().strip().splitlines()[-1])["error"]
                except (ValueError, IndexError, KeyError):
                    err = f"exit{rc}"
                raise CliFailed(err, stderr.getvalue())
            return stdout.getvalue()
        return run

    def _checker(self, kind, s):
        check = getattr(self, f"_check_{kind}")
        return lambda stdout: check(s, stdout)

    # -- references (computed once, outside any timed region) --------------

    def _refs(self, s):
        if s["refs"] is not None:
            return s["refs"]
        f, models = s["files"], s["models"]
        spec = models["well3"]
        basis = transforms.modal_basis(spec.loss, spec.gain)
        with open(f["prev.json"]) as fh:
            prev = json.load(fh)
        with open(f["curr.json"]) as fh:
            curr = json.load(fh)
        plan = planner.plan_horizon(spec.loss, spec.gain,
                                    planner.PlanState(prev, curr, PLAN_DT), PLAN_STEPS)
        plan_csv = self._out(s, "plan_ref.csv")
        io.write_trajectory_csv(plan_csv, plan, spec.loss, spec.gain)
        plan_back = io.read_trajectory_csv(plan_csv)
        pert = models["pert"]
        y0 = basis.to_modal(spec.boundary.x1)
        sim = oscillators.simulate_perturbed(basis.frequencies, pert, y0, np.zeros(3),
                                             (0.0, SIM_T), SIM_DT)
        duration_f = 40.0 * np.pi / float(basis.frequencies.min())
        omega = float(basis.frequencies.max())
        duration_p = 30.0 * 2.0 * np.pi / omega
        eig = models["eig64"]
        lam = scipy.linalg.eigh(eig.gain.curvature, eig.loss.mass_matrix(), eigvals_only=True)
        with open(plan_csv, "rb") as fh:
            plan_bytes = fh.read()
        s["refs"] = {
            "spec": spec,
            "plan_bytes": plan_bytes,
            "report": invariants.build_report(spec.loss, spec.gain, plan_back, basis=basis,
                                              rel_tol=1e-3),
            "profit": variational.compute_profit(spec.loss, spec.gain, plan_back),
            "sim": np.column_stack([sim.trajectory.times, sim.trajectory.states,
                                    sim.trajectory.velocities, sim.energy]),
            "forcing": [oscillators.forcing_peak(basis.frequencies, 0.1, fr, duration_f)
                        for fr in s["forcing_grid"]],
            "pump": [oscillators.parametric_growth_rate(omega, a, np.pi, duration_p).exponent
                     for a in s["pump_grid"]],
            "eig_freqs": np.sqrt(np.sort(lam)[::-1]),
            "eig_losses": np.sort(np.linalg.eigvalsh(eig.loss.k_matrix))[::-1],
        }
        return s["refs"]

    def _check_solve(self, s, stdout):
        spec = self._refs(s)["spec"]
        data = _read_csv(self._out(s, "solve.csv"))
        x_end = data[-1, 1:1 + spec.n]
        miss = float(np.linalg.norm(x_end - spec.boundary.x2))
        tol = variational.SolverSettings().resolved_shooting_tol(spec.boundary.x2)
        tol += CSV_RTOL * float(np.linalg.norm(spec.boundary.x2))     # CSV rounding
        if not miss <= tol:
            raise CheckFailed(f"solve: terminal residual {miss:.3e} exceeds {tol:.3e}")

    def _check_eig(self, s, stdout):
        refs = self._refs(s)
        doc = json.loads(stdout)
        _close(doc["frequencies"], refs["eig_freqs"], "eig frequencies")
        _close(doc["eigenlosses"], refs["eig_losses"], "eig eigenlosses")

    def _check_plan(self, s, stdout):
        with open(self._out(s, "plan.csv"), "rb") as fh:
            if fh.read() != self._refs(s)["plan_bytes"]:
                raise CheckFailed("plan CSV differs from the library plan written as CSV")

    def _check_invariants(self, s, stdout):
        report = self._refs(s)["report"]
        doc = json.loads(stdout)
        _close(doc["power_series"], report.power_series, "invariants power series")
        _close(doc["residual_series"], report.residual_series, "invariants residual series")
        _close([doc["drift"]], [report.drift], "invariants drift")
        if len(doc["alarms"]) != len(report.alarms):
            raise CheckFailed("invariants alarms differ from the library report")

    def _check_profit(self, s, stdout):
        _close([float(stdout)], [self._refs(s)["profit"]], "profit")

    def _check_simulate(self, s, stdout):
        _close(_read_csv(self._out(s, "sim.csv")), self._refs(s)["sim"], "simulate CSV")

    def _check_scan_forcing_j1(self, s, stdout):
        data = _read_csv(self._out(s, "scan_j1.csv"))
        _close(data[:, 1], self._refs(s)["forcing"], "forcing scan")

    def _check_scan_forcing_j2(self, s, stdout):
        with open(self._out(s, "scan_j1.csv"), "rb") as a, \
                open(self._out(s, "scan_j2.csv"), "rb") as b:
            if a.read() != b.read():
                raise CheckFailed("scan --jobs 1 and --jobs 2 outputs differ")

    def _check_scan_parametric(self, s, stdout):
        data = _read_csv(self._out(s, "scan_p.csv"))
        _close(data[:, 1], self._refs(s)["pump"], "parametric scan")


WORKLOADS = {w.name: w for w in (BvpWell(), BvpGrid(), CliLab())}
