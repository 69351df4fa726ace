"""Per-layer instrumentation of the traced run.

:class:`Instrumentation` replaces the public functions of porovisco's
modules with span-recording wrappers for the duration of one run, at every
place a caller looks them up (the defining module, and each module that
imports them by name), and restores them afterwards.  Nothing under
``src/`` changes.  ``loading`` stays untimed: it makes one lambda call per
step.  :func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

from porovisco import cli, constitutive, experiments, linear_solver, nonlinear_solver
from porovisco.discretization import Grid1D, gradient

import spans as sp

CONSTITUTIVE = (
    "free_energy", "stress_elastic", "chemical_potential", "free_energy_hessian",
    "hyperstress", "hyperstress_dG", "mobility", "mobility_dc",
)
NORMS = ("lq_norm", "h1_norm", "linf_norm", "llogl_deviation", "mass", "cell_l2_norm")
WRITERS = ("_write_csv", "_write_ledger", "_write_summary")
# public functions imported by name into other modules: every lookup site
SHARED = {
    "run_nonlinear": (nonlinear_solver, experiments, cli),
    "run_linear": (linear_solver, experiments, cli),
    "static_solve": (linear_solver, experiments, cli),
    "rescale": (nonlinear_solver, experiments, cli),
    "check_dissipation_inequality": (nonlinear_solver, experiments, cli),
    "check_energy_balance": (linear_solver, experiments, cli),
    "linearize": (constitutive, experiments, cli),
    "eps_sweep": (experiments, cli),
    "long_time_decay": (experiments, cli),
    "parse_config": (cli,),
}

MECH = "nonlinear_solver.mechanical_step"
DIFF = "nonlinear_solver.diffusion_step"
RUN_NONLINEAR = "nonlinear_solver.run_nonlinear"
RUN_LINEAR = "linear_solver.run_linear"
STEPPER_INIT = "linear_solver.LinearStepper.__init__"
STEPPER_STEP = "linear_solver.LinearStepper.step"
DENSE_SOLVE = "numpy.linalg.solve"
LU_SOLVE = "scipy.SuperLU.solve"
LINEARIZE = "constitutive.linearize"
CONSTITUTIVE_SPANS = frozenset(f"constitutive.{f}" for f in CONSTITUTIVE)
NORM_SPANS = frozenset(f"discretization.{f}" for f in NORMS)
WRITER_SPANS = frozenset(f"cli.{f}" for f in WRITERS)
CHECK_SPANS = frozenset(("nonlinear_solver.check_dissipation_inequality", "linear_solver.check_energy_balance"))


def _iterations(args, result):
    return result[1]["iterations"]


def _matrix_size(args, result):
    return int(np.shape(args[0])[0])


class _TracedLU:
    """SuperLU factor whose ``solve`` records a span per call."""

    def __init__(self, lu, rec):
        self._lu = lu
        self.solve = rec.wrap(LU_SOLVE, lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Instrumentation:
    """Context manager that installs the wrappers on entry and restores
    the original attributes on exit."""

    def __init__(self, rec: sp.Recorder):
        self.rec = rec
        self._saved = []

    def _patch(self, owner, attr, name, value_of=None):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.rec.wrap(name, orig, value_of))

    def __enter__(self):
        for f in CONSTITUTIVE:
            self._patch(constitutive, f, f"constitutive.{f}")
        for mod in (nonlinear_solver, linear_solver, experiments, cli):
            for f in NORMS:
                if hasattr(mod, f):
                    self._patch(mod, f, f"discretization.{f}")
        for f, sites in SHARED.items():
            home = getattr(sites[0], f).__module__.rsplit(".", 1)[-1]
            for mod in sites:
                self._patch(mod, f, f"{home}.{f}")
        self._patch(nonlinear_solver, "mechanical_step", MECH, _iterations)
        self._patch(nonlinear_solver, "diffusion_step", DIFF, _iterations)
        for f in WRITERS:
            self._patch(cli, f, f"cli.{f}")
        self._patch(linear_solver.LinearStepper, "__init__", STEPPER_INIT)
        self._patch(linear_solver.LinearStepper, "step", STEPPER_STEP)
        self._patch(np.linalg, "solve", DENSE_SOLVE, _matrix_size)
        splu, rec = spla.splu, self.rec
        self._saved.append((spla, "splu", splu))
        spla.splu = rec.wrap("scipy.splu", lambda *a, **k: _TracedLU(splu(*a, **k), rec))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.kids = sp.children(spans)
        self.self_ns = sp.self_times(spans, self.kids)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[sp.NAME]].append(i)

    def of(self, names):
        names = (names,) if isinstance(names, str) else names
        return [i for n in names for i in self.by_name.get(n, ())]

    def has_ancestor(self, i, names) -> bool:
        p = self.spans[i][sp.PARENT]
        while p >= 0:
            if self.spans[p][sp.NAME] in names:
                return True
            p = self.spans[p][sp.PARENT]
        return False

    def total_s(self, names) -> float:
        """Summed duration of the outermost spans among ``names``."""
        names = frozenset((names,) if isinstance(names, str) else names)
        return 1e-9 * sum(
            sp.duration(self.spans[i]) for i in self.of(names) if not self.has_ancestor(i, names)
        )

    def self_s(self, names) -> float:
        return 1e-9 * sum(self.self_ns[i] for i in self.of(names))

    def uncovered_s(self, name, child_names) -> float:
        """Duration of ``name`` spans minus the part covered by their
        direct children named in ``child_names``."""
        total = 0
        for i in self.of(name):
            s = self.spans[i]
            kids = [self.spans[k] for k in self.kids[i] if self.spans[k][sp.NAME] in child_names]
            total += sp.duration(s) - sp.covered(s, [(k[sp.START], k[sp.END]) for k in kids])
        return 1e-9 * total

    def values(self, name) -> list:
        return [self.spans[i][sp.VALUE] for i in self.of(name)]

    def self_by_name(self) -> dict:
        out = defaultdict(int)
        for i, s in enumerate(self.spans):
            out[s[sp.NAME]] += self.self_ns[i]
        return {k: 1e-9 * v for k, v in sorted(out.items(), key=lambda kv: -kv[1])}


def layer_metrics(ix: SpanIndex) -> dict:
    """Per-layer metrics (value, unit) of one traced workload run."""
    mech_steps = len(ix.of(MECH))
    newton = sum(ix.values(MECH))
    energy_evals = sum(1 for i in ix.of("constitutive.free_energy") if ix.has_ancestor(i, {MECH}))
    trials = energy_evals - mech_steps  # each step evaluates its start energy once
    sizes = ix.values(DENSE_SOLVE)
    return {
        "mech.s": (ix.total_s(MECH), "s"),
        "mech.steps": (mech_steps, "count"),
        "mech.newton_iters": (newton, "count"),
        "mech.energy_evals": (energy_evals, "count"),
        "mech.accept_ratio": (newton / trials if trials > 0 else 0.0, "ratio"),
        "diff.s": (ix.total_s(DIFF), "s"),
        "diff.newton_iters": (sum(ix.values(DIFF)), "count"),
        "dense_solve.s": (ix.total_s(DENSE_SOLVE), "s"),
        "dense_solve.calls": (len(sizes), "count"),
        "dense_solve.flop_est": (sum(2.0 * n ** 3 / 3.0 for n in sizes), "flop_computed"),
        "nonlinear.self_s": (ix.uncovered_s(RUN_NONLINEAR, {MECH, DIFF}), "s"),
        "linear.factor_s": (ix.total_s(STEPPER_INIT), "s"),
        "linear.step_s": (ix.total_s(STEPPER_STEP), "s"),
        "linear.steps": (len(ix.of(STEPPER_STEP)), "count"),
        "linear.lu_solves": (sum(1 for i in ix.of(LU_SOLVE) if ix.has_ancestor(i, {STEPPER_STEP})), "count"),
        "linear.self_s": (ix.uncovered_s(RUN_LINEAR, {STEPPER_INIT, STEPPER_STEP}), "s"),
        "linear.static_s": (ix.total_s("linear_solver.static_solve"), "s"),
        "constitutive.calls": (len(ix.of(CONSTITUTIVE_SPANS)), "count"),
        "constitutive.s": (ix.total_s(CONSTITUTIVE_SPANS), "s"),
        "discretization.norm_calls": (len(ix.of(NORM_SPANS)), "count"),
        "discretization.norm_s": (ix.total_s(NORM_SPANS), "s"),
        "experiments.rescale_s": (ix.total_s("nonlinear_solver.rescale"), "s"),
        "experiments.sweep_tables_s": (ix.self_s("experiments.eps_sweep"), "s"),
        "experiments.decay_curve_s": (ix.self_s("experiments.long_time_decay"), "s"),
        "cli.parse_s": (ix.total_s("cli.parse_config"), "s"),
        "cli.checks_s": (ix.total_s(CHECK_SPANS), "s"),
        "cli.io_s": (ix.total_s(WRITER_SPANS), "s"),
    }


def layer_map(workload: str, ix: SpanIndex, m: dict) -> list:
    """The layer-map claims this workload was chosen to show, each with
    whether it holds in this trace: (claim, holds)."""
    v = {k: val for k, (val, _) in m.items()}
    if workload == "grid1024":
        top = next(iter(ix.self_by_name()))
        return [("dense_solve.s is the largest self time", top == DENSE_SOLVE)]
    if workload == "linear64":
        outside = sum(1 for i in ix.of(CONSTITUTIVE_SPANS) if not ix.has_ancestor(i, {LINEARIZE}))
        return [
            ("mech.steps = 0", v["mech.steps"] == 0),
            ("dense_solve.calls = 0", v["dense_solve.calls"] == 0),
            ("every constitutive call is inside linearize", outside == 0),
            ("linear.lu_solves = 3 x linear.steps", v["linear.lu_solves"] == 3 * v["linear.steps"]),
        ]
    if workload == "sweep64":
        return [("nonlinear.self_s > dense_solve.s", v["nonlinear.self_s"] > v["dense_solve.s"])]
    return []


# ---------------------------------------------------------------------------
# grid-scaling probe
# ---------------------------------------------------------------------------

SCALE_SIZES = (64, 256, 1024)
SCALE_REPEATS = 3
SCALE_TAU = 1e-3
SCALE_T = 1.0
# the shipped solver.tol = 5e-11 fails from n = 384 on
SCALE_TOL = 1e-9


def scale_probe(cfg_path) -> dict:
    """Time one mechanical and one diffusion step on a fixed loaded state
    at each of ``SCALE_SIZES`` (median of ``SCALE_REPEATS``, in ms).  The
    state is one untimed staggered step from (id + 0, c_eq + eps rho0)
    under the full load of the config at time ``SCALE_T``."""
    config = cli.parse_config(cfg_path)
    params, eps, bc = config.material, config.eps, config.bc
    tau, t, tol = SCALE_TAU, SCALE_T, SCALE_TOL
    out = {}
    for n in SCALE_SIZES:
        grid = Grid1D(n)
        bound = config.loading.bind(grid)
        f, g = eps * bound.f_star(t), eps * bound.g_star(t)
        c0 = params.c_eq + eps * config.rho0_profile.sample(grid.nodes)
        w1, _ = nonlinear_solver.mechanical_step(params, grid, np.zeros(grid.n_nodes), c0, tau, f, g, tol=tol)
        c1, _ = nonlinear_solver.diffusion_step(params, grid, 1.0 + gradient(grid, w1), c0, tau, bc, t, tol=tol)
        mech, diff = [], []
        for _ in range(SCALE_REPEATS):
            t0 = time.perf_counter()
            w2, _ = nonlinear_solver.mechanical_step(params, grid, w1, c1, tau, f, g, tol=tol)
            t1 = time.perf_counter()
            nonlinear_solver.diffusion_step(params, grid, 1.0 + gradient(grid, w2), c1, tau, bc, t + tau, tol=tol)
            t2 = time.perf_counter()
            mech.append(t1 - t0)
            diff.append(t2 - t1)
        out[f"scale.mech_step_ms.n{n}"] = (1e3 * statistics.median(mech), "ms")
        out[f"scale.diff_step_ms.n{n}"] = (1e3 * statistics.median(diff), "ms")
    return out
