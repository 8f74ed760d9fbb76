"""Exact optimal transport on finite supports.

Distances come from a linear program solved with HiGHS; at the package's
desk scale (<= 64 atoms a side) that is exact, deterministic, and returns a
vertex plan. Many pairs are solved together as the blocks of one LP.
Geodesics are displacement interpolations of an optimal plan between two
measures sharing one Euclidean support. HiGHS is scipy's bundled extension,
loaded from its file on the first LP: importing it through scipy.optimize would
load that whole package (about 320 modules and 50 MB of resident memory).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedGeometryError
from .measures import FiniteMeasure, unique_rows

PLAN_MARGINAL_TOL = 1e-9
DEDUP_DECIMALS = 12
# HiGHS takes about 1.2 kB per LP variable, and past 2**11 variables an LP
# solves barely faster per variable, so batches are cut there to bound memory
LP_CHUNK_VARS = 2**11
# HiGHS reads a cost of 1e20 or more as infinite; an LP cost (cost^p) must stay
# below this cap, which leaves that threshold two orders of magnitude away
LP_COST_CAP = 1e18


@dataclass(frozen=True)
class EmbeddedSupport:
    """Finitely many labelled points in R^dim."""

    points: np.ndarray

    def __init__(self, points) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ConfigurationError("EmbeddedSupport: need a (k, dim) point array")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("EmbeddedSupport: non-finite coordinates")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


@dataclass(frozen=True)
class CostMatrix:
    entries: np.ndarray

    def __init__(self, entries) -> None:
        c = np.asarray(entries, dtype=float)
        if c.ndim != 2:
            raise ConfigurationError("CostMatrix: need a 2-d array")
        if not np.all(np.isfinite(c)) or np.any(c < 0.0):
            raise ConfigurationError("CostMatrix: entries must be finite and nonnegative")
        c.flags.writeable = False
        object.__setattr__(self, "entries", c)


def euclidean_cost(a: EmbeddedSupport, b: EmbeddedSupport) -> CostMatrix:
    if a.dim != b.dim:
        raise UnsupportedGeometryError("euclidean_cost: embeddings live in different dimensions")
    sq = np.zeros((a.size, b.size))
    with np.errstate(over="ignore"):
        for k in range(a.dim):  # one coordinate at a time: scipy's cdist summation order
            sq += (a.points[:, None, k] - b.points[None, :, k]) ** 2
    if not np.all(np.isfinite(sq)):
        raise DomainError("euclidean_cost: the embedded points are too far apart; "
                          "their squared distances overflow")
    return CostMatrix(np.sqrt(sq))


@dataclass(frozen=True)
class TransportPlan:
    """Coupling of (source, target); marginals hold to PLAN_MARGINAL_TOL.

    Entries down to -PLAN_MARGINAL_TOL are LP round-off and are clipped to 0.
    """

    weights: np.ndarray
    source: FiniteMeasure
    target: FiniteMeasure

    def __init__(self, weights, source: FiniteMeasure, target: FiniteMeasure) -> None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (source.support_size, target.support_size):
            raise ConfigurationError("TransportPlan: shape does not match marginals")
        if w.min() < -PLAN_MARGINAL_TOL:
            raise ConfigurationError(f"TransportPlan: negative mass {w.min():.3e}")
        w = np.clip(w, 0.0, None)
        if (np.abs(w.sum(axis=1) - source.weights).max() > PLAN_MARGINAL_TOL
                or np.abs(w.sum(axis=0) - target.weights).max() > PLAN_MARGINAL_TOL):
            raise ConfigurationError("TransportPlan: marginal constraint violated")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)


@functools.cache
def _highs():
    """scipy's HiGHS extension, scipy.optimize._highspy._core, executed from its file
    under its own name, so that neither scipy nor scipy.optimize is imported. CPython
    keeps one copy of an extension module, so this is the object scipy.optimize uses."""
    name = "scipy.optimize._highspy._core"
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(scipy_dir, "optimize", "_highspy", "_core")
    path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.exists(stem + suffix)), None)
    if path is None:
        raise ImportError(f"scipy has no HiGHS extension at {stem}.*")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class LPResult:
    """One HiGHS solve: x and nit (simplex iterations) as scipy's linprog reports them."""

    success: bool
    message: str
    x: np.ndarray | None
    nit: int


def linprog(c, start, index, b_eq) -> LPResult:
    """min c.x subject to A x = b_eq, x >= 0, by one direct HiGHS call.

    A is the 0/1 transportation matrix in column-wise form: column j has ones
    at rows index[start[j]:start[j+1]]; the model goes to HiGHS as arrays. HiGHS
    runs with the options that scipy.optimize.linprog(method="highs") passes it
    (dual simplex, output off, feasibility tolerances 1e-10) but presolve off,
    so the solution is linprog's with options={"presolve": False}, bit for bit;
    on transport LPs presolve moves neither the iterations nor the optimum and
    costs a third of the solve. A solve that is not optimal runs once more with
    presolve on: without it, a two-point W_2 LP with a cost^p just below
    LP_COST_CAP ends in a solve error. linprog's input checks, sparse conversions
    and dual post-processing cost more than the solve at these sizes. The first
    call loads the HiGHS extension by itself (see _highs); scipy.optimize is
    never imported.
    """
    highs = _highs()
    num_col = c.size
    # HiGHS wants an integrality entry per column (an empty array is an error)
    model = (num_col, b_eq.size, index.size, highs.MatrixFormat.kColwise,
             highs.ObjSense.kMinimize, 0.0, c, np.zeros(num_col),
             np.full(num_col, highs.kHighsInf), b_eq, b_eq, start[:num_col].astype(np.int32),
             index.astype(np.int32), np.ones(index.size), np.zeros(num_col, np.int32))
    options = highs.HighsOptions()
    options.simplex_strategy = 1  # dual simplex
    options.output_flag = options.log_to_console = False
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-10
    for presolve in ("off", "on"):
        options.presolve = presolve
        solver = highs._Highs()
        solver.passOptions(options)
        solver.passModel(*model)
        solver.run()
        status = solver.getModelStatus()
        if success := status == highs.HighsModelStatus.kOptimal:
            break
    return LPResult(success=success, message=solver.modelStatusToString(status),
                    x=np.array(solver.getSolution().col_value) if success else None,
                    nit=solver.getInfo().simplex_iteration_count)


def wasserstein(mu: FiniteMeasure, nu: FiniteMeasure, cost: CostMatrix,
                p: float = 1.0) -> tuple[float, TransportPlan]:
    """W_p distance and an optimal plan, by exact LP (one block of wasserstein_batch)."""
    return wasserstein_batch([(mu, nu, cost)], p)[0]


def wasserstein_batch(pairs, p: float = 1.0) -> list[tuple[float, TransportPlan]]:
    """W_p distance and an optimal plan for every (mu, nu, cost) in `pairs`.

    Each pair minimizes <pi, cost^p> over couplings of (mu, nu). The pairs are
    independent blocks of one block-diagonal LP, so a whole batch costs one
    HiGHS call per LP_CHUNK_VARS variables instead of one call per pair; the
    fixed cost of a call dwarfs the solve at these sizes. HiGHS is run at its
    tightest accepted feasibility tolerance (1e-10, inside PLAN_MARGINAL_TOL)
    so every returned plan passes its own validation.
    """
    if not 1.0 <= p < np.inf:
        raise DomainError(f"wasserstein: finite p >= 1 required, got {p}")
    pairs = list(pairs)
    out: list[tuple[float, TransportPlan]] = []
    lo = 0
    while lo < len(pairs):
        hi, size = lo + 1, pairs[lo][2].entries.size
        while hi < len(pairs) and size + pairs[hi][2].entries.size <= LP_CHUNK_VARS:
            size += pairs[hi][2].entries.size
            hi += 1
        out.extend(_solve_blocks(pairs[lo:hi], p))
        lo = hi
    return out


def _solve_blocks(pairs, p: float) -> list[tuple[float, TransportPlan]]:
    # the transportation system of an m x n block has rank m + n - 1; keeping
    # all m + n rows makes HiGHS presolve (the fallback solve) declare instances
    # with atoms below its feasibility tolerance infeasible, so each block drops
    # its redundant last column constraint: variable (i, j) of a block has its
    # source row, and its target row unless j = n - 1 (-1 marks the dropped row)
    m = np.array([mu.support_size for mu, _, _ in pairs])
    n = np.array([nu.support_size for _, nu, _ in pairs])
    if any(cost.entries.shape != (a, b) for (_, _, cost), a, b in zip(pairs, m, n)):
        raise ConfigurationError("wasserstein: cost shape does not match supports")
    col0 = np.concatenate(([0], np.cumsum(m * n)))
    block = np.repeat(np.arange(len(pairs)), m * n)  # the block of each variable
    row0 = (np.cumsum(m + n - 1) - (m + n - 1))[block]  # and its block's first row
    i, j = np.divmod(np.arange(col0[-1]) - col0[block], n[block])
    tgt = np.where(j < n[block] - 1, row0 + m[block] + j, -1)
    with np.errstate(over="ignore"):
        c = np.concatenate([cost.entries.ravel() for _, _, cost in pairs]) ** p
    if not np.all(c < LP_COST_CAP):
        raise DomainError(f"wasserstein: a transport cost^p of {c.max():.3g} is not below "
                          f"LP_COST_CAP = {LP_COST_CAP:g}, past which HiGHS cannot solve it")
    index = np.stack([row0 + i, tgt], axis=1).ravel()
    start = np.concatenate(([0], np.cumsum(1 + (tgt >= 0))))
    b_eq = np.concatenate([w for mu, nu, _ in pairs for w in (mu.weights, nu.weights[:-1])])
    res = linprog(c, start, index[index >= 0], b_eq)
    if not res.success:
        # a transport LP between validated measures is feasible and bounded
        raise RuntimeError(f"wasserstein: LP failed: {res.message}")
    # round-off in x can leave a zero optimum a hair below 0
    return [(max(float(c[lo:hi] @ res.x[lo:hi]), 0.0) ** (1.0 / p),
             TransportPlan(res.x[lo:hi].reshape(cost.entries.shape), mu, nu))
            for (mu, nu, cost), lo, hi in zip(pairs, col0[:-1], col0[1:])]


# ---------------------------------------------------------------------------
# displacement geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicPoint:
    measure: FiniteMeasure
    support: EmbeddedSupport


@dataclass(frozen=True)
class Geodesic:
    """Interpolation points plus the atom bookkeeping needed for couplings.

    atom_mass holds the masses of the nonzero plan cells (the atoms), and
    atom_to_point[k][a] the index of atom a inside the deduplicated support
    at time k.
    """

    times: tuple
    points: tuple
    plan: TransportPlan = field(compare=False)
    atom_mass: np.ndarray = field(compare=False)
    atom_to_point: tuple = field(compare=False)
    distance: float


def geodesic(mu: FiniteMeasure, nu: FiniteMeasure, emb: EmbeddedSupport, times) -> Geodesic:
    """Constant-speed W_2 path from mu (t=0) to nu (t=1) on one embedded support.

    Solves the W_2 LP, then hands the plan to displacement_interpolation.
    """
    if emb.size != mu.support_size or emb.size != nu.support_size:
        raise ConfigurationError("geodesic: measures and embedding disagree in size")
    dist, plan = wasserstein(mu, nu, euclidean_cost(emb, emb), p=2.0)
    return displacement_interpolation(plan, dist, emb, times)


def displacement_interpolation(plan: TransportPlan, distance: float, emb: EmbeddedSupport,
                               times) -> Geodesic:
    """The geodesic of a W_2-optimal plan on one embedded support.

    Every returned point is a FiniteMeasure over a freshly deduplicated
    EmbeddedSupport of interpolated atoms; `distance` is the plan's W_2 cost
    as the LP returned it, and becomes the geodesic's length.
    """
    if plan.weights.shape != (emb.size, emb.size):
        raise ConfigurationError("geodesic: plan and embedding disagree in size")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0):
        raise ConfigurationError("geodesic: times must increase from exactly 0 to exactly 1")
    ii, jj = np.nonzero(plan.weights)
    mass = plan.weights[ii, jj]
    src = emb.points[ii]
    dst = emb.points[jj]

    points, members = [], []
    for tk in t:  # atoms landing on the same coordinates (to DEDUP_DECIMALS places) merge
        key = np.round((1.0 - tk) * src + tk * dst, DEDUP_DECIMALS) + 0.0  # + 0.0: -0.0 is 0.0
        uniq, inverse = unique_rows(key)
        merged = np.bincount(inverse, weights=mass, minlength=len(uniq))
        points.append(GeodesicPoint(FiniteMeasure(merged), EmbeddedSupport(uniq)))
        members.append(inverse)
    return Geodesic(times=tuple(float(x) for x in t), points=tuple(points), plan=plan,
                    atom_mass=mass, atom_to_point=tuple(members), distance=distance)


def consecutive_couplings(geo: Geodesic) -> list[TransportPlan]:
    """Couplings between consecutive geodesic points, induced by the atoms of
    the plan the geodesic was produced from.

    These are W_2-optimal for each step (atoms travel in straight lines at
    constant speed).
    """
    out = []
    for k in range(1, len(geo.times)):
        prev, cur = geo.points[k - 1], geo.points[k]
        w = np.zeros((prev.measure.support_size, cur.measure.support_size))
        np.add.at(w, (geo.atom_to_point[k - 1], geo.atom_to_point[k]), geo.atom_mass)
        out.append(TransportPlan(w, prev.measure, cur.measure))
    return out
