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
from .measures import FiniteMeasure

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
    status: int
    message: str
    x: np.ndarray | None
    nit: int


def linprog(c, start, index, b_eq) -> LPResult:
    """min c.x subject to A x = b_eq, x >= 0, by one direct HiGHS call.

    A is the 0/1 transportation matrix in column-wise form: column j has ones
    at rows index[start[j]:start[j+1]]. HiGHS runs with the options that
    scipy.optimize.linprog(method="highs") passes it (presolve on, dual
    simplex, output off, feasibility tolerances 1e-10), so the solution is
    the same bit for bit; linprog's input checks, sparse conversions and dual
    post-processing cost more than the solve at these sizes. Presolve can call a
    feasible LP with atoms below 1e-10 infeasible, so a solve that is not optimal
    runs once more with presolve off. The first call loads the HiGHS extension by
    itself (see _highs); scipy.optimize is never imported.
    """
    highs = _highs()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = b_eq.size
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(c.size)
    lp.col_upper_ = np.full(c.size, highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = b_eq
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    # the matrix fields take Python sequences; lists convert fastest
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = index.tolist()
    lp.a_matrix_.value_ = [1.0] * index.size
    options = highs.HighsOptions()
    options.simplex_strategy = 1  # dual simplex
    options.output_flag = options.log_to_console = False
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-10
    for presolve in ("on", "off"):
        options.presolve = presolve
        solver = highs._Highs()
        solver.passOptions(options)
        solver.passModel(lp)
        solver.run()
        status = solver.getModelStatus()
        if success := status == highs.HighsModelStatus.kOptimal:
            break
    return LPResult(success=success, status=0 if success else 4,
                    message=solver.modelStatusToString(status),
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
    # all m + n rows makes HiGHS presolve declare instances with atoms below
    # its feasibility tolerance infeasible, so each block drops its redundant
    # last column constraint: variable (i, j) of a block has its source row,
    # and its target row unless j = n - 1 (-1 marks the dropped row)
    costs, src, tgt, b_eq = [], [], [], []
    row0 = 0
    for mu, nu, cost in pairs:
        m, n = mu.support_size, nu.support_size
        if cost.entries.shape != (m, n):
            raise ConfigurationError("wasserstein: cost shape does not match supports")
        i, j = np.divmod(np.arange(m * n), n)
        src.append(row0 + i)
        tgt.append(np.where(j < n - 1, row0 + m + j, -1))
        with np.errstate(over="ignore"):
            costs.append((cost.entries**p).ravel())
        b_eq += [mu.weights, nu.weights[:-1]]
        row0 += m + n - 1
    c, tgt = np.concatenate(costs), np.concatenate(tgt)
    if not np.all(c < LP_COST_CAP):
        raise DomainError(f"wasserstein: a transport cost^p of {c.max():.3g} is not below "
                          f"LP_COST_CAP = {LP_COST_CAP:g}, past which HiGHS cannot solve it")
    index = np.stack([np.concatenate(src), tgt], axis=1).ravel()
    start = np.concatenate(([0], np.cumsum(1 + (tgt >= 0))))
    res = linprog(c, start, index[index >= 0], np.concatenate(b_eq))
    if not res.success:
        # a transport LP between validated measures is feasible and bounded
        raise RuntimeError(f"wasserstein: LP failed: {res.message}")
    out, col0 = [], 0
    for (mu, nu, cost), c_block in zip(pairs, costs):
        x = res.x[col0:col0 + c_block.size]
        col0 += c_block.size
        plan = TransportPlan(x.reshape(cost.entries.shape), mu, nu)
        # round-off in x can leave a zero optimum a hair below 0
        out.append((max(float(c_block @ x), 0.0) ** (1.0 / p), plan))
    return out


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


def _dedupe(positions: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Atoms landing on the same coordinates (to DEDUP_DECIMALS places) merge.
    key = np.round(positions, DEDUP_DECIMALS)
    key[key == 0.0] = 0.0  # normalize -0.0
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, inverse, mass)
    return uniq, merged, inverse


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
    for tk in t:
        pos = (1.0 - tk) * src + tk * dst
        uniq, merged, inverse = _dedupe(pos, mass)
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
