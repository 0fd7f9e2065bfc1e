"""Local sector-value recovery and global layer-stripping reconstruction.

The local solver inverts the frozen-limit relation: limits of scaled fan
integrals over a spread of directions determine the sector values of the
tangent fan through a stacked least-squares system (stable stand-in for the
direction-derivative elimination that proves uniqueness).

The global solver sweeps the foliation leaves inward.  Triangles are batched
by the leaf level at first contact; each batch is determined from chords
that stay above the next level, so they meet only the batch and triangles
recovered earlier, whose contribution is subtracted from the data.  The
candidate chords of every batch are traced, clipped and integrated in one
``plan_weight_integrals`` call, which gives the rows of the transform's
matrix as one ``PlanOperator``.  A mask over its triangles and piece
lengths picks each batch's admissible rows, the synthetic oracle's data are
those rows applied to the field, and the sweep is block forward
substitution on them: ordered by batch, the rows are block lower triangular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    IllPosedSamplingError,
    IllPosedStepError,
    NonInjectiveWeightError,
    SceneValidationError,
)
from .foliation import FoliationFunction
from .geometry import DEFAULT_STEP, MetricField, boundary_tangents, unwrap
from .tiling import Tiling
from .transform import (
    PlanOperator,
    plan_weight_integrals,
    sector_chord_lengths,
)
from .weights import WeightField, injectivity_margin, sphere_bundle_samples

COND_CAP = 1e8
MARGIN_FLOOR = 1e-12
# Clip pieces shorter than this do not count as "meeting" a triangle.
ADMISSIBLE_LENGTH_TOL = 1e-9
# First-contact levels this close form one frontier batch.
TIE_TOL = 1e-9
# Each further level of a batch turns its chords by this fraction of the rotation step.
STAGGER = 0.382


# ---------------------------------------------------------------------------
# data oracles
# ---------------------------------------------------------------------------

def descriptor_key(descriptor):
    ba, da = descriptor
    return (round(float(ba), 9), round(float(da), 9))


class SyntheticOracle:
    """Forward data of a known scene: the chords' operator rows applied to the field.

    Optional additive complex Gaussian noise (diagnostics only); the noise
    stream is driven by the supplied generator.
    """

    def __init__(self, weight, field, noise_sigma=0.0, rng=None):
        self.weight = weight
        self.field = field
        self.noise_sigma = float(noise_sigma)
        self.rng = rng

    def query(self, descriptors, rows: PlanOperator) -> np.ndarray:
        """Data ``(n, m)`` of the chords with these operator rows; noise is drawn chord by chord."""
        value = rows.apply(self.field)
        if self.noise_sigma > 0.0:
            if self.rng is None:
                raise SceneValidationError("noisy oracle needs a random generator")
            z = self.rng.standard_normal((rows.n_rows, 2, self.weight.m))
            value = value + self.noise_sigma * (z[:, 0] + 1j * z[:, 1])
        return value


class RecordedOracle:
    """Looks up data rows by geodesic descriptor (boundary angle, direction angle).

    ``query`` takes the chords' operator rows too, like the synthetic
    oracle, and ignores them.
    """

    def __init__(self, table: dict, m: int):
        self.table = table
        self.m = int(m)

    def query(self, descriptors, rows) -> np.ndarray:
        out = np.zeros((len(descriptors), self.m), dtype=complex)
        for i, descriptor in enumerate(descriptors):
            key = descriptor_key(descriptor)
            if key not in self.table:
                raise CoverageError(
                    f"recorded data has no row for geodesic {key}; the table does not "
                    "cover the reconstruction plan"
                )
            out[i] = self.table[key]
        return out


# ---------------------------------------------------------------------------
# local sector-value recovery
# ---------------------------------------------------------------------------

def recover_fan_values(weight_of_angle, sector_angles, samples, cond_cap: float = COND_CAP):
    """Solve for the sector values of a fan from frozen-limit samples.

    Parameters
    ----------
    weight_of_angle : callable
        Maps a frame direction angle to the ``(m, k)`` weight matrix at the
        vertex; it is evaluated at ``beta + pi/2`` for each sample.
    sector_angles : sequence of (start, end)
        Fan geometry in the orthonormal frame at the vertex.
    samples : sequence of (beta, value)
        Direction angles with the measured limit values in C^m.

    Returns
    -------
    (values, residual, condition) :
        Per-sector values ``(n_sectors, k)``, the least-squares residual
        norm, and the condition number of the stacked matrix.
    """
    sector_angles = [tuple(a) for a in sector_angles]
    samples = list(samples)
    n_sectors = len(sector_angles)
    if n_sectors == 0 or not samples:
        raise SceneValidationError("need at least one sector and one sample")
    betas = [float(b) for b, _ in samples]
    if (np.diff(np.sort(betas)) < 1e-12).any():
        raise IllPosedSamplingError("duplicate sample directions")
    w_mats = np.array([weight_of_angle(b + 0.5 * math.pi) for b in betas], dtype=complex)   # (samples, m, k)
    _, m, k = w_mats.shape
    if len(samples) * m < n_sectors * k:
        raise IllPosedSamplingError(
            f"{len(samples)} samples with m={m} cannot determine {n_sectors} sectors with k={k}"
        )
    if np.linalg.svd(w_mats, compute_uv=False)[:, -1].min() <= MARGIN_FLOOR:
        raise NonInjectiveWeightError(
            "weight is rank deficient at a sample direction (injectivity margin 0)"
        )
    lengths = np.array([sector_chord_lengths(sector_angles, beta) for beta in betas])     # (samples, sectors)
    a = (lengths[:, None, :, None] * w_mats[:, :, None, :]).reshape(len(samples) * m, n_sectors * k)
    b = np.concatenate([np.broadcast_to(np.asarray(value, dtype=complex), (m,)) for _, value in samples])
    values, residual, cond = _solve_stacked(a, b, cond_cap, IllPosedSamplingError)
    return values.reshape(n_sectors, k), residual, cond


def _solve_stacked(a, b, cond_cap, error_cls):
    # weight integrals that overflowed make the system ill-posed; LAPACK is not handed them
    if not np.isfinite(a).all():
        raise error_cls("stacked system has non-finite entries: the weight integrals overflow")
    sv = np.linalg.svd(a, compute_uv=False)
    smax = float(sv[0]) if len(sv) else 0.0
    smin = float(sv[-1]) if len(sv) else 0.0
    cond = math.inf if smin == 0.0 else smax / smin
    if not cond <= cond_cap:   # a NaN condition too
        raise error_cls(f"stacked system condition number {cond:.3e} exceeds cap {cond_cap:.1e}")
    x, _res, _rank, _sv = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual, cond


# ---------------------------------------------------------------------------
# frontier ordering
# ---------------------------------------------------------------------------

def triangle_levels(tiling: Tiling, phi: FoliationFunction) -> np.ndarray:
    """Leaf level at which the shrinking leaves first touch each triangle, ``(T,)``.

    For a convex function on a straight triangle the maximum sits at a
    vertex, so only the corners are inspected, all in one ``phi.value`` call.
    """
    return phi.value(tiling.vertices[tiling.triangles]).max(axis=1)


def order_frontier(tiling: Tiling, phi: FoliationFunction):
    """Triangles grouped by decreasing first-contact level; ties form one batch."""
    levels = triangle_levels(tiling, phi)
    order, levels = np.argsort(-levels, kind="stable").tolist(), levels.tolist()
    batches = []
    for i in order:
        if batches and abs(levels[batches[-1][0]] - levels[i]) <= TIE_TOL:
            batches[-1].append(i)
        else:
            batches.append([i])
    return batches


# ---------------------------------------------------------------------------
# chord planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChordPlan:
    """A chord plan (a scene's ``plans.chords``); ``mode`` says which fields apply.

    ``random``: ``count`` seeded boundary chords; ``grid``: ``distances`` x
    ``rotations`` chords over the disk; ``frontier``: the sweep's chords,
    ``rotations`` at each leaf level of a batch.  ``levels`` pins the usable
    levels explicitly (chords are generated only at levels falling inside a
    batch's window); when ``None`` the plan spaces ``levels_per_batch``
    levels evenly inside each window.  The sweep reads only the frontier fields.
    """

    # each mode's size fields, which a scene's reader reads and its plan-size bound multiplies
    SIZES = {"random": ("count",), "grid": ("distances", "rotations"), "frontier": ("rotations", "levels_per_batch")}

    mode: str = "frontier"           # "random" | "grid" | "frontier"
    count: int = 0
    distances: int = 10
    rotations: int = 30
    levels_per_batch: int = 5
    levels: tuple | None = None


def chord_descriptor(center, radius: float, normal_angle: float):
    """Boundary descriptor of the straight chord at a distance from a center.

    The chord lies on the line at the given distance from ``center`` with
    normal direction ``normal_angle``.  Returns ``(boundary_angle,
    direction_angle)`` or None when the line misses the open disk.
    """
    n = np.array([math.cos(normal_angle), math.sin(normal_angle)])
    d_eff = radius + float(np.dot(np.asarray(center, dtype=float), n))
    if not -1.0 + 1e-9 < d_eff < 1.0 - 1e-9:
        return None
    half = math.acos(d_eff)
    if half < 1e-6:
        return None
    theta_in = normal_angle + half
    theta_out = normal_angle - half
    p_in = np.array([math.cos(theta_in), math.sin(theta_in)])
    p_out = np.array([math.cos(theta_out), math.sin(theta_out)])
    direction = p_out - p_in
    return (theta_in % (2.0 * math.pi), math.atan2(direction[1], direction[0]))


def batch_descriptors(phi: FoliationFunction, lo: float, hi: float, plan: ChordPlan):
    """Chord descriptors aimed at the leaf band between two levels."""
    if plan.levels is not None:
        levels = [l for l in plan.levels if lo < l < hi]
    else:
        n = plan.levels_per_batch
        levels = [lo + (hi - lo) * (j + 1) / (n + 1) for j in range(n)]
    out = []
    for j, level in enumerate(levels):
        radius = phi.leaf_radius(level)
        for i in range(plan.rotations):
            psi = 2.0 * math.pi * (i + STAGGER * (j + 1)) / plan.rotations
            desc = chord_descriptor(phi.center, radius, psi)
            if desc is not None:
                out.append(desc)
    return out


def frontier_plan(tiling: Tiling, phi: FoliationFunction, plan: ChordPlan):
    """The sweep's batches in frontier order, and each batch's candidate descriptors.

    A batch's chords are aimed between its first-contact level and the next
    batch's (the foliation's floor after the last batch).
    """
    batches, first = order_frontier(tiling, phi), triangle_levels(tiling, phi).tolist()
    levels = [first[b[0]] for b in batches] + [phi.floor()]
    return batches, [batch_descriptors(phi, lo, hi, plan) for hi, lo in zip(levels, levels[1:])]


def reconstruction_descriptors(tiling: Tiling, phi: FoliationFunction, plan: ChordPlan):
    """Union of all batch candidate descriptors, in sweep order, deduplicated."""
    unique = {}
    for desc in (desc for candidates in frontier_plan(tiling, phi, plan)[1] for desc in candidates):
        unique.setdefault(descriptor_key(desc), desc)
    return list(unique.values())


# ---------------------------------------------------------------------------
# layer stripping
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionReport:
    values: np.ndarray                   # (n_triangles, k)
    per_triangle_residual: np.ndarray    # (n_triangles,)
    per_step_condition: list
    per_step_residual: list
    processing_order: list
    batches: list
    geodesics_per_batch: list
    foliation_margin: float
    injectivity: float

    def to_text(self) -> str:
        lines = [
            "layer-stripping reconstruction report",
            f"triangles: {len(self.values)}  components: {self.values.shape[1]}",
            f"foliation convexity margin: {self.foliation_margin:.6e}",
            f"weight injectivity margin: {self.injectivity:.6e}",
            f"batches: {len(self.batches)}",
        ]
        for i, batch in enumerate(self.batches):
            lines.append(
                f"  batch {i}: triangles {sorted(batch)}"
                f" geodesics {self.geodesics_per_batch[i]}"
                f" condition {self.per_step_condition[i]:.6e}"
                f" residual {self.per_step_residual[i]:.6e}"
            )
        lines.append("processing order: " + " ".join(str(i) for i in self.processing_order))
        return "\n".join(lines) + "\n"


def reconstruct(metric: MetricField, weight: WeightField, tiling: Tiling, oracle,
                phi: FoliationFunction, plan: ChordPlan = None,
                step: float = DEFAULT_STEP, cond_cap: float = COND_CAP) -> ReconstructionReport:
    """Recover the per-triangle field values by sweeping the foliation inward.

    Batches in frontier order are solved from chords whose clip pieces meet
    only already-recovered triangles plus the batch; the recovered part is
    subtracted from the data and the batch block is solved by least squares.

    Raises
    ------
    CoverageError
        When a batch has no admissible geodesics, too few data rows, or an
        unhit triangle; also when a recorded oracle lacks a requested row.
    IllPosedStepError
        When a batch system exceeds the condition cap.
    NonInjectiveWeightError
        When the weight margin vanishes on the sample grid.
    """
    tiling.require_valid()
    plan = plan or ChordPlan()
    margin = injectivity_margin(weight, sphere_bundle_samples(metric))
    if margin <= MARGIN_FLOOR:
        raise NonInjectiveWeightError(
            f"weight injectivity margin {margin:.3e} vanishes; recovery is impossible"
        )
    convexity = phi.certify(metric)
    if convexity <= 0.0:
        raise SceneValidationError(
            f"foliation convexity margin {convexity:.3e} is not positive"
        )
    m, k, n_tri = weight.m, weight.k, tiling.n_triangles
    values = np.zeros((n_tri, k), dtype=complex)
    residuals = np.zeros(n_tri)
    known = np.zeros(n_tri, dtype=bool)
    batches, candidates = frontier_plan(tiling, phi, plan)
    # a start that cannot be built stands in for its chord, as its error
    starts = boundary_tangents(metric, [desc for batch_candidates in candidates for desc in batch_candidates])
    operator = plan_weight_integrals(metric, weight, tiling, starts, step=step)
    stops = np.cumsum([len(c) for c in candidates], dtype=int)
    conds, step_residuals, used_counts = [], [], []

    for batch, batch_candidates, stop in zip(batches, candidates, stops):
        in_batch = np.isin(np.arange(n_tri), batch)
        chords = np.arange(stop - len(batch_candidates), stop)
        for j in chords:   # the batch's errors, now that its turn has come: its starts' first
            unwrap(starts[j])
        rows = operator.take(chords).require()
        # admissible: meets the batch, and nothing outside it but recovered triangles
        hit = rows.length > ADMISSIBLE_LENGTH_TOL
        meets = np.bincount(rows.row[hit & in_batch[rows.triangle]], minlength=rows.n_rows)
        strays = np.bincount(rows.row[hit & ~(known | in_batch)[rows.triangle]], minlength=rows.n_rows)
        admissible = np.flatnonzero((meets > 0) & (strays == 0))
        if not len(admissible):
            raise CoverageError(
                f"no admissible geodesics for batch {sorted(batch)}: the plan is too sparse"
            )
        if len(admissible) * m < len(batch) * k:
            raise CoverageError(
                f"batch {sorted(batch)} is underdetermined: {len(admissible) * m} data rows for "
                f"{len(batch) * k} unknowns"
            )
        system = rows.take(admissible)
        data = np.array(oracle.query([batch_candidates[j] for j in admissible], system), dtype=complex)
        # subtract the recovered part, term by term in entry order
        old = known[system.triangle]
        np.add.at(data, system.row[old], -np.matmul(system.block[old], values[system.triangle[old]][..., None])[..., 0])
        new = in_batch[system.triangle] & (system.length > ADMISSIBLE_LENGTH_TOL)
        col = np.zeros(n_tri, dtype=int)
        col[batch] = np.arange(len(batch))
        a = np.zeros((system.n_rows, m, len(batch), k), dtype=complex)
        a[system.row[new], :, col[system.triangle[new]], :] = system.block[new]
        missing = set(batch) - set(system.triangle[new].tolist())
        if missing:
            raise CoverageError(
                f"triangles {sorted(missing)} are never crossed by an admissible geodesic"
            )
        x, residual, cond = _solve_stacked(a.reshape(system.n_rows * m, len(batch) * k), data.ravel(),
                                           cond_cap, IllPosedStepError)
        values[batch] = x.reshape(len(batch), k)
        residuals[batch] = residual
        known[batch] = True
        conds.append(cond)
        step_residuals.append(residual)
        used_counts.append(len(admissible))

    return ReconstructionReport(
        values=values,
        per_triangle_residual=residuals,
        per_step_condition=conds,
        per_step_residual=step_residuals,
        processing_order=[tri for batch in batches for tri in batch],
        batches=batches,
        geodesics_per_batch=used_counts,
        foliation_margin=convexity,
        injectivity=margin,
    )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def singular_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Singular values in decreasing order (empty for an empty matrix)."""
    if matrix.size == 0:
        return np.zeros(0)
    return np.linalg.svd(matrix, compute_uv=False)


def spectral_summary(spectrum: np.ndarray):
    """``(sigma_min, sigma_max, ratio)``; ratio is nan for an empty spectrum."""
    if len(spectrum) == 0:
        return (math.nan, math.nan, math.nan)
    smax = float(spectrum[0])
    smin = float(spectrum[-1])
    ratio = math.nan if smax == 0.0 else smin / smax
    return (smin, smax, ratio)
