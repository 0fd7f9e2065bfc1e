"""Local sector-value recovery and global layer-stripping reconstruction.

The local solver inverts the frozen-limit relation: limits of scaled fan
integrals over a spread of directions determine the sector values of the
tangent fan through a stacked least-squares system (stable stand-in for the
direction-derivative elimination that proves uniqueness).

The global solver sweeps the foliation leaves inward.  Triangles are batched
by the leaf level at first contact; each batch is determined from chords
that stay above the next level, so they meet only the batch and triangles
recovered earlier, whose contribution is subtracted from the data.  Each
candidate chord is traced, clipped and integrated once
(``plan_weight_integrals``): which triangles its integrals touch decides
whether it is admissible, the synthetic oracle's data are the same
integrals applied to the field, and the sweep is block forward substitution
on these rows of the transform's matrix.
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
from .geometry import DEFAULT_STEP, MetricField, boundary_tangent, unwrap
from .tiling import Tiling
from .transform import (
    apply_integrals,
    dense_operator,
    per_triangle_weight_integrals,
    plan_weight_integrals,
    sector_chord_lengths,
)
from .weights import WeightField, injectivity_margin, sphere_bundle_samples

COND_CAP = 1e8
MARGIN_FLOOR = 1e-12
# Clip pieces shorter than this do not count as "meeting" a triangle.
ADMISSIBLE_LENGTH_TOL = 1e-9


# ---------------------------------------------------------------------------
# data oracles
# ---------------------------------------------------------------------------

def descriptor_key(descriptor):
    ba, da = descriptor
    return (round(float(ba), 9), round(float(da), 9))


class SyntheticOracle:
    """Forward data of a known scene, from the chords' per-triangle integrals.

    Optional additive complex Gaussian noise (diagnostics only); the noise
    stream is driven by the supplied generator.
    """

    def __init__(self, metric, weight, tiling, field, noise_sigma=0.0, rng=None):
        self.metric = metric
        self.weight = weight
        self.tiling = tiling
        self.field = field
        self.noise_sigma = float(noise_sigma)
        self.rng = rng

    def query(self, descriptor, integrals) -> np.ndarray:
        """Data of the chord whose ``per_triangle_weight_integrals`` are given."""
        value = apply_integrals(self.weight, self.field, integrals)
        if self.noise_sigma > 0.0:
            if self.rng is None:
                raise SceneValidationError("noisy oracle needs a random generator")
            noise = self.rng.standard_normal(self.weight.m) + 1j * self.rng.standard_normal(self.weight.m)
            value = value + self.noise_sigma * noise
        return value


class RecordedOracle:
    """Looks up data rows by geodesic descriptor (boundary angle, direction angle).

    ``query`` takes the chord's integrals too, like the synthetic oracle, and
    ignores them.
    """

    def __init__(self, table: dict, m: int):
        self.table = table
        self.m = int(m)

    def query(self, descriptor, integrals) -> np.ndarray:
        key = descriptor_key(descriptor)
        if key not in self.table:
            raise CoverageError(
                f"recorded data has no row for geodesic {key}; the table does not "
                "cover the reconstruction plan"
            )
        return self.table[key].copy()

    @classmethod
    def from_rows(cls, rows, m: int) -> "RecordedOracle":
        table = {}
        for ba, da, value in rows:
            table[descriptor_key((ba, da))] = np.asarray(value, dtype=complex)
        return cls(table, m)


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
    for i in range(len(betas)):
        for j in range(i + 1, len(betas)):
            if abs(betas[i] - betas[j]) < 1e-12:
                raise IllPosedSamplingError("duplicate sample directions")
    w_mats = [np.asarray(weight_of_angle(b + 0.5 * math.pi), dtype=complex) for b in betas]
    m, k = w_mats[0].shape
    if len(samples) * m < n_sectors * k:
        raise IllPosedSamplingError(
            f"{len(samples)} samples with m={m} cannot determine {n_sectors} sectors with k={k}"
        )
    margin = min(float(np.linalg.svd(w, compute_uv=False)[-1]) for w in w_mats)
    if margin <= MARGIN_FLOOR:
        raise NonInjectiveWeightError(
            "weight is rank deficient at a sample direction (injectivity margin 0)"
        )
    a = np.zeros((len(samples) * m, n_sectors * k), dtype=complex)
    b = np.zeros(len(samples) * m, dtype=complex)
    for j, (beta, value) in enumerate(samples):
        lengths = sector_chord_lengths(sector_angles, float(beta))
        for i in range(n_sectors):
            a[j * m:(j + 1) * m, i * k:(i + 1) * k] = lengths[i] * w_mats[j]
        b[j * m:(j + 1) * m] = np.asarray(value, dtype=complex)
    values, residual, cond = _solve_stacked(a, b, cond_cap, IllPosedSamplingError)
    return values.reshape(n_sectors, k), residual, cond


def _solve_stacked(a, b, cond_cap, error_cls):
    sv = np.linalg.svd(a, compute_uv=False)
    smax = float(sv[0]) if len(sv) else 0.0
    smin = float(sv[-1]) if len(sv) else 0.0
    cond = math.inf if smin == 0.0 else smax / smin
    if cond > cond_cap:
        raise error_cls(f"stacked system condition number {cond:.3e} exceeds cap {cond_cap:.1e}")
    x, _res, _rank, _sv = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual, cond


# ---------------------------------------------------------------------------
# frontier ordering
# ---------------------------------------------------------------------------

def triangle_level(tiling: Tiling, phi: FoliationFunction, i: int) -> float:
    """Leaf level at which the shrinking leaves first touch triangle i.

    For a convex function on a straight triangle the maximum sits at a
    vertex, so only the three corners are inspected.
    """
    return max(phi.value(p) for p in tiling.coords(i))


def order_frontier(tiling: Tiling, phi: FoliationFunction, tie_tol: float = 1e-9):
    """Triangles grouped by decreasing first-contact level; ties form one batch."""
    levels = [triangle_level(tiling, phi, i) for i in range(tiling.n_triangles)]
    order = sorted(range(tiling.n_triangles), key=lambda i: -levels[i])
    batches = []
    for i in order:
        if batches and abs(levels[batches[-1][0]] - levels[i]) <= tie_tol:
            batches[-1].append(i)
        else:
            batches.append([i])
    return batches


# ---------------------------------------------------------------------------
# chord planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChordPlan:
    """Knobs of the chord generator used by the sweep.

    ``levels`` pins the usable leaf levels explicitly (chords are generated
    only at levels falling inside a batch's window); when ``None`` the plan
    spaces ``levels_per_batch`` levels evenly inside each window.
    """

    rotations: int = 30
    levels_per_batch: int = 5
    levels: tuple | None = None
    stagger: float = 0.382


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
            psi = 2.0 * math.pi * (i + plan.stagger * (j + 1)) / plan.rotations
            desc = chord_descriptor(phi.center, radius, psi)
            if desc is not None:
                out.append(desc)
    return out


def reconstruction_descriptors(tiling: Tiling, phi: FoliationFunction, plan: ChordPlan):
    """Union of all batch candidate descriptors, in sweep order, deduplicated."""
    batches = order_frontier(tiling, phi)
    seen = set()
    out = []
    for b, window in zip(batches, _batch_windows(tiling, phi, batches)):
        for desc in batch_descriptors(phi, window[0], window[1], plan):
            key = descriptor_key(desc)
            if key not in seen:
                seen.add(key)
                out.append(desc)
    return out


def _batch_windows(tiling, phi, batches):
    levels = [triangle_level(tiling, phi, b[0]) for b in batches]
    floor = phi.floor()
    windows = []
    for i, level in enumerate(levels):
        nxt = levels[i + 1] if i + 1 < len(levels) else floor
        windows.append((nxt, level))
    return windows


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
    k = weight.k
    m = weight.m
    n_tri = tiling.n_triangles
    values = np.zeros((n_tri, k), dtype=complex)
    residuals = np.zeros(n_tri)
    known = set()
    batches = order_frontier(tiling, phi)
    windows = _batch_windows(tiling, phi, batches)
    conds, step_residuals, used_counts, order = [], [], [], []

    for batch, (lo, hi) in zip(batches, windows):
        batch_set = set(batch)
        admissible = []
        descriptors = batch_descriptors(phi, lo, hi, plan)
        entries = plan_weight_integrals(metric, weight, tiling,
                                        [boundary_tangent(metric, a, d) for a, d in descriptors], step=step)
        for desc, entry in zip(descriptors, entries):
            integrals = unwrap(entry)
            hits = {tri for tri, (_m, length) in integrals.items()
                    if length > ADMISSIBLE_LENGTH_TOL}
            if hits & batch_set and hits <= known | batch_set:
                admissible.append((desc, integrals))
        if not admissible:
            raise CoverageError(
                f"no admissible geodesics for batch {sorted(batch)}: the plan is too sparse"
            )
        rows = len(admissible) * m
        if rows < len(batch) * k:
            raise CoverageError(
                f"batch {sorted(batch)} is underdetermined: {rows} data rows for "
                f"{len(batch) * k} unknowns"
            )
        col_of = {tri: i for i, tri in enumerate(batch)}
        a = np.zeros((rows, len(batch) * k), dtype=complex)
        b = np.zeros(rows, dtype=complex)
        hit_any = set()
        for j, (desc, integrals) in enumerate(admissible):
            data = np.asarray(oracle.query(desc, integrals), dtype=complex)
            for tri, (mat, length) in integrals.items():
                if tri in known:
                    data = data - mat @ values[tri]
                elif tri in batch_set and length > ADMISSIBLE_LENGTH_TOL:
                    c = col_of[tri]
                    a[j * m:(j + 1) * m, c * k:(c + 1) * k] = mat
                    hit_any.add(tri)
            b[j * m:(j + 1) * m] = data
        missing = batch_set - hit_any
        if missing:
            raise CoverageError(
                f"triangles {sorted(missing)} are never crossed by an admissible geodesic"
            )
        x, residual, cond = _solve_stacked(a, b, cond_cap, IllPosedStepError)
        x = x.reshape(len(batch), k)
        for tri in batch:
            values[tri] = x[col_of[tri]]
            residuals[tri] = residual
        known |= batch_set
        conds.append(cond)
        step_residuals.append(residual)
        used_counts.append(len(admissible))
        order.extend(batch)

    return ReconstructionReport(
        values=values,
        per_triangle_residual=residuals,
        per_step_condition=conds,
        per_step_residual=step_residuals,
        processing_order=order,
        batches=batches,
        geodesics_per_batch=used_counts,
        foliation_margin=convexity,
        injectivity=margin,
    )


# ---------------------------------------------------------------------------
# operator assembly and spectrum
# ---------------------------------------------------------------------------

def assemble_operator(metric: MetricField, weight: WeightField, tiling: Tiling,
                      paths) -> np.ndarray:
    """Dense matrix of the discretized transform over a geodesic plan (see ``dense_operator``)."""
    return dense_operator(weight, tiling, [per_triangle_weight_integrals(metric, weight, tiling, p)
                                           for p in paths])


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
