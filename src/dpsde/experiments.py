"""Monte Carlo strong-error studies, rate fitting and moment scans.

A study couples every approximation to the limit-equation solver through
common random numbers: per path the same Brownian increments drive the
scheme at each delay parameter n and the reference solver, so the per-path
statistic sup_k |X^n_k - X_k| isolates scheme error from sampling noise.
Every study reduces to one table: the mean of stat**p with its Monte Carlo
standard error per (n, p), p-major, where stat is that sup gap for the
strong error and sup_k |X^n_k| for the moment scan.  The empirical decay
exponent is an ordinary least squares fit of log2(estimate) against log2(n).

Determinism: each path's increments are a pure function of
(master_seed, path_index), and per-path statistics are assembled into
arrays ordered by path index before any reduction (numpy's pairwise
mean/std on a fixed array is reproducible).  Forked worker processes may
each run a contiguous span of paths, in even pieces of at most _CHUNK
paths.  Every solver is column-independent, and a one-path study takes
the reference's float loop, bitwise equal to its vector step, so neither
the worker count nor the piece width can change any output bit.

Streaming fold.  A piece of B paths writes its increments into one
time-major (L, B) array and keeps the reference solution's X only, as an
(L+1, B) array.  Each scheme run then streams its blocks of at most m rows
(dpsde.scheme) and folds every block into a running per-path sup with four
ufunc calls into preallocated buffers: subtract, abs, maximum.reduce over
the block's rows, and maximum into the running value.  Max is exact, so the
per-path statistics, and every output bit, equal those of the full
(L+1, B) scheme output.  A piece therefore holds about 2*L*B floats plus
O(m*B) scheme state, rather than four (L+1, B) arrays per solver run; one
256-path piece of the stock study at L=2048 peaks near 4.3*L*B*8 bytes
under tracemalloc, and the tests hold it below 5*L*B*8.

The grid must resolve the shortest delay: studies enforce at least 8 grid
steps per delay 1/n, keeping lag resolution error subdominant at desk
scale.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .driver import SimGrid, check_key_word, generate_increments, lag_map, make_grid
from .errors import DegenerateFit, DelayTooFine, InvalidStudy, InvalidWorkerCount, NonFinitePath
from .models import get_model
from .params import PerturbationParams, validate
from .reference import reference_steps
from .scheme import check_scheme, scheme_blocks

__all__ = [
    "StudySpec",
    "default_study",
    "ErrorEstimate",
    "RateFit",
    "ConvergenceReport",
    "SchemeComparison",
    "rate_fit",
    "run_convergence",
    "moment_scan",
    "compare_schemes",
]

_CHUNK = 256
_MIN_SPAN = 64  # the fewest paths worth a worker process
_MIN_STEPS_PER_DELAY = 8


@dataclass(frozen=True)
class StudySpec:
    """A complete, validated description of one Monte Carlo study."""

    model_id: str
    params: PerturbationParams
    n_list: tuple[int, ...]
    p_list: tuple[float, ...]
    paths: int
    grid: SimGrid
    master_seed: int = 42
    scheme: str = "new"

    def __post_init__(self) -> None:
        get_model(self.model_id)
        check_scheme(self.scheme, self.params)
        for name, values in (("n_list", self.n_list), ("p_list", self.p_list)):  # each p has its own fit
            if not values or len(set(values)) != len(values):
                raise InvalidStudy(f"{name} must be non-empty without repeats, got {values}")
        if not all(math.isfinite(p) and p >= 1.0 for p in self.p_list):
            raise InvalidStudy(f"every p must be finite and >= 1, got {self.p_list}")
        if self.paths < 1:
            raise InvalidStudy(f"paths must be >= 1, got {self.paths}")
        check_key_word("master_seed", self.master_seed)
        for n in self.n_list:
            m = lag_map(self.grid, n)
            if m < _MIN_STEPS_PER_DELAY:
                raise DelayTooFine(
                    f"resolution rule needs >= {_MIN_STEPS_PER_DELAY} grid steps per delay, "
                    f"got {m} for n={n} (refine the grid or lower n)"
                )


def default_study(
    model_id: str = "affine",
    alpha: float = 0.6,
    beta: float = -1.0,
    x0: float = 0.0,
    horizon: float = 1.0,
    grid_steps: int = 4096,
    n_list: tuple[int, ...] = (8, 16, 32, 64),
    p_list: tuple[float, ...] = (2.0, 4.0),
    paths: int = 2000,
    master_seed: int = 42,
    scheme: str = "new",
) -> StudySpec:
    """The stock desk-scale study (minutes of runtime, resolvable slopes)."""
    return StudySpec(
        model_id=model_id,
        params=validate(alpha, beta, x0, horizon),
        n_list=tuple(int(n) for n in n_list),
        p_list=tuple(float(p) for p in p_list),
        paths=int(paths),
        grid=make_grid(grid_steps, horizon),
        master_seed=int(master_seed),
        scheme=scheme,
    )


@dataclass(frozen=True)
class ErrorEstimate:
    n: int
    p: float
    estimate: float
    std_err: float


@dataclass(frozen=True)
class RateFit:
    p: float
    slope: float
    intercept: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-(n, p) strong-error estimates plus fitted log-log slopes.

    ``skipped_fits`` holds (p, reason) for each p whose rate fit raised
    DegenerateFit; the report writers do not write it.
    """

    scheme: str
    model_id: str
    alpha: float
    beta: float
    x0: float
    horizon: float
    grid_steps: int
    paths: int
    master_seed: int
    errors: tuple[ErrorEstimate, ...]
    fits: tuple[RateFit, ...] = field(default=())
    skipped_fits: tuple[tuple[float, str], ...] = field(default=())


@dataclass(frozen=True)
class SchemeComparison:
    """New and old schemes measured against the same reference paths."""

    new: ConvergenceReport
    old: ConvergenceReport


def _per_path_sup(
    spec: StudySpec,
    kinds: tuple[str, ...],
    against_reference: bool,
    workers: int = 1,
) -> dict[tuple[str, int], np.ndarray]:
    """Per-path sup statistics, keyed by (scheme kind, n).

    With against_reference=True the statistic is sup_k |X^n_k - X_k| with X
    from the limit-equation solver on the same increments; otherwise it is
    sup_k |X^n_k|.  Output arrays are ordered by path index.  Raises
    InvalidWorkerCount for workers < 1, or > 1 where os.fork is missing,
    and whatever building the solvers raises (NonZeroStart,
    UndefinedTimeZero, ...), before any increment is drawn or any process
    forked.

    The paths split into w = min(workers, max(1, paths // _MIN_SPAN))
    contiguous spans (see _in_spans), each run in order as the fewest even
    pieces no wider than _CHUNK.  A span stops after its first piece that
    holds a non-finite statistic, so every path below the lowest bad one
    has run; NonFinitePath names that path and the first (kind, n), in
    study order, that is bad there, whatever the worker count.
    """
    if workers < 1:
        raise InvalidWorkerCount(f"workers must be >= 1, got {workers!r}")
    if workers > 1 and not hasattr(os, "fork"):
        raise InvalidWorkerCount(f"workers={workers} needs os.fork, which this platform lacks")
    model = get_model(spec.model_id)
    ref_steps = reference_steps(model, spec.params, spec.grid) if against_reference else None
    streams = {(kind, n): scheme_blocks(kind, model, spec.params, spec.grid, n) for kind in kinds for n in spec.n_list}
    M, L = spec.paths, spec.grid.steps
    out = {key: np.empty(M) for key in streams}
    widest = max(lag_map(spec.grid, n) for n in spec.n_list)

    def span(s0: int, s1: int) -> None:
        k = math.ceil((s1 - s0) / _CHUNK)
        for q in range(k):
            s, e = s0 + (s1 - s0) * q // k, s0 + (s1 - s0) * (q + 1) // k
            B = e - s
            dw = np.empty((L, B))
            for j in range(B):
                dw[:, j] = generate_increments(spec.master_seed, s + j, spec.grid)
            ref = None
            if against_reference:
                ref = np.empty((L + 1, B))
                for k0, k1, _, _, _, x in ref_steps(dw):
                    ref[k0:k1] = x
            gap = np.empty((widest, B))
            block_sup = np.empty(B)
            for (kind, n), blocks in streams.items():
                sup = out[(kind, n)][s:e]
                sup[:] = 0.0  # every |.| is >= +0.0, so 0 is the fold's identity
                for k0, k1, _, _, _, x in blocks(dw):
                    g = gap[: k1 - k0]
                    if against_reference:
                        np.subtract(x, ref[k0:k1], out=g)
                        np.abs(g, out=g)
                    else:
                        np.abs(x, out=g)
                    np.maximum.reduce(g, axis=0, out=block_sup)
                    np.maximum(sup, block_sup, out=sup)
            if not all(np.isfinite(a[s:e]).all() for a in out.values()):
                return

    w = min(workers, max(1, M // _MIN_SPAN))
    _in_spans(span, out, [M * i // w for i in range(w + 1)])
    bad = ~np.isfinite(np.array(list(out.values())))  # one row per (kind, n), in study order
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        kind, n = list(out)[int(bad[:, i].argmax())]
        what = "sup gap" if against_reference else "sup"
        raise NonFinitePath(
            f"non-finite per-path {what} for scheme {kind!r}, n={n}: first at path index {i}"
        )
    return out


def _in_spans(run, out: dict, edges: list[int]) -> None:
    """run(s0, s1) on each span [edges[i], edges[i+1]), filling out[key][s0:s1].

    This process runs the first span.  Each other span runs in one forked
    child, which pickles its slice of every array in out, or the exception
    it raised, back through a pipe and leaves through os._exit.  fork, not
    spawn: a child starts with the built solvers and costs a few
    milliseconds, and the study process runs no thread of its own.  Every
    child is reaped before this returns or raises.
    """
    children = {}  # pid -> (read end of its pipe, its span)
    try:
        for s0, s1 in zip(edges[1:-1], edges[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                try:
                    os.close(read)
                    for other, _, _ in children.values():
                        other.close()
                    try:
                        run(s0, s1)
                        result = {key: a[s0:s1] for key, a in out.items()}
                    except BaseException as exc:  # sent to the parent, which raises it
                        result = exc
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(result, pipe)
                finally:
                    os._exit(0)
            os.close(write)
            children[pid] = (os.fdopen(read, "rb"), s0, s1)
        run(edges[0], edges[1])
        for pipe, s0, s1 in children.values():
            try:
                result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise ChildProcessError(f"the worker process for paths [{s0}, {s1}) sent no result") from exc
            if isinstance(result, BaseException):
                raise result
            for key, a in out.items():
                a[s0:s1] = result[key]
    finally:
        for pid, (pipe, _, _) in children.items():
            pipe.close()  # a child still to send its result then fails to, and leaves
            os.waitpid(pid, 0)


def rate_fit(errors) -> tuple[float, float]:
    """OLS slope and intercept of log2(estimate) against log2(n).

    Raises DegenerateFit for fewer than 3 points, non-positive or
    non-finite estimates, or repeated n values.
    """
    pts = [(float(n), float(e)) for n, e in errors]
    if len(pts) < 3:
        raise DegenerateFit(f"rate fit needs >= 3 points, got {len(pts)}")
    if any(not math.isfinite(e) or e <= 0.0 for _, e in pts):
        raise DegenerateFit("rate fit needs positive finite estimates")
    x = np.log2([n for n, _ in pts])
    y = np.log2([e for _, e in pts])
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise DegenerateFit("rate fit needs distinct n values")
    slope = float(np.sum((x - xm) * (y - y.mean())) / sxx)
    return slope, float(y.mean() - slope * xm)


def _table(spec: StudySpec, kind: str, stats: dict) -> tuple[ErrorEstimate, ...]:
    """Mean and standard error of stat**p per (n, p), p-major, from the per-path stats keyed by (kind, n)."""
    rows = []
    for p in spec.p_list:
        for n in spec.n_list:
            values = stats[(kind, n)] ** p
            est = float(np.mean(values))
            se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
            rows.append(ErrorEstimate(n=n, p=p, estimate=est, std_err=se))
    return tuple(rows)


def _report_for(spec: StudySpec, kind: str, gaps: dict) -> ConvergenceReport:
    errors = _table(spec, kind, gaps)
    fits = []
    skipped = []
    for p in spec.p_list:
        try:
            slope, intercept = rate_fit([(e.n, e.estimate) for e in errors if e.p == p])
        except DegenerateFit as exc:
            skipped.append((p, str(exc)))
            continue
        fits.append(RateFit(p=p, slope=slope, intercept=intercept))
    return ConvergenceReport(
        scheme=kind,
        model_id=spec.model_id,
        alpha=spec.params.alpha,
        beta=spec.params.beta,
        x0=spec.params.x0,
        horizon=spec.params.horizon,
        grid_steps=spec.grid.steps,
        paths=spec.paths,
        master_seed=spec.master_seed,
        errors=errors,
        fits=tuple(fits),
        skipped_fits=tuple(skipped),
    )


def run_convergence(spec: StudySpec, workers: int = 1) -> ConvergenceReport:
    """Full study for the chosen scheme variant: every (n, p) estimate + fits."""
    gaps = _per_path_sup(spec, (spec.scheme,), True, workers)
    return _report_for(spec, spec.scheme, gaps)


def moment_scan(spec: StudySpec, workers: int = 1) -> tuple[ErrorEstimate, ...]:
    """Estimates of E[sup_k |X^n_k|^p] with standard errors, p-major, for boundedness checks."""
    return _table(spec, spec.scheme, _per_path_sup(spec, (spec.scheme,), False, workers))


def compare_schemes(spec: StudySpec, workers: int = 1) -> SchemeComparison:
    """New and old schemes on identical increments against the same reference.

    Reports both error tables side by side; no pass/fail judgement is made
    about the old scheme.
    """
    gaps = _per_path_sup(spec, ("new", "old"), True, workers)
    return SchemeComparison(
        new=_report_for(spec, "new", gaps),
        old=_report_for(spec, "old", gaps),
    )
