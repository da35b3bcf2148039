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
paths.  Every solver is column-independent, so neither the worker count
nor the piece or tile width can change any output bit.

Streaming fold.  A piece of B paths writes its increments into one
time-major (L, B) array and keeps the reference solution's X only, as an
(L+1, B) array.  Each scheme stream then runs on t = min(B, ceil(m*B /
_TILE)) even column tiles of the piece, as views of the increments, so a
block of m rows spans about _TILE elements however long the delay.  It
folds every block into a running per-path sup as maximum(sup,
|X^n - X|.max(axis=0)), whose temporaries last one block.  Max is exact
(NaN propagates), so the per-path statistics, and every output bit, equal
those of the full (L+1, B) scheme output.  A piece therefore holds about
2*L*B floats plus O(_TILE) scheme state, rather than four (L+1, B) arrays
per solver run; one 256-path piece of the stock study at L=2048 peaks near
2.9*L*B*8 bytes under tracemalloc, and the tests hold it below 3.25*L*B*8.

The grid must resolve the shortest delay: studies enforce at least 8 grid
steps per delay 1/n, keeping lag resolution error subdominant at desk
scale.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .driver import SimGrid, check_key_word, generate_increments, lag_map, make_grid, whole_number
from .errors import DegenerateFit, DelayTooFine, InvalidStudy, InvalidWorkerCount, MomentOutOfRange, NonFinitePath
from .models import get_model
from .params import STOCK_STUDY, PerturbationParams, validate
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
_TILE = 2**14  # lag rows m times columns: the block size a scheme run is tiled to
_MIN_SPAN = 64  # the fewest paths worth a worker process
_MAX_WORKERS = 64
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
        # whole numbers of any integer type are kept as Python ints (the dataclass is frozen)
        object.__setattr__(self, "n_list", tuple(whole_number("each n", n, InvalidStudy) for n in self.n_list))
        object.__setattr__(self, "paths", whole_number("paths", self.paths, InvalidStudy))
        object.__setattr__(self, "master_seed", check_key_word("master_seed", self.master_seed))
        get_model(self.model_id)
        check_scheme(self.scheme, self.params)
        for name, values in (("n_list", self.n_list), ("p_list", self.p_list)):  # each p has its own fit
            if not values or len(set(values)) != len(values):
                raise InvalidStudy(f"{name} must be non-empty without repeats, got {values}")
        if not all(isinstance(p, numbers.Real) and math.isfinite(p) and p >= 1.0 for p in self.p_list):
            raise InvalidStudy(f"every p must be a finite real number >= 1, got {self.p_list}")
        object.__setattr__(self, "p_list", tuple(map(float, self.p_list)))
        if self.paths < 2:  # one path has no standard error
            raise InvalidStudy(f"paths must be >= 2, got {self.paths}")
        if self.grid.horizon != self.params.horizon:  # the solvers run on one, the report states the other
            raise InvalidStudy(f"grid horizon {self.grid.horizon!r} is not the parameters' {self.params.horizon!r}")
        piece, stats = (self.grid.steps + 1) * min(self.paths, _CHUNK), 2 * len(self.n_list) * self.paths
        if max(piece, stats) * 8 > sys.maxsize:  # the (L+1, B) reference of a piece, the per-path statistics
            raise InvalidStudy(
                f"study too large to address: {piece} floats per piece, {stats} per-path statistics, "
                f"at most {sys.maxsize // 8} floats per array"
            )
        for n in self.n_list:
            m = lag_map(self.grid, n)
            if m < _MIN_STEPS_PER_DELAY:
                raise DelayTooFine(
                    f"resolution rule needs >= {_MIN_STEPS_PER_DELAY} grid steps per delay, "
                    f"got {m} for n={n} (refine the grid or lower n)"
                )


def default_study(
    model_id: str = STOCK_STUDY["model_id"],
    alpha: float = STOCK_STUDY["alpha"],
    beta: float = STOCK_STUDY["beta"],
    x0: float = STOCK_STUDY["x0"],
    horizon: float = STOCK_STUDY["horizon"],
    grid_steps: int = STOCK_STUDY["grid_steps"],
    n_list: tuple[int, ...] = STOCK_STUDY["n_list"],
    p_list: tuple[float, ...] = STOCK_STUDY["p_list"],
    paths: int = STOCK_STUDY["paths"],
    master_seed: int = STOCK_STUDY["master_seed"],
    scheme: str = STOCK_STUDY["scheme"],
) -> StudySpec:
    """The stock desk-scale study (minutes of runtime, resolvable slopes); the defaults are params.STOCK_STUDY."""
    return StudySpec(
        model_id=model_id,
        params=validate(alpha, beta, x0, horizon),
        n_list=n_list,
        p_list=p_list,
        paths=paths,
        grid=make_grid(grid_steps, horizon),
        master_seed=master_seed,
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
    sup_k |X^n_k|.  The arrays, ordered by path index, are the rows (one per
    (kind, n), in study order) of one array in an anonymous shared mapping,
    which forked spans fill in place.  Raises InvalidWorkerCount for
    workers outside 1.._MAX_WORKERS, or > 1 where os.fork is missing, and
    whatever building the solvers raises (NonZeroStart, UndefinedTimeZero,
    ...), before any increment is drawn or any process forked.

    The paths split into w = min(workers, max(1, paths // _MIN_SPAN))
    contiguous spans (see _in_spans), each run in order as the fewest even
    pieces no wider than _CHUNK, and each (kind, n) of a piece in column
    tiles (see Streaming fold).  A span stops after its first piece that
    holds a non-finite statistic, checked once all its tiles have run, so
    every path below the lowest bad one has run; NonFinitePath names that
    path and the first (kind, n), in study order, that is bad there,
    whatever the worker count.  A forked span whose study process is gone
    leaves before its next piece.
    """
    if not 1 <= workers <= _MAX_WORKERS:
        raise InvalidWorkerCount(f"workers must be in 1..{_MAX_WORKERS}, got {workers!r}")
    if workers > 1 and not hasattr(os, "fork"):
        raise InvalidWorkerCount(f"workers={workers} needs os.fork, which this platform lacks")
    model = get_model(spec.model_id)
    ref_steps = reference_steps(model, spec.params, spec.grid) if against_reference else None
    keys = [(kind, n) for kind in kinds for n in spec.n_list]
    streams = [scheme_blocks(kind, model, spec.params, spec.grid, n) for kind, n in keys]
    lags = [lag_map(spec.grid, n) for _, n in keys]
    M, L = spec.paths, spec.grid.steps
    stats = np.frombuffer(mmap.mmap(-1, len(keys) * M * 8)).reshape(len(keys), M)
    study_pid = os.getpid()

    def span(s0: int, s1: int) -> None:
        k = math.ceil((s1 - s0) / _CHUNK)
        for q in range(k):
            if os.getpid() != study_pid and os.getppid() != study_pid:
                os._exit(1)  # the study process is gone: nobody reads this span
            s, e = s0 + (s1 - s0) * q // k, s0 + (s1 - s0) * (q + 1) // k
            B = e - s
            dw = np.empty((L, B))
            for j in range(B):
                dw[:, j] = generate_increments(spec.master_seed, s + j, spec.grid)
            if against_reference:
                ref = np.empty((L + 1, B))
                for k0, k1, _, _, _, x in ref_steps(dw):
                    ref[k0:k1] = x
            for row, blocks, m in zip(stats, streams, lags):
                t = min(B, -(-m * B // _TILE))  # even column tiles of about _TILE lag-block elements
                for c0, c1 in ((B * i // t, B * (i + 1) // t) for i in range(t)):
                    sup = row[s + c0 : s + c1]
                    sup[:] = 0.0  # every |.| is >= +0.0, so 0 is the fold's identity
                    for k0, k1, _, _, _, x in blocks(dw[:, c0:c1]):
                        d = x - ref[k0:k1, c0:c1] if against_reference else x
                        np.maximum(sup, np.maximum.reduce(np.abs(d), axis=0), out=sup)  # NaN stays
            if not np.isfinite(stats[:, s:e]).all():
                return

    w = min(workers, max(1, M // _MIN_SPAN))
    _in_spans(span, [M * i // w for i in range(w + 1)])
    bad = ~np.isfinite(stats)
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        kind, n = keys[int(bad[:, i].argmax())]
        what = "sup gap" if against_reference else "sup"
        raise NonFinitePath(
            f"non-finite per-path {what} for scheme {kind!r}, n={n}: first at path index {i}"
        )
    return dict(zip(keys, stats))


def _in_spans(run, edges: list[int]) -> None:
    """run(s0, s1) on each span [edges[i], edges[i+1]).

    This process runs the first span and a forked child each other; run
    writes into memory shared with this process.  A child leaves through
    os._exit: 0 once run returns, 1 if it raises.  fork, not spawn: a child
    starts with the built solvers in a few milliseconds.  Once every child
    is reaped, this process reruns each span whose child did not exit 0:
    no result depends on the process that computes it, so a rerun raises a
    child's error as itself, with its traceback, or fills in the span of a
    killed child.  The study process runs no thread: forking a threaded
    process copies only the forking thread, and from Python 3.12 warns
    with DeprecationWarning.  The library default workers=1 never forks.
    """
    children = {}  # pid -> its span
    try:
        for s0, s1 in zip(edges[1:-1], edges[2:]):
            pid = os.fork()
            if pid == 0:
                try:
                    run(s0, s1)
                except BaseException:  # the parent reruns the span and raises it
                    os._exit(1)
                os._exit(0)
            children[pid] = (s0, s1)
        run(edges[0], edges[1])
    finally:
        failed = [span for pid, span in children.items() if os.waitpid(pid, 0)[1] != 0]
    for s0, s1 in failed:
        run(s0, s1)


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
    """Mean and standard error of stat**p per (n, p), p-major, from the per-path stats keyed by (kind, n).

    Raises MomentOutOfRange when a row's statistics are not all zero but the
    square of its largest stat**p is zero, subnormal or infinite: its
    estimate or standard error would then read 0 or inf, not the moment.
    """
    rows = []
    for p in spec.p_list:
        for n in spec.n_list:
            with np.errstate(over="ignore"):  # an inf is reported below
                values = stats[(kind, n)] ** p
            top = float(values.max())
            if not sys.float_info.min <= top * top < math.inf and stats[(kind, n)].any():
                raise MomentOutOfRange(
                    f"stat**p leaves the float range for scheme {kind!r}, n={n}, p={p}: largest {top!r}"
                )
            est = float(np.mean(values))
            se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
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
