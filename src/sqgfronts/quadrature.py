"""Singular quadrature for the front-evolution integrals.

The front tendency splits into a nonlinear self-interaction integral, a
linear nonlocal integral, and a background-consistency integral that
vanishes identically and is kept as a verification target:

    nonlinear_term:        int (rho(x)-rho(x')) * [1/sqrt(s^2+dphi^2) - 1/|s|] dx'
    linear_term_quadrature: int (rho(x)-rho(x'))/|s| - rho(x)/sqrt(s^2+1) dx'
    background_term:       rho(x) * { int 1/sqrt(x'^2+1) - 1/sqrt(s^2+(phi(x)+h)^2) dx'
                                      - 2 log(phi(x)+h) }  == 0

with s = x - x', dphi = phi(x) - phi(x'), rho = phi_x. The two pieces of
each integrand diverge separately and cancel in combination, so they are
always evaluated together over the whole grid window.

Line-mode scheme, shared by every op here and in `velocity`:

  composite trapezoid over all grid nodes
  + closed-form antiderivative tails beyond the grid window [A, B], using
    that the front is flat (phi = far-field constant, rho = 0) out there
  + the first Euler-Maclaurin endpoint correction dx^2/12 * [f'(A) - f'(B)].

Beyond the window every integrand is then a combination of kernels
1/sqrt((x' - x0)^2 + c^2), and for one such kernel the tails plus the
correction are, up to a divergent constant that does not depend on c,

    T(w_r, w_l, c) = sum over w in (w_r, w_l) of
                     dx^2/12 * w / (w^2 + c^2)^(3/2) - log(w + sqrt(w^2 + c^2))

with w_r = B - x0 and w_l = x0 - A the distances to the window ends
(`_end_term`). Each op adds the signed difference of the T of its two
kernels, in which the constant cancels. The correction lifts the scheme
from O(dx^2) to O(dx^4); without it the endpoint error of the slowly
decaying kernels dominates everything else. What depends on the grid alone
is built once per grid, on first use: the unit reference and its end term
(`_unit_reference`), and the end distances, the flat-front end terms,
`linear_term_quadrature`'s row sums and the spectrum of its circulant
(`_line_tables`).

Diagonal rule: every integrand here is a slope contrast times a kernel,
(rho(x) - rho(x')) K(s, dphi), with K even in s and in dphi and homogeneous
of degree -1, so it jumps at x' = x with one-sided limits -+F as s -> 0+-,
F = -phi_xx K(1, phi_x). The singular node takes the two-sided average (0,
plus the smooth value -phi_x of the linear term's recentered reference),
which cancels the value jump exactly, and adds the dx^2/12 Euler-Maclaurin
term for the surviving one-sided derivative jump, dF/dx; together the
scheme is O(dx^4). The two sums that skip the singular node apply the rule:
`_pair_sum`, which every dense pair sum goes through, and
`linear_term_quadrature`. Each takes the unit kernel K(1, phi_x) from its
caller, the caller's own kernel at unit separation, and adds the 4th-order
stencil difference of that flux (see _diagonal_jump_correction), so no op
corrects the diagonal by hand. A stencil difference sums to zero over a
periodic grid, so the correction leaves the front's mean fixed to rounding,
as the exact tendency, an x-derivative, does.

Pair sums. The grid is uniform, so a kernel of s alone is an even
Toeplitz matrix, and the line ops that have only such kernels or the
strip kernel skip the dense n x n pass; they still evaluate the same
trapezoid + tails quadrature, to rounding:

  * `linear_term_quadrature`: the row sums of 1/|s| come from prefix sums
    over the offsets (`_even_row_sum`, O(n)), and its product with the
    weighted slope from one zero-padded FFT product of length 2n
    (`_even_toeplitz_product`, a circulant embedding).
  * `background_term`: the strip kernel 1/sqrt(s^2 + c^2) is Toeplitz at
    each height c, but its height is the target's own. Its row sums are
    smooth in c, so they are summed exactly at a few Chebyshev heights and
    interpolated to each target's height (`_strip_row_sums`); the number
    of heights follows from the nearest branch points c = +-i dx.
    `velocity.normal_velocity_background` takes its strip row sums from
    the same call, so no strip kernel runs on full rows.

Every dense pair sum is a slope-contrast sum and goes through `_pair_sum`:
the kernels that depend on the front's heights, and the cross-checks kept
as independent assemblies. The front kernels 1/sqrt(s^2 + dphi^2) and its
contrast with 1/|s| are symmetric in (x, x'), so `nonlinear_term` and the
front sum of `velocity.normal_velocity_background` evaluate them on
triangular row blocks, each entry once. The anchored kernel of
`velocity.normal_velocity_bmo` depends on the source's height, so it is
not symmetric and stays on full rows; the advective grouping
`dynamics.rhs_galilean_form` stays on full rows as well, so that its
agreement with `rhs` also checks the triangular accumulation.

A block holds at most `_BLOCK_ELEMENTS` kernel entries unless it is one
row (`_row_blocks`). Blocks of full rows all take the same number of rows;
a triangular block takes more rows the narrower its rows are, so every
block does about the same work and the sum pays the fixed cost of each
block fewer times (line n = 2048: 34 triangular blocks, not 64). Every
kernel that depends on the heights takes the height difference phi_i -
phi_j of a block from one BLAS product of inner size 2
(`_height_factors`), equal to the broadcast subtraction entry for entry
at half its cost.

Parallel blocks. `nonlinear_term`'s symmetric sum, once it forms more
than `_PARALLEL_PAIRS` kernel entries, runs its row blocks on every usable
core: a thread pool, started on first use (and again in a forked child)
with one worker held to each core, runs the one-core block loop on each
worker while the calling thread waits. The workers claim the blocks in
order, and after each block the one that holds the lock adds every finished
block not yet added into the row sums, in block order, the order of the
one-core loop, so the sums are bit-for-bit the same on any core count.
Below the cutoff, which the symmetric n = 512 sum of the periodic backend
(176 612 entries in 3 blocks) stays under, the blocks run on the calling
thread alone: there the threads' hand-offs of the GIL cost what the other
cores save. The cutoff is the measured crossover of that sum alone, on the
line grid between n = 512 and 576; the velocity routes' sums and
`dynamics.rhs_galilean_form`'s full-row sum stay on one core, since no
crossover of theirs was measured and the threaded velocity sums were slower
in the n = 1024 velocity analysis. Nor does a sum run threaded while other
processes keep the usable cores busy (see `_executor`): two such
processes sharing two cores each ran slower threaded than on one core.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import FrontState, _real, far_field_value, stencil_derivative

__all__ = [
    "KernelParams",
    "kernel_difference",
    "nonlinear_term",
    "linear_term_quadrature",
    "background_term",
    "scale_identity",
    "cosine_integral_constant",
    "resolve_depth",
]

@dataclass(frozen=True)
class KernelParams:
    """Quadrature controls: the reference depth.

    Parameters
    ----------
    h : float or None
        Depth of the reference point below the undisturbed front. None means
        the adaptive default 1 + 2*max(0, -min phi), which keeps the
        reference strictly below the front.
    """

    h: float | None = None

    def __post_init__(self):
        if self.h is not None:
            object.__setattr__(self, "h", _real(self.h, "h", positive=True))


def resolve_depth(state: FrontState, params: KernelParams | None = None) -> float:
    """Reference depth h for this state; validates h + min(phi) > 0. No
    params, or params without h, give the adaptive default."""
    phi_min = float(np.min(state.phi))
    h = params.h if params is not None and params.h is not None else 1.0 + 2.0 * max(0.0, -phi_min)
    if h + phi_min <= 0.0:
        raise ValueError(f"reference depth must satisfy h + min(phi) > 0, got h={h}, min(phi)={phi_min}")
    return float(h)


def kernel_difference(delta_x, delta_phi):
    """1/|dx| - 1/sqrt(dx^2 + dphi^2), the positive kernel contrast.

    Vectorized; delta_x must be nonzero (the x'=x node is handled by the
    diagonal rule of the calling op, not here).
    """
    delta_x = np.asarray(delta_x, dtype=np.float64)
    delta_phi = np.asarray(delta_phi, dtype=np.float64)
    if np.any(delta_x == 0.0):
        raise ValueError("kernel_difference is undefined at delta_x = 0")
    return 1.0 / np.abs(delta_x) - 1.0 / np.hypot(delta_x, delta_phi)


# ---------------------------------------------------------------------------
# shared line-mode machinery

def _log_w_plus_root(w, c, root=None):
    """log(w + sqrt(w^2 + c^2)), stable for w of either sign; needs c > 0
    where w < 0 (c = 0 with w > 0 gives log 2w). root, if given, is
    np.hypot(w, c), already formed by the caller."""
    w = np.asarray(w, dtype=np.float64)
    big = np.abs(w) + (np.hypot(w, c) if root is None else root)
    # for w < 0, w + root = c^2 / (|w| + root), free of the cancellation;
    # c / big <= 1 first, so the product cannot overflow
    return np.log(np.where(w >= 0.0, big, c / big * c))


def _end_term(w_r, w_l, c, dx: float):
    """T(w_r, w_l, c) of the module docstring: tails plus end correction of
    the kernel 1/sqrt((x' - x0)^2 + c^2), less a constant independent of c.

    Precondition: the front is flat beyond the window. w_r = B - x0 and
    w_l = x0 - A share one shape, and c broadcasts against it; a w may be
    negative (a probe outside the window) only where c > 0.
    """
    w = np.array([w_r, w_l], dtype=np.float64)
    root = np.hypot(w, c)
    end = dx * dx / 12.0 * w / root ** 3 - _log_w_plus_root(w, c, root)
    return end[0] + end[1]


def _end_term_at(w_r: float, w_l: float, c: float, dx: float) -> float:
    """`_end_term` for one target, by scalar `math` calls. Finite wherever
    every |w| + sqrt(w^2 + c^2) is: w / root^3 is formed as
    (w / root) / root^2, and c^2 / big as c / big * c with c / big <= 1,
    neither of which can overflow. Past that it is infinite, or raises
    ValueError (math.log(0)) where a w < 0 overflowed."""
    total = 0.0
    for w in (w_r, w_l):
        root = math.hypot(w, c)
        big = abs(w) + root
        total += dx * dx / 12.0 * (w / root) / (root * root) - math.log(big if w >= 0.0 else c / big * c)
    return total


@lru_cache(maxsize=8)
def _unit_reference(grid) -> tuple[np.ndarray, float]:
    """The anchored unit reference of a line grid, built once per grid: the
    kernel q = 1/sqrt(x^2 + 1) at the nodes (read-only) and its tails plus
    end correction E(1) = T(x_b, -x_a, 1), with x_a, x_b the window ends."""
    x = grid.x
    q = 1.0 / np.hypot(x, 1.0)
    q.flags.writeable = False
    return q, _end_term_at(float(x[-1]), -float(x[0]), 1.0, grid.dx)


def _end_distances(grid):
    """Distances b_r, b_l from every node to the right and left window ends,
    clamped at dx/2 so the end nodes keep a finite flat-front kernel."""
    x, half = grid.x, 0.5 * grid.dx
    return np.maximum(x[-1] - x, half), np.maximum(x - x[0], half)


def _trapezoid_weights(n: int) -> np.ndarray:
    """Trapezoid weights over n nodes: 1, and 1/2 at the two grid ends."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


# most kernel entries in a row block (512 KiB) unless it is one row: small
# enough for the in-place passes over a block to stay in a core's cache; 16 MB
# blocks ran the line-mode sums 1.5 to 5 times slower at n = 2048. `_row_blocks`
# sizes full-row and triangular blocks alike to it
_BLOCK_ELEMENTS = 65_536


def _row_blocks(n: int, symmetric: bool) -> tuple[list[int], list[int]]:
    """First rows and past-the-last rows of the pair sum's row blocks, in order.

    A block on full rows holds rows x n kernel entries, so each takes
    _BLOCK_ELEMENTS // n rows. A symmetric block from row i0 holds only
    rows x (n - i0), so it takes _BLOCK_ELEMENTS // (n - i0) rows: fixed-size
    blocks would shrink towards the last row, and their fixed cost (about 45 us
    a block threaded, 20 us on one core, at line n = 2048) would then outweigh
    their entries. No block holds more than _BLOCK_ELEMENTS entries unless it
    is one row. Line n = 2048 takes 34 triangular blocks (64 on full rows),
    periodic n = 512 takes 3.
    """
    starts, ends = [], []
    i0 = 0
    while i0 < n:
        starts.append(i0)
        i0 = min(n, i0 + max(1, _BLOCK_ELEMENTS // (n - i0 if symmetric else n)))
        ends.append(i0)
    return starts, ends


def _by_offset(values: np.ndarray, n: int) -> np.ndarray:
    """Zero-copy read-only (n, n) view with entry (i, j) = values[j - i + n - 1].

    values is a contiguous vector of length 2n - 1; rows step back one entry.
    """
    step = values.strides[0]
    view = np.ndarray((n, n), dtype=values.dtype, buffer=values,
                      offset=(n - 1) * step, strides=(-step, step))
    view.flags.writeable = False
    return view


def _separation(grid) -> np.ndarray:
    """|x_i - x_j| by node offset, a length 2n-1 vector for `_by_offset`.

    The grid is uniform, so the separation depends on i - j only (on
    (i - j) mod n for the periodic minimum image). The zero offset holds 1,
    a finite placeholder for the singular diagonal that no sum reads.
    """
    n = grid.n
    offset = np.abs(np.arange(1 - n, n))
    if grid.periodic:
        offset = np.minimum(offset, n - offset)
    sep = offset * grid.dx
    sep[n - 1] = 1.0
    return sep


# kernel entries above which a threaded pair sum runs its row blocks on every
# usable core (see _pair_sum): measured crossover of the one-core and threaded
# symmetric nonlinear_term sums, on the line grid between n = 512 (176 612
# entries, threaded/one core 0.99-1.21) and n = 576 (209 898, 0.93-1.08)
_PARALLEL_PAIRS = 200_000

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _core_set() -> set[int]:
    """Cores the calling thread may run on; empty where the OS does not say."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def _usable_cores() -> int:
    """How many cores the calling thread may run on; 1 where the OS does not
    say (the pair sums then run on one core)."""
    return max(1, len(_core_set()))


def _executor() -> ThreadPoolExecutor:
    """The pair-sum thread pool, started on first use: one worker for every
    usable core, each held to its own core as it starts. Unpinned threads
    that hand the GIL back and forth end up on one core (the scheduler wakes
    a waiting thread on its waker's core), and the threaded sum then measured
    no faster than one core.

    This assumes the process has its cores to itself: processes that share
    one set of cores would each hold their workers to the same cores. So
    `_pair_sum` threads no sum while other processes keep the cores busy
    (`_OtherLoad`); give processes that run at once disjoint sets (`taskset`,
    a scheduler's per-job core mask) and each threads on its own."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cores = sorted(_core_set())
            each = itertools.cycle(cores)
            pin = (lambda: os.sched_setaffinity(0, {next(each)})) if cores else None
            _pool = ThreadPoolExecutor(_usable_cores(), thread_name_prefix="sqgfronts-pair-sum",
                                       initializer=pin)
        return _pool


def _busy_seconds(cores) -> float | None:
    """CPU time the kernel has counted busy on `cores` since boot (user, nice,
    system and interrupts; not steal, the time a hypervisor gave the core to
    another guest); None where /proc/stat cannot be read."""
    try:
        with open("/proc/stat") as f:
            lines = f.readlines()
    except OSError:
        return None
    ticks = 0
    for line in lines:
        name, *fields = line.split()
        if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cores:
            user, nice, system, _, _, irq, softirq = map(int, fields[:7])
            ticks += user + nice + system + irq + softirq
    return ticks / os.sysconf("SC_CLK_TCK")


def _own_seconds() -> float:
    """CPU time of this process, all its threads."""
    return sum(os.times()[:2])


class _OtherLoad:
    """Whether other processes keep this process's cores busy: over the time
    since the previous reading, at least `window` seconds, the CPU time the
    cores were busy less this process's own reaches half a core. Read at most
    once a window, so most calls cost a clock read; False until the first
    window closes and where /proc/stat cannot be read."""

    window = 0.5

    def __init__(self):
        self.mark = None  # (clock, busy, own) seconds at the last reading
        self.busy = False

    def __call__(self, cores) -> bool:
        now = time.monotonic()
        if self.mark is not None and now - self.mark[0] < self.window:
            return self.busy
        reading = (now, _busy_seconds(cores), _own_seconds())
        if self.mark is not None and None not in (reading[1], self.mark[1]):
            others = (reading[1] - self.mark[1]) - (reading[2] - self.mark[2])
            self.busy = others > 0.5 * (now - self.mark[0])
        self.mark = reading
        return self.busy


_other_load = _OtherLoad()


def _forget_pool() -> None:
    """Drop the pool, its lock and the load reading in a forked child.

    The child inherits the pool but none of its workers, so a sum submitted
    to it would wait forever, and the lock as it was at the fork; the child
    starts its own pool on its first threaded sum, and its own load reading
    (its CPU time starts again from 0)."""
    global _pool, _pool_lock, _other_load
    _pool = None
    _pool_lock = threading.Lock()
    _other_load = _OtherLoad()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pair_sum(kernel_rows, grid, rho, unit_kernel, *, symmetric: bool = False, threaded: bool = False) -> np.ndarray:
    """Trapezoid slope-contrast integral over node pairs, BLAS products per
    row block, with the diagonal rule applied.

    Returns, for every row i,

        dx * sum_{j != i} w_j (rho_i - rho_j) K_ij + dx^2/12 * dF/dx

    The sum skips the singular node, so it takes the two-sided average 0
    there, and evaluates as rho_i (K w)_i - (K (w rho))_i, so no
    rho-difference matrix is formed. The second term is the Euler-Maclaurin
    correction of the kink at x' = x, `_diagonal_jump_correction` of
    unit_kernel = K(1, phi_x), the caller's kernel at unit separation along
    the tangent; it runs on the calling thread after the blocks.

    kernel_rows(i0, i1) returns rows i0:i1 of K as a fresh float array; the
    helper overwrites it and never reads its diagonal. Of the grid only `n`,
    `periodic` and `dx` are read: w_j = 1 on a periodic grid, and the
    trapezoid weights (1/2 at j = 0 and n-1) on the line; the correction's
    stencil wraps where the grid is periodic.

    With `symmetric` (K_ij = K_ji) kernel_rows(i0, i1) returns only the
    columns i0:n of those rows, so each entry above the diagonal blocks is
    computed once: the block adds its product to rows i0:i1 and its
    transpose beyond the block, K[i0:i1, i1:]^T (w, w rho)[i0:i1], to rows
    i1:n. The front-kernel sums (`nonlinear_term`, the front part of
    `velocity.normal_velocity_background`) use it. The anchored kernel of
    `velocity.normal_velocity_bmo`, which subtracts a per-source reference,
    is not symmetric and stays on full rows. So does the advective grouping
    `dynamics.rhs_galilean_form`: with `normal_velocity_bmo` it is the
    full-row side of the standing checks on the triangular accumulation.

    The row blocks come from `_row_blocks`: at most _BLOCK_ELEMENTS entries
    each unless one row, and more rows to a symmetric block the further down
    it starts.

    Parallel blocks: a `threaded` call whose blocks form more than
    `_PARALLEL_PAIRS` kernel entries (rows x (n - i0) for a symmetric block,
    rows x n for a full one) runs them on the pool, one worker for each
    usable core and no more than it has blocks, unless other processes keep
    those cores busy (`_OtherLoad`). Only `nonlinear_term` passes `threaded`:
    the cutoff is its symmetric sum's measured crossover. The calling thread
    then only waits. Every thread that runs the sum claims the blocks in
    order, one at a time, so a core the host slows down takes fewer; after
    each block it adds every finished block not yet added into the row sums,
    in block order, under one lock. Every row sum thus takes the same
    additions in the same order as on one core, so the result is bit-for-bit
    the one-core result, and only the products of blocks that finished ahead
    of an earlier one are kept. Once a block raises, no thread claims another
    block, the products kept are dropped and none is stored after them, and
    the error reaches the caller when the blocks under way have ended.
    kernel_rows then runs on pool threads: it may only read shared arrays,
    and it must call no public function of the package (a tracer that wraps
    those keeps one span stack).
    """
    n = grid.n
    w = np.ones(n) if grid.periodic else _trapezoid_weights(n)
    rhs = np.column_stack((w, w * rho))
    starts, ends = _row_blocks(n, symmetric)
    pairs = sum((i1 - i0) * (n - i0 if symmetric else n) for i0, i1 in zip(starts, ends))
    workers = 1
    if threaded and pairs > _PARALLEL_PAIRS and not _other_load(_core_set()):
        workers = min(_usable_cores(), len(starts))

    def products(k):
        i0, i1 = starts[k], ends[k]
        j0 = i0 if symmetric else 0
        kern = kernel_rows(i0, i1)
        np.fill_diagonal(kern[:, i0 - j0:], 0.0)
        return kern @ rhs[j0:], kern[:, i1 - i0:].T @ rhs[i0:i1] if symmetric else None

    acc = np.zeros(rhs.shape)
    done = [None] * len(starts)
    claims = itertools.count()  # shared: next() on it is atomic under the GIL
    adding = threading.Lock()
    added = 0
    failed = threading.Event()  # set once a block raises: no thread claims another

    def take(err):
        nonlocal added
        with np.errstate(**err):  # the caller's floating-point error handling
            for k in claims:
                if k >= len(starts) or failed.is_set():
                    return
                try:
                    block = products(k)
                except BaseException:
                    with adding:  # no sum will be formed: drop what waits for it
                        failed.set()
                        done[:] = [None] * len(done)
                    raise
                with adding:
                    if failed.is_set():
                        return
                    done[k] = block
                    while added < len(starts) and done[added] is not None:
                        i0, i1, (own, beyond) = starts[added], ends[added], done[added]
                        acc[i0:i1] += own
                        if beyond is not None:
                            acc[i1:] += beyond
                        done[added] = None
                        added += 1

    if workers == 1:
        take(np.geterr())
    else:
        futures = [_executor().submit(take, np.geterr()) for _ in range(workers)]
        wait(futures)  # no pool thread may outlive the call, nor its error go unread
        for future in futures:
            future.result()
    return (rho * acc[:, 0] - acc[:, 1]) * grid.dx + _diagonal_jump_correction(unit_kernel, rho, grid)


def _even_row_sum(kernel: np.ndarray) -> np.ndarray:
    """Trapezoid row sums sum_{j != i} w_j K_ij of an even Toeplitz kernel
    K_ij = kernel[|i - j|], in O(n).

    kernel holds the n values by node offset 0..n-1 along its last axis (a
    stack of kernels gives a stack of row sums); kernel[..., 0] is not read.
    Row i runs over the i nodes to its left and the n - 1 - i to its right,
    the grid ends at weight 1/2. The sums come from one-sided prefix sums
    over the offsets, so no two large partial sums cancel.
    """
    off = np.array(kernel, dtype=np.float64)
    off[..., 0] = 0.0
    prefix = np.cumsum(off, axis=-1)  # prefix[m] = sum of kernel[1..m]
    prefix -= 0.5 * off
    # row i: i offsets to the left, n - 1 - i (the reversed index) to the right
    return prefix + prefix[..., ::-1]


def _circulant_spectrum(kernel: np.ndarray) -> np.ndarray:
    """rfft of the circulant of length 2n that embeds the even Toeplitz
    matrix kernel[|i - j|]: the offsets 0..n-1, a zero, then n-1..1.
    kernel[0] is read; pass 0 there to leave out the diagonal."""
    return np.fft.rfft(np.concatenate((kernel, [0.0], kernel[:0:-1])))


def _even_toeplitz_product(spectrum: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j kernel[|i - j|] v_j for every row i, in O(n log n), given the
    kernel's `_circulant_spectrum`: one zero-padded real FFT product applies
    the circulant exactly, and no product wraps onto another row.
    """
    n = v.size
    return np.fft.irfft(spectrum * np.fft.rfft(v, 2 * n), 2 * n)[:n]


def _diagonal_jump_correction(unit_kernel, phix: np.ndarray, grid) -> np.ndarray:
    """Euler-Maclaurin term for the integrand's kink at x' = x.

    unit_kernel is K(1, phi_x), the caller's own kernel K(s, dphi) at unit
    separation along the front's tangent (a scalar, or an array over the
    nodes). Trapezoid sums with the two-sided average at the singular node
    cancel the value jump but keep an O(dx^2) error dx^2/12 * (f'(0+) - f'(0-))
    of the integrand f = (rho(x) - rho(x')) K. Every kernel here is even in s
    and in dphi and homogeneous of degree -1, so f tends to -+F as s -> 0+-,
    with the flux

        F = -phi_xx K(1, phi_x),

    and, f being antisymmetric in (x, x'), its one-sided derivative jump is
    dF/dx. K(1, p) = 1/sqrt(1+p^2) - 1, 1 and 1/sqrt(1+p^2) give the
    contrast, bare and front kernels' fluxes. phi_xx and dF/dx come from the
    4th-order stencil on the grid (wrapped where it is periodic); the
    returned array is dx^2/12 * dF/dx, to add to the assembled quadrature. A
    stencil difference sums to zero over a periodic grid, so the term leaves
    the mean of a periodic front's tendency at rounding.
    """
    dx, periodic = grid.dx, grid.periodic
    flux = -stencil_derivative(phix, dx, periodic) * unit_kernel
    return dx * dx / 12.0 * stencil_derivative(flux, dx, periodic)


def _height_factors(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors (a, b) of the height differences: a[i0:i1] @ b[:, j0:j1] is the
    block phi_i - phi_j, a = [phi, -1] by rows and b = [1; phi] by columns.

    Each entry is phi_i * 1 + (-1) * phi_j, two exact products and one
    rounding, so it equals np.subtract.outer's entry with or without FMA, bar
    the sign of an exact zero (which a square drops). The BLAS product of inner
    size 2 costs about 0.5 ns an entry, the broadcast subtraction about 1.1 ns.
    """
    ones = np.ones_like(phi)
    return np.column_stack((phi, -ones)), np.vstack((ones, phi))


def _front_kernel(rows: np.ndarray, cols: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Block of 1/sqrt(s^2 + dphi^2) between target and source heights, given
    as the `_height_factors` rows of the targets and columns of the sources,
    built in place from the matching s^2 block; bit for bit the block built
    from np.subtract.outer."""
    k = rows @ cols
    np.square(k, out=k)
    k += s2
    np.sqrt(k, out=k)
    return np.reciprocal(k, out=k)


def _unit_front_kernel(rho: np.ndarray) -> np.ndarray:
    """K(1, phi_x) = 1/sqrt(1 + phi_x^2), the front kernel at unit separation
    along the tangent (the flux of `_diagonal_jump_correction`)."""
    return 1.0 / np.sqrt(np.square(rho) + 1.0)


# ---------------------------------------------------------------------------
# the three front-tendency integrals

@lru_cache(maxsize=8)
def _line_tables(grid) -> tuple:
    """What the line-mode tendency terms take from the grid alone, built once
    per grid, every array read-only:

      b       the end distances (b_r, b_l) of `_end_distances`;
      flat    T(b, 0), the end term of 1/|s| that `nonlinear_term` subtracts;
      own     `linear_term_quadrature`'s row sums of 1/|s| less the recentered
              reference, less the trapezoid weight at the node, which
              carries the reference's smooth value -phi_x;
      kernel  the `_circulant_spectrum` of 1/|s| without its diagonal;
      ends    T(b, 0) - T(b, 1), `linear_term_quadrature`'s end terms.
    """
    n, dx = grid.n, grid.dx
    b = _end_distances(grid)
    flat = _end_term(*b, 0.0, dx)
    sep = _separation(grid)[n - 1:]  # by node offset 0..n-1
    inv_s = 1.0 / sep
    inv_s[0] = 0.0
    own = _even_row_sum(inv_s - 1.0 / np.hypot(sep, 1.0)) - _trapezoid_weights(n)
    tables = (flat, own, _circulant_spectrum(inv_s), flat - _end_term(*b, 1.0, dx))
    for table in (*b, *tables):
        table.flags.writeable = False
    return (b, *tables)


def nonlinear_term(state: FrontState, phix: np.ndarray) -> np.ndarray:
    """Nonlinear self-interaction integral at every grid node.

    Cubic in the front amplitude for small fronts. Periodic grids use the
    minimum-image separation truncated at half a period; line grids add
    flat-front tails and the endpoint correction.

    The periodic truncation drops the far tail
    -(rho(x) - rho(x')) dphi^2 / (2|s|^3) beyond |s| = L/2, an O(1/L^2)
    error at fixed dx. Measured on a gaussian (amplitude 0.1, width 0.5) at
    dx = pi/32 against an L = 256 pi reference, it falls by a factor 4.0 to
    4.2 per doubling of L, from 1.3e-5 at L = 4 pi to 7.8e-7 at L = 16 pi.
    The integral does not depend on the reference depth.
    """
    g = state.grid
    phi = state.phi
    rho = np.asarray(phix, dtype=np.float64)
    n, dx = g.n, g.dx

    sep = _separation(g)
    s2 = _by_offset(sep * sep, n)
    inv_s = _by_offset(1.0 / sep, n)
    rows, cols = _height_factors(phi)

    def contrast(i0, i1):
        k = _front_kernel(rows[i0:i1], cols[:, i0:], s2[i0:i1, i0:])
        k -= inv_s[i0:i1, i0:]
        return k

    # the kernel is symmetric in (x, x')
    out = _pair_sum(contrast, g, rho, _unit_front_kernel(rho) - 1.0, symmetric=True, threaded=True)
    if not g.periodic:
        # beyond the window: rho(x) * [1/sqrt(s^2 + (phi(x) - phi_inf)^2) - 1/|s|]
        b, flat, *_ = _line_tables(g)
        out += rho * (_end_term(*b, phi - far_field_value(state), dx) - flat)
    return out


def linear_term_quadrature(state: FrontState, phix: np.ndarray) -> np.ndarray:
    """Linear nonlocal integral by physical-space quadrature (line mode).

    The reference kernel is recentered at the target (its integral over the
    line is shift invariant), so the integrand is a pure function of
    s = x' - x and the divergent pieces cancel inside one window. On a pure
    Fourier mode this reproduces the dispersive multiplier plus the constant
    advection 2*(gamma - log 2)*phi_x. The integral does not depend on the
    reference depth.

    The bare sum rho_i (K w)_i - (K (w rho))_i, K = 1/|s|, takes O(n log n):
    the row sums K w depend on the grid alone and come, with the recentered
    reference, from `_even_row_sum`; K (w rho) is one zero-padded FFT product.
    The row sums, K's circulant spectrum and the end terms are built once per
    grid (`_line_tables`).
    """
    g = state.grid
    if g.periodic:
        raise ValueError("linear_term_quadrature is line-mode only; periodic grids use the spectral multiplier")
    rho = np.asarray(phix, dtype=np.float64)
    diag_coda = _diagonal_jump_correction(1.0, rho, g)
    _, _, own, kernel, ends = _line_tables(g)
    # rho(x) times the row sums of 1/|s| less the recentered reference, whose
    # node carries the smooth value -phi_x; minus the product with w rho
    out = (rho * own - _even_toeplitz_product(kernel, _trapezoid_weights(g.n) * rho)) * g.dx
    return out + rho * ends + diag_coda


def _strip_heights(lo: float, hi: float, dx: float) -> np.ndarray:
    """Chebyshev heights on [lo, hi] at which the strip row sums interpolate
    to rounding.

    S_i(c) = sum_j w_j / sqrt(s_ij^2 + c^2) is analytic in c but for branch
    points at c = +-i |s_ij|, the nearest at +-i dx. The polynomial through
    m Chebyshev points of the second kind then errs by O(r^-(m-1)), r the
    parameter of the Bernstein ellipse of [lo, hi] through those points, so
    m - 1 = log(1/eps) / log r reaches double precision. A flat front (lo ==
    hi) needs its one height only.
    """
    if hi <= lo:
        return np.array([lo])
    t = complex(-(lo + hi), 2.0 * dx) / (hi - lo)
    z = abs(t + cmath.sqrt(t - 1.0) * cmath.sqrt(t + 1.0))
    r = max(z, 1.0 / z)
    m = 1 + math.ceil(math.log(1.0 / np.finfo(np.float64).eps) / math.log(r))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(m) / (m - 1))


def _strip_row_sums(grid, c: np.ndarray) -> np.ndarray:
    """S_i(c_i) = sum_{j != i} w_j / sqrt(s_ij^2 + c_i^2), trapezoid weights w,
    each row at its own height c_i > 0, in O(n m).

    The sums are exact at the heights of `_strip_heights` (each an O(n)
    `_even_row_sum`) and interpolated barycentrically to every c_i.
    """
    n = grid.n
    heights = _strip_heights(float(np.min(c)), float(np.max(c)), grid.dx)
    sep = _separation(grid)[n - 1:]
    table = _even_row_sum(1.0 / np.sqrt(np.square(sep) + np.square(heights)[:, None]))
    m = heights.size
    if m == 1:
        return table[0]
    weights = np.where(np.arange(m) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    gap = np.subtract.outer(c, heights)
    hit = gap == 0.0
    gap[hit] = 1.0
    coef = weights / gap
    out = np.einsum("ik,ki->i", coef, table) / coef.sum(axis=1)
    rows, ks = np.nonzero(hit)  # a target at a node takes the node's sum
    out[rows] = table[ks, rows]
    return out


def background_term(state: FrontState, phix: np.ndarray, params: KernelParams | None = None) -> np.ndarray:
    """Background-consistency integral; identically zero in exact arithmetic.

    Exposed purely as a verification target: its numerical size measures the
    combined quadrature + tail error of the machinery all the other line-mode
    integrals share. Line mode only (the reference kernel is anchored at
    absolute coordinates).

    The strip kernel's height is the target's, c_i = phi_i + h, so its row
    sums are not one Toeplitz product; `_strip_row_sums` interpolates them in
    the height from exact O(n) row sums, to rounding. The unit reference
    enters through its trapezoid sum, the same at every target.
    """
    g = state.grid
    if g.periodic:
        raise ValueError("background_term is line-mode only")
    h = resolve_depth(state, params)
    x, n, dx = g.x, g.n, g.dx
    rho = np.asarray(phix, dtype=np.float64)
    c1 = state.phi + h  # > 0 by resolve_depth
    q, e1 = _unit_reference(g)
    w = _trapezoid_weights(n)
    # trapezoid of q less the strip row sum, whose node carries 1/c1
    out = (float(w @ q) - _strip_row_sums(g, c1) - w / c1) * dx
    ends = e1 - _end_term(x[-1] - x, x - x[0], c1, dx)
    return rho * (out + ends - 2.0 * np.log(c1))


# ---------------------------------------------------------------------------
# scalar identities

# nodes per Gauss-Legendre panel. Each panel of the scalar identities lies well
# inside the region where its integrand is analytic, so what 40 nodes leave is
# rounding (see _gauss_legendre for the weights)
_GAUSS_NODES = 40


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple:
    """Nodes t and weights w of the Gauss-Legendre rule on [-1, 1].

    The nodes are leggauss's. Its weights come from P_n' at the nodes before
    its last Newton step and err up to 7e-13 relative, so each weight is
    recomputed at the final node, w = 2 / ((1 - t^2) P_n'(t)^2), with P_n' =
    n (P_(n-1) - t P_n) / (1 - t^2) from the three-term recurrence, and the
    weights scaled to sum to 2, as leggauss scales its own; they err up to
    2.4e-14 relative.
    """
    n = _GAUSS_NODES
    t = np.polynomial.legendre.leggauss(n)[0]
    p_prev, p = np.ones_like(t), t
    for k in range(1, n):  # (k + 1) P_(k+1) = (2k + 1) t P_k - k P_(k-1)
        p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
    one_less = 1.0 - t * t
    slope = n * (p_prev - t * p) / one_less
    w = 2.0 / (one_less * slope * slope)
    w *= 2.0 / w.sum()
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _panel_sum(f, edges: np.ndarray) -> float:
    """Gauss-Legendre sum of the vectorized f over the panels between
    consecutive edges."""
    t, w = _gauss_legendre()
    half = 0.5 * np.diff(edges)[:, None]
    mid = (0.5 * edges[1:] + 0.5 * edges[:-1])[:, None]  # no sum can overflow
    return float(np.sum(half * w * f(mid + half * t)))


def scale_identity(c: float, cutoff: float = 1.0e3) -> float:
    """int_0^inf [1/sqrt(s^2+1) - 1/sqrt(s^2+c^2)] ds, numerically.

    Gauss-Legendre on panels that double from min(1, c)/8, which resolves
    both scales, to the cutoff, plus an asymptotic tail; equals log|c|,
    which the verification suite checks rather than assumes.
    """
    c = abs(_real(c, "c"))
    if c == 0.0:
        raise ValueError("c must be nonzero")
    if not math.isfinite(100.0 * c):
        raise ValueError(f"scale factor c = {c} is too large: its cutoff 100 c is not finite")
    m = max(_real(cutoff, "cutoff", positive=True), 100.0 * c)
    first = min(1.0, c) / 8.0
    # in logarithms: m / first and 2^k overflow for c below about 4e-305
    doublings = np.arange(math.ceil(math.log2(m) - math.log2(first)))
    edges = np.concatenate(([0.0], np.ldexp(first, doublings), [m]))
    body = _panel_sum(lambda s: 1.0 / np.hypot(s, 1.0) - 1.0 / np.hypot(s, c), edges)
    # (1 - c^2k) / m^2k from 1/m and c/m <= 0.01, so no power can overflow
    u2, r2 = (1.0 / m) ** 2, (c / m) ** 2
    tail = (-(u2 - r2) / 4.0
            + 3.0 * (u2 * u2 - r2 * r2) / 32.0
            - 5.0 * (u2 * u2 * u2 - r2 * r2 * r2) / 96.0)
    return body + tail


def _cos_over_s_tail(m: float) -> float:
    # int_m^inf cos(s)/s ds by integration by parts; remainder O(720/m^7)
    sm, cm = math.sin(m), math.cos(m)
    return (-sm / m + cm / m**2 + 2.0 * sm / m**3
            - 6.0 * cm / m**4 - 24.0 * sm / m**5 + 120.0 * cm / m**6)


def cosine_integral_constant(inner: float = 350.0, cutoff: float = 1.0e6) -> float:
    """int_0^inf [(1-cos s)/s - 1/sqrt(s^2+1)] ds, numerically.

    Equals gamma - log 2 (~ -0.1159315157). Gauss-Legendre, one panel per
    cycle to `inner` and the first cycle split where the 1/sqrt(s^2+1) term
    bends, closed-form monotone part and asymptotic oscillatory part from
    there to `cutoff`, analytic remainder beyond. The cutoff cancels to
    rounding, which the truncation-sweep test relies on.
    """
    if _real(inner, "inner") < 50.0:
        raise ValueError("inner cutoff too small for the asymptotic tail series")
    cutoff = _real(cutoff, "cutoff", positive=True)

    cycles = int(math.ceil(inner / (2.0 * math.pi)))
    a = cycles * 2.0 * math.pi
    edges = np.concatenate(([0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0], 2.0 * math.pi * np.arange(1, cycles + 1)))
    # 1 - cos s = 2 sin^2(s/2), free of cancellation at small s
    body = _panel_sum(lambda s: 2.0 * np.sin(0.5 * s) ** 2 / s - 1.0 / np.hypot(s, 1.0), edges)

    def monotone_part(s):
        # antiderivative of 1/s - 1/sqrt(s^2+1)
        return math.log(s) - math.log(s + math.hypot(s, 1.0))

    mid = (monotone_part(cutoff) - monotone_part(a)) - (_cos_over_s_tail(a) - _cos_over_s_tail(cutoff))
    far = (-math.log(2.0) - monotone_part(cutoff)) - _cos_over_s_tail(cutoff)
    return body + mid + far
