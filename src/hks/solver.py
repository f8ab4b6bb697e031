"""Pseudo-spectral time stepping for the nonlocal transport model

    du/dt = -div( u (1 - u) grad S ) + eps * Laplacian(u),
    S     = (1 - Laplacian)^{-1} u,

on the periodic grid, with eps = 0 by default.  The right-hand side is
evaluated in conservative (divergence) form so the zero Fourier mode of
du/dt vanishes identically and the mean of u is conserved to roundoff.
Every pointwise product is dealiased by the package's one rule, the 2/3
truncation (truncate, multiply, truncate).  Time integration is classical
fixed-stage RK4; the step is either fixed or chosen per step from a CFL
condition on the advective speed |1 - 2u| |grad S|.

Internally :func:`evolve` carries the state as its real-FFT half spectrum
on the grid's :class:`hks.spectral.HalfSpectrum` tables: a right-hand side
evaluation goes from half spectrum to half spectrum in 3 + 2d real FFTs,
the RK4 stages and update stay on the half spectrum, and one inverse
transform per step gives the state's diagnostics and snapshots.  The CFL
speed is taken from the first stage's dealiased state.  Modes above the
dealias cutoff get no flux, so u0's part there is carried unevolved.

Each RK4 stage is a chain of 3 + d transforms (the dealiased state, the
transform of u * u, its truncation and the d forward transforms of the
flux) that the calling thread runs, with the stage combinations.  One
persistent helper thread, created on first use, runs the work off that
chain: the d inverse transforms of grad S (one irfftn per axis, of
S's half spectrum times i xi_a * keep), the CFL speed, and each new
state's inverse transform, blow-up guard and diagnostics, while the
calling thread starts the next step.  The two truncations on the chain
cut the half spectrum at the cutoff (:meth:`HalfSpectrum.kept`) instead
of multiplying it by the keep mask.  The helper's tasks never submit or
wait, so any thread may call the kernel, and every value is that of a
serial loop.

One private lane holds the step loop and streams each output time as soon
as a step reaches it, so a caller can measure it while the lane steps on.
It either clips its step onto each time (the run :func:`evolve` collects
into a :class:`Trajectory`) or keeps full steps and forks, at each time,
the clipped last step of the run that ends there.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .spectral import Field, Grid, HalfSpectrum, _tail_share, half_spectrum

__all__ = [
    "SolverConfig",
    "Trajectory",
    "solve_S",
    "transport_divergence",
    "rhs",
    "evolve",
    "BlowUpError",
]

_SPEED_FLOOR = 1e-8

# The most steps a CFL lane may need to reach its last output time: 130x
# the longest documented lane (the flagship sweep's 75 steps).  At N = 2^20
# that many steps take over an hour, for times far beyond the short-time
# regime.  A fixed dt sets the step count up front, so it is not bounded.
MAX_LANE_STEPS = 10_000


class BlowUpError(RuntimeError):
    """Raised when the blow-up guard, a finiteness check or the step budget trips."""


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping policy.

    Exactly one of ``dt`` (fixed step) or ``cfl`` governs the step size;
    when ``dt`` is None the step is cfl * spacing / max(speed, floor),
    recomputed every step.  ``snapshot_times`` are hit exactly by clipping
    the step; the final time is always a snapshot.  Products are always
    dealiased by the 2/3 rule of :func:`hks.spectral.dealias_cutoff_index`.
    """

    t_final: float
    dt: float | None = None
    cfl: float = 0.4
    eps: float = 0.0
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.dt is None and not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be nonnegative and finite, got {self.eps}")
        ts = tuple(float(t) for t in self.snapshot_times)
        if not all(0.0 < t <= self.t_final + 1e-15 for t in ts):
            raise ValueError("snapshot times must lie in (0, t_final]")
        object.__setattr__(self, "snapshot_times", ts)


@dataclass
class Trajectory:
    """Snapshots of an evolve run plus per-step diagnostics.

    ``steps`` holds one record per accepted step: its dt, the time, mean
    and max|u| at its end, and max_speed, the advective speed
    |1 - 2u| |grad S| of the dealiased state at its start, taken from the
    first RK4 stage (the speed a CFL step is sized from), under either
    step policy.  ``unevolved_share`` is the share of u0's spectral L2 mass
    (squared coefficients) above the dealias cutoff: the solver carries
    those modes without evolving them.
    """

    grid: Grid
    times: list[float]
    states: list[Field]
    steps: list[dict]  # per accepted step: t, dt, mean, max_abs, max_speed
    unevolved_share: float = field(default=0.0, init=False)

    def state_at(self, t: float) -> Field:
        for ti, ui in zip(self.times, self.states):
            if math.isclose(ti, t, rel_tol=1e-12, abs_tol=1e-15):
                return ui
        raise KeyError(f"no snapshot at t={t}")


def _check_stage(values: np.ndarray, stage: str) -> None:
    if not np.all(np.isfinite(values)):
        raise BlowUpError(f"non-finite values produced at stage '{stage}'")


_HELPER: ThreadPoolExecutor | None = None
_HELPER_LOCK = threading.Lock()


def _helper() -> ThreadPoolExecutor:
    """The solver's one helper thread, created on first use.  Its tasks (the
    grad S transforms, the CFL speed and the lane's state checks) are leaf
    tasks that never submit or wait, so the lane, the forks measured on
    another thread and any other caller share it without deadlock."""
    global _HELPER
    with _HELPER_LOCK:
        if _HELPER is None:
            _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hks-flux")
        return _HELPER


def _forget_helper() -> None:
    """In a forked child: neither the helper thread nor a thread holding
    the lock came along."""
    global _HELPER, _HELPER_LOCK
    _HELPER, _HELPER_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _grad_S(uh: np.ndarray, S_half: np.ndarray | None, hs: HalfSpectrum, a: int,
            square: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """d_a S of the dealiased S on the grid, from the half spectrum of S,
    which the last axis consumes, or, when ``S_half`` is None, from the half
    spectrum of u through S = (1 - Laplacian)^{-1} u: one inverse real FFT.
    With ``square`` also its square, else None in its place."""
    if S_half is None:
        F = uh * hs.helm_inv
        F *= hs.masked_xi[a]
    elif a < len(hs.shape) - 1:
        F = S_half * hs.masked_xi[a]
    else:
        F = S_half
        F *= hs.masked_xi[a]
    F *= 1j
    ds = hs.irfftn(F)
    del F
    _check_stage(ds, f"grad_S[{a}]")
    return ds, (ds * ds if square else None)


def _speed(ud: np.ndarray, squares: list) -> float:
    """max|1 - 2u| |grad S| from the dealiased state and the squares of the
    d components of grad S, summed in axis order; the squares are summed in
    place."""
    g2 = squares[0]
    for sq in squares[1:]:
        g2 += sq
    w = 2.0 * ud
    np.subtract(1.0, w, out=w)
    np.abs(w, out=w)
    w *= np.sqrt(g2, out=g2)
    return float(np.max(w))


def _div_flux_half(uh: np.ndarray, hs: HalfSpectrum, with_speed: bool = False,
                   S_half: np.ndarray | None = None) -> tuple[np.ndarray, float | None]:
    """Half spectrum of div(u(1-u) grad S) with dealiased products, from the
    half spectrum of u and that of S (``S_half``, which it consumes, or when
    that is None, u's through S = (1 - Laplacian)^{-1} u): 3 + 2d real FFTs.

    With ``with_speed`` it also returns the advective speed
    max|1 - 2u| |grad S| of the dealiased state, from the same arrays.
    This thread runs the chain: the dealiased state, the transform of
    u * u and its truncation, then per axis the forward transform of
    d_a S * u(1-u).  The helper runs the d inverse transforms of grad S
    (:func:`_grad_S`) while this thread transforms u * u and truncates it,
    squaring them when the speed is asked for, and then the speed itself
    (:func:`_speed`) while this thread transforms the last flux component.
    Results are taken in axis order, so ``out`` is summed and the stage
    checks raise in the order of a serial loop, and no helper task outlives
    the call.  The helper is one FIFO thread, so the last axis's task, which
    takes ``S_half`` in place, runs after the other axes have read it.  Both
    truncations cut the half spectrum at the cutoff, which gives the values
    of the product with the keep mask.  The symbols i xi_a
    are applied as the real tables xi_a * keep followed by an in-place
    product with 1j, which gives the values of the complex products bit for
    bit.  Each temporary of this thread, ``uh`` and, without the speed, the
    dealiased state included, is released once the chain has used it, which
    keeps the number of live arrays per RHS evaluation, and so the step's
    peak memory, down; a caller that passes its only reference to ``uh``
    or ``S_half`` frees it here (a temporary one only on CPython >= 3.11).
    """
    d = len(hs.shape)
    ud = hs.irfftn(hs.kept(uh))
    _check_stage(ud, "dealias(u)")
    # submitted before u * u is transformed, so that the helper's transforms
    # overlap two of this thread's; given S_half they do not hold uh
    src = uh if S_half is None else None
    tasks = [_helper().submit(_grad_S, src, S_half, hs, a, with_speed) for a in range(d)]
    del uh, S_half, src
    try:
        g = hs.truncate(ud * ud)
        np.subtract(ud, g, out=g)  # dealiased u(1-u)
        if not with_speed:
            del ud
        out, squares = None, []
        for a, xka in enumerate(hs.masked_xi):
            ds, sq = tasks.pop(0).result()
            if with_speed:
                squares.append(sq)
                if a == d - 1:
                    tasks.append(_helper().submit(_speed, ud, squares))
            ds *= g
            F = np.fft.rfftn(ds)
            del ds
            F *= xka
            F *= 1j
            if out is None:
                out = F
            else:
                out += F
        speed = tasks.pop().result() if with_speed else None
    finally:
        for task in tasks:
            task.cancel()
        wait(tasks)
    return out, speed


def solve_S(u: Field) -> Field:
    """Chemoattractant from density: S = (1 - Laplacian)^{-1} u."""
    hs = half_spectrum(u.grid)
    return Field(u.grid, hs.apply(u.values, hs.helm_inv))


def transport_divergence(u: Field, S: Field) -> Field:
    """div(u(1-u) grad S) with the solver's dealiasing rule.

    The drift of the first-order expansion is this operator at the initial
    data, so the solver's right-hand side at u0 equals -v0 to roundoff; not
    bit for bit, as grad S comes here from S0's values and there from u0's
    half spectrum.  It takes 6 + 2d real FFTs: the flux kernel's 3 + 2d, the
    transforms of u and S, and the inverse transform of the result.  The
    kernel gets the only references to both half spectra and frees them.
    """
    hs = half_spectrum(u.grid)
    div_half, _ = _div_flux_half(np.fft.rfftn(u.values), hs,
                                 S_half=np.fft.rfftn(S.values))
    out = hs.irfftn(div_half)
    _check_stage(out, "divergence")
    return Field(u.grid, out)


def rhs(u: Field, cfg: SolverConfig) -> Field:
    """Right-hand side -div(u(1-u) grad S) + eps*Laplacian(u)."""
    hs = half_spectrum(u.grid)
    out_half, _ = _rhs_half(np.fft.rfftn(u.values), cfg.eps, hs)
    out = hs.irfftn(out_half)
    _check_stage(out, "rhs")
    return Field(u.grid, out)


def _rhs_half(uh: np.ndarray, eps: float, hs: HalfSpectrum,
              with_speed: bool = False) -> tuple[np.ndarray, float | None]:
    """Half spectrum of the right-hand side at the state with half spectrum
    ``uh``, and the advective speed when ``with_speed``."""
    div_half, speed = _div_flux_half(uh, hs, with_speed)
    out_half = np.negative(div_half, out=div_half)
    if eps > 0.0:
        out_half -= (eps * hs.xi2) * uh
    return out_half, speed


def evolve(u0: Field, cfg: SolverConfig) -> Trajectory:
    """Integrate from u0 with classical RK4, stepping exactly onto snapshots.

    Collects the snapshot stream of the solver into a :class:`Trajectory`
    that starts with a copy of u0.  The state is carried as its half
    spectrum; each step takes 4 RHS evaluations and one inverse transform
    for its diagnostics and snapshots.  Aborts with :class:`BlowUpError`
    when max|u| exceeds ten times its initial value, a stage is not finite
    or a CFL run needs more than MAX_LANE_STEPS steps; the error carries
    the trajectory so far as ``exc.trajectory`` (its steps, snapshots and
    unevolved share).
    """
    traj = Trajectory(u0.grid, [0.0], [Field(u0.grid, u0.values.copy())], [])
    try:
        for t, state in _lane(u0, cfg, traj):
            traj.times.append(t)
            traj.states.append(state())
    except BlowUpError as exc:
        exc.trajectory = traj
        raise
    return traj


def _lane(u0: Field, cfg: SolverConfig, traj: Trajectory,
          fork: bool = False) -> Iterator[tuple[float, Callable[[], Field]]]:
    """One RK4 lane from u0 over ``cfg.snapshot_times`` and ``t_final``:
    yields ``(t_k, state)`` in ascending t_k as soon as a step reaches t_k,
    where ``state()`` returns u(t_k).  Sets ``traj.unevolved_share`` and
    appends each step the lane takes to ``traj.steps``.

    By default the lane clips that step onto t_k and steps on from there,
    the run of :func:`evolve`.  With ``fork`` it keeps full steps, stops at
    the largest t_k, and ``state()`` takes the clipped last step of the run
    that ends at t_k from the lane's state and first stage: bit for bit the
    final state of :func:`evolve` with ``t_final=t_k`` and no snapshots.
    ``state()`` may run on another thread while the lane steps on; a
    BlowUpError from a fork concerns its time only, one from the lane (its
    step budget's too) every time not yet yielded.

    Once a step's half spectrum is final, the helper transforms it and runs
    the blow-up guard (:func:`_logged_state`) while this thread evaluates
    the next step's first stage.  The lane then settles the task: it raises
    the guard's error, or appends the step to ``traj.steps``.  That comes
    before its next yield, the next step's entry and its return, and an
    error of the first stage is raised only after it, so the guard's error
    wins as in a serial loop.  A step clipped onto t_k settles at once,
    since its state is the one yielded.
    """
    g = u0.grid
    hs, eps = half_spectrum(g), cfg.eps
    pending = sorted(set(cfg.snapshot_times) | {cfg.t_final})
    max0 = float(np.max(np.abs(u0.values)))

    uh, t = np.fft.rfftn(u0.values), 0.0
    traj.unevolved_share = _tail_share(uh, hs.keep == 0.0)
    last = None  # the last step's state task, time, dt and speed, until settled

    def settle() -> np.ndarray | None:
        nonlocal last
        (task, t_end, h, v), last = last, None
        u, mean, amax = task.result()
        traj.steps.append({"t": t_end, "dt": h, "mean": mean, "max_abs": amax, "max_speed": v})
        return u

    while pending:
        try:
            acc, speed = _rhs_half(uh, eps, hs, with_speed=True)
        finally:
            if last is not None:
                settle()
        dt = cfg.dt if cfg.dt is not None else cfg.cfl * g.spacing / max(speed, _SPEED_FLOOR)
        if cfg.dt is None and (pending[-1] - t) / dt > MAX_LANE_STEPS:
            raise BlowUpError(f"reaching t={pending[-1]:.6g} from t={t:.6g} at dt={dt:.3g} "
                              f"needs more than the lane's budget of {MAX_LANE_STEPS} steps")
        clip = None  # the time this step lands on, in the default mode
        while pending and t + dt >= pending[0] - 1e-15 * pending[0]:
            target = pending.pop(0)
            if not fork:
                clip, dt = target, target - t
                break
            # the lane never writes what a fork reads: _advance leaves uh as
            # it is and consumes acc, so a fork the lane outlives gets a copy
            k1 = acc.copy() if pending else acc
            yield target, partial(_fork_state, g, uh, k1, target - t, target, hs, eps, max0)
        if not pending and clip is None:
            return
        t = t + dt if clip is None else clip
        uh = _advance(uh, acc, dt, hs, eps)
        last = (_helper().submit(_logged_state, uh, t, hs, max0, clip is not None), t, dt, speed)
        if clip is not None:
            u = settle()
            yield clip, partial(Field, g, u)
            del u  # so the next step does not keep the array alive


def _advance(uh: np.ndarray, acc: np.ndarray, dt: float, hs: HalfSpectrum,
             eps: float) -> np.ndarray:
    """Stages 2-4 and the update of the RK4 step of size ``dt`` that starts
    at the state with half spectrum ``uh`` and first stage ``acc``: the new
    state's half spectrum.  ``acc`` is consumed (it becomes the result);
    ``uh`` is left as it is."""
    # acc sums k1 + 2 k2 + 2 k3 + k4 as the stages arrive; each stage
    # state uh + c k is built in place of the k it comes from
    k = acc * (0.5 * dt)
    k += uh
    k, _ = _rhs_half(k, eps, hs)
    k *= 2.0  # 2 k and (c/2) dt are exact scalings, so no float moves
    acc += k
    k *= 0.25 * dt
    k += uh
    k, _ = _rhs_half(k, eps, hs)
    k *= 2.0
    acc += k
    k *= 0.5 * dt
    k += uh
    k, _ = _rhs_half(k, eps, hs)
    acc += k
    del k
    acc *= dt / 6.0
    acc += uh
    return acc


def _check_state(uh: np.ndarray, t: float, hs: HalfSpectrum,
                 max0: float) -> tuple[np.ndarray, float]:
    """The state at time ``t`` with half spectrum ``uh`` and its max|u|.
    Raises :class:`BlowUpError` when the state is not finite or max|u|
    exceeds ten times ``max0``, the initial max|u| (or 1 if that is zero)."""
    u = hs.irfftn(uh)
    amax = float(np.max(np.abs(u)))
    if not math.isfinite(amax):
        raise BlowUpError(f"non-finite state at t={t:.6g}")
    if amax > 10.0 * (max0 if max0 > 0.0 else 1.0):
        raise BlowUpError(
            f"blow-up guard tripped at t={t:.6g}: max|u|={amax:.3g} "
            f"exceeds 10 x initial scale {max0:.3g}"
        )
    return u, amax


def _logged_state(uh: np.ndarray, t: float, hs: HalfSpectrum, max0: float,
                  keep: bool) -> tuple[np.ndarray | None, float, float]:
    """The lane's state task: :func:`_check_state`, then the state (when
    ``keep``, else None), its mean and its max|u|."""
    u, amax = _check_state(uh, t, hs, max0)
    return (u if keep else None), float(np.mean(u)), amax


def _fork_state(g: Grid, uh: np.ndarray, acc: np.ndarray, dt: float, t: float,
                hs: HalfSpectrum, eps: float, max0: float) -> Field:
    """The state at time ``t`` at the end of the RK4 step of :func:`_advance`,
    checked on the calling thread."""
    return Field(g, _check_state(_advance(uh, acc, dt, hs, eps), t, hs, max0)[0])
