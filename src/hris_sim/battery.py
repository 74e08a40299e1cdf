"""Markov-chain model of the battery state of charge.

The chain has S states spaced ``delta`` Joules apart (capacity (S-1)*delta).
Each period the state moves by floor(dE/delta) steps, clamped at the ends,
where dE is the random net stored energy with CDF F. Interior transitions are
p[i, j] = F((j-i+1)*delta) - F((j-i)*delta); the boundary columns absorb the
clipped tails so every row sums to one exactly:

    p[i, 0]   = F((1-i)*delta)
    p[i, S-1] = 1 - F((S-1-i)*delta)

Loss of charge is the stationary mass at or below the guard state. A trace
simulator of the same quantized process provides the empirical counterpart.
"""

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr


class ReducibleChainError(ValueError):
    """Raised when the chain splits into closed classes; names them."""

    def __init__(self, closed_classes):
        self.closed_classes = closed_classes
        detail = "; ".join(str(sorted(c)) for c in closed_classes)
        super().__init__(f"reducible chain: closed class(es) {detail}")


def mah_to_joules(mah: float, voltage: float = 3.7) -> float:
    """Charge in mAh at the given cell voltage, expressed in Joules."""
    return mah * 1e-3 * 3600.0 * voltage


def joules_to_mah(joules: float, voltage: float = 3.7) -> float:
    return joules / (1e-3 * 3600.0 * voltage)


def states_for_capacity(capacity: float, delta: float) -> int:
    """Number of chain states for a capacity/step pair: round(C/delta) + 1."""
    if capacity <= 0 or delta <= 0:
        raise ValueError("capacity and delta must be positive")
    return int(round(capacity / delta)) + 1


@dataclass
class NetEnergyDist:
    """Distribution of the net stored energy per period (Joules).

    ``cdf`` maps an array of energies x to the array of P[dE <= x], element
    by element; ``sampler`` (rng, n) draws n values and is required only by
    the trace simulator.
    """

    mean: float
    std: float
    cdf: Callable
    sampler: Callable | None = None

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")

    @classmethod
    def gaussian(cls, mean: float, std: float) -> "NetEnergyDist":
        return cls(mean=mean, std=std,
                   cdf=lambda x: ndtr((x - mean) / std),
                   sampler=lambda rng, n: rng.normal(mean, std, size=n))

    def sample(self, rng, n: int) -> np.ndarray:
        if self.sampler is None:
            raise ValueError("distribution has no sampler attached")
        return np.asarray(self.sampler(rng, n), dtype=float)


@dataclass(eq=False)
class BatteryChain:
    """Assembled state-of-charge chain with its transition matrix."""

    n_states: int
    step: float  # Joules between adjacent states
    psi: np.ndarray  # (S, S) row-stochastic transition matrix
    guard_state: int
    voltage: float = 3.7
    pi: np.ndarray | None = field(default=None)  # cached stationary distribution

    @property
    def capacity(self) -> float:
        return (self.n_states - 1) * self.step


def build_chain(dist: NetEnergyDist, n_states: int, delta: float,
                gamma: float) -> BatteryChain:
    """Assemble the transition matrix from the net-energy CDF.

    ``gamma`` is the guard fraction of capacity; the guard state index is
    floor(gamma * (S-1)). ``dist.cdf`` is called once, on the array of the
    2S-1 grid points k*delta for k in [-(S-1), S-1].
    """
    if n_states < 2:
        raise ValueError("need at least two states")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    s = n_states
    # f_grid[k + S-1] = F(k*delta) for k in [-(S-1), S-1]
    f_grid = np.asarray(dist.cdf(np.arange(-(s - 1), s) * delta), dtype=float)
    steps = np.diff(f_grid)  # steps[k + S-1] = F((k+1)*delta) - F(k*delta)
    if np.any(steps < -1e-12) or np.any(f_grid < -1e-12) \
            or np.any(f_grid > 1 + 1e-12):
        raise ValueError("cdf is not monotone non-decreasing into [0, 1]")
    rows = np.arange(s)
    psi = np.empty((s, s))
    psi[:, 0] = f_grid[s - rows]  # F((1-i)*delta)
    psi[:, s - 1] = 1.0 - f_grid[2 * s - 2 - rows]  # 1 - F((S-1-i)*delta)
    # Toeplitz interior: psi[i, j] depends on j - i only
    psi[:, 1:s - 1] = steps[rows[None, 1:s - 1] - rows[:, None] + (s - 1)]
    row_err = np.abs(psi.sum(axis=1) - 1.0).max()
    if row_err > 1e-12 or psi.min() < -1e-15:
        raise ValueError(f"transition matrix not stochastic (row error {row_err:.3e})")
    psi = np.clip(psi, 0.0, None)
    guard = int(np.floor(gamma * (s - 1)))
    return BatteryChain(n_states=s, step=delta, psi=psi, guard_state=guard)


def _reaches_all(adj: np.ndarray) -> bool:
    """Whether state 0 reaches every state along the edges of adj."""
    seen = frontier = np.arange(len(adj)) == 0
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


def _closed_classes(psi: np.ndarray):
    """Communicating-class count and the closed classes, by smallest state."""
    s = len(psi)
    reach = (psi > 0) | np.eye(s, dtype=bool)
    if _reaches_all(reach) and _reaches_all(reach.T):
        return 1, [list(range(s))]
    for k in range(s):  # Warshall closure
        reach |= reach[:, k, None] & reach[k]
    labels = np.argmax(reach & reach.T, axis=1)  # smallest state of the class
    leaks = np.any(reach & ~reach.T, axis=1)  # reaches a state not reaching back
    roots = np.flatnonzero(labels == np.arange(s))
    return roots.size, [np.flatnonzero(labels == r).tolist()
                        for r in roots if not leaks[r]]


def stationary(chain: BatteryChain, residual_tol: float = 1e-10) -> np.ndarray:
    """Unique fixed point of pi = Psi^T pi via a direct linear solve.

    Requires an irreducible chain; otherwise raises ReducibleChainError
    naming the closed class(es). The result is cached on the chain.
    """
    n_comp, closed = _closed_classes(chain.psi)
    if n_comp > 1:
        raise ReducibleChainError(closed)
    s = chain.n_states
    a = chain.psi.T - np.eye(s)
    a[-1, :] = 1.0  # replace one redundant balance row with normalization
    b = np.zeros(s)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.abs(chain.psi.T @ pi - pi).max()
    if residual > residual_tol:
        raise ValueError(f"stationary solve residual {residual:.3e} above tolerance")
    chain.pi = pi
    return pi


def stationary_power_iteration(chain: BatteryChain, tol: float = 1e-13,
                               max_iter: int = 200000) -> np.ndarray:
    """Stationary distribution by repeated application of Psi^T (second method)."""
    s = chain.n_states
    pi = np.full(s, 1.0 / s)
    psi_t = chain.psi.T
    for _ in range(max_iter):
        nxt = psi_t @ pi
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() < tol:
            return nxt
        pi = nxt
    raise ValueError("power iteration did not converge; chain may be reducible")


def loss_of_charge(chain: BatteryChain) -> float:
    """Stationary probability mass at or below the guard state."""
    pi = chain.pi if chain.pi is not None else stationary(chain)
    return float(pi[: chain.guard_state + 1].sum())


def resolve_loss_of_charge(chain: BatteryChain,
                           dist: NetEnergyDist) -> tuple[float, str]:
    """p_LoC of a chain and its status.

    "ok" when the stationary solve succeeds. A saturated drift makes the
    off-drift transition probabilities underflow, and the solve rejects the
    chain as reducible; the drift sign then decides: "saturated-charge"
    (p_LoC 0) or "saturated-discharge" (p_LoC 1).
    """
    try:
        return loss_of_charge(chain), "ok"
    except ReducibleChainError:
        if dist.mean > 0 and chain.guard_state < chain.n_states - 1:
            return 0.0, "saturated-charge"
        return 1.0, "saturated-discharge"


def ploc_standard_error(chain: BatteryChain, n_periods: int) -> float:
    """Standard error of the guard-mass time average over ``n_periods``.

    Uses the asymptotic variance of the indicator's ergodic average,
    var = p(1-p) + 2 (pi o f)^T (Z - I) f with Z = (I - Psi + 1 pi^T)^-1,
    which accounts for the chain's autocorrelation.
    """
    pi = chain.pi if chain.pi is not None else stationary(chain)
    s = chain.n_states
    f = np.zeros(s)
    f[: chain.guard_state + 1] = 1.0
    p = float(pi @ f)
    z = np.linalg.inv(np.eye(s) - chain.psi + np.outer(np.ones(s), pi))
    asym_var = p * (1.0 - p) + 2.0 * float((pi * f) @ ((z - np.eye(s)) @ f))
    return float(np.sqrt(max(asym_var, 0.0) / n_periods))


class BatterySizing(NamedTuple):
    n_states: int
    delta: float
    capacity: float


def size_battery(dist: NetEnergyDist, delta_grid, target_ploc: float,
                 gamma: float, s_max: int = 200) -> BatterySizing | None:
    """Smallest capacity (S-1)*delta on the grid meeting the target p_LoC.

    p_LoC can rise with S only where the guard state floor(gamma*(S-1))
    steps up. So for each delta the search tests the last S of each run of
    equal guard in turn, and bisects within the first run whose last S meets
    the target. Saturated-drift chains are resolved by
    :func:`resolve_loss_of_charge`. Returns None when no grid point qualifies.
    """
    delta_grid = list(delta_grid)
    if not delta_grid:
        raise ValueError("empty delta grid")
    if not 0.0 < target_ploc < 1.0:
        raise ValueError("target p_LoC must lie in (0, 1)")

    def meets(s, delta):
        chain = build_chain(dist, s, delta, gamma)
        return resolve_loss_of_charge(chain, dist)[0] <= target_ploc

    runs = [list(run) for _, run in groupby(
        range(2, s_max + 1), key=lambda s: math.floor(gamma * (s - 1)))]
    found = []
    for delta in delta_grid:
        for run in runs:
            if meets(run[-1], delta):
                s = run[bisect.bisect_left(run, True, hi=len(run) - 1,
                                           key=lambda s: meets(s, delta))]
                found.append(BatterySizing(s, float(delta), float((s - 1) * delta)))
                break
    return min(found, key=lambda c: (c.capacity, c.delta), default=None)


def _per_period_steps(source, delta: float, n_periods: int, rng) -> np.ndarray:
    """floor(dE / delta) per period, as floats."""
    if isinstance(source, NetEnergyDist):
        values = source.sample(rng, n_periods)
    else:
        values = np.asarray(source, dtype=float)
        if values.size < n_periods:
            raise ValueError("energy stream shorter than the requested trace")
        values = values[:n_periods]
    quotient = values / delta
    return np.floor(quotient, out=quotient)


_BLOCK = 16  # maps per block of the scan


def _clamped_walk(steps: np.ndarray, bounds: np.ndarray | None, start: int,
                  top: int) -> np.ndarray:
    """The states of the walk x -> min(max(x + steps[t], lo[t]), hi[t]) from
    ``start``, exactly, by a recursive scan over composed clamp maps.

    ``bounds`` holds lo and hi as a (2, n) array, or is None for (0, top).
    Steps are clipped to [-top, top] in place, which changes no state. Row
    k of the (_BLOCK, n_blocks) copy holds position k of every block, so
    each vector update reads contiguous memory. One sweep down the rows
    walks every block from 0 and from top: the lo and hi of its composed
    map, whose step is the block sum. This function walks the block maps
    from ``start``, and a second sweep replays each block from its start.
    The last level and the trailing maps take a scalar loop. States are
    int32 when top < 2**30: a state plus a step stays in [-top, 2*top].
    """
    np.clip(steps, -top, top, out=steps)
    b = _BLOCK
    n_blocks = steps.size // b
    n_body = n_blocks * b
    dtype = np.int32 if top < 2 ** 30 else np.int64
    out = np.empty(steps.size, dtype)
    x = start
    if n_blocks:
        rows = np.empty((b, n_blocks), dtype)
        body = steps[:n_body].reshape(n_blocks, b)
        for j in range(0, n_blocks, 1024):  # a cache-sized chunk at a time
            rows[:, j:j + 1024] = body[j:j + 1024].T
        # lo and hi rows at the top level too: a scalar operand is far slower
        span = np.array([[0], [top]], dtype).repeat(n_blocks, axis=1)
        row_bounds = [span] * b if bounds is None else \
            bounds[:, :n_body].reshape(2, n_blocks, b).transpose(2, 0, 1).copy()

        def sweep(x, write):  # walk x through the b rows, in place
            for k, (lo, hi) in enumerate(row_bounds):
                y = rows[k] if write else x
                np.add(x, rows[k], out=y)
                np.maximum(y, lo, out=y)
                np.minimum(y, hi, out=y)
                x = y

        sums = rows.sum(axis=0, dtype=np.int64)
        lo_hi = span.copy()
        sweep(lo_hi, write=False)
        ends = _clamped_walk(sums, lo_hi, start, top)  # state after each block
        starts = np.roll(ends, 1)
        starts[0], x = start, int(ends[-1])
        sweep(starts, write=True)
        out[:n_body].reshape(n_blocks, b)[...] = rows.T
    tail_bounds = repeat((0, top)) if bounds is None \
        else bounds[:, n_body:].T.tolist()
    for t, (a, (lo, hi)) in enumerate(zip(steps[n_body:].tolist(), tail_bounds),
                                      n_body):
        x = min(max(x + int(a), lo), hi)
        out[t] = x
    return out


def simulate_trace(source, capacity: float, delta: float, gamma: float,
                   n_periods: int, rng, idle_source=None,
                   initial_soc: float | None = None, burn_in: int = 0):
    """Simulate the quantized charge/discharge process.

    ``source`` is a NetEnergyDist or an array of per-period net energies
    (Joules). When ``idle_source`` is given, periods spent in idle mode (state
    at or below the guard, left one state above it) draw from it instead,
    modelling the reduced-efficiency harvest and idle controller draw; leave
    it None to reproduce exactly the process the chain describes. Returns
    (empirical p_LoC over the post-burn-in periods, SoC trace in Joules).
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if not 0 <= burn_in < n_periods:
        raise ValueError("burn_in must lie in [0, n_periods)")
    s = states_for_capacity(capacity, delta)
    guard = int(np.floor(gamma * (s - 1)))
    top = s - 1
    state = top if initial_soc is None else int(round(
        min(max(initial_soc, 0.0), capacity) / delta))
    if idle_source is None:  # no steps outlive the walk
        states = _clamped_walk(_per_period_steps(source, delta, n_periods, rng),
                               None, state, top)
    else:
        steps = _per_period_steps(source, delta, n_periods, rng).astype(np.int64)
        idle_steps = _per_period_steps(idle_source, delta, n_periods,
                                       rng).astype(np.int64)
        states = np.empty(n_periods, dtype=np.int64)
        idle = state <= guard
        for t in range(n_periods):
            move = idle_steps[t] if idle else steps[t]
            state += move
            if state < 0:
                state = 0
            elif state > top:
                state = top
            states[t] = state
            if state <= guard:
                idle = True
            elif state > guard + 1:  # exit hysteresis: one state above the guard
                idle = False
    ploc = float(np.mean(states[burn_in:] <= guard))
    return ploc, np.multiply(states, delta)
