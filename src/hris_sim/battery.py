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
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

# Gaussian CDF: the Cephes ndtr of S. L. Moshier, "Methods and Programs for
# Mathematical Functions" (1989), which scipy.special.ndtr also evaluates.
# Same coefficients (U, Q and S write out the leading 1.0 that Cephes'
# p1evl implies), branches and operation order (np.polyval is Horner's rule),
# and libm's exp through math.exp (np.exp rounds differently), so the results
# equal scipy's bit for bit; tests/test_battery.py pins that.
_SQRTH = 0.7071067811865476  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
# erf(w) = w * T(w^2) / U(w^2) for |w| < 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# erfc(z) = exp(-z^2) * P(z) / Q(z) for 1 <= z < 8
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# ... and with R(z) / S(z) for z >= 8
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)


def _erf_small(w: np.ndarray) -> np.ndarray:
    """erf(w) for |w| < 1."""
    z = w * w
    return w * np.polyval(_ERF_T, z) / np.polyval(_ERF_U, z)


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """erfc(z) for z >= sqrt(1/2) or NaN."""
    out = np.zeros_like(z)
    near = z < 1.0
    out[near] = 1.0 - _erf_small(z[near])
    # erfc underflows to 0 once z*z exceeds MAXLOG; NaN stays in the rest
    rest = ~near & ~(-z * z < -_MAXLOG)
    x = z[rest]
    exp = np.fromiter(map(math.exp, (-x * x).tolist()), float, x.size)
    mid = x < 8.0
    p = np.where(mid, np.polyval(_ERFC_P, x), np.polyval(_ERFC_R, x))
    q = np.where(mid, np.polyval(_ERFC_Q, x), np.polyval(_ERFC_S, x))
    out[rest] = exp * p / q
    return out


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF, elementwise, equal to scipy.special.ndtr."""
    x = np.asarray(a, dtype=float) * _SQRTH
    z = np.abs(x)
    y = np.empty_like(x)
    with np.errstate(over="ignore"):  # -z*z = -inf lies past the underflow bound
        small = z < _SQRTH
        y[small] = 0.5 + 0.5 * _erf_small(x[small])
        tail = ~small
        y[tail] = 0.5 * _erfc_tail(z[tail])
        upper = tail & (x > 0)
        y[upper] = 1.0 - y[upper]
    return y


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


@dataclass(frozen=True)
class NetEnergyDist:
    """Gaussian distribution of the net stored energy per period (Joules).

    ``cdf`` maps an array of energies x to the array of P[dE <= x], element
    by element; ``sample`` (rng, n) draws n values for the trace simulator.
    A subclass overriding both gives another law.
    """

    mean: float
    std: float

    def __post_init__(self):
        for name in ("mean", "std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.std <= 0:
            raise ValueError("std must be positive")

    @classmethod
    def gaussian(cls, mean: float, std: float) -> "NetEnergyDist":
        return cls(mean, std)

    def cdf(self, x) -> np.ndarray:
        return _ndtr((x - self.mean) / self.std)

    def sample(self, rng, n: int) -> np.ndarray:
        return np.asarray(rng.normal(self.mean, self.std, size=n), dtype=float)


@dataclass(eq=False)
class BatteryChain:
    """Assembled state-of-charge chain with its transition matrix."""

    step: float  # Joules between adjacent states
    psi: np.ndarray  # (S, S) row-stochastic transition matrix
    guard_state: int

    @property
    def n_states(self) -> int:
        return len(self.psi)

    @property
    def capacity(self) -> float:
        return (self.n_states - 1) * self.step


def guard_state(n_states: int, gamma: float) -> int:
    """Index of the guard state, floor(gamma * (S-1))."""
    return int(np.floor(gamma * (n_states - 1)))


def build_chain(dist: NetEnergyDist, n_states: int, delta: float,
                gamma: float) -> BatteryChain:
    """Assemble the transition matrix from the net-energy CDF.

    ``gamma`` is the guard fraction of capacity (see :func:`guard_state`).
    ``dist.cdf`` is called once, on the 2S-1 grid points k*delta for k in
    [-(S-1), S-1].
    """
    f_grid = dist.cdf(np.arange(-(n_states - 1), n_states) * delta)
    return _assemble_chain(f_grid, n_states, delta, gamma)


def _assemble_chain(f_grid, n_states: int, delta: float,
                    gamma: float) -> BatteryChain:
    """The chain of :func:`build_chain` from its CDF grid, f_grid[k + S-1] =
    F(k*delta) for k in [-(S-1), S-1]."""
    if n_states < 2:
        raise ValueError("need at least two states")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    s = n_states
    f_grid = np.asarray(f_grid, dtype=float)
    steps = np.diff(f_grid)  # steps[k + S-1] = F((k+1)*delta) - F(k*delta)
    if np.any(steps < -1e-12) or np.any(f_grid < -1e-12) \
            or np.any(f_grid > 1 + 1e-12):
        raise ValueError("cdf is not monotone non-decreasing into [0, 1]")
    psi = np.empty((s, s))
    psi[:, 0] = f_grid[s:0:-1]  # F((1-i)*delta)
    psi[:, s - 1] = 1.0 - f_grid[2 * s - 2:s - 2:-1]  # 1 - F((S-1-i)*delta)
    # Toeplitz interior: psi[i, j] = steps[j - i + S-1], row i a window from S-i
    psi[:, 1:s - 1] = np.lib.stride_tricks.sliding_window_view(steps, s - 2)[s:0:-1]
    row_err = np.abs(psi.sum(axis=1) - 1.0).max()
    if row_err > 1e-12 or psi.min() < -1e-15:
        raise ValueError(f"transition matrix not stochastic (row error "
                         f"{row_err:.3e}, smallest entry {psi.min():.3e})")
    np.clip(psi, 0.0, None, out=psi)
    return BatteryChain(delta, psi, guard_state(s, gamma))


def _closed_classes(psi: np.ndarray):
    """Communicating-class count and the closed classes, by smallest state.

    A chain where every state steps up one and down one is irreducible; the
    rest, such as a saturated drift's, take a Warshall closure."""
    s = len(psi)
    if (np.diagonal(psi, 1) > 0).all() and (np.diagonal(psi, -1) > 0).all():
        return 1, [list(range(s))]
    reach = psi > 0
    reach.flat[::s + 1] = True
    for k in range(s):  # Warshall closure
        reach |= reach[:, k, None] & reach[k]
    labels = np.argmax(reach & reach.T, axis=1)  # smallest state of the class
    leaks = np.any(reach & ~reach.T, axis=1)  # reaches a state not reaching back
    roots = np.flatnonzero(labels == np.arange(s))
    return roots.size, [np.flatnonzero(labels == r).tolist()
                        for r in roots if not leaks[r]]


_RESIDUAL_TOL = 1e-10  # largest |Psi^T pi - pi| a stationary solve may leave


def stationary(chain: BatteryChain) -> np.ndarray:
    """Unique fixed point of pi = Psi^T pi via a direct linear solve.

    Requires an irreducible chain; otherwise raises ReducibleChainError
    naming the closed class(es).
    """
    n_comp, closed = _closed_classes(chain.psi)
    if n_comp > 1:
        raise ReducibleChainError(closed)
    s = chain.n_states
    a = chain.psi.T.copy()
    a.flat[::s + 1] -= 1.0
    a[-1, :] = 1.0  # replace one redundant balance row with normalization
    b = np.zeros(s)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.abs(chain.psi.T @ pi - pi).max()
    if residual > _RESIDUAL_TOL:
        raise ValueError(f"stationary solve residual {residual:.3e} above tolerance")
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
    raise ValueError(f"power iteration did not converge in {max_iter} "
                     "iterations; chain may be reducible or periodic")


def loss_of_charge(chain: BatteryChain) -> float:
    """Stationary probability mass at or below the guard state, at most 1:
    the prefix sum of a normalized ``pi`` can round past it."""
    pi = stationary(chain)
    return min(float(pi[: chain.guard_state + 1].sum()), 1.0)


def resolve_loss_of_charge(chain: BatteryChain) -> tuple[float, str]:
    """p_LoC of a chain and its status.

    "ok" when the stationary solve succeeds. A saturated drift makes the
    off-drift transition probabilities underflow, and the solve rejects the
    chain as reducible; its closed classes then decide: "saturated-discharge"
    (p_LoC 1) when every one lies at or below the guard state, else
    "saturated-charge" (p_LoC 0).
    """
    try:
        return loss_of_charge(chain), "ok"
    except ReducibleChainError as exc:
        if all(max(c) <= chain.guard_state for c in exc.closed_classes):
            return 1.0, "saturated-discharge"
        return 0.0, "saturated-charge"


def ploc_standard_error(chain: BatteryChain, n_periods: int) -> float:
    """Standard error of the guard-mass time average over ``n_periods``.

    Uses the asymptotic variance of the indicator's ergodic average,
    var = p(1-p) + 2 (pi o f)^T (Z - I) f with Z = (I - Psi + 1 pi^T)^-1,
    which accounts for the chain's autocorrelation.
    """
    pi = stationary(chain)
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
    the target. ``dist.cdf`` is called once per delta, on the grid of S =
    s_max; each chain is assembled from the centred slice that
    :func:`build_chain` would compute, bit for bit, as the cdf is
    elementwise. Saturated-drift chains are resolved by
    :func:`resolve_loss_of_charge`. Returns None when no grid point qualifies.
    """
    delta_grid = list(delta_grid)
    if not delta_grid:
        raise ValueError("empty delta grid")
    if not 0.0 < target_ploc < 1.0:
        raise ValueError("target p_LoC must lie in (0, 1)")

    runs = [list(run) for _, run in groupby(
        range(2, s_max + 1), key=lambda s: guard_state(s, gamma))]
    found = []
    for delta in delta_grid:
        f_grid = dist.cdf(np.arange(-(s_max - 1), s_max) * delta)

        def meets(s):
            chain = _assemble_chain(f_grid[s_max - s:s_max + s - 1], s, delta, gamma)
            return resolve_loss_of_charge(chain)[0] <= target_ploc

        for run in runs:
            if meets(run[-1]):
                s = run[bisect.bisect_left(run, True, hi=len(run) - 1, key=meets)]
                found.append(BatterySizing(s, float(delta), float((s - 1) * delta)))
                break
    return min(found, key=lambda c: (c.capacity, c.delta), default=None)


_CHUNK = 2 ** 16  # periods per draw of a streamed trace
_SEGMENT = 2 ** 20  # periods per walk of a streamed trace


def _state_dtype(top: int):
    """The narrowest integer type holding [-top, 2*top], where a state plus
    a step lies."""
    return np.int8 if top < 2 ** 6 else np.int16 if top < 2 ** 14 \
        else np.int32 if top < 2 ** 30 else np.int64


def _step_segments(source, delta: float, top: int, n_periods: int, rng):
    """Yield (offset, steps) over the trace, up to _SEGMENT periods at a time.

    ``source`` is a NetEnergyDist, drawn with ``sample(rng, k)`` up to
    _CHUNK periods at a time, each draw cut at its segment's end (chunked
    draws equal one draw), or an array of net energies, sliced. The steps
    floor(dE/delta), clipped to [-top, top] (which changes no state), are
    integers of :func:`_state_dtype` in one buffer that the next segment
    overwrites. Non-finite energies raise a ValueError naming them, counted
    over the whole trace.
    """
    if isinstance(source, NetEnergyDist):
        def energies(start, stop):
            return source.sample(rng, stop - start)
    else:
        values = np.asarray(source, dtype=float)
        if values.size < n_periods:
            raise ValueError("energy stream shorter than the requested trace")

        def energies(start, stop):
            return values[start:stop]
    quotient = np.empty(min(_CHUNK, n_periods))
    steps = np.empty(min(_SEGMENT, n_periods), _state_dtype(top))
    for seg in range(0, n_periods, _SEGMENT):
        end = min(seg + _SEGMENT, n_periods)
        for start in range(seg, end, _CHUNK):
            stop = min(start + _CHUNK, end)
            chunk = energies(start, stop)
            if not np.isfinite(chunk).all():
                bad = np.concatenate([e[~np.isfinite(e)] for e in (chunk, *(
                    energies(a, min(a + _CHUNK, n_periods))
                    for a in range(stop, n_periods, _CHUNK)))])
                raise ValueError(f"non-finite net energies {', '.join(map(str, np.unique(bad)))}"
                                 f" in {bad.size} of {n_periods} periods")
            q = np.divide(chunk, delta, out=quotient[:stop - start])
            del chunk  # a draw held across the yield would double its memory
            # the floor of q clipped to the whole numbers +-top is the floored
            # step clipped; the clipped floats cast to the narrow type exactly
            np.clip(q, -top, top, out=q)
            np.floor(q, out=steps[start - seg:stop - seg], casting="unsafe")
        yield seg, steps[:end - seg]


_BLOCK = 16  # maps per block of the scan


def _walk_blocks(steps: np.ndarray, bounds: np.ndarray | None, start: int,
                 top: int, rows: np.ndarray | None = None):
    """The walk x -> min(max(x + steps[t], lo[t]), hi[t]) from ``start``,
    exactly, by a recursive scan over composed clamp maps.

    ``steps`` lie in [-top, top]. ``bounds`` holds lo and hi as a (2, n)
    array, or is None for (0, top). ``rows`` is scratch of at least n states
    (allocated when None). Returns (body, tail): the states of the whole
    blocks as a (_BLOCK, n_blocks) view of ``rows``, row k holding position
    k of every block, and the list of the trailing states. Each vector
    update so reads contiguous memory. One sweep down the rows walks every
    block from 0 and from top: the lo and hi of its composed map, whose step
    is the block sum. The block maps are walked from ``start`` one level up,
    and a second sweep replays each block from its start. The last level
    and the trailing maps take a scalar loop.
    """
    b = _BLOCK
    n_blocks = steps.size // b
    n_body = n_blocks * b
    dtype = _state_dtype(top)
    rows = (np.empty(n_body, dtype) if rows is None
            else rows[:n_body]).reshape(b, n_blocks)
    x = start
    if n_blocks:
        body = steps[:n_body].reshape(n_blocks, b)
        # a cache-sized chunk at a time: one whole-array copy is as fast for
        # int8 states, and 2-3x slower for int16 and int32
        for j in range(0, n_blocks, 1024):
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

        # a block sum of b steps needs b times a step's range; clipped back
        # to one step's range it changes no state
        sums = rows.sum(axis=0, dtype=_state_dtype(b * top))
        np.clip(sums, -top, top, out=sums)
        lo_hi = span.copy()
        sweep(lo_hi, write=False)
        # the state after each block: the block maps walked one level up
        ends = _in_order(*_walk_blocks(sums, lo_hi, start, top),
                         np.empty(n_blocks, dtype))
        starts = np.roll(ends, 1)
        starts[0], x = start, int(ends[-1])
        sweep(starts, write=True)
    tail_bounds = repeat((0, top)) if bounds is None \
        else bounds[:, n_body:].T.tolist()
    tail = []
    for a, (lo, hi) in zip(steps[n_body:].tolist(), tail_bounds):
        x = min(max(x + a, lo), hi)
        tail.append(x)
    return rows, tail


def _in_order(body: np.ndarray, tail: list, out: np.ndarray) -> np.ndarray:
    """Write the states of :func:`_walk_blocks` into ``out`` in period order."""
    out[:body.size].reshape(-1, _BLOCK)[...] = body.T
    out[body.size:] = tail
    return out


def _walk_segments(source, delta: float, top: int, n_periods: int, rng,
                   state: int):
    """Yield (offset, body, tail) of :func:`_walk_blocks` over the segments
    of :func:`_step_segments`, walked from ``state`` and carrying it from
    segment to segment. ``body`` is in one reused buffer that the next
    segment overwrites."""
    rows = np.empty(min(_SEGMENT, n_periods), _state_dtype(top))
    for start, steps in _step_segments(source, delta, top, n_periods, rng):
        body, tail = _walk_blocks(steps, None, state, top, rows)
        state = tail[-1] if tail else int(body[-1, -1])
        yield start, body, tail


def _trace_limits(capacity: float, delta: float, gamma: float, n_periods: int,
                  burn_in: int) -> tuple[int, int]:
    """(guard state, top state) of a trace, after checking its period counts."""
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if not 0 <= burn_in < n_periods:
        raise ValueError("burn_in must lie in [0, n_periods)")
    s = states_for_capacity(capacity, delta)
    return guard_state(s, gamma), s - 1


def trace_loss_of_charge(source, capacity: float, delta: float, gamma: float,
                         n_periods: int, rng, burn_in: int = 0) -> float:
    """The empirical p_LoC of :func:`simulate_trace` without an idle source,
    bit for bit, without the trace: the walk streams through one segment's
    buffers, and the post-burn-in states at or below the guard are counted
    on its walked rows. Memory stays a few MB whatever ``n_periods``.
    """
    guard, top = _trace_limits(capacity, delta, gamma, n_periods, burn_in)
    below = 0
    for start, body, tail in _walk_segments(source, delta, top, n_periods, rng,
                                            top):
        skip = max(burn_in - start, 0)  # burn-in periods of the segment
        block, k = divmod(skip, _BLOCK)  # first counted period: body[k, block]
        below += int(np.count_nonzero(body[k:, block:block + 1] <= guard)) \
            + int(np.count_nonzero(body[:, block + 1:] <= guard)) \
            + sum(x <= guard for x in tail[max(skip - body.size, 0):])
    return below / (n_periods - burn_in)


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
    guard, top = _trace_limits(capacity, delta, gamma, n_periods, burn_in)
    state = top if initial_soc is None else int(round(
        min(max(initial_soc, 0.0), capacity) / delta))
    if idle_source is None:
        states = np.empty(n_periods, _state_dtype(top))
        for start, body, tail in _walk_segments(source, delta, top, n_periods,
                                                rng, state):
            _in_order(body, tail, states[start:start + body.size + len(tail)])
    else:
        moves = np.empty((2, n_periods), np.int64)  # all active draws come first
        for row, src in zip(moves, (source, idle_source)):
            for start, steps in _step_segments(src, delta, top, n_periods, rng):
                row[start:start + steps.size] = steps
        states = np.empty(n_periods, dtype=np.int64)
        idle = state <= guard
        for t, (move, idle_move) in enumerate(zip(*moves.tolist())):
            state = min(max(state + (idle_move if idle else move), 0), top)
            states[t] = state
            if state <= guard:
                idle = True
            elif state > guard + 1:  # exit hysteresis: one state above the guard
                idle = False
    ploc = float(np.mean(states[burn_in:] <= guard))
    return ploc, np.multiply(states, delta)
