"""Stochastic optimizer for the mean-field Gaussian approximation.

The approximation lives in the unconstrained space: q(zeta) = N(mu,
diag(exp(2*omega))). Each iteration draws standard-Gaussian samples,
inverts the standardization zeta = exp(omega)*eta + mu, differentiates the
transformed log joint of the draws on a fresh tape (one tape per chunk of
draws, with the draws on a leading axis), and takes an adaptive-stepsize
ascent step; the stepsize uses the summed squared gradients of a sliding
window (finite-memory variant of the accumulate-everything schedule). Its
offset (1) and window (10 steps) are fixed, as in ADVI. Objective
estimates take no tape: they map and score the prior of all their draws in
one call (``model._prior_part``, the part of ``_joint`` before the
likelihood), then the likelihood a chunk of draws per call.

Every generator comes from :func:`substream`, at a named position
`(seed, kind, iteration[, sample])`, so a draw does not depend on the
other draws or on how they are chunked. Outputs repeat bit for bit for a
given version, seed, numpy build and SIMD dispatch level: numpy's exp and
log loops round differently at each level.
Every evaluation takes its observations from ``model._observations``:
``idx = slice(None)`` for all of them, so a model reads views of its
data, or a batch's checked index array with its N/B scale, and the point
count that bounds a chunk of draws. ``fit`` calls it once, draws a sorted
batch per iteration with ``minibatch`` set, and silences floating-point
warnings for its whole loop.

The trace's elapsed_ms column is a deterministic work clock: cumulative
array elements produced by the gradient tapes (the sizes of every tape
node's value), at a nominal 1000 elements per millisecond. A tape node is
one array operation, so a node count would not measure compute; the
elements do, and they depend only on the model, the data sizes and the
draws. Every tape built counts, a failed chunk's too; a chunk's tape also
holds the nodes a model adds to give per-draw values an axis of length 1
(``zoo._each_point``), so with two or more gradient draws the clock can
read a little above one tape per draw, for the same estimate. Real
wall-clock duration is reported separately (and recorded in run
manifests) so output files stay byte-reproducible.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DomainError, EvaluationFailure, \
    ShapeError
from .model import Dataset, ModelDefinition, _joint, _observations, \
    _prior_part, constrain_blocks, draw_chunks

__all__ = [
    "VariationalParams", "FitConfig", "OptState", "ElboTrace",
    "PosteriorDraws", "substream", "inverse_standardize", "estimate_elbo",
    "estimate_gradients", "adagrad_step", "fit", "draw_posterior",
]

# Named substreams hanging off the run seed.
STREAM_INIT = 0
STREAM_GRAD = 1
STREAM_ELBO = 2
STREAM_BATCH = 3
STREAM_DRAW = 4

_OMEGA_BOUND = 20.0
_ELEMENTS_PER_MS = 1000.0  # nominal rate of the deterministic work clock
_MAX_REDRAWS = 10


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a named position in the run's stream tree."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class VariationalParams:
    """Mean and log standard deviation of the factorized Gaussian."""

    mu: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        if mu.ndim != 1 or omega.shape != mu.shape:
            raise ShapeError("mu and omega must be equal-length vectors")
        if not (np.isfinite(mu).all() and np.isfinite(omega).all()):
            raise ValueError("variational parameters must be finite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "omega", omega)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, least: int) -> None:
    if not _is_integer(value) or value < least:
        raise ConfigurationError(
            f"{name} must be an integer >= {least}, got {value!r}")


def _check_seed(name: str, value) -> int:
    if not _is_integer(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:  # SeedSequence takes no negative entropy
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return int(value)


def _generator(rng) -> np.random.Generator:
    """``np.random.default_rng(rng)``, a number checked as a seed."""
    if isinstance(rng, (int, float, np.number)):  # a bool is an int
        _check_seed("rng", rng)
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class FitConfig:
    grad_samples: int = 1
    elbo_samples: int = 100
    step_scale: float = 0.1
    threshold: float = 0.01
    eval_interval: int = 100
    max_iterations: int = 1000
    seed: int = 0
    minibatch: int | None = None
    init: str = "zero"  # "zero" or "gaussian"
    step_offset: ClassVar[float] = 1.0  # tau: a constant, not a setting
    window: ClassVar[int] = 10  # squared-gradient window: a constant too

    def __post_init__(self):
        counts = [("grad_samples", 1), ("elbo_samples", 1),
                  ("eval_interval", 1), ("max_iterations", 0)]
        if self.minibatch is not None:
            counts.append(("minibatch", 1))
        for name, least in counts:
            _check_count(name, getattr(self, name), least)
        _check_seed("seed", self.seed)
        if not 0.0 < self.step_scale < math.inf:  # written so NaN fails
            raise ConfigurationError(
                f"step_scale must be finite and > 0, got {self.step_scale}")
        if not self.threshold > 0.0:
            raise ConfigurationError(
                f"threshold must be > 0, got {self.threshold}")
        if self.init not in ("zero", "gaussian"):
            raise ConfigurationError(
                f"init must be 'zero' or 'gaussian', got {self.init!r}")


@dataclass
class OptState:
    """Sliding window of squared gradients for the adaptive stepsize (fit
    keeps the last ``FitConfig.window`` steps). The window sum is
    recomputed oldest-first on every step (no running-sum drift), so it
    equals the brute-force sum of the last min(steps, window) squared
    gradients exactly. No RNG state lives here: streams are pure functions
    of (seed, stream kind, iteration), so the window is the whole of it.
    """

    dim: int
    window: int
    recent: deque = field(init=False)

    def __post_init__(self):
        self.recent = deque(maxlen=self.window)

    def update(self, squared: np.ndarray) -> np.ndarray:
        self.recent.append(squared)
        # oldest first, like the brute-force sum; np.add.reduce over the
        # stacked window would sum a one-coordinate window pairwise
        return sum(self.recent)


@dataclass
class ElboTrace:
    """Objective estimates recorded during optimization, plus counts of the
    Monte Carlo draws whose evaluation failed: ELBO draws dropped from an
    estimate and gradient draws redrawn. Both condition the estimates on
    the region where the joint is finite, so they are reported, not
    hidden."""

    rows: list[tuple[int, float, float]] = field(default_factory=list)
    clamp_events: int = 0
    elbo_draws_dropped: int = 0
    gradient_redraws: int = 0
    wall_time_s: float = 0.0

    def append(self, iteration: int, elapsed_ms: float, elbo: float):
        if self.rows and iteration <= self.rows[-1][0]:
            raise ValueError("trace iterations must be strictly increasing")
        self.rows.append((iteration, elapsed_ms, elbo))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass(frozen=True)
class PosteriorDraws:
    """Constrained-space samples from the fitted approximation: each
    block's values, in block order, with the draws on the first axis."""

    samples: dict[str, np.ndarray]
    size: int


def inverse_standardize(params: VariationalParams, eta) -> np.ndarray:
    """Map standardized draws back to the unconstrained space:
    zeta_k = exp(omega_k) * eta_k + mu_k.

    ``eta`` holds the coordinates on its last axis; leading axes are
    draws, each mapped on its own (a row gives the same bits as mapping
    it alone)."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1:] != params.mu.shape:
        raise ShapeError(
            f"eta has shape {eta.shape}, expected (..., {params.dim})")
    return np.exp(params.omega) * eta + params.mu


def _entropy(params: VariationalParams) -> float:
    k = params.dim
    return 0.5 * k * (1.0 + math.log(2.0 * math.pi)) + \
        float(np.sum(params.omega))


def _elbo_and_drops(model, data, params, n_samples, rng, idx, n_obs):
    """:func:`estimate_elbo` over the ``n_obs`` observations ``idx``, and
    its drops."""
    _check_count("n_samples", n_samples, 1)
    gen = _generator(rng)
    # one value per draw; NaN marks a draw out of the domain
    joints = np.full(n_samples, math.nan)
    # a wild draw may overflow: it is dropped, not reported as a warning
    with np.errstate(all="ignore"):
        # one (S, dim) draw holds the same numbers as S draws of dim
        zetas = inverse_standardize(
            params, gen.standard_normal((n_samples, params.dim)))
        try:
            values, joints[:] = _prior_part(model, data, zetas)
        except DomainError:  # score each draw alone; drop those that raise
            for s, zeta in enumerate(zetas):
                try:
                    joints[s] = _joint(model, data, zeta, idx, None)
                except DomainError:
                    pass
        else:  # a constant prior broadcasts; the likelihood is chunked
            chunks = draw_chunks(lambda k: ad.sum(model.loglik_term(
                {name: v[k] for name, v in values.items()}, data, idx), -1),
                n_samples, n_obs) if idx is not None else ()
            for k, lik in chunks:
                joints[k] = math.nan if lik is None else joints[k] + lik
    kept = joints[np.isfinite(joints)].tolist()
    if not kept:
        raise EvaluationFailure(
            f"all {n_samples} objective samples were non-finite")
    estimate = math.fsum(kept) / len(kept) + _entropy(params)
    return estimate, n_samples - len(kept)


def estimate_elbo(model: ModelDefinition, data: Dataset,
                  params: VariationalParams, n_samples: int, rng) -> float:
    """Monte Carlo objective estimate (tape-free model evaluations).

    Averages the transformed log joint over draws from the current
    approximation and adds the Gaussian entropy in closed form. The draws
    are taken and standardized as one ``(n_samples, dim)`` array. The
    joint's prior part (``model._prior_part``: values, then log prior +
    log-det) is evaluated once for all of them, then the likelihood a
    chunk of draws per call (:func:`model.draw_chunks`); each draw's
    joint, the prior part + likelihood, has the bits of that draw's joint
    alone. If the prior part raises :class:`DomainError`, each draw's
    joint is evaluated alone. A draw out of domain on its own or with a
    non-finite joint is dropped (fit counts them in
    ``ElboTrace.elbo_draws_dropped``); if every draw fails, raises
    :class:`EvaluationFailure`.
    """
    idx, n_obs, _ = _observations(model, data)
    return _elbo_and_drops(model, data, params, n_samples, rng, idx,
                           n_obs)[0]


def _gradient_sample(model, data, zeta, idx, scale, clock):
    """The gradient of the joint over ``idx`` on one tape, at one draw
    ``zeta`` ``(dim,)`` or one per row of a chunk ``(rows, dim)`` (no
    operation mixes rows, so the sweep seeded with ones gives each row its
    own); None where the joint or the gradient is not finite, or for one
    draw out of the domain (a chunk's DomainError reaches ``draw_chunks``).
    Adds the tape's array elements, a failed tape's too, to ``clock[0]``."""
    g = ad.Graph()
    z = g.leaf(zeta)
    try:
        out = _joint(model, data, z, idx, scale)
    except DomainError:
        if zeta.ndim > 1:
            raise
        return None
    finally:
        clock[0] += g.elements()
    if zeta.ndim > 1:
        rows = g.adjoints(out)[z.i]
        ok = np.isfinite(out.val) & np.isfinite(rows).all(axis=-1)
        return [row if good else None for row, good in zip(rows, ok)]
    if not math.isfinite(out.val):
        return None
    grad = g.adjoints(out)[z.i]
    return grad if np.count_nonzero(np.isfinite(grad)) == grad.size else None


def _counted_gradients(model, data, params, m, seed, path, idx, points,
                       scale):
    """Gradient estimate of the joint ``_joint(..., idx, scale)`` over the
    ``points`` observations ``idx`` picks, plus the tape elements that
    produced it and the number of draws redrawn; draw k uses
    ``substream(seed, *path, k)``. The first attempts of two or more draws
    take a tape per chunk (:func:`model.draw_chunks`); a single draw skips
    the chunker. A draw that failed is redrawn from its own stream, one
    tape per attempt."""
    _check_count("m", m, 1)
    mu = params.mu
    # inverse_standardize, with sigma = exp(omega) computed once and
    # reused by the chain factor below
    sigma = np.exp(params.omega)
    clock = [0]
    if m == 1:
        gens = (substream(seed, *path, 0),)
        etas = (gens[0].standard_normal(params.dim),)
        grads = (_gradient_sample(model, data, sigma * etas[0] + mu, idx,
                                  scale, clock),)
    else:
        gens = [substream(seed, *path, k) for k in range(m)]
        etas = np.array([gen.standard_normal(params.dim) for gen in gens])
        zetas, grads = sigma * etas + mu, [None] * m
        for key, result in draw_chunks(lambda key: _gradient_sample(
                model, data, zetas[key], idx, scale, clock), m, points):
            grads[key] = result
    g_mu = g_omega = 0.0
    redraws = 0
    for gen, eta, d_zeta in zip(gens, etas, grads):
        attempt = 0
        while d_zeta is None:
            if attempt == _MAX_REDRAWS:
                raise EvaluationFailure(
                    f"gradient sample stayed non-finite after {_MAX_REDRAWS} "
                    "redraws")
            attempt += 1
            eta = gen.standard_normal(params.dim)
            d_zeta = _gradient_sample(model, data, sigma * eta + mu, idx,
                                      scale, clock)
        redraws += attempt
        g_mu = g_mu + d_zeta
        g_omega = g_omega + d_zeta * eta * sigma
    if m > 1:  # dividing by 1 would copy the same bits
        g_mu, g_omega = g_mu / m, g_omega / m
    return g_mu, g_omega + 1.0, clock[0], redraws


def estimate_gradients(model: ModelDefinition, data: Dataset,
                       params: VariationalParams, m: int, rng,
                       batch: Sequence[int] | None = None):
    """Monte Carlo gradients of the objective w.r.t. (mu, omega).

    Per standardized draw eta, the gradient of the transformed log joint
    w.r.t. zeta comes from a reverse sweep; the mu gradient is its MC
    mean and the omega gradient additionally carries the eta*exp(omega)
    chain factor plus the entropy term's constant 1. ``rng`` is an integer
    seed >= 0 or a SeedSequence; sample k uses the child stream that
    appends k to its spawn key. The m draws are evaluated in chunks
    (:func:`model.draw_chunks`), a chunk of two or more on one tape whose
    joint has one value per draw, so the sweep gives every draw its own
    gradient, bit for bit as one tape per draw would; the means sum the
    draws in order. A draw whose joint or gradient is non-finite, or that
    is out of domain alone, is redrawn from its own stream, one tape per
    attempt, up to 10 times before the whole estimate fails (fit counts
    the redraws in ``ElboTrace.gradient_redraws``). Unlike ``fit``, it
    leaves floating-point warnings on.
    """
    if isinstance(rng, np.random.SeedSequence):
        seed, path = rng.entropy, tuple(rng.spawn_key)
    else:
        seed, path = _check_seed("rng", rng), ()
    idx, points, scale = _observations(model, data, batch)
    g_mu, g_omega, _, _ = _counted_gradients(model, data, params, m, seed,
                                             path, idx, points, scale)
    return g_mu, g_omega


def adagrad_step(state: OptState, grad: np.ndarray,
                 config: FitConfig) -> np.ndarray:
    """Per-coordinate stepsizes step_scale / (step_offset + sqrt(s)), where
    s sums the squared gradients of the last ``state.window`` steps."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != (state.dim,):
        raise ShapeError(
            f"gradient has shape {grad.shape}, expected ({state.dim},)")
    s = state.update(grad * grad)
    return config.step_scale / (config.step_offset + np.sqrt(s))


def _initial_params(dim: int, config: FitConfig) -> VariationalParams:
    if config.init == "gaussian":
        gen = substream(config.seed, STREAM_INIT)
        mu = gen.standard_normal(dim)
    else:
        mu = np.zeros(dim)
    return VariationalParams(mu, np.zeros(dim))


def _step(params, g_mu, g_omega, opt_mu, opt_omega, config):
    """One adaptive ascent step: the new params and the number of omega
    coordinates clamped to [-_OMEGA_BOUND, _OMEGA_BOUND]."""
    rho_mu = adagrad_step(opt_mu, g_mu, config)
    rho_omega = adagrad_step(opt_omega, g_omega, config)
    omega = params.omega + rho_omega * g_omega
    # np.clip and np.sum, without their Python-level wrappers
    clipped = np.minimum(np.maximum(omega, -_OMEGA_BOUND), _OMEGA_BOUND)
    return (VariationalParams(params.mu + rho_mu * g_mu, clipped),
            int(np.count_nonzero(clipped != omega)))


def _converged(rows, threshold) -> bool:
    """Whether the last two trace rows' objectives differ by less than
    ``threshold``, relative to the earlier one."""
    if len(rows) < 2:
        return False
    last, elbo = rows[-2][2], rows[-1][2]
    return abs(elbo - last) / max(abs(last), 1e-12) < threshold


def fit(model: ModelDefinition, data: Dataset,
        config: FitConfig) -> tuple[VariationalParams, ElboTrace]:
    """Run the stochastic ascent loop until the objective stabilizes.

    Every ``eval_interval`` iterations the objective is re-estimated with
    ``elbo_samples`` fresh draws and appended to the trace; the loop stops
    when the relative change between consecutive estimates drops below
    ``threshold``, or at ``max_iterations``. With ``minibatch`` set, each
    iteration scores a uniformly drawn (without replacement, sorted) batch
    through the N/B-scaled joint. Floating-point warnings are silenced for
    the whole loop: an overflowing draw is redrawn or dropped, not reported.
    """
    full, n_obs, scale = _observations(model, data)
    idx, points = full, n_obs
    if config.minibatch is not None:
        if config.minibatch > n_obs:
            raise ConfigurationError(
                f"minibatch {config.minibatch} exceeds {n_obs} observations")
        points, scale = config.minibatch, n_obs / config.minibatch
    params = _initial_params(model.dim, config)
    trace = ElboTrace()
    opt_mu = OptState(model.dim, config.window)
    opt_omega = OptState(model.dim, config.window)
    work_elements = 0
    wall_start = time.perf_counter()
    with np.errstate(all="ignore"):
        for i in range(config.max_iterations):
            if config.minibatch is not None:
                gen = substream(config.seed, STREAM_BATCH, i)
                idx = np.sort(gen.choice(n_obs, size=config.minibatch,
                                         replace=False))
            try:
                g_mu, g_omega, elements, redraws = _counted_gradients(
                    model, data, params, config.grad_samples, config.seed,
                    (STREAM_GRAD, i), idx, points, scale)
                work_elements += elements
                trace.gradient_redraws += redraws
                params, clamped = _step(params, g_mu, g_omega, opt_mu,
                                        opt_omega, config)
                trace.clamp_events += clamped
                if (i + 1) % config.eval_interval == 0:
                    elbo, dropped = _elbo_and_drops(
                        model, data, params, config.elbo_samples,
                        substream(config.seed, STREAM_ELBO, i), full, n_obs)
                    trace.elbo_draws_dropped += dropped
                    trace.append(i + 1, work_elements / _ELEMENTS_PER_MS,
                                 elbo)
                    if _converged(trace.rows, config.threshold):
                        break
            except EvaluationFailure as exc:
                raise EvaluationFailure(
                    f"iteration {i}: {exc}; mu={params.mu.tolist()}, "
                    f"omega={params.omega.tolist()}") from exc
    trace.wall_time_s = time.perf_counter() - wall_start
    return params, trace


def draw_posterior(model: ModelDefinition, params: VariationalParams,
                   size: int, rng) -> PosteriorDraws:
    """Sample the fitted approximation and map draws back to the support."""
    _check_count("size", size, 1)
    if params.dim != model.dim:
        raise ShapeError(
            f"params have dim {params.dim}, model needs {model.dim}")
    gen = _generator(rng)
    zeta = inverse_standardize(params, gen.standard_normal((size, params.dim)))
    # one array expression over all draws: a row of zeta per draw
    with np.errstate(all="ignore"):
        values, _ = constrain_blocks(model, zeta)
    return PosteriorDraws(samples=values, size=size)
