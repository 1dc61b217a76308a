"""Stochastic optimizer for the mean-field Gaussian approximation.

The approximation lives in the unconstrained space: q(zeta) = N(mu,
diag(exp(2*omega))). Each iteration draws standard-Gaussian samples,
inverts the standardization zeta = exp(omega)*eta + mu, differentiates the
transformed log joint of the draws on a fresh tape (one tape per chunk of
draws, with the draws on a leading axis), and takes an adaptive-stepsize
ascent step; the stepsize uses the summed squared gradients of a sliding
window (finite-memory variant of the accumulate-everything schedule). Its
offset (1) and window (10 steps) are fixed, as in ADVI.

Every generator comes from :func:`substream`, at a named position
`(seed, kind, iteration[, sample])`, so a draw does not depend on the
other draws or on how they are chunked, and reruns are bit-identical.

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
from .model import Dataset, ModelDefinition, constrain_blocks, \
    draw_chunks, log_joint_draws, log_joint_unconstrained, \
    minibatch_log_joint

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
        if not _is_integer(self.seed):
            raise ConfigurationError(
                f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:  # SeedSequence takes no negative entropy
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
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


def _elbo_and_drops(model, data, params, n_samples, rng):
    """:func:`estimate_elbo` and the number of draws it dropped."""
    _check_count("n_samples", n_samples, 1)
    gen = np.random.default_rng(rng)
    # one value per draw; NaN marks a draw out of the domain
    joints = np.full(n_samples, math.nan)
    # a wild draw may overflow: it is dropped, not reported as a warning
    with np.errstate(all="ignore"):
        # one (S, dim) draw holds the same numbers as S draws of dim
        zetas = inverse_standardize(
            params, gen.standard_normal((n_samples, params.dim)))
        for key, v in log_joint_draws(model, data, zetas):
            if v is not None:
                joints[key] = v
    values = joints[np.isfinite(joints)].tolist()
    if not values:
        raise EvaluationFailure(
            f"all {n_samples} objective samples were non-finite")
    estimate = math.fsum(values) / len(values) + _entropy(params)
    return estimate, n_samples - len(values)


def estimate_elbo(model: ModelDefinition, data: Dataset,
                  params: VariationalParams, n_samples: int, rng) -> float:
    """Monte Carlo objective estimate (tape-free model evaluations).

    Averages the transformed log joint over draws from the current
    approximation and adds the Gaussian entropy in closed form. The draws
    are taken and standardized as one ``(n_samples, dim)`` array, then
    evaluated in chunks of draws (:func:`model.log_joint_draws`), each
    chunk as one array expression over the draws and the data. Draws whose
    evaluation is non-finite or out of domain are dropped (fit counts them
    in ``ElboTrace.elbo_draws_dropped``); if every draw fails, raises
    :class:`EvaluationFailure`.
    """
    return _elbo_and_drops(model, data, params, n_samples, rng)[0]


def _taped_joint(model, data, z, batch):
    """The joint at tape value ``z``: of the full data, or N/B-scaled of
    the batch."""
    if batch is None:
        return log_joint_unconstrained(model, data, z)
    return minibatch_log_joint(model, data, batch, z)


def _gradient_sample(model, data, zeta, batch):
    """One tape evaluation: (gradient w.r.t. zeta, or None when the joint
    or the gradient is non-finite or out of domain; array elements the
    tape produced)."""
    g = ad.Graph()
    z = g.leaf(zeta)
    try:
        out = _taped_joint(model, data, z, batch)
    except DomainError:
        return None, g.elements()
    if not math.isfinite(out.val):
        return None, g.elements()
    grad = g.adjoints(out)[z.i]
    if np.count_nonzero(np.isfinite(grad)) != grad.size:
        return None, g.elements()
    return grad, g.elements()


def _gradient_rows(model, data, zetas, batch):
    """:func:`_gradient_sample` of each row of ``zetas``, one call per
    chunk of draws (:func:`model.draw_chunks`): (gradient or None per
    draw; array elements of every tape built). A chunk of two or more
    draws is one tape over a ``(rows, dim)`` leaf, whose joint has one
    value per row; as no operation mixes rows, the sweep seeded with ones
    gives each row its own draw's gradient."""
    elements = 0

    def score(key):
        nonlocal elements
        if type(key) is int:
            grad, n = _gradient_sample(model, data, zetas[key], batch)
            elements += n
            return grad
        g = ad.Graph()
        z = g.leaf(zetas[key])
        try:
            out = _taped_joint(model, data, z, batch)
        finally:  # a chunk that raises is charged too
            elements += g.elements()
        rows = g.adjoints(out)[z.i]
        ok = np.isfinite(out.val) & np.isfinite(rows).all(axis=-1)
        return [row if good else None for row, good in zip(rows, ok)]

    grads = [None] * len(zetas)
    points = len(batch) if batch is not None else \
        model.num_observations(data)
    for key, result in draw_chunks(score, len(zetas), points):
        grads[key] = result
    return grads, elements


def _counted_gradients(model, data, params, m, seed, path, batch):
    """Gradient estimate plus the tape elements that produced it and the
    number of draws redrawn; draw k uses ``substream(seed, *path, k)``.

    The first attempts of two or more draws are evaluated together by
    :func:`_gradient_rows`; a single draw goes to :func:`_gradient_sample`
    directly. A draw that failed is redrawn from its own stream, one tape
    per attempt."""
    _check_count("m", m, 1)
    mu = params.mu
    # inverse_standardize, with sigma = exp(omega) computed once and
    # reused by the chain factor below
    sigma = np.exp(params.omega)
    if m == 1:
        gens = (substream(seed, *path, 0),)
        etas = (gens[0].standard_normal(params.dim),)
        grad, elements = _gradient_sample(model, data, sigma * etas[0] + mu,
                                          batch)
        grads = (grad,)
    else:
        gens = [substream(seed, *path, k) for k in range(m)]
        etas = np.array([gen.standard_normal(params.dim) for gen in gens])
        grads, elements = _gradient_rows(model, data, sigma * etas + mu,
                                         batch)
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
            d_zeta, n = _gradient_sample(model, data, sigma * eta + mu, batch)
            elements += n
        redraws += attempt
        g_mu = g_mu + d_zeta
        g_omega = g_omega + d_zeta * eta * sigma
    if m > 1:  # dividing by 1 would copy the same bits
        g_mu, g_omega = g_mu / m, g_omega / m
    return g_mu, g_omega + 1.0, elements, redraws


def estimate_gradients(model: ModelDefinition, data: Dataset,
                       params: VariationalParams, m: int, rng,
                       batch: Sequence[int] | None = None):
    """Monte Carlo gradients of the objective w.r.t. (mu, omega).

    Per standardized draw eta, the gradient of the transformed log joint
    w.r.t. zeta comes from a reverse sweep; the mu gradient is its MC
    mean and the omega gradient additionally carries the eta*exp(omega)
    chain factor plus the entropy term's constant 1. ``rng`` is an integer
    seed or a SeedSequence; sample k uses the child stream that appends k
    to its spawn key. The m draws are evaluated in chunks
    (:func:`model.draw_chunks`), a chunk of two or more on one tape whose
    joint has one value per draw, so the sweep gives every draw its own
    gradient, bit for bit as one tape per draw would; the means sum the
    draws in order. A draw whose joint or gradient is non-finite, or that
    is out of domain alone, is redrawn from its own stream, one tape per
    attempt, up to 10 times before the whole estimate fails (fit counts
    the redraws in ``ElboTrace.gradient_redraws``).
    """
    if isinstance(rng, np.random.SeedSequence):
        seed, path = rng.entropy, tuple(rng.spawn_key)
    else:
        seed, path = int(rng), ()
    g_mu, g_omega, _, _ = _counted_gradients(model, data, params, m, seed,
                                             path, batch)
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


def fit(model: ModelDefinition, data: Dataset,
        config: FitConfig) -> tuple[VariationalParams, ElboTrace]:
    """Run the stochastic ascent loop until the objective stabilizes.

    Every ``eval_interval`` iterations the objective is re-estimated with
    ``elbo_samples`` fresh draws and appended to the trace; the loop stops
    when the relative change between consecutive estimates drops below
    ``threshold``, or at ``max_iterations``. With ``minibatch`` set, each
    iteration scores a uniformly drawn (without replacement, sorted) batch
    through the N/B-scaled joint.
    """
    n_obs = model.num_observations(data)
    if config.minibatch is not None and config.minibatch > n_obs:
        raise ConfigurationError(
            f"minibatch {config.minibatch} exceeds {n_obs} observations")
    params = _initial_params(model.dim, config)
    trace = ElboTrace()
    opt_mu = OptState(model.dim, config.window)
    opt_omega = OptState(model.dim, config.window)
    work_elements = 0
    last_elbo = None
    wall_start = time.perf_counter()
    for i in range(config.max_iterations):
        batch = None
        if config.minibatch is not None:
            gen = substream(config.seed, STREAM_BATCH, i)
            chosen = gen.choice(n_obs, size=config.minibatch, replace=False)
            batch = np.sort(chosen)
        try:
            # a wild draw may overflow: it is redrawn, not reported as a
            # warning
            with np.errstate(all="ignore"):
                g_mu, g_omega, elements, redraws = _counted_gradients(
                    model, data, params, config.grad_samples, config.seed,
                    (STREAM_GRAD, i), batch)
            work_elements += elements
            trace.gradient_redraws += redraws
            rho_mu = adagrad_step(opt_mu, g_mu, config)
            rho_omega = adagrad_step(opt_omega, g_omega, config)
            mu = params.mu + rho_mu * g_mu
            omega = params.omega + rho_omega * g_omega
            clipped = np.clip(omega, -_OMEGA_BOUND, _OMEGA_BOUND)
            trace.clamp_events += int(np.sum(clipped != omega))
            params = VariationalParams(mu, clipped)
            if (i + 1) % config.eval_interval == 0:
                elbo, dropped = _elbo_and_drops(
                    model, data, params, config.elbo_samples,
                    substream(config.seed, STREAM_ELBO, i))
                trace.elbo_draws_dropped += dropped
                trace.append(i + 1, work_elements / _ELEMENTS_PER_MS, elbo)
                if last_elbo is not None:
                    rel = abs(elbo - last_elbo) / max(abs(last_elbo), 1e-12)
                    if rel < config.threshold:
                        break
                last_elbo = elbo
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
    gen = np.random.default_rng(rng)
    zeta = inverse_standardize(params, gen.standard_normal((size, params.dim)))
    # one array expression over all draws: a row of zeta per draw
    with np.errstate(all="ignore"):
        values, _ = constrain_blocks(model, zeta)
    out = {b.name: np.asarray(values[b.name]) for b in model.blocks}
    return PosteriorDraws(samples=out, size=size)
