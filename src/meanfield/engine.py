"""Stochastic optimizer for the mean-field Gaussian approximation.

The approximation lives in the unconstrained space: q(zeta) = N(mu,
diag(exp(2*omega))). Each iteration draws standard-Gaussian samples,
inverts the standardization zeta = exp(omega)*eta + mu, differentiates the
transformed log joint on a fresh tape, and takes an adaptive-stepsize
ascent step; the stepsize uses the summed squared gradients of a sliding
window (finite-memory variant of the accumulate-everything schedule).

Randomness is derived from a single seed through named substreams
(`SeedSequence(seed, spawn_key=(kind, iteration[, sample]))`), so gradient
samples could be evaluated in parallel without changing results, and reruns
with one seed are bit-identical.

The trace's elapsed_ms column is a deterministic work clock: cumulative
array elements produced by the gradient tapes (the sizes of every tape
node's value), at a nominal 1000 elements per millisecond. A tape node is
one array operation, so a node count would not measure compute; the
elements do, and they depend only on the model, the data sizes and the
draws. Real wall-clock duration is reported separately (and recorded in run
manifests) so output files stay byte-reproducible.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DomainError, EvaluationFailure, \
    ShapeError
from .model import Dataset, ModelDefinition, constrain_blocks, \
    log_joint_unconstrained, minibatch_log_joint
from .transforms import BlockSpec

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


@dataclass(frozen=True)
class FitConfig:
    grad_samples: int = 1
    elbo_samples: int = 100
    step_scale: float = 0.1
    step_offset: float = 1.0
    window: int = 10
    threshold: float = 0.01
    eval_interval: int = 100
    max_iterations: int = 1000
    seed: int = 0
    minibatch: int | None = None
    init: str = "zero"  # "zero" or "gaussian"

    def __post_init__(self):
        if self.grad_samples < 1:
            raise ConfigurationError("grad_samples must be >= 1")
        if self.elbo_samples < 1:
            raise ConfigurationError("elbo_samples must be >= 1")
        if not self.step_scale > 0.0:  # written so that NaN fails
            raise ConfigurationError(
                f"step_scale must be > 0, got {self.step_scale}")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if not self.threshold > 0.0:
            raise ConfigurationError(
                f"threshold must be > 0, got {self.threshold}")
        if self.eval_interval < 1:
            raise ConfigurationError("eval_interval must be >= 1")
        if self.max_iterations < 0:
            raise ConfigurationError("max_iterations must be >= 0")
        if self.seed < 0:  # SeedSequence takes no negative entropy
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.minibatch is not None and self.minibatch < 1:
            raise ConfigurationError("minibatch must be >= 1")
        if self.init not in ("zero", "gaussian"):
            raise ConfigurationError(
                f"init must be 'zero' or 'gaussian', got {self.init!r}")


@dataclass
class OptState:
    """Sliding window of squared gradients for the adaptive stepsize.

    The window sum is recomputed oldest-first on every step (no running-sum
    drift), so it equals the brute-force sum of the last
    min(steps, window) squared gradients exactly. No RNG state lives here:
    streams are pure functions of (seed, stream kind, iteration), so the
    window is the whole of it.
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

    blocks: tuple[BlockSpec, ...]
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
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    gen = np.random.default_rng(rng)
    values = []
    # a wild draw may overflow: it is dropped, not reported as a warning
    with np.errstate(all="ignore"):
        # one (S, dim) draw holds the same numbers as S draws of dim
        zetas = inverse_standardize(
            params, gen.standard_normal((n_samples, params.dim)))
        for zeta in zetas:
            try:
                v = log_joint_unconstrained(model, data, zeta)
            except DomainError:
                continue
            if math.isfinite(v):
                values.append(v)
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
    evaluated one at a time, each as one array expression over the data.
    Draws whose evaluation is non-finite or out of domain are dropped (fit
    counts them in ``ElboTrace.elbo_draws_dropped``); if every draw fails,
    raises :class:`EvaluationFailure`.
    """
    return _elbo_and_drops(model, data, params, n_samples, rng)[0]


def _gradient_sample(model, data, zeta, batch):
    """One tape evaluation: (gradient w.r.t. zeta, or None when the joint
    is non-finite or out of domain; array elements the tape produced)."""
    g = ad.Graph()
    z = g.leaf(zeta)
    try:
        if batch is None:
            out = log_joint_unconstrained(model, data, z)
        else:
            out = minibatch_log_joint(model, data, batch, z)
    except DomainError:
        return None, g.elements()
    if not math.isfinite(out.val):
        return None, g.elements()
    grad = g.adjoints(out)[z.i]
    return (np.zeros(len(zeta)) if grad is None else grad), g.elements()


def _counted_gradients(model, data, params, m, rng, batch):
    """Gradient estimate plus the tape elements that produced it and the
    number of draws redrawn."""
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    if not isinstance(rng, np.random.SeedSequence):
        rng = np.random.SeedSequence(int(rng))
    # children derived by key, not by SeedSequence.spawn(): spawn mutates
    # its counter, and this estimator must be a pure function of its inputs
    children = [np.random.SeedSequence(entropy=rng.entropy,
                                       spawn_key=tuple(rng.spawn_key) + (i,))
                for i in range(m)]
    sigma = np.exp(params.omega)
    g_mu = np.zeros(params.dim)
    g_omega = np.zeros(params.dim)
    elements = 0
    redraws = 0
    for child in children:
        gen = np.random.Generator(np.random.PCG64(child))
        for attempt in range(1 + _MAX_REDRAWS):
            eta = gen.standard_normal(params.dim)
            # inverse_standardize, with sigma = exp(omega) computed once and
            # reused by the chain factor below
            zeta = sigma * eta + params.mu
            d_zeta, n = _gradient_sample(model, data, zeta, batch)
            elements += n
            if d_zeta is not None:
                break
        else:
            raise EvaluationFailure(
                f"gradient sample stayed non-finite after {_MAX_REDRAWS} "
                "redraws")
        redraws += attempt
        g_mu += d_zeta
        g_omega += d_zeta * eta * sigma
    g_mu /= m
    g_omega /= m
    g_omega += 1.0
    return g_mu, g_omega, elements, redraws


def estimate_gradients(model: ModelDefinition, data: Dataset,
                       params: VariationalParams, m: int, rng,
                       batch: Sequence[int] | None = None):
    """Monte Carlo gradients of the objective w.r.t. (mu, omega).

    Per standardized draw eta, the gradient of the transformed log joint
    w.r.t. zeta comes from one reverse sweep; the mu gradient is its MC
    mean and the omega gradient additionally carries the eta*exp(omega)
    chain factor plus the entropy term's constant 1. ``rng`` is an integer
    seed or a SeedSequence; each of the ``m`` samples uses its own child
    substream, so samples could be evaluated in parallel without changing
    the result. A draw whose evaluation is non-finite is redrawn up to 10
    times before the whole estimate fails (fit counts the redraws in
    ``ElboTrace.gradient_redraws``).
    """
    g_mu, g_omega, _, _ = _counted_gradients(model, data, params, m, rng,
                                             batch)
    return g_mu, g_omega


def adagrad_step(state: OptState, grad: np.ndarray,
                 config: FitConfig) -> np.ndarray:
    """Per-coordinate stepsizes step_scale / (step_offset + sqrt(s)), where
    s sums the squared gradients of the last ``window`` steps."""
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
                    model, data, params, config.grad_samples,
                    np.random.SeedSequence(config.seed,
                                           spawn_key=(STREAM_GRAD, i)),
                    batch)
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
    if size < 1:
        raise ConfigurationError("size must be >= 1")
    if params.dim != model.dim:
        raise ShapeError(
            f"params have dim {params.dim}, model needs {model.dim}")
    gen = np.random.default_rng(rng)
    zeta = inverse_standardize(params, gen.standard_normal((size, params.dim)))
    # one array expression over all draws: a row of zeta per draw
    with np.errstate(all="ignore"):
        values, _ = constrain_blocks(model, zeta)
    out = {b.name: np.asarray(values[b.name]) for b in model.blocks}
    return PosteriorDraws(blocks=model.blocks, samples=out, size=size)
