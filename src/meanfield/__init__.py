"""Mean-field Gaussian variational inference on transformed spaces.

Constrained latent variables are mapped to unconstrained coordinates by a
transform library (with Jacobian corrections), a factorized Gaussian is fit
by stochastic gradient ascent on Monte Carlo objective estimates, and
fitted posteriors are sampled back in the constrained space and scored on
held-out data. Gradients come from a reverse-mode tape whose nodes are
array operations, so any model written as an array expression with the
bundled densities is differentiable end to end.
"""

from . import autodiff, densities, transforms
from .engine import (
    ElboTrace,
    FitConfig,
    OptState,
    PosteriorDraws,
    VariationalParams,
    adagrad_step,
    draw_posterior,
    estimate_elbo,
    estimate_gradients,
    fit,
    inverse_standardize,
    substream,
)
from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationFailure,
    MeanfieldError,
    ShapeError,
)
from .evaluate import EvalReport, heldout_log_predictive
from .io import RunManifest, load_dataset, write_outputs
from .model import (
    Dataset,
    ModelDefinition,
    log_joint_unconstrained,
    minibatch_log_joint,
)
from .transforms import (
    BlockSpec,
    Identity,
    Interval,
    LowerBound,
    Ordered,
    PositiveOrdered,
    Simplex,
    UpperBound,
    constrain,
    unconstrain,
    unconstrained_dim,
)
from .zoo import ZOO_NAMES, make_model, model_for_data

__version__ = "0.1.0"
