import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfield import autodiff as ad
from meanfield import transforms as tr
from meanfield.engine import VariationalParams, draw_posterior
from meanfield.errors import DomainError, ShapeError
from meanfield.io import write_samples_csv
from meanfield.model import ModelDefinition, constrain_blocks
from util import central_diff, numeric_jacobian

ALL_KINDS = [
    tr.Identity(3),
    tr.LowerBound(0.0, 3),
    tr.LowerBound(-2.5, 2),
    tr.UpperBound(4.0, 3),
    tr.Interval(0.0, 1.0, 2),
    tr.Interval(-3.0, 7.0, 3),
    tr.Simplex(3),
    tr.Simplex(5),
    tr.Ordered(3),
    tr.PositiveOrdered(4),
]


def test_unconstrained_dims():
    assert tr.unconstrained_dim(tr.Simplex(3)) == 2
    assert tr.unconstrained_dim(tr.LowerBound(0.0, 4)) == 4
    assert tr.unconstrained_dim(tr.PositiveOrdered(2)) == 2
    assert tr.unconstrained_dim(tr.Identity(7)) == 7
    assert tr.unconstrained_dim(tr.Ordered(5)) == 5


def test_kind_validation():
    with pytest.raises(ValueError):
        tr.Interval(2.0, 2.0)
    with pytest.raises(ValueError):
        tr.Simplex(1)
    with pytest.raises(ValueError):
        tr.Ordered(1)
    with pytest.raises(ValueError):
        tr.Identity(0)
    # a bound that is not finite and a count that is not an integer are
    # rejected when the kind is built, not when its draws come out NaN
    for build, words in (
            (lambda: tr.LowerBound(math.nan), "LowerBound: bound"),
            (lambda: tr.UpperBound(math.inf), "UpperBound: bound"),
            (lambda: tr.Interval(0.0, math.inf), "Interval: upper"),
            (lambda: tr.LowerBound(0.0, 2.5), "LowerBound: dim"),
            (lambda: tr.Identity(2.0), "Identity: dim"),
            (lambda: tr.Identity(True), "Identity: dim"),
            (lambda: tr.Simplex(2.5), "Simplex: size")):
        with pytest.raises(ValueError, match=words):
            build()


@pytest.mark.parametrize("kind", ["x", SimpleNamespace(dim=1)],
                         ids=["string", "has_dim"])
def test_non_kind_rejected(kind):
    for call in (lambda: tr.constrain(kind, [0.0]),
                 lambda: tr.check_value(kind, [0.0]),
                 lambda: tr.unconstrain(kind, [0.0]),
                 lambda: tr.unconstrained_dim(kind)):
        with pytest.raises(TypeError, match="unknown transform kind"):
            call()


def test_lower_bound_at_zero():
    theta, log_det = tr.constrain(tr.LowerBound(0.0), [0.0])
    assert theta == [1.0] and log_det == 0.0


def test_interval_midpoint():
    theta, log_det = tr.constrain(tr.Interval(0.0, 1.0), [0.0])
    assert theta == [0.5]
    assert log_det == pytest.approx(2.0 * math.log(0.5), abs=1e-12)


def test_simplex_centered_at_zero():
    theta, _ = tr.constrain(tr.Simplex(3), [0.0, 0.0])
    assert theta == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)


def test_positive_ordered_at_zero():
    theta, log_det = tr.constrain(tr.PositiveOrdered(2), [0.0, 0.0])
    assert theta.tolist() == [1.0, 2.0] and log_det == 0.0


def test_unconstrain_examples():
    assert tr.unconstrain(tr.LowerBound(0.0), [math.e]) == \
        pytest.approx([1.0], abs=1e-15)
    assert tr.unconstrain(tr.Simplex(3), [1 / 3, 1 / 3, 1 / 3]) == \
        pytest.approx([0.0, 0.0], abs=1e-15)
    assert tr.unconstrain(tr.Ordered(2), [0.0, 1.0]) == [0.0, 0.0]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_round_trip(kind):
    rng = np.random.default_rng(42)
    n = tr.unconstrained_dim(kind)
    for _ in range(100):
        zeta = list(rng.normal(0.0, 2.0, n))
        theta, _ = tr.constrain(kind, zeta)
        back = tr.unconstrain(kind, theta)
        assert np.allclose(back, zeta, atol=1e-10, rtol=0.0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_constraint_predicates_hold(kind):
    rng = np.random.default_rng(3)
    n = tr.unconstrained_dim(kind)
    for _ in range(1000):
        zeta = list(rng.normal(0.0, 2.5, n))
        theta, _ = tr.constrain(kind, zeta)
        if isinstance(kind, tr.LowerBound):
            assert all(x > kind.bound for x in theta)
        elif isinstance(kind, tr.UpperBound):
            assert all(x < kind.bound for x in theta)
        elif isinstance(kind, tr.Interval):
            assert all(kind.lower < x < kind.upper for x in theta)
        elif isinstance(kind, tr.Simplex):
            assert all(x >= 0.0 for x in theta)
            assert abs(math.fsum(theta) - 1.0) <= 1e-12
        elif isinstance(kind, tr.Ordered):
            assert all(b > a for a, b in zip(theta, theta[1:]))
        elif isinstance(kind, tr.PositiveOrdered):
            assert theta[0] > 0.0
            assert all(b > a for a, b in zip(theta, theta[1:]))


def _free_constrained(kind, zeta):
    """Constrained coordinates with the same dimension as zeta (drops the
    redundant last simplex component)."""
    theta, _ = tr.constrain(kind, zeta)
    if isinstance(kind, tr.Simplex):
        return theta[:-1]
    return theta


@pytest.mark.parametrize("kind", [
    tr.Identity(2),
    tr.LowerBound(0.0, 3),
    tr.UpperBound(2.0, 2),
    tr.Interval(-1.0, 5.0, 3),
    tr.Simplex(3),
    tr.Simplex(5),
    tr.Ordered(4),
    tr.PositiveOrdered(5),
], ids=str)
def test_log_det_matches_numeric_jacobian(kind):
    rng = np.random.default_rng(10)
    n = tr.unconstrained_dim(kind)
    for _ in range(25):
        zeta = list(rng.normal(0.0, 1.5, n))
        _, log_det = tr.constrain(kind, zeta)
        jac = numeric_jacobian(lambda z: _free_constrained(kind, z), zeta,
                               h=1e-6)
        sign, logabs = np.linalg.slogdet(jac)
        assert sign != 0
        assert abs(log_det - logabs) <= 1e-5 * max(1.0, abs(logabs))


@pytest.mark.parametrize("kind", [
    tr.LowerBound(1.0, 3),
    tr.UpperBound(2.0, 2),
    tr.Interval(-1.0, 5.0, 3),
    tr.Simplex(4),
    tr.Ordered(4),
    tr.PositiveOrdered(3),
], ids=str)
def test_log_det_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(9)
    n = tr.unconstrained_dim(kind)

    def log_det_at(z):
        return tr.constrain(kind, z)[1]

    for _ in range(10):
        zeta = list(rng.normal(0.0, 1.5, n))
        g = ad.Graph()
        leaves = [g.leaf(z) for z in zeta]
        _, log_det = tr.constrain(kind, leaves)
        grads = ad.gradient(log_det, leaves)
        fd = central_diff(log_det_at, zeta, h=1e-5)
        for gv, fv in zip(grads, fd):
            assert abs(gv - fv) <= 1e-6 * max(1.0, abs(fv))


def test_constrain_values_identical_on_tape_and_floats():
    rng = np.random.default_rng(2)
    for kind in ALL_KINDS:
        zeta = list(rng.normal(0.0, 1.5, tr.unconstrained_dim(kind)))
        plain, ld_plain = tr.constrain(kind, zeta)
        g = ad.Graph()
        taped, ld_taped = tr.constrain(kind, [g.leaf(z) for z in zeta])
        taped_vals = [t.val if type(t) is ad.Var else t for t in taped]
        assert taped_vals == pytest.approx(plain, rel=1e-15)
        ld_taped_val = ld_taped.val if type(ld_taped) is ad.Var else ld_taped
        assert ld_taped_val == pytest.approx(ld_plain, rel=1e-12, abs=1e-12)


def test_boundary_values_rejected():
    with pytest.raises(DomainError):
        tr.unconstrain(tr.LowerBound(0.0), [0.0])
    with pytest.raises(DomainError):
        tr.unconstrain(tr.Interval(0.0, 1.0), [1.0])
    with pytest.raises(DomainError):
        tr.unconstrain(tr.Simplex(3), [0.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        tr.unconstrain(tr.Simplex(3), [0.4, 0.4, 0.4])
    with pytest.raises(DomainError):
        tr.unconstrain(tr.Ordered(2), [1.0, 1.0])
    with pytest.raises(DomainError):
        tr.unconstrain(tr.PositiveOrdered(2), [-1.0, 2.0])


# The scalar code that check_value and unconstrain replaced, one value at a
# time with math.log and math.fsum, kept as an oracle for the array
# expressions.

def _scalar_inside(kind, theta):
    if not all(math.isfinite(x) for x in theta):
        return False
    if isinstance(kind, tr.Identity):
        return True
    if isinstance(kind, tr.LowerBound):
        return all(x > kind.bound for x in theta)
    if isinstance(kind, tr.UpperBound):
        return all(x < kind.bound for x in theta)
    if isinstance(kind, tr.Interval):
        return all(kind.lower < x < kind.upper for x in theta)
    if isinstance(kind, tr.Simplex):
        return (abs(math.fsum(theta) - 1.0) <= 1e-8
                and all(x > 0.0 for x in theta))
    increasing = all(hi > lo for lo, hi in zip(theta, theta[1:]))
    if isinstance(kind, tr.Ordered):
        return increasing
    return theta[0] > 0.0 and increasing


def _scalar_unconstrain(kind, theta):
    if isinstance(kind, tr.Identity):
        return [float(x) for x in theta]
    if isinstance(kind, tr.LowerBound):
        return [math.log(x - kind.bound) for x in theta]
    if isinstance(kind, tr.UpperBound):
        return [math.log(kind.bound - x) for x in theta]
    if isinstance(kind, tr.Interval):
        return [math.log(x - kind.lower) - math.log(kind.upper - x)
                for x in theta]
    if isinstance(kind, tr.Simplex):
        k = kind.size
        rest = [0.0] * k
        for i in range(k - 2, -1, -1):
            rest[i] = rest[i + 1] + theta[i + 1]
        return [math.log(theta[i]) - math.log(rest[i])
                + math.log(float(k - 1 - i)) for i in range(k - 1)]
    first = [float(theta[0])] if isinstance(kind, tr.Ordered) \
        else [math.log(theta[0])]
    return first + [math.log(hi - lo) for lo, hi in zip(theta, theta[1:])]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_unconstrain_matches_scalar_formulas_on_stacked_rows(kind):
    rng = np.random.default_rng(12)
    zeta = rng.normal(0.0, 2.0, (7, tr.unconstrained_dim(kind)))
    theta, _ = tr.constrain(kind, zeta)
    expected = [z for row in theta.tolist()
                for z in _scalar_unconstrain(kind, row)]
    got = tr.unconstrain(kind, theta)
    assert isinstance(got, list)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_check_value_on_stacked_rows_raises_iff_a_row_is_outside(kind):
    rng = np.random.default_rng(13)
    n = tr.unconstrained_dim(kind)
    outcomes = set()
    for _ in range(200):
        theta, _ = tr.constrain(kind, rng.normal(0.0, 2.0, (5, n)))
        theta = theta.copy()
        # overwrite a few components with boundary, outside, tied or
        # non-finite values
        for _ in range(int(rng.integers(0, 3))):
            r, j = rng.integers(0, 5), rng.integers(0, theta.shape[1])
            theta[r, j] = rng.choice(
                [0.0, -1.0, 1.0, 4.0, 7.0, -3.0, math.nan, math.inf,
                 theta[r, j - 1], theta[r, j]])
        outside = not all(_scalar_inside(kind, row)
                          for row in theta.tolist())
        try:
            tr.check_value(kind, theta)
            raised = False
        except DomainError:
            raised = True
        assert raised == outside
        outcomes.add(raised)
    assert outcomes == {False, True}


@pytest.mark.parametrize("kind,theta", [
    (tr.Identity(2), [math.nan, math.inf]),
    (tr.LowerBound(0.0), [math.inf]),
    (tr.UpperBound(0.0), [-math.inf]),
    (tr.Ordered(3), [-math.inf, 0.0, 1.0]),
    (tr.PositiveOrdered(3), [1.0, 2.0, math.inf]),
], ids=str)
def test_check_value_rejects_non_finite(kind, theta):
    with pytest.raises(DomainError, match="not finite"):
        tr.check_value(kind, theta)
    with pytest.raises(DomainError, match="not finite"):
        tr.unconstrain(kind, theta)


def test_check_value_names_kind_and_first_offending_value():
    rows = [[1.0, 2.0], [3.0, -4.0], [-5.0, 1.0]]
    with pytest.raises(DomainError, match=r"LowerBound.*value -4\.0 "):
        tr.check_value(tr.LowerBound(0.0, 2), rows)
    with pytest.raises(DomainError, match=r"^Ordered.*component -4\.0 "):
        tr.check_value(tr.Ordered(2), rows)
    with pytest.raises(DomainError,
                       match=r"PositiveOrdered.*first component -5\.0 "):
        tr.check_value(tr.PositiveOrdered(2), rows)


def test_shape_errors():
    with pytest.raises(ShapeError):
        tr.constrain(tr.Simplex(3), [0.0, 0.0, 0.0])
    with pytest.raises(ShapeError):
        tr.unconstrain(tr.LowerBound(0.0, 2), [1.0])


def test_a_bare_scalar_is_one_component_of_a_one_dim_kind_only():
    tr.check_value(tr.LowerBound(0.0), 2.0)
    assert tr.unconstrain(tr.LowerBound(0.0), np.array(math.e)) == [1.0]
    assert tr.unconstrain(tr.Interval(0.0, 2.0), np.float64(1.0)) == [0.0]
    for kind in (tr.LowerBound(0.0, 2), tr.Simplex(2), tr.Ordered(2)):
        with pytest.raises(ShapeError, match="got None"):
            tr.check_value(kind, 0.5)
        with pytest.raises(ShapeError, match="got None"):
            tr.unconstrain(kind, np.array(0.5))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-8, 8), min_size=2, max_size=4))
def test_simplex_round_trip_property(zeta):
    kind = tr.Simplex(len(zeta) + 1)
    theta, _ = tr.constrain(kind, zeta)
    assert abs(math.fsum(theta) - 1.0) <= 1e-12
    back = tr.unconstrain(kind, theta)
    assert np.allclose(back, zeta, atol=1e-8)


def test_simplex_saturated_stick_stays_inside():
    # the remaining stick used to round to 0 here, and log(0) raised
    kind = tr.Simplex(4)
    theta, log_det = tr.constrain(kind, [40.0, 0.0, 0.0])
    assert math.isfinite(log_det)
    tr.check_value(kind, theta)
    g = ad.Graph()
    leaves = [g.leaf(z) for z in (40.0, 0.0, 0.0)]
    _, log_det = tr.constrain(kind, leaves)
    assert all(math.isfinite(v) for v in ad.gradient(log_det, leaves))


def _composed_simplex(zeta, draws):
    """The stick-breaking map of a float array, written out in numpy."""
    size = zeta.shape[-1] + 1
    t = zeta - np.log(np.arange(size - 1, 0, -1, dtype=float))
    sp = np.logaddexp(0.0, t)
    c = np.cumsum(sp, axis=-1)
    log_head = t - c
    theta = np.exp(np.concatenate([log_head, -c[..., -1:]], axis=-1))
    axes = tuple(range(draws, zeta.ndim)) if draws else None
    return theta, np.add.reduce(log_head - sp, axis=axes)


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4), (2, 3, 9),
                                   (2, 300, 4)], ids=str)
def test_simplex_value_and_log_det_keep_the_composed_bits(shape):
    # float path and tape alike: the tape's value is the float path's
    rng = np.random.default_rng(len(shape))
    zeta = rng.normal(0.0, 3.0, shape)
    kind = tr.Simplex(shape[-1] + 1)
    for draws in range(len(shape)):
        expected = _composed_simplex(zeta, draws)
        got = tr.constrain(kind, zeta, draws)
        taped = tr.constrain(kind, ad.Graph().leaf(zeta), draws)
        for e, f, t in zip(expected, got, taped):
            assert np.asarray(f).tobytes() == np.asarray(e).tobytes()
            assert np.asarray(t.val).tobytes() == np.asarray(e).tobytes()


@pytest.mark.parametrize("rows", [255, 256, 600])
@pytest.mark.parametrize("size", [2, 4, 8, 9])
def test_simplex_stick_sums_by_slices_keep_numpys_bits(size, rows):
    # on both sides of the 256-row floor of autodiff's short-axis sums by
    # slices, the value, the log-det and the inverse keep the bytes of the
    # map and its inverse written out in numpy, and the gradient and the
    # inverse those of one row at a time (no operation mixes rows). At
    # size 9 and 255 rows (seed 264), np.log of a reversed 1-D view rounds
    # 4 of the 2,040 inverse entries otherwise than the same rows in 2-D,
    # so unconstrain takes the log of a contiguous copy.
    rng = np.random.default_rng(rows + size)
    zeta = rng.normal(0.0, 2.0, (rows, size - 1))
    w = rng.normal(0.0, 1.0, (rows, size))
    kind = tr.Simplex(size)

    def stick_outputs(z, weights):
        leaf = ad.Graph().leaf(z)
        theta, log_det = tr.constrain(kind, leaf)
        (grad,) = ad.gradient(ad.sum(weights * theta) + log_det, [leaf])
        return theta.val, log_det.val, grad

    theta, log_det, grad = stick_outputs(zeta, w)
    want_theta, want_log_det = _composed_simplex(zeta, 0)
    assert theta.tobytes() == want_theta.tobytes()
    assert np.asarray(log_det).tobytes() == \
        np.asarray(want_log_det).tobytes()
    by_row = np.stack([stick_outputs(z, u)[2] for z, u in zip(zeta, w)])
    assert grad.tobytes() == by_row.tobytes()
    rest = np.cumsum(theta[..., :0:-1], axis=-1)[..., ::-1]
    want_back = (np.log(theta[..., :-1]) - np.log(rest)
                 + np.log(np.arange(size - 1, 0, -1, dtype=float)))
    back = np.array(tr.unconstrain(kind, theta))
    assert back.tobytes() == want_back.tobytes()
    back_by_row = np.array([tr.unconstrain(kind, t) for t in theta])
    assert back.tobytes() == back_by_row.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 40, 300])
@pytest.mark.parametrize("size", [2, 3, 8, 9, 12])
def test_ordered_log_det_keeps_numpys_bits_on_its_view(size, rows):
    # Ordered's log-det sums the view zeta[..., 1:], which is not
    # C-contiguous, over a block's rows and entries: on 0, 1 and 2 draw
    # axes, float path and tape, the bytes of numpy's own reduction of it
    rng = np.random.default_rng(rows * size)
    kind = tr.Ordered(size)
    for lead in [(), (4,), (2, 3)]:
        zeta = rng.normal(0.0, 1.0, lead + (rows, size)) * 10.0 ** \
            rng.integers(-12, 2, lead + (rows, size))
        axes = tuple(range(len(lead), zeta.ndim)) if lead else None
        want = np.add.reduce(zeta[..., 1:], axis=axes)
        _, log_det = tr.constrain(kind, zeta, len(lead))
        _, taped = tr.constrain(kind, ad.Graph().leaf(zeta), len(lead))
        for got in (log_det, taped.val):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("saturated", [False, True],
                         ids=["moderate", "saturated"])
@pytest.mark.parametrize("size", [2, 3, 10])
def test_simplex_partials_match_central_differences(size, saturated):
    # one leaf of (draws, rows, K-1) coordinates with one draw axis. At
    # zeta = +-30 a piece holds nearly all of its stick or nearly none,
    # so theta is weighted through its log, whose partials stay O(1)
    rng = np.random.default_rng(size)
    shape = (2, 3, size - 1)
    zeta = (rng.choice([-30.0, 30.0], shape) if saturated
            else rng.normal(0.0, 1.5, shape))
    w = rng.normal(0.0, 1.0, (2, 3, size))
    u = rng.normal(0.0, 1.0, 2)
    kind = tr.Simplex(size)

    def objective(theta, log_det):
        weighted = ad.log(theta) if saturated else theta
        return (ad.sum(w * weighted), ad.sum(u * log_det))

    for pick in range(2):  # theta, then the log-det
        g = ad.Graph()
        leaf = g.leaf(zeta)
        out = objective(*tr.constrain(kind, leaf, 1))[pick]
        (grad,) = ad.gradient(out, [leaf])
        fd = central_diff(
            lambda z: objective(*tr.constrain(
                kind, np.reshape(z, shape), 1))[pick],
            zeta.ravel(), h=1e-5)
        assert np.isfinite(grad).all()
        for gv, fv in zip(grad.ravel(), fd):
            assert abs(gv - fv) <= 1e-6 * max(1.0, abs(fv)), (pick, gv, fv)


def test_stick_offsets_are_the_logs_of_the_remaining_pieces():
    offsets = tr._stick_offsets(5)
    assert offsets.tolist() == np.log([4.0, 3.0, 2.0, 1.0]).tolist()


def test_simplex_is_two_tape_nodes():
    g = ad.Graph()
    leaf = g.leaf(np.zeros((2, 3, 4)))
    theta, log_det = tr.constrain(tr.Simplex(5), leaf, 1)
    assert (len(g), theta.i, log_det.i) == (3, 1, 2)


@pytest.mark.parametrize("k", [3, 4, 10])
def test_simplex_inside_support_for_wide_draws(k):
    kind = tr.Simplex(k)
    rng = np.random.default_rng(k)
    for _ in range(500):
        theta, log_det = tr.constrain(kind, list(rng.uniform(-40, 40, k - 1)))
        assert math.isfinite(log_det)
        tr.check_value(kind, theta)


def _one_block_model(block):
    return ModelDefinition(name="one_block", blocks=(block,),
                           log_prior=lambda v, data: 0.0,
                           loglik_term=lambda v, data, idx: 0.0,
                           num_observations=lambda data: 0)


def _layout(block, zeta):
    """The value and log-det ``constrain_blocks`` gives ``block`` as the
    only block of a model."""
    values, log_det = constrain_blocks(_one_block_model(block), zeta)
    return values[block.name], log_det


def _header(block, tmp_path):
    """The samples-CSV columns of ``block`` as the only block of a model."""
    model = _one_block_model(block)
    params = VariationalParams(np.zeros(model.dim), np.zeros(model.dim))
    path = tmp_path / "s.csv"
    write_samples_csv(draw_posterior(model, params, 2, 0), path)
    return path.read_text().splitlines()[0].split(",")


class TestBlockSpec:
    def test_scalar_layout(self, tmp_path):
        b = tr.BlockSpec("lam", tr.LowerBound(0.0), scalar=True)
        assert b.unconstrained_size == 1
        assert _header(b, tmp_path) == ["lam.1"]
        value, log_det = _layout(b, [0.0])
        assert value.shape == () and value == 1.0 and log_det == 0.0
        assert tr.unconstrain(b.kind, [value]) == [0.0]

    def test_vector_layout(self, tmp_path):
        b = tr.BlockSpec("theta", tr.Simplex(3))
        assert b.unconstrained_size == 2
        assert _header(b, tmp_path) == ["theta.1", "theta.2", "theta.3"]

    def test_row_layout(self, tmp_path):
        b = tr.BlockSpec("mu", tr.Identity(2), rows=3)
        assert b.unconstrained_size == 6
        assert _header(b, tmp_path) == [
            "mu.1.1", "mu.1.2", "mu.2.1", "mu.2.2", "mu.3.1", "mu.3.2"]
        value, log_det = _layout(b, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert value.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert log_det is None  # Identity has no Jacobian term
        assert tr.unconstrain(b.kind, value) == [1.0, 2.0, 3.0, 4.0, 5.0,
                                                 6.0]

    def test_row_round_trip_with_transform(self):
        b = tr.BlockSpec("theta", tr.Simplex(3), rows=2)
        rng = np.random.default_rng(0)
        zeta = list(rng.normal(0, 1, b.unconstrained_size))
        value, _ = _layout(b, zeta)
        assert value.shape == (2, 3)
        assert np.allclose(tr.unconstrain(b.kind, value), zeta, atol=1e-10)

    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            tr.BlockSpec("x", tr.Identity(2), scalar=True)
        with pytest.raises(ValueError):
            tr.BlockSpec("x", tr.Identity(1), rows=2, scalar=True)
        with pytest.raises(ValueError):
            tr.BlockSpec("x", tr.Identity(1), rows=0)
        for rows in (1.5, True):
            with pytest.raises(ValueError, match="block x: rows"):
                tr.BlockSpec("x", tr.Identity(1), rows=rows)
