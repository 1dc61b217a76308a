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
