import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddfe import nn

# Values where float formulas tend to part ways: signed zeros, NaN, infinities,
# subnormals, and the edges of exp's range.
_SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             2.2250738585072014e-308, 709.8, -745.2]


def _floats(shape):
    return hnp.arrays(np.float64, shape,
                      elements=st.one_of(st.floats(), st.sampled_from(_SPECIALS)))


def scalarize(y: nn.Tensor, coeffs: np.ndarray) -> nn.Tensor:
    """Random linear functional so any layer output becomes a scalar loss."""
    return nn.tensor_sum(nn.multiply(y, nn.Tensor(coeffs)))


# --- linear -----------------------------------------------------------------


def test_linear_identity():
    x = nn.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    y = nn.linear(x, np.eye(4), np.zeros(4))
    assert np.array_equal(y.data, x.data)


def test_linear_dot_product():
    y = nn.linear(np.array([[1.0, 2.0]]), np.array([[1.0], [1.0]]), np.array([0.0]))
    assert y.data.tolist() == [[3.0]]


def test_linear_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        nn.linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
    with pytest.raises(ValueError, match="bias"):
        nn.linear(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4))


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    x = nn.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = nn.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = nn.Tensor(rng.normal(size=2), requires_grad=True)
    coeffs = rng.normal(size=(4, 2))
    err = nn.grad_check(lambda: scalarize(nn.linear(x, w, b), coeffs), [x, w, b])
    assert err < 1e-6


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), k=st.integers(1, 5), j=st.integers(1, 5))
def test_linear_is_bitwise_x_at_w_plus_b(data, n, k, j):
    x, w, b = (data.draw(_floats(shape)) for shape in ((n, k), (k, j), (j,)))
    with np.errstate(all="ignore"):
        expected = x @ w + b
        assert nn.linear(x, w, b).data.tobytes() == expected.tobytes()


# --- activations ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(x=_floats(st.tuples(st.integers(0, 6), st.integers(1, 6))), data=st.data())
def test_relu_and_sigmoid_are_bitwise_the_reference_formulas(x, data):
    coeffs = data.draw(hnp.arrays(np.float64, x.shape, elements=st.floats(-4, 4)))
    with np.errstate(all="ignore"):
        sig = 1.0 / (1.0 + np.exp(-x))
        for op, expected, expected_grad in (
            (nn.relu, np.where(x > 0, x, 0.0), coeffs * (x > 0)),
            (nn.sigmoid, sig, coeffs * sig * (1.0 - sig)),
        ):
            xt = nn.Tensor(x.copy(), requires_grad=True)
            y = op(xt)
            assert y.data.tobytes() == expected.tobytes()
            nn.tensor_sum(nn.multiply(y, nn.Tensor(coeffs))).backward()
            assert xt.grad.tobytes() == expected_grad.tobytes()




def test_sigmoid_value_and_derivative_at_zero():
    x = nn.Tensor(np.zeros((1, 1)), requires_grad=True)
    y = nn.tensor_sum(nn.sigmoid(x))
    assert float(y.data) == 0.5
    y.backward()
    assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_softmax_uniform_on_constant_rows():
    y = nn.softmax(np.full((3, 5), 2.7))
    assert np.allclose(y.data, 0.2, atol=1e-15)


def test_softmax_rows_sum_to_one_after_stabilization():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(50, 7)) * 50.0  # would overflow un-stabilized
    y = nn.softmax(logits)
    assert np.max(np.abs(y.data.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("op", [nn.tanh, nn.sigmoid, nn.softmax])
def test_activation_gradients(op):
    rng = np.random.default_rng(3)
    x = nn.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    coeffs = rng.normal(size=(4, 5))
    err = nn.grad_check(lambda: scalarize(op(x), coeffs), [x])
    assert err < 1e-6


def test_relu_gradient_excluding_kink():
    # no input at 0, relu's subgradient point
    x = nn.Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
    coeffs = np.array([[1.0, 1.0]])
    err = nn.grad_check(lambda: scalarize(nn.relu(x), coeffs), [x])
    assert err < 1e-8


def _softmax_reference(x, g):
    """Softmax value and input gradient for upstream g, shifted by the row max."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=1, keepdims=True))


def _wce_reference(logits, labels, weights):
    """Weighted cross-entropy value and logit gradient, shifted by the row max."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(labels.shape[0])
    sample_w = weights[labels]
    total_w = sample_w.sum()
    loss = -(sample_w * log_probs[rows, labels]).sum() / total_w
    d = np.exp(log_probs) * sample_w[:, None]
    d[rows, labels] -= sample_w
    return loss, 1.0 * d / total_w


# signed zeros, single infinities and logits far beyond exp's range
_LOGITS = st.one_of(st.sampled_from([0.0, -0.0, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e300]),
                    st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 12))
def test_softmax_and_wce_are_bitwise_the_row_max_formulas(data, n, k):
    x = data.draw(hnp.arrays(np.float64, (n, k), elements=_LOGITS))
    g = data.draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-4, 4)))
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    weights = data.draw(hnp.arrays(np.float64, k, elements=st.floats(0.1, 10.0)))
    with np.errstate(all="ignore"):
        y_ref, dx_ref = _softmax_reference(x, g)
        loss_ref, dlogits_ref = _wce_reference(x, labels, weights)
        xt = nn.Tensor(x.copy(), requires_grad=True)
        y = nn.softmax(xt)
        nn.tensor_sum(nn.multiply(y, nn.Tensor(g))).backward()
        logits = nn.Tensor(x.copy(), requires_grad=True)
        loss = nn.weighted_cross_entropy(logits, labels, weights)
        loss.backward()
    assert y.data.tobytes() == y_ref.tobytes()
    assert xt.grad.tobytes() == dx_ref.tobytes()
    assert loss.data.tobytes() == loss_ref.tobytes()
    assert logits.grad.tobytes() == dlogits_ref.tobytes()


# --- segment reductions -----------------------------------------------------


def test_segment_mean_single_segment():
    x = np.arange(12.0).reshape(4, 3)
    out = nn.segment_mean(x, np.zeros(4, dtype=int), 1)
    assert np.allclose(out.data, x.mean(axis=0))


def test_segment_reduce_identity_when_one_point_per_segment():
    x = np.arange(12.0).reshape(4, 3)
    seg = np.array([0, 1, 2, 3])
    for mode in ("mean", "max"):
        out = nn.segment_reduce(x, seg, mode, 4)
        assert np.array_equal(out.data, x)


def test_segment_mean_backward_divides_by_count():
    x = nn.Tensor(np.ones((6, 2)), requires_grad=True)
    seg = np.array([0, 0, 0, 1, 1, 1])
    loss = nn.tensor_sum(nn.segment_mean(x, seg, 2))
    loss.backward()
    assert np.allclose(x.grad, 1.0 / 3.0)


def test_segment_max_routes_gradient_to_first_argmax():
    x = nn.Tensor(np.array([[1.0], [5.0], [5.0], [2.0]]), requires_grad=True)
    seg = np.array([0, 0, 0, 0])
    loss = nn.tensor_sum(nn.segment_max(x, seg, 1))
    loss.backward()
    assert np.array_equal(x.grad, [[0.0], [1.0], [0.0], [0.0]])


def _segment_max_reference(x, seg, m):
    """Loop-by-loop maxima and, per segment and channel, the first point
    (in original order) attaining it."""
    out = np.empty((m, x.shape[1]))
    owner = np.empty((m, x.shape[1]), dtype=int)
    for s in range(m):
        members = [i for i in range(x.shape[0]) if seg[i] == s]
        for c in range(x.shape[1]):
            # folded with np.maximum, which keeps the later of two equal zeros
            out[s, c] = functools.reduce(np.maximum, (x[i, c] for i in members))
            owner[s, c] = next(i for i in members if x[i, c] == out[s, c])
    return out, owner


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the palette multiplies +-inf
@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 5), d=st.integers(1, 9))
def test_segment_max_matches_bruteforce_values_and_routing(data, m, d):
    # every segment non-empty, points interleaved across segments
    extra = data.draw(st.lists(st.integers(0, m - 1), max_size=20))
    seg = np.array(data.draw(st.permutations(list(range(m)) + extra)))
    # a small palette forces ties, signed zeros among them
    palette = st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 1.5, 3.0, np.inf])
    x = data.draw(hnp.arrays(np.float64, (seg.size, d),
                             elements=st.one_of(palette, st.floats(-1e3, 1e3))))
    expected, owner = _segment_max_reference(x, seg, m)
    xt = nn.Tensor(x, requires_grad=True)
    y = nn.segment_max(xt, nn.SegmentMap(seg, m))
    assert y.data.tobytes() == expected.tobytes()
    coeffs = np.arange(1.0, m * d + 1).reshape(m, d)  # distinct, so misrouting shows
    coeffs[-1, -1] = -0.0
    nn.tensor_sum(nn.multiply(y, nn.Tensor(coeffs))).backward()
    expected_grad = np.zeros_like(x)
    for s in range(m):
        for c in range(d):
            # a sum of the routed coefficients: 0.0 + -0.0 is +0.0
            expected_grad[owner[s, c], c] = 0.0 + coeffs[s, c]
    assert xt.grad.tobytes() == expected_grad.tobytes()


def test_segment_reduce_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    seg = np.array([0, 1, 0, 2, 1, 0, 2, 2])
    x = nn.Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    coeffs = rng.normal(size=(3, 3))
    for mode in ("mean", "max"):
        err = nn.grad_check(
            lambda: scalarize(nn.segment_reduce(x, seg, mode, 3), coeffs), [x])
        assert err < 1e-6


def test_segment_map_rejects_empty_segment():
    with pytest.raises(ValueError, match="empty segment"):
        nn.SegmentMap(np.array([0, 0, 2]), 3)
    with pytest.raises(ValueError, match="out of range"):
        nn.SegmentMap(np.array([0, 3]), 2)
    with pytest.raises(ValueError, match="unknown reduction"):
        nn.segment_reduce(np.zeros((2, 1)), np.array([0, 1]), "median", 2)


def test_segment_max_backward_names_nan_segment_and_channel():
    x = nn.Tensor(np.array([[1.0, 0.0], [0.0, 3.0], [2.0, np.nan]]), requires_grad=True)
    with np.errstate(invalid="ignore"):
        y = nn.segment_max(x, np.array([0, 0, 1]), 2)
    assert np.isnan(y.data[1, 1])  # the forward pass stays check-free
    with pytest.raises(ValueError, match="NaN feature in segment 1, channel 1"):
        nn.tensor_sum(y).backward()


# --- weighted cross-entropy ---------------------------------------------------


def test_wce_perfect_prediction_is_zero():
    logits = np.eye(3) * 1e6
    loss = nn.weighted_cross_entropy(logits, np.arange(3), np.ones(3))
    assert float(loss.data) < 1e-12


def test_wce_uniform_logits_two_classes_is_ln2():
    logits = np.zeros((10, 2))
    labels = np.array([0, 1] * 5)
    for weights in (np.ones(2), np.array([0.3, 9.0])):
        loss = nn.weighted_cross_entropy(logits, labels, weights)
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-12)


def test_wce_invariant_to_weight_rescaling():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(20, 4))
    labels = rng.integers(0, 4, size=20)
    weights = rng.uniform(0.5, 2.0, size=4)
    a = nn.weighted_cross_entropy(logits, labels, weights)
    b = nn.weighted_cross_entropy(logits, labels, 2.0 * weights)
    assert float(a.data) == pytest.approx(float(b.data), rel=1e-12)


def test_wce_rejects_invalid_label_with_index():
    with pytest.raises(ValueError, match="index 1"):
        nn.weighted_cross_entropy(np.zeros((2, 3)), np.array([0, 7]), np.ones(3))
    with pytest.raises(ValueError):
        nn.weighted_cross_entropy(np.zeros((2, 3)), np.zeros(2, dtype=int), np.zeros(3))


def test_wce_gradient():
    rng = np.random.default_rng(6)
    logits = nn.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    labels = rng.integers(0, 3, size=6)
    weights = rng.uniform(0.5, 3.0, size=3)
    err = nn.grad_check(
        lambda: nn.weighted_cross_entropy(logits, labels, weights), [logits])
    assert err < 1e-6


# --- Lovasz-softmax -----------------------------------------------------------


def jaccard_error(pred_set: frozenset, gt_set: frozenset) -> float:
    """Jaccard error of taking pred_set as the committed-error set."""
    union = gt_set | pred_set
    if not union:
        return 0.0
    return 1.0 - len(gt_set - pred_set) / len(union)


def lovasz_oracle(probs: np.ndarray, labels: np.ndarray) -> float:
    """Brute-force Lovasz extension: cumulative Jaccard deltas over the
    descending-sorted error vector, averaged over classes present."""
    total = 0.0
    present = sorted(set(labels.tolist()))
    for c in present:
        gt = frozenset(np.flatnonzero(labels == c).tolist())
        errors = np.where(labels == c, 1.0 - probs[:, c], probs[:, c])
        order = np.argsort(-errors, kind="stable")
        prev, value = 0.0, 0.0
        prefix: set[int] = set()
        for idx in order:
            prefix.add(int(idx))
            current = jaccard_error(frozenset(prefix), gt)
            value += errors[idx] * (current - prev)
            prev = current
        total += value
    return total / len(present)


def test_lovasz_perfect_prediction_is_exactly_zero():
    labels = np.array([0, 1, 2, 1])
    probs = np.eye(3)[labels]
    loss = nn.lovasz_softmax(probs, labels)
    assert float(loss.data) == 0.0


def test_lovasz_fully_swapped_two_points():
    probs = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1])
    loss = nn.lovasz_softmax(probs, labels)
    assert float(loss.data) == pytest.approx(1.0, abs=1e-12)


def test_lovasz_matches_bruteforce_oracle_exhaustively():
    rng = np.random.default_rng(7)
    for num_classes in (2, 3):
        for n in range(1, 6):
            prob_sets = [rng.dirichlet(np.ones(num_classes), size=n) for _ in range(2)]
            prob_sets.append(np.full((n, num_classes), 1.0 / num_classes))
            for labels in itertools.product(range(num_classes), repeat=n):
                labels = np.array(labels)
                for probs in prob_sets:
                    fast = float(nn.lovasz_softmax(probs, labels).data)
                    slow = lovasz_oracle(probs, labels)
                    assert abs(fast - slow) <= 1e-9, (num_classes, n, labels)


def _lovasz_stable_sort(probs, labels):
    """Lovasz-Softmax loss and probability gradient, every class sorted with
    the stable argsort."""
    total = 0.0
    dprobs = np.zeros_like(probs)
    present = np.unique(labels)
    for c in present:
        fg = (labels == c).astype(np.float64)
        errors = np.where(fg > 0, 1.0 - probs[:, c], probs[:, c])
        order = np.argsort(-errors, kind="stable")
        grad_vec = nn.lovasz_grad(fg[order])
        total += errors[order] @ grad_vec
        derr = np.empty_like(errors)
        derr[order] = grad_vec
        dprobs[:, c] += np.where(fg > 0, -derr, derr)
    scale = 1.0 / present.size
    return total * scale, 1.0 * scale * dprobs


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), k=st.integers(2, 5))
def test_lovasz_is_bitwise_the_stable_sort_version(data, n, k):
    # a few rows drawn from a small palette: ties, all-equal columns, and
    # -0.0 probabilities whose errors tie with +0.0
    one_hot = np.eye(k)
    palette = [np.full(k, 1.0 / k), one_hot[0], np.where(one_hot[1] > 0, 1.0, -0.0),
               np.r_[0.5, 0.5, np.zeros(k - 2)]]
    palette += [row / row.sum() for row in data.draw(
        hnp.arrays(np.float64, (2, k), elements=st.floats(0.01, 1.0)))]
    size = data.draw(st.integers(1, len(palette)))
    rows = data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
    probs = np.array([palette[r] for r in rows])
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    expected_loss, expected_grad = _lovasz_stable_sort(probs, labels)
    pt = nn.Tensor(probs, requires_grad=True)
    loss = nn.lovasz_softmax(pt, labels)
    loss.backward()
    assert loss.data.tobytes() == np.float64(expected_loss).tobytes()
    assert pt.grad.tobytes() == expected_grad.tobytes()


def test_lovasz_rejects_unnormalized_rows():
    # the row sum prints as a plain number, not as np.float64(...)
    with pytest.raises(ValueError, match=r"^unnormalized rows: row 0 sums to 1\.1$"):
        nn.lovasz_softmax(np.array([[0.5, 0.6]]), np.array([0]))
    with pytest.raises(ValueError, match="^unnormalized rows: row 0 sums to nan$"):
        nn.lovasz_softmax(np.array([[np.nan, np.nan], [0.5, 0.5]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="^unnormalized rows: row 1 sums to nan$"):
        nn.lovasz_softmax(np.array([[0.5, 0.5], [np.nan, 1.0]]), np.array([0, 1]))


def test_lovasz_rejects_zero_rows():
    with pytest.raises(ValueError, match="at least one row"):
        nn.lovasz_softmax(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def test_lovasz_gradient_through_softmax():
    rng = np.random.default_rng(8)
    logits = nn.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    labels = rng.integers(0, 3, size=7)
    err = nn.grad_check(
        lambda: nn.lovasz_softmax(nn.softmax(logits), labels), [logits])
    assert err < 1e-6


# --- Adam and schedule ----------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    p = nn.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = nn.Adam([p], lr=1e-3)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_is_minus_lr():
    p = nn.Tensor(np.array([0.0]), requires_grad=True)
    opt = nn.Adam([p], lr=1e-3)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_aborts_on_non_finite_gradient():
    p = nn.Tensor(np.array([1.0]), requires_grad=True)
    opt = nn.Adam([p], lr=1e-3)
    p.grad = np.array([np.inf])
    with pytest.raises(ValueError, match="non-finite gradient"):
        opt.step()
    assert p.data[0] == 1.0  # state untouched


def test_lr_schedule():
    assert nn.lr_schedule(0, 1e-3, 0.99) == 1e-3
    assert nn.lr_schedule(10, 1e-3, 0.99) == pytest.approx(9.043820750088044e-4, rel=1e-12)


def test_adam_converges_on_quadratic():
    p = nn.Tensor(np.array([5.0]), requires_grad=True)
    opt = nn.Adam([p], lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        p.grad = 2.0 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 1e-3


# --- composed graphs --------------------------------------------------------


def test_two_layer_mlp_gradient():
    rng = np.random.default_rng(9)
    x = nn.Tensor(rng.normal(size=(5, 3)))
    w1 = nn.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b1 = nn.Tensor(rng.normal(size=4), requires_grad=True)
    w2 = nn.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b2 = nn.Tensor(rng.normal(size=2), requires_grad=True)
    labels = rng.integers(0, 2, size=5)

    def loss():
        h = nn.relu(nn.linear(x, w1, b1))
        logits = nn.linear(h, w2, b2)
        return nn.weighted_cross_entropy(logits, labels, np.ones(2))

    err = nn.grad_check(loss, [w1, b1, w2, b2])
    assert err < 1e-6


def test_parameter_reuse_accumulates_gradient():
    w = nn.Tensor(np.array([[2.0]]), requires_grad=True)
    x = nn.Tensor(np.array([[3.0]]))
    y1 = nn.linear(x, w, np.zeros(1))
    y2 = nn.linear(x, w, np.zeros(1))
    loss = nn.tensor_sum(y1 + y2)
    loss.backward()
    assert w.grad[0, 0] == pytest.approx(6.0)


def test_add_gives_each_parent_its_own_gradient():
    a = nn.Tensor(np.ones((2, 3)), requires_grad=True)
    b = nn.Tensor(np.ones((2, 3)), requires_grad=True)
    nn.tensor_sum(a + b).backward()
    assert not np.shares_memory(a.grad, b.grad)
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.ones((2, 3)))
    x = nn.Tensor(np.array([[1.5, -2.0]]), requires_grad=True)
    nn.tensor_sum(x + x).backward()
    assert np.array_equal(x.grad, [[2.0, 2.0]])


def test_second_backward_accumulates_only_leaf_gradients():
    x = nn.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    loss = nn.tensor_sum(x + nn.Tensor(np.zeros((1, 2))))
    loss.backward()
    loss.backward()
    assert np.array_equal(x.grad, [[2.0, 2.0]])


def test_constants_get_no_gradient():
    rng = np.random.default_rng(10)
    x = nn.Tensor(rng.normal(size=(5, 3)))
    constant = nn.relu(nn.linear(x, rng.normal(size=(3, 4)), rng.normal(size=4)))
    w = nn.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = nn.Tensor(rng.normal(size=2), requires_grad=True)
    y = nn.linear(constant, w, b)
    assert not constant.requires_grad and y.requires_grad
    dx, dw, db = y._backward_fn(np.ones((5, 2)))
    assert dx is None and dw.shape == (4, 2) and db.shape == (2,)
    nn.tensor_sum(y).backward()
    assert x.grad is None and constant.grad is None
    assert w.grad is not None and b.grad is not None


def test_backward_requires_scalar():
    y = nn.Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        y.backward()
