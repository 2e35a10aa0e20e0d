"""Minimal reverse-mode differentiable core on float64 numpy arrays.

Just enough machinery for the embedding pipeline: dense layers, elementwise
activations, segment reductions over voxels, the two segmentation losses,
Adam, and a finite-difference gradient checker.  Everything runs in 64-bit
so gradient checks can be tight.
"""

from __future__ import annotations

import functools

import numpy as np

from .io import check_labels


class _Node:
    """Tape entry of an inner tensor: its parents' entries (None for a
    constant) and its backward closure, which keeps only the arrays it reads."""

    __slots__ = ("parents", "backward_fn")

    def __init__(self, parents, backward_fn):
        self.parents = parents
        self.backward_fn = backward_fn


class Tensor:
    """Array value with a tape entry.

    A tensor requires a gradient if it was created with one or if any parent
    requires one.  Its entry is None for a constant, the tensor itself for a
    leaf that requires a gradient, and a `_Node` for an inner tensor; only a
    leaf gets a gradient from backward().
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        entries = tuple(p._node for p in parents)
        if any(e is not None for e in entries):
            self._node = _Node(entries, backward_fn)
        else:
            self._node = self if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        other = as_tensor(other)
        if self.data.shape != other.data.shape:
            raise ValueError(
                f"shape mismatch in add: {self.data.shape} vs {other.data.shape}"
            )
        return Tensor(
            self.data + other.data,
            parents=(self, other),
            backward_fn=lambda g: (g, g.copy()),  # one buffer per parent
        )

    def __mul__(self, scalar: float):
        s = float(scalar)
        return Tensor(
            self.data * s,
            parents=(self,),
            backward_fn=lambda g: (g * s,),
        )

    __rmul__ = __mul__

    def backward(self) -> dict[Tensor, np.ndarray]:
        """{leaf: gradient} of a scalar output, for each leaf requiring one.

        No tensor keeps a gradient: each inner one is freed once its node has used it.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[_Node | Tensor] = []
        visited: set[int] = set()
        stack = [(self._node, False)] if self._node is not None else []
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if type(node) is _Node:
                for parent in node.parents:
                    if parent is not None and id(parent) not in visited:
                        stack.append((parent, False))
        grads = {self._node: np.ones_like(self.data)} if self._node is not None else {}
        for node in reversed(topo):
            if type(node) is not _Node or node not in grads:
                continue
            for parent, g in zip(node.parents, node.backward_fn(grads.pop(node))):
                if g is None or parent is None:
                    continue
                if parent in grads:
                    grads[parent] += g
                else:
                    grads[parent] = g  # every backward_fn returns a buffer per parent
        return grads


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def linear(x, weights, bias) -> Tensor:
    """y = x @ W + b with exact gradients; none for x when x is a constant."""
    x, weights, bias = as_tensor(x), as_tensor(weights), as_tensor(bias)
    if x.data.ndim != 2 or weights.data.ndim != 2 or x.data.shape[1] != weights.data.shape[0]:
        raise ValueError(
            f"shape mismatch in linear: x {x.data.shape} vs weights {weights.data.shape}"
        )
    if bias.data.shape != (weights.data.shape[1],):
        raise ValueError(
            f"shape mismatch in linear: bias {bias.data.shape} vs weights {weights.data.shape}"
        )

    x_data, w_data, dx_needed = x.data, weights.data, x.requires_grad

    def backward(g):
        dx = g @ w_data.T if dx_needed else None
        return dx, x_data.T @ g, g.sum(axis=0)

    y = x.data @ weights.data
    y += bias.data
    return Tensor(y, parents=(x, weights, bias), backward_fn=backward)


def relu(x) -> Tensor:
    """max(x, 0), with NaN mapped to +0.0 and -0.0 to +0.0."""
    x = as_tensor(x)
    y = np.fmax(x.data, 0.0)  # fmax drops NaN; np.maximum would keep it
    y += 0.0  # -0.0 -> +0.0
    return Tensor(y, parents=(x,), backward_fn=lambda g: (g * (y > 0),))


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = np.negative(x.data)
    np.exp(y, out=y)
    y += 1.0
    np.reciprocal(y, out=y)
    return Tensor(y, parents=(x,), backward_fn=lambda g: (g * y * (1.0 - y),))


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    return Tensor(y, parents=(x,), backward_fn=lambda g: (g * (1.0 - y * y),))


def _row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of an (N, K) array as an (N, 1) column.

    Folded over the K columns: numpy's axis-1 reduce loops once per row,
    which costs far more than K - 1 passes over N values when K is small.
    """
    return functools.reduce(np.maximum, a.T)[:, None]


def softmax(x) -> Tensor:
    """Rowwise softmax, stabilized by max subtraction."""
    x = as_tensor(x)
    shifted = x.data - _row_max(x.data)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - inner),)

    return Tensor(y, parents=(x,), backward_fn=backward)


def tensor_sum(x) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    x = as_tensor(x)
    shape = x.data.shape
    return Tensor(x.data.sum(), parents=(x,),
                  backward_fn=lambda g: (np.full(shape, float(g)),))


def multiply(a, b) -> Tensor:
    """Elementwise product of same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(
            f"shape mismatch in multiply: {a.data.shape} vs {b.data.shape}"
        )
    a_data, b_data = a.data, b.data
    return Tensor(a_data * b_data, parents=(a, b),
                  backward_fn=lambda g: (g * b_data, g * a_data))


def concat(parts, axis: int = 1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(piece)
                     for piece in np.split(g, splits, axis=axis))

    return Tensor(np.concatenate([p.data for p in parts], axis=axis),
                  parents=tuple(parts), backward_fn=backward)


class SegmentMap:
    """Validated point-to-segment assignment with per-segment point counts.

    Every segment in [0, num_segments) must be non-empty.  Built once per
    cloud and reused by every segment reduction over it.
    """

    def __init__(self, point_to_segment, num_segments: int):
        seg = np.asarray(point_to_segment)
        counts = np.bincount(seg, minlength=num_segments)
        if counts.size > num_segments:
            raise ValueError(
                f"segment id {seg.max()} out of range for {num_segments} segments"
            )
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ValueError(f"empty segment {empty[0]}")
        self.point_to_segment = seg
        self.num_segments = num_segments
        self.counts = counts


def _as_segment_map(seg, num_segments) -> SegmentMap:
    if isinstance(seg, SegmentMap):
        return seg
    if num_segments is None:
        num_segments = int(np.max(seg)) + 1
    return SegmentMap(seg, num_segments)


def segment_mean(x, seg, num_segments: int | None = None) -> Tensor:
    """Per-segment column means of an (N, D) tensor -> (M, D)."""
    x = as_tensor(x)
    smap = _as_segment_map(seg, num_segments)
    idx, counts = smap.point_to_segment, smap.counts
    out = np.empty((smap.num_segments, x.data.shape[1]))
    for d in range(x.data.shape[1]):
        out[:, d] = np.bincount(idx, weights=x.data[:, d], minlength=smap.num_segments)
    out /= counts[:, None]

    def backward(g):
        return ((g / counts[:, None])[idx],)

    return Tensor(out, parents=(x,), backward_fn=backward)


def _segment_cells(smap: SegmentMap, d: int) -> np.ndarray:
    """Flat (segment, channel) cell of every entry of an (N, d) array."""
    return (smap.point_to_segment[:, None] * d + np.arange(d)).ravel()


def segment_max(x, seg, num_segments: int | None = None) -> Tensor:
    """Per-segment column maxima of an (N, D) tensor -> (M, D).

    The backward pass routes each output gradient to the first point (in
    original order) attaining the maximum in its segment and channel.
    """
    x = as_tensor(x)
    x_data = x.data
    smap = _as_segment_map(seg, num_segments)
    n, d = x_data.shape
    m = smap.num_segments
    out = np.full((m, d), -np.inf)
    np.maximum.at(out.reshape(-1), _segment_cells(smap, d), x_data.reshape(-1))

    def backward(g):
        # First attaining point: the lowest flat entry equal to its cell's
        # maximum, searched among the attaining entries only.
        hits = np.flatnonzero(x_data == out[smap.point_to_segment])
        first = np.full(m * d, n * d)
        np.minimum.at(first, _segment_cells(smap, d)[hits], hits)
        unattained = np.flatnonzero(first == n * d)  # only a NaN maximum is never attained
        if unattained.size:
            segment, channel = divmod(int(unattained[0]), d)
            raise ValueError(
                f"segment_max: NaN feature in segment {segment}, channel {channel}")
        dx = np.zeros(n * d)
        dx[first] = g.ravel() + 0.0  # + 0.0 turns a -0.0 gradient into +0.0, as a sum would
        return (dx.reshape(n, d),)

    return Tensor(out, parents=(x,), backward_fn=backward)


def segment_reduce(x, seg, mode: str, num_segments: int | None = None) -> Tensor:
    """Segment reduction dispatch: mode is "mean" or "max"."""
    if mode == "mean":
        return segment_mean(x, seg, num_segments)
    if mode == "max":
        return segment_max(x, seg, num_segments)
    raise ValueError(f"unknown reduction mode {mode!r}")


def weighted_cross_entropy(logits, labels, class_weights) -> Tensor:
    """Class-weighted NLL of softmaxed logits, normalized by the weight mass.

    Invariant to positive rescaling of the weight vector.
    """
    logits = as_tensor(logits)
    weights = np.asarray(class_weights, dtype=np.float64)
    num_classes = logits.data.shape[1]
    if weights.shape != (num_classes,):
        raise ValueError(
            f"expected {num_classes} class weights, got shape {weights.shape}"
        )
    if np.any(weights <= 0):
        raise ValueError("class weights must be positive")
    labels = check_labels(labels, logits.data.shape[0], num_classes)

    shifted = logits.data - _row_max(logits.data)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(labels.shape[0])
    sample_w = weights[labels]
    total_w = sample_w.sum()
    loss = -(sample_w * log_probs[rows, labels]).sum() / total_w

    def backward(g):
        probs = np.exp(log_probs)
        d = probs * sample_w[:, None]
        d[rows, labels] -= sample_w
        return (float(g) * d / total_w,)

    return Tensor(loss, parents=(logits,), backward_fn=backward)


def lovasz_grad(gt_sorted: np.ndarray) -> np.ndarray:
    """Increments of the Jaccard error over prefixes of the sorted errors."""
    gts = gt_sorted.sum()
    intersection = gts - np.cumsum(gt_sorted)
    union = gts + np.cumsum(1.0 - gt_sorted)
    jaccard = 1.0 - intersection / union
    jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(probs, labels) -> Tensor:
    """Lovasz extension of the Jaccard loss, averaged over present classes.

    The backward pass treats the per-class sort order as locally constant,
    which is exact almost everywhere on the piecewise-linear extension.
    """
    probs = as_tensor(probs)
    p = probs.data
    row_sums = p.sum(axis=1)
    off = np.flatnonzero(~(np.abs(row_sums - 1.0) <= 1e-6))  # NaN rows too
    if off.size:
        raise ValueError(
            f"unnormalized rows: row {off[0]} sums to {row_sums[off[0]]}"
        )
    labels = check_labels(labels, p.shape[0], p.shape[1])
    if labels.size == 0:
        raise ValueError("lovasz_softmax needs at least one row")

    present = np.unique(labels)
    total = 0.0
    dprobs = np.zeros_like(p)
    for c in present:
        fg = (labels == c).astype(np.float64)
        errors = np.where(fg > 0, 1.0 - p[:, c], p[:, c])
        # With distinct keys every sort gives the stable order; only ties,
        # a +-0 pair or a NaN need the slower stable sort.
        order = np.argsort(-errors)
        sorted_errors = errors[order]
        if not (sorted_errors[:-1] > sorted_errors[1:]).all():
            order = np.argsort(-errors, kind="stable")
            sorted_errors = errors[order]
        grad_vec = lovasz_grad(fg[order])
        total += sorted_errors @ grad_vec
        derr = np.empty_like(errors)
        derr[order] = grad_vec
        dprobs[:, c] += np.where(fg > 0, -derr, derr)
    scale = 1.0 / present.size
    loss = total * scale

    def backward(g):
        return (float(g) * scale * dprobs,)

    return Tensor(loss, parents=(probs,), backward_fn=backward)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over a fixed parameter list."""

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        """One update from {parameter: gradient}; a parameter not in it gets zero."""
        grads = [grads[p] if p in grads else np.zeros_like(p.data) for p in self.params]
        for i, g in enumerate(grads):
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient in parameter {i}; step aborted")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def lr_schedule(epoch: int, base_lr: float, decay: float) -> float:
    """Learning rate after `epoch` whole epochs: base * decay**epoch."""
    return base_lr * decay**epoch


def grad_check(fn, params) -> float:
    """Max relative error between analytic and central-difference gradients.

    fn must rebuild the scalar loss from the current parameter values on
    every call; each coordinate is differenced with step h = 1e-5.
    """
    h = 1e-5
    params = list(params)
    grads = fn().backward()
    analytic = [grads[p] if p in grads else np.zeros_like(p.data) for p in params]
    max_rel = 0.0
    for pi, p in enumerate(params):
        p.data = np.ascontiguousarray(p.data)  # ravel below must be a view
        flat = p.data.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = float(fn().data)
            flat[idx] = orig - h
            f_minus = float(fn().data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = analytic[pi].ravel()[idx]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            max_rel = max(max_rel, rel)
    return max_rel
