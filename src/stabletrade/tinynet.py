"""Small dense networks with explicit forward and backward passes.

Rectifier hidden layers, linear or tanh output. Gradients are written out by
hand and validated against central finite differences in the tests; the
optimizer is the usual adaptive moment scheme. Nothing here knows about
losses, callers push the upstream gradient in.

Each network keeps its parameters in one contiguous float64 vector,
``Mlp.flat`` (W0, b0, W1, b1, ..., weights row-major), and ``backward``
returns the parameter gradients as one vector aligned to it; the input's
gradient only with ``want_gx=True``, since only the actor's chain rule
through the critic needs it. The optimizer moments, soft target updates,
gradient clipping and copies work on whole vectors, and the optimizer keeps
two scratch vectors for its temporaries; only the global norm is summed
parameter by parameter, in the order above, so that its rounding does not
depend on the layout.

``forward`` returns the output together with the cache of activations that
``backward`` needs. ``predict`` returns the same output, bit for bit, with
no cache: it writes the hidden layers into one buffer per layer that the
network keeps, grown to the largest row count seen, so that the large
passes nothing backpropagates (acting, target values, the candidates of a
margin loss) do not allocate fresh memory on every call. Its output is a
fresh array. Both run the same layer loop. ``cache_rows`` turns selected
rows of the last ``predict`` into the cache that ``forward`` gives for those
rows (bit for bit at row counts that are multiples of 4; see the method), so
a caller that backpropagates through a few rows of a large pass needs no
second pass over them.
"""

import numpy as np

from .errors import NumericError, ParamError


class Mlp:
    """Fully connected layers of fixed sizes.

    sizes = [in, hidden..., out]. Weights use seeded uniform fan-in
    initialization, U(-1/sqrt(fan), 1/sqrt(fan)), drawn layer by layer,
    weights before biases.

    All parameters live in one contiguous float64 vector, ``flat``, in the
    order W0, b0, W1, b1, ... with each weight matrix row-major (fan_in x
    fan_out). ``layout`` holds each parameter's (start, stop, shape) in that
    vector, and ``weights``, ``biases`` and ``params()`` are reshaped views
    into it, so writing through a view writes the network.
    """

    def __init__(self, sizes, out_act="linear", seed=0):
        if len(sizes) < 2:
            raise ParamError("need at least input and output sizes")
        if out_act not in ("linear", "tanh"):
            raise ParamError(f"unknown output activation {out_act!r}")
        self.sizes = [int(s) for s in sizes]
        if min(self.sizes) < 1:
            raise ParamError(f"layer sizes must be positive, got {self.sizes}")
        self.out_act = out_act
        self.layout = []
        off = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                stop = off + int(np.prod(shape))
                self.layout.append((off, stop, shape))
                off = stop
        self.flat = np.empty(off)
        self._params = [self.flat[a:b].reshape(shape) for a, b, shape in self.layout]
        self.weights = self._params[0::2]
        self.biases = self._params[1::2]
        self._hidden, self._hidden_rows = [], 0    # predict's layer buffers
        self._last = None                          # predict's last (input, output)
        rng = np.random.default_rng(seed)
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def params(self):
        """Live views into ``flat``, interleaved (W0, b0, W1, b1, ...)."""
        return list(self._params)

    def _input(self, x):
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ParamError(
                f"input shape {x.shape} does not feed a {self.sizes[0]}-wide layer"
            )
        return x, squeeze

    def _layers(self, x, outs):
        """Activations [x, h1, ..., y], one per layer; layer i writes into
        the buffer outs[i], or into a fresh array where that is None."""
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b, out) in enumerate(zip(self.weights, self.biases, outs)):
            h = np.matmul(h, w, out=out)
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            elif self.out_act == "tanh":
                np.tanh(h, out=h)
            acts.append(h)
        return acts

    def forward(self, x):
        """Returns (output, cache); pure, touches no state."""
        x, squeeze = self._input(x)
        acts = self._layers(x, [None] * len(self.weights))
        h = acts[-1]
        cache = {"acts": acts, "squeeze": squeeze}
        return (h[0] if squeeze else h), cache

    def predict(self, x):
        """``forward``'s output without its cache, through the network's
        hidden-layer buffers; the output itself is a fresh array."""
        x, squeeze = self._input(x)
        rows = x.shape[0]
        if rows > self._hidden_rows:
            self._hidden = [np.empty((rows, n)) for n in self.sizes[1:-1]]
            self._hidden_rows = rows
        h = self._layers(x, [buf[:rows] for buf in self._hidden] + [None])[-1]
        self._last = (x, h)
        return h[0] if squeeze else h

    def cache_rows(self, rows):
        """``forward``'s cache for the given rows of the last ``predict``'s
        input, taken from that pass instead of a new one.

        It equals ``forward(x[rows])``'s cache bit for bit wherever the BLAS
        rounds each row of a matrix product alike at both row counts.
        OpenBLAS rounds the trailing (rows mod 4) rows of a narrow product
        its own way, so keep both counts multiples of 4, as the margin loss's
        640-row pass and 128 selected rows are. The rows are copied out, so
        the cache outlives the next ``predict``; the caller must not have
        written to that pass's input or output.
        """
        if self._last is None:
            raise ParamError("cache_rows needs an earlier predict")
        x, y = self._last
        n = x.shape[0]
        acts = [x[rows]] + [buf[:n][rows] for buf in self._hidden] + [y[rows]]
        return {"acts": acts, "squeeze": False}

    def backward(self, cache, gy, want_gx=False):
        """Gradients of sum(output * gy) for every parameter plus, with
        ``want_gx``, the input.

        Returns (grads, gx): grads is one vector aligned to ``flat``; gx is
        None without ``want_gx``.
        """
        acts = cache["acts"]
        gy = np.asarray(gy, dtype=float)
        if cache["squeeze"]:
            gy = gy[None, :]
        if gy.shape != acts[-1].shape:
            raise ParamError("upstream gradient shape mismatch")
        g = gy
        if self.out_act == "tanh":
            g = g * (1.0 - acts[-1] ** 2)
        grads = np.empty(self.flat.size)
        for i in range(len(self.weights) - 1, -1, -1):
            w0, w1, w_shape = self.layout[2 * i]
            b0, b1, _ = self.layout[2 * i + 1]
            np.matmul(acts[i].T, g, out=grads[w0:w1].reshape(w_shape))
            np.add.reduce(g, axis=0, out=grads[b0:b1])
            if i == 0 and not want_gx:
                return grads, None
            w = self.weights[i]
            # a width-1 layer's product has no sum: the same single multiplies
            g = g * w[:, 0] if w.shape[1] == 1 else g @ w.T
            if i > 0:
                g *= acts[i] > 0.0
        gx = g[0] if cache["squeeze"] else g
        return grads, gx

    def copy(self):
        twin = Mlp(self.sizes, self.out_act, seed=0)
        twin.flat[...] = self.flat
        return twin


# ---------------------------------------------------------------------------
# optimization


def adam_init(net):
    """Moments aligned to ``net.flat``, and two scratch vectors for opt_step."""
    return {"step": 0, "m": np.zeros_like(net.flat), "v": np.zeros_like(net.flat),
            "scratch": (np.empty_like(net.flat), np.empty_like(net.flat))}


# Adam's moment decay rates and its denominator guard
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def opt_step(net, grads, state, lr=1e-3):
    """One adaptive moment update of ``net.flat``, in place, from a gradient
    vector aligned to it. Deterministic given state. It evaluates
    p -= lr * (m / c1) / (sqrt(v / c2) + eps) one operation at a time in the
    state's scratch vectors: no temporaries, the expression's roundings."""
    if getattr(grads, "shape", None) != net.flat.shape:
        raise ParamError("gradient vector shape mismatch")
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    p, m, v = net.flat, state["m"], state["v"]
    num, den = state["scratch"]
    m *= _BETA1
    np.multiply(grads, 1.0 - _BETA1, out=num)
    m += num
    v *= _BETA2
    np.multiply(grads, 1.0 - _BETA2, out=num)
    num *= grads
    v += num
    np.divide(m, c1, out=num)
    num *= lr
    np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    den += _ADAM_EPS
    num /= den
    p -= num
    if not np.all(np.isfinite(p)):
        raise NumericError("non-finite parameters after optimizer step")
    return net


def soft_update(target, source, tau):
    """target <- tau * source + (1 - tau) * target, elementwise."""
    if target.sizes != source.sizes or target.out_act != source.out_act:
        raise ParamError("architecture mismatch in soft update")
    tp = target.flat
    tp *= 1.0 - tau
    tp += tau * source.flat
    return target


def clip_global_norm(net, grads, max_norm=10.0):
    """Scales a gradient vector aligned to ``net.flat`` in place; returns the
    pre-clip global norm.

    The squares are summed parameter by parameter in ``net.layout`` order and
    those sums added up, which fixes the rounding of the norm. Each slice is
    reduced on its own (pairwise, as ``np.sum`` does); one ``reduceat`` over
    the vector would sum sequentially and round differently.
    """
    sq = grads * grads
    total = float(np.sqrt(sum(float(np.add.reduce(sq[a:b])) for a, b, _ in net.layout)))
    if total > max_norm and total > 0.0:
        grads *= max_norm / total
    return total


# ---------------------------------------------------------------------------
# verification


def kink_distance(net, x):
    """Smallest |pre-activation| over the rectifier layers at x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h = x
    closest = np.inf
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        if i < len(net.weights) - 1:
            closest = min(closest, float(np.min(np.abs(z))))
            h = np.maximum(z, 0.0)
    return closest


def gradient_check(net, x, h=1e-5, rng=None):
    """Max relative error of analytic vs central-difference gradients.

    Projects the output through a fixed random functional so a scalar loss
    exists, then perturbs every parameter coordinate and the input. Points
    within the stencil width of a rectifier kink make the central difference
    itself invalid, so the probe is nudged to a generic position first.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    x = np.array(x, dtype=float)  # owned and contiguous so ravel views write through
    for _ in range(50):
        if kink_distance(net, x) > 50.0 * h:
            break
        x = x + rng.normal(scale=1e-3, size=x.shape)
    y, cache = net.forward(x)
    proj = rng.normal(size=np.shape(y))

    def loss():
        out, _ = net.forward(x)
        return float(np.sum(out * proj))

    grads, gx = net.backward(cache, proj, want_gx=True)
    worst = 0.0
    # every parameter coordinate, then the input, by the same probe
    for flat_p, flat_g in ((net.flat, grads), (x.ravel(), np.asarray(gx).ravel())):
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + h
            up = loss()
            flat_p[i] = keep - h
            dn = loss()
            flat_p[i] = keep
            num = (up - dn) / (2.0 * h)
            denom = max(abs(num) + abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(num - flat_g[i]) / denom)
    return worst
