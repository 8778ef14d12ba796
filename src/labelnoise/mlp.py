"""Small fully connected binary classifier trained with cross-entropy.

The network maps R^2 through tanh hidden layers to one linear output
score; sigmoid(score) is the class-1 probability.  Scores, not
probabilities, are the working representation: the loss is evaluated
directly on scores via softplus identities (no log of a rounded
probability), and a probability threshold is converted once into score
space before classifying — which makes "move the decision threshold"
and "shift the final bias" visibly the same operation.

Everything is plain numpy with hand-written backpropagation, verified
in the test suite against central finite differences.

Training holds each network's parameters as one flat float64 vector
theta: every weight matrix row-major, input layer first, then every bias.
``train_stack`` trains R networks of one architecture in lockstep on (R, P)
arrays (theta, momentum velocity, gradient, tail-average sum), whose
per-layer views (``_layers``) are (R, fan_in, fan_out) weights and
(R, fan_out) biases, so a minibatch step is one batched matmul per layer.
Each batched operation does for every network what it does for one alone,
so a stack gives each network the bits it would get alone; ``train`` is
the stack of one.  A stack keeps its shape for the whole call, so its views
are made once per call.  Each epoch, every network draws its own shuffle
into one (R, n) row order, int32 where R·n fits; each window of batches
(see below) then gathers its rows of every network from the stacked inputs
into fresh window-sized arrays, so a call holds no shuffled copy of a whole
dataset.
The targets, checked to be 0/1, are gathered in their own dtype (a
Dataset's bool labels) and cast to float64 a window at a time, so a call
holds no float64 copy of the target column either; the row order is
refilled in place each epoch.
MlpParams and Gradients keep one array per layer.  ``_blocks`` is the model
file's layout, which save_model writes and load_model parses block by block.

An SGD step (``_backprop``, then the momentum update) makes its hidden
layer outputs and their gradients fresh.  At the grids' cap of 1024 rows a
step each is 120 KiB, and glibc trims and regrows the heap around them;
buffers made once per call saved too little for their code.  The step
leaves its scores in a window of batches instead of computing its loss.
An epoch's loss needs only the per-batch losses summed in batch order, so
they are computed from the stored scores when the window fills and at the
end of the epoch, and added in that order: the bits one loss per step
would give.
A window holds as many batches as keep their gathered inputs under
``_BLOCK_BYTES``, so that the gather, the scores and the loss temporaries
made from them reuse heap pages; a whole epoch's scores (200 000 rows for
a large dataset) would cost fresh pages and raise peak memory.

``score`` and ``classify`` run a batch through the network ``block_rows``
rows at a time (``_score_blocks``) and fill one preallocated column: the
scores, or the bool decisions.  A whole 20 000-row batch would make every
layer output a 2.4 MB temporary, and glibc's malloc maps each one fresh and
unmaps it on free, so that a call paid over a thousand page faults; a block's
temporaries stay under malloc's mmap threshold and reuse heap pages.  The
layer outputs, and the biases tiled to a block's rows, are made once per
call.  A row's score depends only on that row, and for the default network
the blocks give the bits of one whole-batch pass.  The grids' lockstep stacks
take their size cap from the same rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open, decode_utf8
from .calculus import Count, Interior, NonNegative, Positive, Rate, as_labels, cast_fields, checked, logistic
from .seeding import make_rng

_PROB_LO = np.nextafter(0.0, 1.0)
_PROB_HI = np.nextafter(1.0, 0.0)

_MODEL_MAGIC = "labelnoise-mlp 1"

# glibc's malloc serves a request of 128 KiB or more (its default mmap
# threshold) with a fresh mapping, whose pages are faulted in on first touch
# and unmapped on free; a float64 temporary under this size reuses heap pages
_BLOCK_BYTES = 128 * 1024


class TrainingDivergedError(RuntimeError):
    """Training loss stopped being finite."""


class ModelFormatError(ValueError):
    """A saved-model file failed to parse; the message carries the line number."""


@dataclass(frozen=True)
class Architecture:
    """Layer plan: input width, tanh hidden layer widths; output is 1 score."""

    input_dim: Count = 2
    hidden_sizes: tuple[Count, ...] = (15, 15)

    def __post_init__(self):
        cast_fields(self)

    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_sizes, 1)


@dataclass(frozen=True)
class MlpParams:
    """Weights[i] has shape (sizes[i], sizes[i+1]); biases[i] has shape (sizes[i+1],)."""

    arch: Architecture
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        sizes = self.arch.layer_sizes()
        w = tuple(np.asarray(a, dtype=np.float64) for a in self.weights)
        b = tuple(np.asarray(a, dtype=np.float64) for a in self.biases)
        if len(w) != len(sizes) - 1 or len(b) != len(sizes) - 1:
            raise ValueError(f"expected {len(sizes) - 1} layers, got {len(w)} weights / {len(b)} biases")
        for i, (wi, bi) in enumerate(zip(w, b)):
            want = (sizes[i], sizes[i + 1])
            if wi.shape != want:
                raise ValueError(f"layer {i}: weight shape {wi.shape} != {want}")
            if bi.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i}: bias shape {bi.shape} != ({sizes[i + 1]},)")
            if not (np.isfinite(wi).all() and np.isfinite(bi).all()):
                raise ValueError(f"layer {i}: parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)


@dataclass(frozen=True)
class Gradients:
    """Loss gradients, shaped exactly like the MlpParams they belong to."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class TrainConfig:
    epochs: Count = 50
    batch_size: Count = 32
    learning_rate: Positive = 0.05
    momentum: Rate = 0.9
    weight_decay: NonNegative = 0.0
    init_seed: int = 0
    early_stop_tol: NonNegative | None = None  # stop when an epoch improves the loss by less
    average_tail: int = 0  # >0: return the average of the last k epoch snapshots
    # tail averaging damps the stationary noise of constant-step SGD; it is
    # what makes training through near-total label noise reproducible, where
    # the useful signal is a ~1e-2 wobble of the predicted probability

    def __post_init__(self):
        cast_fields(self)
        if not 0 <= self.average_tail <= self.epochs:
            raise ValueError(f"average_tail must lie in [0, epochs], got {self.average_tail}")


@dataclass(frozen=True)
class TrainResult:
    params: MlpParams
    epoch_losses: tuple[float, ...]


def sigmoid(s):
    """calculus.logistic clipped into the open interval (0, 1).

    Huge |s| never collapses the probability onto a hard 0/1.
    """
    p = np.asarray(logistic(s))
    np.maximum(p, _PROB_LO, out=p)  # the bits of np.clip, at a third of its cost
    np.minimum(p, _PROB_HI, out=p)
    return float(p) if p.ndim == 0 else p


def init_params(arch: Architecture, seed: int) -> MlpParams:
    """Uniform [-a, a] weights with a = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = make_rng(seed, "mlp-init")
    sizes = arch.layer_sizes()
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(arch, tuple(weights), tuple(biases))


def block_rows(arch: Architecture) -> int:
    """Rows per pass: the largest power of two whose widest layer output is under _BLOCK_BYTES.

    1024 for the default 15-wide network.  A power of two puts the block
    edges on rows where the BLAS kernels' own row blocking has edges too, so
    that a row gets the bits a whole-batch pass would give it (except where
    BLAS picks another kernel for a wide network's pass over thousands of rows).
    """
    rows = 1
    while 2 * rows * 8 * max(arch.layer_sizes()) < _BLOCK_BYTES:
        rows *= 2
    return rows


def _as_batch(input_dim: int, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValueError(f"inputs must have shape (m, {input_dim}) or ({input_dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("inputs must be finite")
    return x, single


def _layers(arch: Architecture, theta: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer (weights, biases) views of flat parameter vectors (theta's last axis).

    The layout is every weight matrix, then every bias; leading axes of
    theta (a stack of networks) lead every view too.
    """
    sizes = arch.layer_sizes()
    views, at = [], 0
    for shape in [*zip(sizes[:-1], sizes[1:]), *((fan_out,) for fan_out in sizes[1:])]:
        views.append(theta[..., at:at + math.prod(shape)].reshape(theta.shape[:-1] + shape))
        at += math.prod(shape)
    return tuple(views[:len(sizes) - 1]), tuple(views[len(sizes) - 1:])


def _forward_stack(weights, biases, x: np.ndarray, out=None) -> tuple[list[np.ndarray], np.ndarray]:
    """Layer inputs and scores: one network on (m, d), or a stack on (R, m, d).

    Biases broadcast over the batch: (fan_out,), a stack's (R, 1, fan_out),
    or (m, fan_out) rows of a tiled bias.  ``out``, when given, holds one
    output array per layer (the last one (..., m, 1)), which the pass fills
    in place of new arrays.
    """
    a = x
    stack = [a]
    for layer, (w, b) in enumerate(zip(weights, biases)):
        a = np.matmul(a, w, out=None if out is None else out[layer])
        a += b
        if layer < len(weights) - 1:
            np.tanh(a, out=a)
            stack.append(a)
    return stack, a[..., 0]


def score(params: MlpParams, x):
    """Raw pre-sigmoid output; one point (input_dim,) -> float, batch (m, input_dim) -> (m,).

    A batch is scored ``block_rows`` rows at a time into one output vector.
    """
    x, single = _as_batch(params.arch.input_dim, x)
    s = np.empty(x.shape[0])
    for rows, block in _score_blocks(params, x):
        s[rows] = block
    return float(s[0]) if single else s


def _score_blocks(params: MlpParams, x: np.ndarray):
    """(rows, scores) of each ``block_rows`` block of a checked batch, in row order.

    The scores are a view of a buffer the next block overwrites.  The layer
    outputs and the biases, tiled to a block's rows, are made once per call:
    a (width,) bias added to a block runs one short inner loop per row, a
    tiled one a single contiguous loop.
    """
    m = x.shape[0]
    # a last block of one row would take BLAS's vector kernel, whose bits
    # differ from its matrix kernel's: it joins the block before it
    rows = block_rows(params.arch)
    starts = range(0, max(m - 1, 1), rows)
    most = min(m, rows + 1)  # the rows of the largest block
    biases = [np.tile(b, (most, 1)) for b in params.biases]
    outs = [np.empty((most, b.size)) for b in params.biases]
    for start, stop in zip(starts, [*starts[1:], m]):
        k = stop - start
        _, s = _forward_stack(params.weights, [b[:k] for b in biases], x[start:stop],
                              [out[:k] for out in outs])
        yield slice(start, stop), s


def _softplus(s: np.ndarray) -> np.ndarray:
    return np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))


def _as_targets(t, shape: tuple[int, ...]) -> np.ndarray:
    """t as an array of the given shape, checked to hold only 0 and 1 (``as_labels``), in its own dtype."""
    t = np.asarray(t)
    if t.shape != shape:
        raise ValueError(f"targets must have shape {shape}, got {t.shape}")
    return as_labels(t, "targets")


def loss(params: MlpParams, x, targets) -> float:
    """Mean binary cross-entropy, evaluated on raw scores.

    softplus(s) - t*s equals -(t*log(p) + (1-t)*log(1-p)) for p = sigmoid(s)
    but never takes the log of a rounded probability, so saturated scores
    give exact losses (including exactly 0 at a perfect fit).
    """
    x, _ = _as_batch(params.arch.input_dim, x)
    if x.shape[0] == 0:
        raise ValueError("loss needs at least one sample")
    t = _as_targets(targets, x.shape[:1]).astype(np.float64, copy=False)
    _, s = _forward_stack(params.weights, params.biases, x)
    return float(np.mean(_softplus(s) - t * s))


def _backprop(weights, biases, x: np.ndarray, t: np.ndarray, grads, s: np.ndarray) -> None:
    """Gradients of each network's mean loss on one batch of a stack; the scores go into s.

    x is (R, m, d) and t (R, m).  grads are the per-layer views
    (``_layers``) of one (R, P) gradient array, and every entry of it is
    written.  s (R, m) is one batch of a score window.  Each layer
    goes back through one plain matmul, the last one (whose inner dimension
    is 1) too, so a step has the bits of a per-layer pass, signed zeros
    included: matmul starts each sum at +0.0.
    """
    stack, _ = _forward_stack(weights, biases, x, [None] * (len(weights) - 1) + [s[..., None]])
    # d(mean loss)/d(score) = (sigmoid(s) - t) / m
    dh = sigmoid(s)
    dh -= t
    dh /= x.shape[1]
    dh = dh[..., None]
    gw, gb = grads
    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(stack[layer].transpose(0, 2, 1), dh, out=gw[layer])
        np.add.reduce(dh, axis=1, out=gb[layer])
        if layer:
            dh = np.matmul(dh, weights[layer].transpose(0, 2, 1))
            a = stack[layer]  # read for the last time just above
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)  # tanh' in terms of the tanh output
            dh *= a


def _add_window_losses(running: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """running (R,) plus the loss sums of a window of batches, added in batch order.

    s and t are the (W, R, m) scores and targets of W batches of m rows.
    Each batch adds m times its mean loss (the bits of np.mean), as the
    step that scored it would have.  s is overwritten.
    """
    m = s.shape[-1]
    losses = _softplus(s)
    losses -= np.multiply(t, s, out=s)
    sums = np.add.reduce(losses, axis=2) / m * m
    sums[0] += running
    return np.add.accumulate(sums, axis=0)[-1]


def grad(params: MlpParams, x, targets) -> Gradients:
    """Exact gradient of ``loss`` w.r.t. every weight and bias (backprop)."""
    x, _ = _as_batch(params.arch.input_dim, x)
    if x.shape[0] == 0:
        raise ValueError("grad needs at least one sample")
    t = _as_targets(targets, x.shape[:1]).astype(np.float64, copy=False)
    g = np.empty(sum(a.size for a in params.weights + params.biases))  # the layout of _layers
    _backprop([w[None] for w in params.weights], [b[None, None] for b in params.biases],
              x[None], t[None], _layers(params.arch, g[None]), np.empty((1, x.shape[0])))
    return Gradients(*_layers(params.arch, g))


def train(x, targets, arch: Architecture = Architecture(), cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Mini-batch SGD with momentum on 0/1 targets (normally the observed labels).

    Fully deterministic: initial parameters and every epoch's shuffle are
    derived from cfg.init_seed, so identical (x, targets, arch, cfg) give
    bit-identical results.  The returned epoch_losses are running means of
    the per-batch losses. Raises TrainingDivergedError when an epoch loss
    stops being finite.  This is ``train_stack`` with one network.
    """
    x, _ = _as_batch(arch.input_dim, x)
    return train_stack(x[None], np.asarray(targets)[None], arch, cfg, [cfg.init_seed])[0]


def train_stack(x, targets, arch: Architecture, cfg: TrainConfig, seeds) -> list[TrainResult]:
    """Train len(seeds) networks of one architecture in lockstep; one TrainResult each.

    Network r trains on x[r] (x is (R, n, input_dim)) and targets[r]
    (targets is (R, n)) with cfg and init_seed seeds[r], and gets the bits
    ``train`` would give it alone: its own initialization and its own
    shuffle.  The stack keeps its shape for the whole call, so early stop
    (cfg.early_stop_tol) takes a stack of one network.  Raises
    TrainingDivergedError when an epoch loss of any network stops being finite.
    """
    x = np.asarray(x, dtype=np.float64)
    seeds = list(seeds)
    if x.ndim != 3 or x.shape[0] != len(seeds) or x.shape[2] != arch.input_dim:
        raise ValueError(f"inputs must have shape ({len(seeds)}, n, {arch.input_dim}) "
                         f"for {len(seeds)} seeds, got {x.shape}")
    stack, n = x.shape[:2]
    if not seeds or n < 1:
        raise ValueError("training needs at least one network and one sample")
    if cfg.early_stop_tol is not None and stack > 1:
        raise ValueError(f"early stop takes a stack of one network, got {stack}")
    if not np.isfinite(x).all():
        raise ValueError("inputs must be finite")
    t = _as_targets(targets, x.shape[:2])

    inits = [init_params(arch, seed) for seed in seeds]
    theta = np.array([np.concatenate([w.ravel() for w in p.weights] + list(p.biases)) for p in inits])
    n_weights = sum(w.size for w in inits[0].weights)
    velocity = np.zeros_like(theta)
    tail = np.full_like(theta, -0.0)  # -0.0 + p is p bit for bit, for p = +0.0 too
    shuffles = [make_rng(seed, "mlp-shuffle") for seed in seeds]
    weights, biases = _layers(arch, theta)  # views that follow theta's in-place updates
    biases = tuple(b[:, None] for b in biases)  # (R, 1, fan_out) broadcasts over a batch
    g = np.empty_like(theta)
    grads = _layers(arch, g)

    x_rows, t_rows = x.reshape(-1, arch.input_dim), t.reshape(-1)  # network r owns rows r*n ..
    # this epoch's rows of each network, in order; shuffle draws the same permutation for either dtype
    order = np.empty((stack, n), dtype=np.int32 if stack * n <= np.iinfo(np.int32).max else np.intp)
    full = n - n % cfg.batch_size
    # (batch rows, starts, score window); a window holds as many batches as keep their
    # gathered inputs (and so their scores) under _BLOCK_BYTES, like a block of ``score``, and at least one
    row_bytes = 8 * stack * arch.input_dim  # one gathered row of every network
    spans = [(rows, starts, np.empty((min(len(starts), max(1, (_BLOCK_BYTES - 1) // (row_bytes * rows))),
                                      stack, rows)))
             for rows, starts in ((cfg.batch_size, range(0, full, cfg.batch_size)),
                                  (n - full, range(full, n, cfg.batch_size))) if starts]
    epoch_losses: list[list[float]] = []  # per epoch, one loss per network
    averaged = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run raises its own error below
        for epoch in range(cfg.epochs):
            # each network shuffles its own rows, in stack order: the draw of permutation(n), offset
            for r, (row, shuffle) in enumerate(zip(order, shuffles)):
                row.fill(1)  # r*n, r*n + 1, ...: ones summed in place, with no arange temporary
                row[0] = r * n
                np.cumsum(row, dtype=row.dtype, out=row)
                shuffle.shuffle(row)
            running = np.zeros(stack)
            for rows, starts, window in spans:
                for first in range(0, len(starts), len(window)):
                    batches = len(starts[first:first + len(window)])
                    span = order[:, starts[first]:starts[first] + batches * rows]
                    # one gather serves the stack; the targets in their own dtype,
                    # then cast to the float64 the step reads
                    xs = np.take(x_rows, span, axis=0)
                    ts = np.take(t_rows, span).astype(np.float64, copy=False)
                    for k, s in enumerate(window[:batches]):
                        batch = slice(k * rows, (k + 1) * rows)
                        _backprop(weights, biases, xs[:, batch], ts[:, batch], grads, s)
                        if cfg.weight_decay:
                            g[:, :n_weights] += theta[:, :n_weights] * cfg.weight_decay
                        velocity *= cfg.momentum
                        velocity -= np.multiply(g, cfg.learning_rate, out=g)
                        theta += velocity
                    targets = ts.reshape(stack, batches, rows).transpose(1, 0, 2)
                    running = _add_window_losses(running, window[:batches], targets)
            losses = (running / n).tolist()
            for r, value in enumerate(losses):
                if not math.isfinite(value):
                    raise TrainingDivergedError(f"epoch {epoch + 1}: training loss is {value}"
                                                + (f" (network {r})" if stack > 1 else ""))
            epoch_losses.append(losses)
            if epoch >= cfg.epochs - cfg.average_tail:
                tail += theta
                averaged += 1
            if (cfg.early_stop_tol is not None and epoch > 0
                    and epoch_losses[-2][0] - losses[0] < cfg.early_stop_tol):
                break
    final = tail / averaged if averaged else theta
    return [TrainResult(MlpParams(arch, *_layers(arch, row)), curve)
            for row, curve in zip(final, zip(*epoch_losses))]


def shift_bias(params: MlpParams, delta: float) -> MlpParams:
    """Copy of params with the final bias lowered by delta; nothing else changes.

    Every score drops by exactly delta, so deciding at score >= 0 with the
    shifted network is deciding at score >= delta with the original: bias
    shifting and threshold moving are the same correction.
    """
    new_last = params.biases[-1] - float(delta)
    return MlpParams(params.arch, params.weights, params.biases[:-1] + (new_last,))


def score_cut(threshold: float) -> float:
    """The score at which a probability threshold decides: its logit, exactly 0.0 at 0.5."""
    threshold = checked("threshold", Interior, threshold)
    return math.log(threshold / (1.0 - threshold))


def classify(params: MlpParams, x, threshold: float = 0.5):
    """Class decision at a probability threshold, True for class 1; ties go to class 1.

    The threshold is converted once to score space (``score_cut``), and the
    decision is the single comparison score >= logit(threshold) — for the
    default 0.5 that is exactly score >= 0.  One point gives a bool, a batch
    a bool column filled a block of scores at a time.
    """
    cut = score_cut(threshold)
    x, single = _as_batch(params.arch.input_dim, x)
    decision = np.empty(x.shape[0], dtype=bool)
    for rows, block in _score_blocks(params, x):
        np.greater_equal(block, cut, out=decision[rows])
    return bool(decision[0]) if single else decision


def _blocks(sizes: tuple[int, ...]):
    """The model file's parameter blocks in file order: (tag line, rows, values per row)."""
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        yield f"W{i} {fan_in} {fan_out}", fan_in, fan_out
        yield f"b{i} {fan_out}", 1, fan_out


def save_model(params: MlpParams, path) -> None:
    """Text dump of architecture + parameters; floats use repr (exact round trip)."""
    sizes = params.arch.layer_sizes()
    lines = [_MODEL_MAGIC, "activation tanh", "sizes " + " ".join(str(s) for s in sizes)]
    arrays = [a for layer in zip(params.weights, params.biases) for a in layer]
    for (tag, rows, width), a in zip(_blocks(sizes), arrays):
        lines.append(tag)
        lines += [" ".join(repr(float(v)) for v in row) for row in a.reshape(rows, width)]
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MlpParams:
    """Inverse of save_model; bad files raise ModelFormatError with a line number."""
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), ModelFormatError)
    # lines end at "\n" only: str.splitlines would also break at form feeds and
    # other characters that str.split treats as whitespace inside a row
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()

    def fail(lineno: int, why: str):
        raise ModelFormatError(f"line {lineno}: {why}")

    def floats(at: int, want: int, tag: str) -> np.ndarray:
        """The values on line index `at`, a row of the block under `tag`."""
        if at >= len(lines):
            fail(at + 1, f"unexpected end of file inside the '{tag}' block")
        parts = lines[at].split()
        if len(parts) != want:
            fail(at + 1, f"expected {want} values, got {len(parts)}")
        try:
            values = np.array([float(p) for p in parts])
        except ValueError as exc:
            fail(at + 1, str(exc))
        if not np.isfinite(values).all():
            fail(at + 1, "parameters must be finite")
        return values

    if not lines or lines[0] != _MODEL_MAGIC:
        fail(1, f"expected header {_MODEL_MAGIC!r}")
    if len(lines) < 3 or lines[1] != "activation tanh":
        fail(2, "expected 'activation tanh', the only hidden activation")
    if not lines[2].startswith("sizes "):
        fail(3, "expected 'sizes <n> <n> ...'")
    try:
        sizes = tuple(int(s) for s in lines[2].split()[1:])
    except ValueError as exc:
        fail(3, str(exc))
    if len(sizes) < 2 or sizes[-1] != 1 or min(sizes) < 1:
        fail(3, f"layer sizes must be >= 1 and end with 1, got {sizes}")
    arch = Architecture(sizes[0], sizes[1:-1])

    arrays = []
    at = 3
    for tag, rows, width in _blocks(sizes):
        if at >= len(lines) or lines[at].split() != tag.split():
            fail(at + 1, f"expected '{tag}'")
        arrays.append(np.vstack([floats(k, width, tag) for k in range(at + 1, at + 1 + rows)]))
        at += 1 + rows
    if any(line.strip() for line in lines[at:]):
        fail(at + 1, "trailing content after the last parameter block")
    return MlpParams(arch, tuple(arrays[0::2]), tuple(b[0] for b in arrays[1::2]))
