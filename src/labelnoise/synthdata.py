"""Synthetic two-class worlds with exactly known posteriors.

Each class-conditional density is a mixture of bivariate Gaussians, so
P(y=1 | x) is available in closed form and the accuracy of the optimal
decision rule can be measured on any sample — that is the ceiling every
trained model is judged against.  Random problems make class 1 a rigid
translate of class 0, which turns the translation distance into a clean
difficulty knob: zero separation means indistinguishable classes.

Densities are evaluated in log space.  The log-sum-exp over a mixture's
components makes one elementwise pass per component (``gmm_log_density``):
a stacked (m, k) array reduced along its last axis would run one short
inner loop per point, for the random problems' k = 2 components.

Label corruption is feature-independent flipping applied after sampling,
so a corrupted dataset carries both the clean label y and the observed
label z.  All sampling is a pure function of (problem, n, seed); random
streams come from seeding.make_rng.  Sampling and flipping draw a block of
_BLOCK_ROWS rows at a time, in the stream order of whole-array draws and with
their bits, so that a dataset is held once plus block-sized temporaries.  A
freshly sampled dataset's observed labels are its clean label array itself.
Labels, clean and observed, are bool columns: one byte a row.

Datasets round-trip through a CSV file.  The writer formats one block of
rows per write.  The loader has one parser, line by line into typed columns,
which names the line of every error: labels must be the integers 0 and 1,
and a `#` line is a data error, not a comment.

The CSV is the format; its sidecar `<csv>.bin` is a cache keyed by the
CSV's content.  For a target not written in place (``atomic.in_place``), the
writer stores the sha256 of the CSV's bytes and then the three columns' bytes,
followed by the columns themselves: x as little-endian float64 (n, 2), then
y_clean and z_observed as one byte of 0 or 1 a row, 32 + 18n bytes in all.
The loader uses the sidecar only when its size fits the CSV's row count, the
CSV's bytes and the stored columns still hash to that digest and every label
byte is 0 or 1; any other sidecar, or none, means the CSV is parsed.  Editing
the CSV therefore bypasses the sidecar, and deleting it is always safe.
"""

import array
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open, decode_utf8, in_place
from .calculus import ClassPriors, Count, NoiseParams, Positive, as_labels, as_points, checked, logistic
from .seeding import make_rng

_LOG_2PI = math.log(2.0 * math.pi)

CSV_FIELDS = ("x1", "x2", "y_clean", "z_observed")
_CSV_ROW = "%.17g,%.17g,%d,%d\n"
# rows drawn, flipped or formatted at a time: a block's draws, and a CSV chunk's
# text and value tuple, stay below glibc's 128 KiB mmap threshold and reuse heap
# pages; 4096-row CSV chunks left up to 12 MB of freed heap held
_BLOCK_ROWS = 1024


class DatasetFormatError(ValueError):
    """A dataset CSV failed to parse; the message carries the line number."""


@dataclass(frozen=True)
class GmmClassModel:
    """Gaussian mixture over R^2: weights (k,), means (k, 2), covariances (k, 2, 2)."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        cov = np.asarray(self.covariances, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError(f"weights must be a non-empty vector, got shape {w.shape}")
        k = w.size
        if mu.shape != (k, 2):
            raise ValueError(f"means must have shape ({k}, 2), got {mu.shape}")
        if cov.shape != (k, 2, 2):
            raise ValueError(f"covariances must have shape ({k}, 2, 2), got {cov.shape}")
        if (w < 0).any():
            raise ValueError("component weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1 within 1e-12, sum is {w.sum()!r}")
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise ValueError("means and covariances must be finite")
        for i in range(k):
            c = cov[i]
            if not np.allclose(c, c.T, rtol=0.0, atol=1e-12):
                raise ValueError(f"covariance {i} is not symmetric")
            try:
                np.linalg.cholesky(c)
            except np.linalg.LinAlgError:
                raise ValueError(f"covariance {i} is not positive definite") from None
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def n_components(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class ProblemInstance:
    """A two-class world: one mixture per class plus the clean class priors."""

    model1: GmmClassModel
    model0: GmmClassModel
    clean_priors: ClassPriors
    seed: int


@dataclass(frozen=True)
class Dataset:
    """Column store of samples: features x and the clean and observed labels.

    Arrays are shared, not copied — treat a Dataset as read-only.
    """

    x: np.ndarray           # (n, 2) float64
    y_clean: np.ndarray     # (n,) bool
    z_observed: np.ndarray  # (n,) bool

    def __post_init__(self):
        x = as_points(self.x, 2, "features")
        y, z = np.asarray(self.y_clean), np.asarray(self.z_observed)
        if x.ndim != 2:
            raise ValueError(f"features must have shape (n, 2), got {x.shape}")
        if y.shape != x.shape[:1] or z.shape != x.shape[:1]:
            raise ValueError("label columns must match the number of feature rows")
        object.__setattr__(self, "x", x)
        for name, col in (("y_clean", y), ("z_observed", z)):  # checked before the bool cast
            object.__setattr__(self, name, as_labels(col, name).astype(bool, copy=False))

    def __len__(self) -> int:
        return self.x.shape[0]


def _random_spd(rng: np.random.Generator) -> np.ndarray:
    """Random rotation of diag(l1, l2) with eigenvalues uniform in [0.3, 1.5]."""
    lam = rng.uniform(0.3, 1.5, size=2)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag(lam) @ rot.T
    return (cov + cov.T) / 2.0  # kill the asymmetry rounding leaves behind


def make_random_problem(seed: int, separation_scale: float, p1: float = 0.5) -> ProblemInstance:
    """Random two-component mixture problem, deterministic in ``seed``.

    Class 0 gets component weights uniform on the simplex, component means
    uniform in [-3, 3]^2 and random anisotropic covariances; class 1 is the
    same mixture translated by ``separation_scale`` along one random unit
    direction.  Separation near 0 therefore makes the classes coincide, and
    large separation makes them trivially distinct.
    """
    separation_scale = checked("separation_scale", Positive, separation_scale)
    priors = ClassPriors(p1)
    rng = make_rng(seed, "problem")
    k = 2
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-3.0, 3.0, size=(k, 2))
    covs = np.stack([_random_spd(rng) for _ in range(k)])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    offset = separation_scale * np.array([math.cos(theta), math.sin(theta)])
    model0 = GmmClassModel(weights, means, covs)
    model1 = GmmClassModel(weights, means + offset, covs)
    return ProblemInstance(model1, model0, priors, int(seed))


def _component_log_pdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    # explicit 2x2 bivariate normal; cov was validated SPD at construction
    a, b = cov[0, 0], cov[0, 1]
    c, d = cov[1, 0], cov[1, 1]
    det = a * d - b * c
    dx = x[..., 0] - mean[0]
    dy = x[..., 1] - mean[1]
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (d * dx * dx - (b + c) * dx * dy + a * dy * dy) / det
    # the form is positive definite, so a NaN from overflowing inf - inf means +inf
    quad = np.where(np.isnan(quad), np.inf, quad)
    return -_LOG_2PI - 0.5 * math.log(det) - 0.5 * quad


def gmm_log_density(model: GmmClassModel, x) -> float | np.ndarray:
    """Log mixture density at x; accepts one point (2,) or a batch (m, 2).

    The log-sum-exp over components makes one elementwise pass per
    component: the running maximum, then the exp terms added left to right,
    the order a numpy sum over fewer than 8 components takes.
    """
    x = as_points(x, 2, "points")
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    # arrays even for one point, so that the passes below can write in place
    terms = [np.asarray(log_w[i] + _component_log_pdf(x, model.means[i], model.covariances[i]))
             for i in range(model.n_components)]
    top = terms[0]
    for term in terms[1:]:
        top = np.maximum(top, term)
    top = np.where(np.isfinite(top), top, 0.0)
    total = np.zeros_like(top)
    for term in terms:
        term -= top
        total += np.exp(term, out=term)
    with np.errstate(divide="ignore"):
        out = np.log(total) + top
    return float(out) if out.ndim == 0 else out


def clean_posterior(problem: ProblemInstance, x) -> float | np.ndarray:
    """Exact P(y=1 | x), computed in log space.

    Works through the log-odds log(P1 f1(x)) - log(P0 f0(x)) and the stable
    calculus.logistic, so it survives x far in the tails where both densities
    underflow a direct Bayes quotient.  If both class log-densities are
    non-finite (beyond even log-space range) the prior p1 is returned.
    """
    x = as_points(x, 2, "points")
    with np.errstate(divide="ignore"):
        l1 = np.log(problem.clean_priors.p1) + gmm_log_density(problem.model1, x)
        l0 = np.log(problem.clean_priors.p0) + gmm_log_density(problem.model0, x)
    with np.errstate(invalid="ignore"):
        gap = np.asarray(l1 - l0)
        post = logistic(np.where(np.isnan(gap), 0.0, gap))
        post = np.where(np.isnan(gap), problem.clean_priors.p1, post)
    return float(post) if post.ndim == 0 else post


def _row_blocks(n: int):
    """Slices of _BLOCK_ROWS consecutive rows (the last one shorter) covering range(n)."""
    return (slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS))


def sample_dataset(problem: ProblemInstance, n: int, seed: int) -> Dataset:
    """Draw n labeled points; observed labels start out equal to clean ones (the same array).

    The draws come in the order of whole-array draws: every clean label,
    then per class (1, then 0) every component choice and then the normals of
    the class's rows in row order.  Drawn _BLOCK_ROWS at a time, they give
    the same bits.
    """
    n = checked("n", Count, n)
    rng = make_rng(seed, "sample")
    y = np.empty(n, dtype=bool)
    for block in _row_blocks(n):
        y[block] = rng.random(block.stop - block.start) < problem.clean_priors.p1
    x = np.empty((n, 2))
    for label, model in ((1, problem.model1), (0, problem.model0)):
        _draw_points(x, np.flatnonzero(y == label), model, rng)
    return Dataset(x, y, y)


def _draw_points(x: np.ndarray, rows: np.ndarray, model: GmmClassModel, rng: np.random.Generator):
    """Fill x[rows] with draws from model: every component choice first, then the normals."""
    comp = np.empty(rows.size, dtype=np.int64)
    for block in _row_blocks(rows.size):
        comp[block] = rng.choice(model.n_components, size=block.stop - block.start, p=model.weights)
    chol = np.linalg.cholesky(model.covariances)
    for block in _row_blocks(rows.size):
        c = comp[block]
        z = rng.standard_normal((c.size, 2))
        x[rows[block]] = model.means[c] + np.einsum("nij,nj->ni", chol[c], z)


def flip_labels(data: Dataset, noise: NoiseParams, seed: int) -> Dataset:
    """Flip each clean label independently at its class's flip rate.

    Features and clean labels are untouched (and shared with the input);
    only the observed column changes.
    """
    rng = make_rng(seed, "flip")
    z = np.empty(len(data), dtype=bool)
    for block in _row_blocks(len(data)):
        z[block] = observe(data.y_clean[block], rng.random(block.stop - block.start), noise)
    return Dataset(data.x, data.y_clean, z)


def observe(y, u, noise: NoiseParams) -> np.ndarray:
    """Observed labels, as bool, of 0/1 clean labels y, given one uniform draw u per label.

    A class-1 label flips to 0 where u < gamma1, a class-0 label flips to
    1 where u < gamma0: the one flip rule of the package.
    """
    return np.where(y == 1, u >= noise.gamma1, u < noise.gamma0)


def bayes_accuracy(problem: ProblemInstance, data: Dataset) -> float:
    """Accuracy of the optimal rule (posterior >= 1/2 picks class 1) on clean labels.

    This is the ceiling: no classifier evaluated on the same sample can
    beat it by more than sampling error.
    """
    if len(data) == 0:
        raise ValueError("cannot score an empty dataset")
    pred = np.asarray(clean_posterior(problem, data.x)) >= 0.5
    return float((pred == data.y_clean).mean())


def save_dataset_csv(data: Dataset, path) -> str | None:
    """Write x1,x2,y_clean,z_observed rows; floats keep 17 significant digits.

    A target replaced whole also gets its sidecar, written after the CSV is
    complete from the columns' own buffers; returns the sidecar's path, or None
    for a target written in place (``atomic.in_place``).
    """
    digest = hashlib.sha256()
    with atomic_open(path, binary=True) as fh:
        for text in _csv_chunks(data):
            chunk = text.encode("ascii")
            digest.update(chunk)
            fh.write(chunk)
    if in_place(path):
        return None
    sidecar = _sidecar_path(path)
    columns = [memoryview(np.ascontiguousarray(column, dtype)).cast("B") for column, dtype in
               ((data.x, "<f8"), (data.y_clean, bool), (data.z_observed, bool))]
    for column in columns:
        digest.update(column)
    with atomic_open(sidecar, binary=True) as fh:
        fh.write(digest.digest())
        for column in columns:
            fh.write(column)
    return sidecar


def _csv_chunks(data: Dataset):
    """The CSV text: the header, then one string per _BLOCK_ROWS rows."""
    yield ",".join(CSV_FIELDS) + "\n"
    for rows in _row_blocks(len(data)):
        # labels as the ints 0 and 1 of their bytes: "%d" formats a bool about twice as slowly
        columns = (data.x[rows, 0], data.x[rows, 1],
                   data.y_clean[rows].view(np.uint8), data.z_observed[rows].view(np.uint8))
        values = [None] * (len(CSV_FIELDS) * len(columns[0]))
        for j, column in enumerate(columns):
            values[j::len(CSV_FIELDS)] = column.tolist()
        yield _CSV_ROW * len(columns[0]) % tuple(values)


def _sidecar_path(path) -> str:
    """`<csv>.bin` next to the file that holds the CSV's bytes, also through a symlink."""
    return os.path.realpath(path) + ".bin"


def load_dataset_csv(path) -> Dataset:
    """Inverse of save_dataset_csv; bad input raises DatasetFormatError with a line number.

    A regular file whose sidecar holds the sha256 of its exact bytes loads
    from the sidecar.  Any other file, a pipe or device included, is read
    once and goes through the line parser, decoded one 8 KiB buffer at a time
    as it reads: a byte that is not UTF-8 is named by its line once the parser
    reaches its buffer, after any bad line in an earlier buffer.
    """
    if os.path.isfile(path):
        data = _load_sidecar(path)
        if data is not None:
            return data
    with open(path, "rb") as fh:  # read once: a pipe cannot be reopened
        raw = fh.read()
    try:  # from a BytesIO that shares raw's bytes
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as text:
            return _parse_dataset_csv(csv.reader(text))
    except UnicodeDecodeError:  # it names a buffer's offset; decode_utf8 names the line
        decode_utf8(raw, DatasetFormatError)
        raise  # not reached: raw holds the byte the wrapper failed on


def _load_sidecar(path) -> Dataset | None:
    """The columns save_dataset_csv stored for this CSV's exact bytes and row count, or None.

    The CSV is hashed, and its newlines counted, through one reused 64 KiB
    buffer and only when a sidecar exists.  None for a sidecar whose size does
    not fit the row count, whose digest is not that of the CSV and the columns
    read back, whose label bytes are not all 0 or 1, or whose columns Dataset
    rejects: the CSV is then parsed as if it had none.
    """
    sidecar = _sidecar_path(path)
    if not os.path.isfile(sidecar):
        return None  # no sidecar, no hashing
    digest, newlines, buffer = hashlib.sha256(), 0, bytearray(1 << 16)
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(memoryview(buffer)[:size])
            newlines += buffer.count(b"\n", 0, size)
    rows = newlines - 1
    try:
        with open(sidecar, "rb") as fh:
            if rows < 1 or os.fstat(fh.fileno()).st_size != 32 + 18 * rows:
                return None
            stored = fh.read(32)
            x = np.fromfile(fh, "<f8", 2 * rows).reshape(rows, 2)
            labels = np.fromfile(fh, np.uint8, 2 * rows)
        for column in (x, labels):
            digest.update(memoryview(column).cast("B"))
        if digest.digest() != stored or (labels > 1).any():  # a bool byte is 0 or 1
            return None
        return Dataset(x, *labels.view(bool).reshape(2, rows))
    except (OSError, ValueError):  # the sidecar is only a cache
        return None


def _parse_dataset_csv(reader) -> Dataset:
    # typed columns hold 18 bytes a row; a tuple and two ints per row would hold over 100
    xs, ys, zs = array.array("d"), array.array("B"), array.array("B")
    header = next(reader, None)
    if header is None:
        raise DatasetFormatError("line 1: file is empty")
    if tuple(header) != CSV_FIELDS:
        raise DatasetFormatError(
            f"line 1: expected header {','.join(CSV_FIELDS)!r}, got {','.join(header)!r}"
        )
    for row in reader:
        lineno = reader.line_num  # a quoted field may span physical lines
        if not row:
            continue
        if len(row) != 4:
            raise DatasetFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            x1, x2 = float(row[0]), float(row[1])
            y, z = int(row[2]), int(row[3])
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise DatasetFormatError(f"line {lineno}: features must be finite")
        if y not in (0, 1) or z not in (0, 1):
            raise DatasetFormatError(f"line {lineno}: labels must be 0 or 1")
        xs.append(x1)
        xs.append(x2)
        ys.append(y)
        zs.append(z)
    if not xs:
        raise DatasetFormatError("line 2: no data rows")
    # views of the columns' own buffers, no copies; the label bytes were checked to be 0 or 1
    return Dataset(np.frombuffer(xs, np.float64).reshape(-1, 2),
                   np.frombuffer(ys, bool), np.frombuffer(zs, bool))
