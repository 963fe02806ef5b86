"""Problem instances: data model, text format, and a desk-scale generator.

An instance couples one distance matrix over n locations with m flow
matrices over n facilities.  All entries are non-negative integers so that
objective values and swap deltas stay exact under 64-bit arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import MqapError

# With n <= 100 and entries <= 10^4 the largest objective is ~1e12, far
# below 2^63.  The load-time guard below enforces the general bound.
_INT64_SAFE = 2**62
# Each float dtype holds every integer up to its limit.
_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53


def exact_dtype(bound: int) -> type:
    """The narrowest of float32, float64 and int64 that holds every integer up to ``bound``.

    A kernel whose every value, partial sums of its products included, is
    an integer of magnitude at most ``bound`` is exact in this dtype,
    whatever order BLAS sums in.
    """
    if bound < _FLOAT32_EXACT:
        return np.float32
    return np.float64 if bound < _FLOAT64_EXACT else np.int64


class SwapOperands(NamedTuple):
    """The operands of ``evaluation.swap_delta_matrix`` that depend only on the instance.

    All three are stored in the kernel dtype, the narrowest of float32,
    float64 and int64 that holds every value the kernel forms exactly.
    """

    flows: np.ndarray  # (m, n, n) stacked flow matrices
    d_cat: np.ndarray  # (n, 2n) [d.T | d]
    e: np.ndarray  # (n, n) E[i, j] = d_ii + d_jj - d_ij - d_ji

    @property
    def dtype(self) -> np.dtype:
        return self.e.dtype


@dataclass(eq=False)
class Instance:
    """An assignment problem with one distance matrix and m flow matrices."""

    n: int
    distances: np.ndarray
    flows: tuple[np.ndarray, ...]
    name: str = ""
    metadata: dict[str, str] = field(default_factory=dict)
    # The operands of ``evaluate_batch``, in its dtype: (n^2, m) with column r
    # flow matrix r flattened, and the (n^2,) flattened distance matrix.
    flow_columns: np.ndarray = field(init=False, repr=False)
    flat_distances: np.ndarray = field(init=False, repr=False)
    # The operands of ``swap_delta_matrix`` that depend only on the instance.
    swap_operands: SwapOperands = field(init=False, repr=False)

    def __post_init__(self):
        self.distances = np.ascontiguousarray(self.distances, dtype=np.int64)
        self.flows = tuple(np.ascontiguousarray(f, dtype=np.int64) for f in self.flows)
        if self.n < 2:
            raise MqapError(f"instance size must be >= 2, got {self.n}")
        if len(self.flows) < 1:
            raise MqapError("instance needs at least one flow matrix")
        for mat in (self.distances, *self.flows):
            if mat.shape != (self.n, self.n):
                raise MqapError(f"matrix shape {mat.shape} does not match n={self.n}")
            if (mat < 0).any():
                raise MqapError("matrix entries must be non-negative")
        max_d = int(self.distances.max())
        max_f = max(int(f.max()) for f in self.flows)
        # Every partial sum of a cost is a non-negative integer no larger
        # than n^2 * max_d * max_f, and so is every product of a distance
        # and a flow.
        cost_bound = self.n * self.n * max_d * max_f
        if cost_bound >= _INT64_SAFE:
            raise MqapError("entry magnitudes too large for exact 64-bit objectives")
        # Every value the swap kernel forms is an integer of magnitude at most
        # 4(n+1) * max_d * max_f (its final W + W^T), and every partial sum of
        # its product is a non-negative integer no larger than the total.
        kernel = exact_dtype(4 * (self.n + 1) * max_d * max_f)
        evaluation = exact_dtype(cost_bound)
        flows = np.stack(self.flows)
        d, dd = self.distances, np.diagonal(self.distances)
        self.flow_columns = flows.reshape(self.m, self.n * self.n).T.astype(evaluation, order="C")
        self.flat_distances = d.ravel().astype(evaluation)
        self.swap_operands = SwapOperands(
            flows=flows.astype(kernel),
            d_cat=np.concatenate((d.T, d), axis=1, dtype=kernel),
            e=(dd[:, None] + dd[None, :] - d - d.T).astype(kernel),
        )

    @property
    def m(self) -> int:
        return len(self.flows)


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters for the uniform generator."""

    n: int
    m: int
    correlation: float = 0.0
    seed: int = 0
    max_value: int = 100

    def __post_init__(self):
        for name, value, low in (
            ("n", self.n, 2),
            ("m", self.m, 1),
            # random.Random seeds with abs(), so seed -s would give seed s's instance.
            ("seed", self.seed, 0),
            ("max_value", self.max_value, 1),
        ):
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.n * self.n * self.max_value * self.max_value >= _INT64_SAFE:
            raise ValueError(
                f"max_value {self.max_value} is too large for exact 64-bit objectives at n={self.n}"
            )
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.correlation}")
        if self.n < 5 and self.correlation != 0.0:
            raise ValueError(f"cannot calibrate correlation {self.correlation} with n={self.n}")


def parse_instance(text: str) -> Instance:
    """Parse whitespace-delimited instance text.

    Lines follow ``text_lines``' rule, and data converts through
    ``_int64_values``.  The first number is n, followed by the n*n distance
    matrix and one or more n*n flow matrices (m is inferred from the
    remaining token count).
    """
    metadata, data, _ = text_lines(text)
    if not data:
        raise MqapError("no numeric data found")
    values = _int64_values("\n".join(data))

    n = int(values[0])
    if n < 2:
        raise MqapError(f"instance size must be >= 2, got {n}")
    body = values[1:]
    if len(body) < 2 * n * n:
        raise MqapError(f"expected at least {2 * n * n} matrix entries, got {len(body)}")
    if len(body) % (n * n) != 0:
        raise MqapError(f"{len(body)} entries do not form whole {n}x{n} matrices")
    mats = body.reshape(-1, n, n)
    name = metadata.pop("name", "")
    return Instance(
        n=n,
        distances=mats[0],
        flows=tuple(mats[1:]),
        name=name,
        metadata=metadata,
    )


def text_lines(text: str) -> tuple[dict[str, str], list[str], list[int]]:
    """The line rule of instance and front files: (metadata, data lines, their 1-based numbers).

    Lines are stripped.  A line is data when its first token starts with a
    digit, or with one sign followed by a digit; any other line is a
    comment, and comments of the form ``! key=value`` are collected as
    metadata, a later key replacing an earlier one.
    """
    metadata: dict[str, str] = {}
    data: list[str] = []
    numbers: list[int] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        unsigned = stripped[1:] if stripped.startswith(("+", "-")) else stripped
        if unsigned[:1].isdigit():
            data.append(stripped)
            numbers.append(number)
        elif stripped.startswith("!") and "=" in stripped:
            key, _, value = stripped[1:].partition("=")
            metadata[key.strip()] = value.strip()
    return metadata, data, numbers


# Deletes the characters of unsigned decimal tokens and the spaces between them.
_UNSIGNED_TEXT = str.maketrans("", "", "0123456789 \t\n")


def _int64_values(data: str) -> np.ndarray:
    """The whitespace-separated integers of ``data`` as one int64 array.

    The one int64 text conversion of instance and front files.  Text of
    unsigned tokens below 10^18 is converted in one call; anything else
    (signs, larger values, bad tokens, no tokens at all, which
    ``np.fromstring`` would read as one 0) token by token, naming a bad token.
    """
    if data.strip() and not data.translate(_UNSIGNED_TEXT):
        values = np.fromstring(data, dtype=np.int64, sep=" ")
        # A token beyond int64 reads as 2^63 - 1; below 10^18 every value is exact.
        if values.max() < 10**18:
            return values
    tokens = data.split()
    try:
        # numpy converts each string as int() does, then checks the int64 range.
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        bad = next(tok for tok in tokens if not _is_int64(tok))
        raise MqapError(
            f"invalid token {bad!r}: entries must be integers in the signed 64-bit range"
        ) from exc


def _is_int64(token: str) -> bool:
    try:
        return -(2**63) <= int(token) < 2**63
    except ValueError:
        return False


def write_instance(instance: Instance) -> str:
    """Render an instance in the text format accepted by parse_instance."""
    lines: list[str] = []
    if instance.name:
        lines.append(f"! name={instance.name}")
    for key, value in instance.metadata.items():
        lines.append(f"! {key}={value}")
    lines.append(str(instance.n))
    for mat in (instance.distances, *instance.flows):
        lines.append("")
        for row in mat:
            lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_file(path, parse):
    """``parse`` applied to the UTF-8 text of the file at ``path``: the one way mqap reads a file.

    An ``MqapError`` from ``parse``, or bytes that are not UTF-8, become an
    ``MqapError`` that names the file.  An ``OSError`` from opening the
    file already names it and passes through.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (MqapError, UnicodeDecodeError) as exc:
        raise MqapError(f"{path}: {exc}") from exc


def write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends as given: the one way mqap writes a file.

    An ``OSError`` from opening the file already names it and passes
    through; one from writing it becomes an ``MqapError`` that names it.
    """
    handle = open(path, "w", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(text)
    except OSError as exc:
        raise MqapError(f"cannot write {path}: {exc}") from exc


def load_instance(path) -> Instance:
    inst = parse_file(path, parse_instance)
    if not inst.name:
        inst.name = Path(path).stem
    return inst


def save_instance(instance: Instance, path) -> None:
    write_file(path, write_instance(instance))


def _off_diagonal_cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def generate_uniform(spec: InstanceSpec) -> Instance:
    """Generate a uniform random instance with correlated flows.

    Flow 1 is drawn uniformly.  Each further flow copies a fixed fraction
    |correlation| of flow 1's off-diagonal cells (reflected around the value
    midpoint when the correlation is negative) and fills the rest with fresh
    uniform noise, which calibrates the empirical Pearson correlation
    against flow 1 to the requested level.
    """
    rng = random.Random(spec.seed)
    n, lo, hi = spec.n, 1, spec.max_value
    cells = _off_diagonal_cells(n)

    def uniform_matrix() -> np.ndarray:
        mat = np.zeros((n, n), dtype=np.int64)
        for i, j in cells:
            mat[i, j] = rng.randint(lo, hi)
        return mat

    distances = uniform_matrix()
    base = uniform_matrix()
    flows = [base]
    strength = abs(spec.correlation)
    copy_count = round(strength * len(cells))
    # One shared cell subset keeps every flow's correlation against flow 1
    # at the same level.
    copied = set(rng.sample(range(len(cells)), copy_count))
    for _ in range(1, spec.m):
        mat = np.zeros((n, n), dtype=np.int64)
        for idx, (i, j) in enumerate(cells):
            if idx in copied:
                src = int(base[i, j])
                mat[i, j] = src if spec.correlation >= 0 else lo + hi - src
            else:
                mat[i, j] = rng.randint(lo, hi)
        flows.append(mat)

    name = f"uniform-n{n}-m{spec.m}-c{spec.correlation:g}-s{spec.seed}"
    metadata = {
        "type": "uniform",
        "correlation": f"{spec.correlation:g}",
        "seed": str(spec.seed),
    }
    return Instance(n=n, distances=distances, flows=tuple(flows), name=name, metadata=metadata)
