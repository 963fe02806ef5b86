"""Problem instances: data model, text format, and a desk-scale generator.

An instance couples one distance matrix over n locations with m flow
matrices over n facilities.  All entries are non-negative integers so that
objective values and swap deltas stay exact under 64-bit arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import IO, NamedTuple

import numpy as np

# With n <= 100 and entries <= 10^4 the largest objective is ~1e12, far
# below 2^63.  The load-time guard below enforces the general bound.
_INT64_SAFE = 2**62
_FLOAT64_EXACT = 2**53  # float64 adds non-negative integers exactly up to here


class SwapOperands(NamedTuple):
    """The operands of ``evaluation.swap_delta_matrix`` that depend only on the instance."""

    flows: np.ndarray  # (m, n, n) stacked flow matrices
    d_cat: np.ndarray  # (n, 2n) [d.T | d] in the product dtype
    e: np.ndarray  # (n, n) E[i, j] = d_ii + d_jj - d_ij - d_ji


class cached_property:
    """``functools.cached_property`` without the class-wide lock it takes before Python 3.12.

    Fleets fork islands from whichever thread runs them; a child forked
    while another thread held that lock would wait on it forever.  Two
    threads may both compute a value on first use; they compute the same.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class InstanceFormatError(ValueError):
    """Malformed instance data (text or matrices)."""


class EmptyInputError(InstanceFormatError):
    pass


class TokenCountMismatchError(InstanceFormatError):
    pass


class NegativeEntryError(InstanceFormatError):
    pass


class InfeasibleCorrelationError(ValueError):
    """Requested flow correlation cannot be calibrated at this size."""


@dataclass(eq=False)
class Instance:
    """An assignment problem with one distance matrix and m flow matrices."""

    n: int
    distances: np.ndarray
    flows: tuple[np.ndarray, ...]
    name: str = ""
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.distances = np.ascontiguousarray(self.distances, dtype=np.int64)
        self.flows = tuple(np.ascontiguousarray(f, dtype=np.int64) for f in self.flows)
        if self.n < 2:
            raise InstanceFormatError(f"instance size must be >= 2, got {self.n}")
        if len(self.flows) < 1:
            raise InstanceFormatError("instance needs at least one flow matrix")
        for mat in (self.distances, *self.flows):
            if mat.shape != (self.n, self.n):
                raise InstanceFormatError(
                    f"matrix shape {mat.shape} does not match n={self.n}"
                )
            if (mat < 0).any():
                raise NegativeEntryError("matrix entries must be non-negative")
        max_d = int(self.distances.max())
        max_f = max(int(f.max()) for f in self.flows)
        if self.n * self.n * max_d * max_f >= _INT64_SAFE:
            raise InstanceFormatError(
                "entry magnitudes too large for exact 64-bit objectives"
            )

    @property
    def m(self) -> int:
        return len(self.flows)

    @cached_property
    def flow_columns(self) -> np.ndarray:
        """(n^2, m) int64: column r is flow matrix r flattened, the operand of ``evaluate_batch``."""
        return np.stack(self.flows).reshape(self.m, self.n * self.n).T.copy()

    @cached_property
    def swap_operands(self) -> SwapOperands:
        """Built on the first neighbourhood scan, so NSGA-II runs never pay for it.

        The kernel's product sums 2n terms of at most max_d * max_f each:
        float64 BLAS is exact while that total stays below 2^53.
        """
        d, n = self.distances, self.n
        flows = np.stack(self.flows)
        exact = 2 * n * int(d.max()) * int(flows.max()) < _FLOAT64_EXACT
        dd = np.diagonal(d)
        return SwapOperands(
            flows=flows,
            d_cat=np.concatenate((d.T, d), axis=1, dtype=np.float64 if exact else np.int64),
            e=dd[:, None] + dd[None, :] - d - d.T,
        )


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
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.correlation}")


def parse_instance(source: str | IO[str]) -> Instance:
    """Parse whitespace-delimited instance text.

    Any line whose first non-blank character is not a digit is treated as a
    comment; comments of the form ``! key=value`` are collected as metadata.
    The first number is n, followed by the n*n distance matrix and one or
    more n*n flow matrices (m is inferred from the remaining token count).
    """
    text = source if isinstance(source, str) else source.read()
    metadata: dict[str, str] = {}
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped[0].isdigit():
            if stripped.startswith("!") and "=" in stripped:
                key, _, value = stripped[1:].strip().partition("=")
                metadata[key.strip()] = value.strip()
            continue
        tokens.extend(stripped.split())

    if not tokens:
        raise EmptyInputError("no numeric data found")
    values: list[int] = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError as exc:
            raise InstanceFormatError(f"invalid token {tok!r}") from exc

    n = values[0]
    if n < 2:
        raise InstanceFormatError(f"instance size must be >= 2, got {n}")
    body = values[1:]
    if len(body) < 2 * n * n:
        raise TokenCountMismatchError(
            f"expected at least {2 * n * n} matrix entries, got {len(body)}"
        )
    if len(body) % (n * n) != 0:
        raise TokenCountMismatchError(
            f"{len(body)} entries do not form whole {n}x{n} matrices"
        )
    if any(v < 0 for v in body):
        raise NegativeEntryError("matrix entries must be non-negative")

    arr = np.array(body, dtype=np.int64)
    mats = arr.reshape(-1, n, n)
    name = metadata.pop("name", "")
    return Instance(
        n=n,
        distances=mats[0],
        flows=tuple(mats[1:]),
        name=name,
        metadata=metadata,
    )


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


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        inst = parse_instance(handle)
    if not inst.name:
        import os

        inst.name = os.path.splitext(os.path.basename(str(path)))[0]
    return inst


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_instance(instance))


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
    if spec.n < 5 and spec.correlation != 0.0:
        raise InfeasibleCorrelationError(
            f"cannot calibrate correlation {spec.correlation} with n={spec.n}"
        )
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
