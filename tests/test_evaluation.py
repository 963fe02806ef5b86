import itertools
import math

import numpy as np
import pytest

from mqap import Instance, evaluate_batch
from mqap.evaluation import swap_delta_matrix
from mqap.genetics import Rng, random_permutations
from mqap.instance import _INT64_SAFE

from conftest import evaluate_delta, naive_objectives, random_instance


def _objectives(inst, perm):
    """One permutation's costs as a tuple of ints."""
    return tuple(evaluate_batch(inst, [perm])[0].tolist())


def test_hand_case():
    inst = Instance(n=2, distances=[[0, 1], [1, 0]], flows=([[0, 3], [2, 0]],))
    assert _objectives(inst, [0, 1]) == (5,)


def test_zero_flows():
    inst = Instance(n=4, distances=np.arange(16).reshape(4, 4), flows=(np.zeros((4, 4)),) * 2)
    assert _objectives(inst, [2, 0, 3, 1]) == (0, 0)


def test_wrong_length_rejected():
    inst = Instance(n=3, distances=np.ones((3, 3)), flows=(np.ones((3, 3)),))
    with pytest.raises(ValueError, match="does not match n=3"):
        evaluate_batch(inst, [[0, 1]])


def test_matches_naive_oracle(np_rng):
    for _ in range(25):
        n = int(np_rng.integers(2, 9))
        inst = random_instance(np_rng, n, int(np_rng.integers(1, 4)))
        perm = np_rng.permutation(n)
        assert _objectives(inst, perm) == naive_objectives(inst, perm)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [0, 1, 50])
def test_batch_matches_naive_oracle(np_rng, m, batch):
    inst = random_instance(np_rng, 9, m, hi=1000)
    perms = np.array([np_rng.permutation(9) for _ in range(batch)], dtype=np.int64).reshape(batch, 9)
    objs = evaluate_batch(inst, perms)
    assert objs.shape == (batch, m) and objs.dtype == np.int64
    assert [tuple(row) for row in objs.tolist()] == [naive_objectives(inst, p) for p in perms]
    assert [_objectives(inst, p) for p in perms] == [tuple(row) for row in objs.tolist()]


def test_batch_is_exact_just_under_the_int64_guard():
    # n^2 * max_d * max_f sits just below 2^62: costs reach ~2^61, far past
    # float64's 2^53, so any float step would lose low bits.
    n = 3
    hi = math.isqrt((_INT64_SAFE - 1) // (n * n))
    assert n * n * hi * hi < _INT64_SAFE <= n * n * (hi + 1) * (hi + 1)
    rng = np.random.default_rng(62)
    distances = rng.integers(hi - 1000, hi + 1, (n, n))
    flows = tuple(rng.integers(hi - 1000, hi + 1, (n, n)) for _ in range(4))
    distances[0, 0] = flows[0][0, 0] = hi
    inst = Instance(n=n, distances=distances, flows=flows)
    perms = list(itertools.permutations(range(n)))
    objs = evaluate_batch(inst, perms).tolist()
    expected = [list(naive_objectives(inst, p)) for p in perms]
    assert objs == expected
    assert max(max(row) for row in expected) > 2**61


def test_batch_rejects_wrong_length_and_non_permutations():
    inst = Instance(n=3, distances=np.ones((3, 3)), flows=(np.ones((3, 3)),))
    with pytest.raises(ValueError, match="does not match n=3"):
        evaluate_batch(inst, np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="does not match n=3"):
        evaluate_batch(inst, [0, 1, 2])
    with pytest.raises(ValueError, match="does not match n=3"):
        evaluate_batch(inst, [[0, 1]])
    with pytest.raises(ValueError, match="permutations"):
        evaluate_batch(inst, [[0, 1, 2], [0, 0, 2]])
    # A negative entry would wrap around to [2, 1, 0]; 3 would overrun the inverse.
    for bad in ([[-1, 1, 0]], [[0, 1, 3]]):
        with pytest.raises(ValueError, match="permutations"):
            evaluate_batch(inst, bad)


# With n = 6 every cost sum is bounded by 36 * max_d * max_f; these tops put
# that bound just below 2^24 and 2^53, and top + 1 just above.
_COST_TOP_24 = math.isqrt((2**24 - 1) // 36)
_COST_TOP_53 = math.isqrt((2**53 - 1) // 36)


@pytest.mark.parametrize(
    "low, top, dtype, rounds_in",
    [
        (_COST_TOP_24 - 200, _COST_TOP_24, np.float32, None),
        (_COST_TOP_24 - 200, _COST_TOP_24 + 1, np.float64, None),
        # Costs reach ~2^28, where float32 holds only multiples of 16.
        (2**11, 2**12, np.float64, np.float32),
        (_COST_TOP_53 - 2**20, _COST_TOP_53, np.float64, None),
        (_COST_TOP_53 - 2**20, _COST_TOP_53 + 1, np.int64, None),
        # Costs reach ~2^60 while the load guard (n^2*max_d*max_f < 2^62)
        # still accepts the instance: float64 would round here.
        (2**27, 2**28 - 1, np.int64, np.float64),
    ],
    ids=["float32-below-2^24", "float64-above-2^24", "float64-float32-would-round",
         "float64-below-2^53", "int64-above-2^53", "int64-float64-would-round"],
)
def test_batch_exact_at_each_dtype_limit(np_rng, low, top, dtype, rounds_in):
    assert 36 * _COST_TOP_24**2 < 2**24 <= 36 * (_COST_TOP_24 + 1) ** 2
    assert 36 * _COST_TOP_53**2 < 2**53 <= 36 * (_COST_TOP_53 + 1) ** 2
    n = 6

    def matrix():
        mat = np_rng.integers(low, top + 1, (n, n))
        mat[0, 0] = top
        return mat

    inst = Instance(n=n, distances=matrix(), flows=(matrix(), matrix()))
    assert inst.flow_columns.dtype == inst.flat_distances.dtype == dtype
    perms = list(itertools.permutations(range(n)))
    objs = evaluate_batch(inst, perms)
    expected = [list(naive_objectives(inst, p)) for p in perms]
    assert objs.dtype == np.int64 and objs.tolist() == expected
    if rounds_in is not None:
        assert any(int(rounds_in(c)) != c for row in expected for c in row)


def test_random_solutions_draw_like_repeated_single_draws():
    inst = random_instance(np.random.default_rng(5), 7, 2)
    batch = random_permutations(7, 6, Rng(11))
    rng = Rng(11)
    singles = [random_permutations(7, 1, rng)[0] for _ in range(6)]
    assert batch.dtype == np.int64 and batch.tolist() == [s.tolist() for s in singles]
    assert evaluate_batch(inst, batch).tolist() == [list(_objectives(inst, s)) for s in singles]
    assert random_permutations(7, 0, Rng(11)).shape == (0, 7)


def test_location_relabel_invariance(np_rng):
    # Relabeling locations consistently in the distance matrix and the
    # permutation leaves every cost unchanged.
    inst = random_instance(np_rng, 6, 2)
    perm = np_rng.permutation(6)
    sigma = np_rng.permutation(6)
    relabeled = Instance(
        n=6, distances=inst.distances[np.ix_(sigma, sigma)], flows=inst.flows
    )
    assert _objectives(inst, perm) == _objectives(relabeled, perm[sigma])


def test_delta_same_position_is_zero(np_rng):
    inst = random_instance(np_rng, 5, 3)
    assert evaluate_delta(inst, np_rng.permutation(5), 2, 2) == (0, 0, 0)


def test_delta_out_of_range(np_rng):
    inst = random_instance(np_rng, 5, 1)
    with pytest.raises(ValueError, match="out of range for n=5"):
        evaluate_delta(inst, np_rng.permutation(5), 0, 5)


def _delta_oracle(inst, perm, i, j):
    swapped = perm.copy()
    swapped[i], swapped[j] = swapped[j], swapped[i]
    after = _objectives(inst, swapped)
    return tuple(a - b for a, b in zip(after, _objectives(inst, perm)))


def test_delta_matches_full_reevaluation(np_rng):
    inst = random_instance(np_rng, 4, 2)
    perm = np_rng.permutation(4)
    assert evaluate_delta(inst, perm, 0, 2) == _delta_oracle(inst, perm, 0, 2)


def test_delta_symmetric_instance(np_rng):
    base = np_rng.integers(0, 30, (6, 6))
    sym_d = base + base.T
    fbase = np_rng.integers(0, 30, (6, 6))
    inst = Instance(n=6, distances=sym_d, flows=(fbase + fbase.T,))
    perm = np_rng.permutation(6)
    for i, j in itertools.combinations(range(6), 2):
        assert evaluate_delta(inst, perm, i, j) == _delta_oracle(inst, perm, i, j)


def _kernel_dtype(inst):
    """The swap kernel's dtype by the bound 4(n+1) * max_d * max_f on what it forms."""
    bound = 4 * (inst.n + 1) * int(inst.distances.max()) * max(int(f.max()) for f in inst.flows)
    return np.float32 if bound < 2**24 else np.float64 if bound < 2**53 else np.int64


def _assert_matrix_matches_oracle(inst, perm):
    deltas = swap_delta_matrix(inst, perm)
    assert deltas.shape == (inst.m, inst.n, inst.n) and deltas.dtype == _kernel_dtype(inst)
    assert np.array_equal(deltas, deltas.transpose(0, 2, 1))
    assert not np.diagonal(deltas, axis1=1, axis2=2).any()
    for i, j in itertools.combinations(range(inst.n), 2):
        # tolist() gives Python floats or ints, which compare with ints exactly.
        assert deltas[:, i, j].tolist() == list(evaluate_delta(inst, perm, i, j))


def test_delta_matrix_matches_per_pair(np_rng):
    sizes = [(2, 1), (2, 4), (7, 4)]
    sizes += [(int(np_rng.integers(3, 12)), int(np_rng.integers(1, 4))) for _ in range(10)]
    for n, m in sizes:
        inst = random_instance(np_rng, n, m)
        _assert_matrix_matches_oracle(inst, np_rng.permutation(n))


# With n = 6 the kernel bound is 28 * max_d * max_f; these tops put it just
# below 2^24 and 2^53, and top + 1 just above.
_TOP_24 = math.isqrt((2**24 - 1) // 28)
_TOP_53 = math.isqrt((2**53 - 1) // 28)


@pytest.mark.parametrize(
    "low, top, dtype",
    [
        (_TOP_24 - 200, _TOP_24, np.float32),
        (_TOP_24 - 200, _TOP_24 + 1, np.float64),
        # S reaches ~2^27, where float32 holds only multiples of 8.
        (2**11, 2**12, np.float64),
        (_TOP_53 - 2**20, _TOP_53, np.float64),
        (_TOP_53 - 2**20, _TOP_53 + 1, np.int64),
        # S reaches ~2^55 while the load guard (n^2*max_d*max_f < 2^62) still
        # accepts the instance: float64 would round here.
        (2**25, 2**26 - 1, np.int64),
    ],
    ids=["float32-below-2^24", "float64-above-2^24", "float64-float32-would-round",
         "float64-below-2^53", "int64-above-2^53", "int64-float64-would-round"],
)
def test_delta_matrix_exact_at_each_dtype_limit(np_rng, low, top, dtype):
    assert 28 * _TOP_24**2 < 2**24 <= 28 * (_TOP_24 + 1) ** 2
    assert 28 * _TOP_53**2 < 2**53 <= 28 * (_TOP_53 + 1) ** 2
    n = 6

    def matrix():
        mat = np_rng.integers(low, top + 1, (n, n))
        mat[0, 0] = top
        return mat

    inst = Instance(n=n, distances=matrix(), flows=(matrix(), matrix()))
    assert inst.swap_operands.dtype == dtype == _kernel_dtype(inst)
    for _ in range(20):
        _assert_matrix_matches_oracle(inst, np_rng.permutation(n))


def test_swap_delta_involution(np_rng):
    inst = random_instance(np_rng, 7, 2)
    perm = np_rng.permutation(7)
    swapped = perm.copy()
    swapped[[1, 4]] = swapped[[4, 1]]
    delta = evaluate_delta(inst, perm, 1, 4)
    after = tuple(o + d for o, d in zip(_objectives(inst, perm), delta))
    assert after == _objectives(inst, swapped)
    assert evaluate_delta(inst, swapped, 1, 4) == tuple(-d for d in delta)


def test_delta_scales_roughly_linearly(np_rng):
    # Smoke check, not a strict bound: quadrupling n at fixed m should not
    # cost anywhere near the quadratic factor a full re-evaluation pays.
    import time

    def per_call(n, repeats=300):
        inst = random_instance(np_rng, n, 2)
        perm = np_rng.permutation(n)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(repeats):
                evaluate_delta(inst, perm, 0, n - 1)
            best = min(best, (time.perf_counter() - start) / repeats)
        return best

    small, large = per_call(20), per_call(80)
    assert large / small < 10.0, f"delta cost ratio {large / small:.1f} for 4x n"

