import itertools

import numpy as np
import pytest

from mqap import IslandConfig, Rng, cycle_crossover, swap_mutation, tournament_select

from conftest import scalar_cycle_crossover

REF_P1 = [8, 4, 7, 3, 6, 2, 5, 1, 9, 0]
REF_P2 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_cycle_crossover_reference_case():
    c1, c2 = cycle_crossover(REF_P1, REF_P2)
    assert c1 == [8, 1, 2, 3, 4, 5, 6, 7, 9, 0]
    assert c2 == [0, 4, 7, 3, 6, 2, 5, 1, 8, 9]


def test_cycle_crossover_identical_parents():
    p = [3, 1, 0, 2]
    c1, c2 = cycle_crossover(p, p)
    assert c1 == p and c2 == p
    assert c1 is not p and c2 is not p


def test_cycle_crossover_length_mismatch():
    with pytest.raises(ValueError):
        cycle_crossover([0, 1, 2], [1, 0])


def test_cycle_crossover_properties(np_rng):
    for _ in range(50):
        p1 = np_rng.permutation(15).tolist()
        p2 = np_rng.permutation(15).tolist()
        c1, c2 = cycle_crossover(p1, p2)
        assert sorted(c1) == list(range(15))
        assert sorted(c2) == list(range(15))
        for pos in range(15):
            # Each child keeps one parent's value, and the two children
            # take the two parents' values between them.
            assert {c1[pos], c2[pos]} == {p1[pos], p2[pos]}


def test_cycle_crossover_matches_scalar_oracle():
    rng = np.random.default_rng(1991)
    for n in [2, 2, 2, 3, 5, 10, 30, 64]:
        for _ in range(40):
            p1 = rng.permutation(n)
            p2 = p1.copy() if rng.random() < 0.1 else rng.permutation(n)
            got = cycle_crossover(p1.tolist(), p2.tolist())
            expected = scalar_cycle_crossover(p1, p2)
            for child, oracle in zip(got, expected):
                assert type(child) is list and child == oracle.tolist()
    assert cycle_crossover([1, 0], [0, 1]) == ([1, 0], [0, 1])


def test_swap_mutation_never_fires_at_zero(np_rng):
    perm = np_rng.permutation(8)
    out = swap_mutation(perm, 0.0, Rng(4))
    assert np.array_equal(out, perm)


def test_swap_mutation_two_elements():
    out = swap_mutation(np.array([0, 1]), 1.0, Rng(11))
    assert out.tolist() == [1, 0]


def test_swap_mutation_valid_permutation(np_rng):
    rng = Rng(5)
    for _ in range(100):
        perm = np_rng.permutation(12)
        out = swap_mutation(perm, 0.7, rng)
        assert sorted(out.tolist()) == list(range(12))


def test_swap_mutation_pair_frequencies():
    # pb=1 on n=10: each of the 45 unordered pairs should appear with
    # frequency 1/45 within a 3-sigma band over 10000 trials.
    rng = Rng(123)
    base = np.arange(10)
    counts = {pair: 0 for pair in itertools.combinations(range(10), 2)}
    trials = 10000
    for _ in range(trials):
        out = swap_mutation(base, 1.0, rng)
        moved = tuple(int(i) for i in np.flatnonzero(out != base))
        counts[moved] += 1
    expected = 1 / 45
    sigma = (expected * (1 - expected) / trials) ** 0.5
    for pair, count in counts.items():
        assert abs(count / trials - expected) <= 3 * sigma, pair


def test_determinism_same_seed(np_rng):
    perm = np_rng.permutation(20)
    a = swap_mutation(perm, 0.5, Rng(77))
    b = swap_mutation(perm, 0.5, Rng(77))
    assert np.array_equal(a, b)


def _key(rank, crowding=0.0):
    return (rank, -crowding)


def test_tournament_single_member_pool():
    assert tournament_select([_key(3)], Rng(0)) == 0


def test_tournament_better_rank_wins():
    for seed in range(20):
        winner = tournament_select([_key(0), _key(2)], Rng(seed))
        rng = Rng(seed)
        assert winner == 0 or {rng.randrange(2), rng.randrange(2)} == {1}


def _better(a, b):
    """Comparator oracle on (rank, crowding): lower rank, then more crowding."""
    if a[0] != b[0]:
        return a[0] < b[0]
    return a[1] > b[1]


def test_tournament_matches_replayed_draws():
    # Replaying the rng draws gives an exact oracle for the winner; equal
    # members 0 and 4 check that only a strictly better challenger wins.
    ranked = [(0, 1.0), (1, float("inf")), (1, 2.0), (2, 0.0), (0, 1.0)]
    fitness = [_key(rank, crowding) for rank, crowding in ranked]
    for seed in range(60):
        winner = tournament_select(fitness, Rng(seed))
        rng = Rng(seed)
        first, second = rng.randrange(5), rng.randrange(5)
        assert winner == (second if _better(ranked[second], ranked[first]) else first)


def test_tournament_empty_pool():
    with pytest.raises(ValueError):
        tournament_select([], Rng(0))


def test_variation_params_validation():
    # The messages name the `mqap run` flags, --pc and --pm.
    with pytest.raises(ValueError, match=r"^pc must lie in \[0, 1\], got 1.2$"):
        IslandConfig(pb_c=1.2)
    with pytest.raises(ValueError, match=r"^pm must lie in \[0, 1\], got -0.1$"):
        IslandConfig(pb_m=-0.1)
