import itertools
import json
import math
import random

import numpy as np
import pytest
from scipy import stats as scipy_stats

from mqap import hypervolume, normalize_fronts, reference_point, wilcoxon_rank_sum
from mqap.runner import compare_result_sets, load_result_set

from conftest import (
    non_dominated,
    pairwise_non_dominated,
    recursive_hypervolume,
    resorting_hypervolume,
    tuple_compare_hypervolumes,
    tuple_normalize_fronts,
)


def _rows(points: np.ndarray) -> list[tuple[float, ...]]:
    return [tuple(p) for p in points.tolist()]


def test_normalize_single_front():
    (front,) = normalize_fronts([[(2, 4), (4, 2)]])
    assert front.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_normalize_shared_bounds():
    fronts = normalize_fronts([[(0, 10)], [(10, 0)]])
    assert [f.tolist() for f in fronts] == [[[0.0, 1.0]], [[1.0, 0.0]]]


def test_normalize_degenerate_dimension():
    fronts = normalize_fronts([[(5, 1), (5, 3)]])
    assert [p[0] for p in fronts[0]] == [0.0, 0.0]
    assert [p[1] for p in fronts[0]] == [0.0, 1.0]


def test_normalize_empty_union():
    with pytest.raises(ValueError, match="no points to normalize"):
        normalize_fronts([[], []])


def test_reference_point_cases():
    assert reference_point([(0, 1), (1, 0)], offset=0.0) == (1, 1)
    assert reference_point([(0, 1), (1, 0)]) == (1.01, 1.01)
    rng = random.Random(0)
    front = [tuple(rng.random() for _ in range(3)) for _ in range(20)]
    ref = reference_point(front, offset=0.25)
    assert ref == tuple(max(p[r] for p in front) + 0.25 for r in range(3))


def test_hypervolume_single_box():
    assert hypervolume([(0.5, 0.5)], (1.0, 1.0)) == pytest.approx(0.25, abs=1e-12)


def test_hypervolume_hand_case():
    value = hypervolume([(0.25, 0.75), (0.5, 0.5)], (1.0, 1.0))
    assert value == pytest.approx(0.3125, abs=1e-12)


def test_hypervolume_dominated_point_is_inert():
    base = hypervolume([(0.25, 0.75), (0.5, 0.5)], (1.0, 1.0))
    padded = hypervolume([(0.25, 0.75), (0.5, 0.5), (0.6, 0.8)], (1.0, 1.0))
    assert padded == pytest.approx(base, abs=1e-12)


def test_hypervolume_point_outside_reference_discarded():
    assert hypervolume([(1.2, 0.1)], (1.0, 1.0)) == 0.0
    assert hypervolume([(0.5, 0.5), (1.0, 0.0)], (1.0, 1.0)) == pytest.approx(0.25)


def test_hypervolume_dimension_mismatch():
    with pytest.raises(ValueError):
        hypervolume([(0.5, 0.5, 0.5)], (1.0, 1.0))


def test_hypervolume_monotone_and_permutation_invariant():
    rng = random.Random(17)
    for m in (2, 3, 4):
        front = [tuple(rng.random() for _ in range(m)) for _ in range(10)]
        ref = (1.0,) * m
        base = hypervolume(front, ref)
        shuffled = front[:]
        rng.shuffle(shuffled)
        assert hypervolume(shuffled, ref) == pytest.approx(base, abs=1e-12)
        fresh = tuple(rng.random() * 0.5 for _ in range(m))
        grown = hypervolume(front + [fresh], ref)
        assert grown >= base - 1e-12
        assert base <= 1.0 + 1e-12


def _mc_hypervolume(front, ref, samples, seed):
    rng = np.random.default_rng(seed)
    pts = np.array(front)
    draw = rng.random((samples, pts.shape[1])) * np.array(ref)
    covered = np.zeros(samples, dtype=bool)
    for p in pts:
        covered |= np.all(draw >= p, axis=1)
    return covered.mean() * float(np.prod(ref))


def test_hypervolume_against_small_monte_carlo():
    rng = random.Random(5)
    for m in (2, 3):
        front = [tuple(rng.random() for _ in range(m)) for _ in range(8)]
        ref = (1.0,) * m
        exact = hypervolume(front, ref)
        approx = _mc_hypervolume(front, ref, samples=200_000, seed=m)
        assert abs(exact - approx) < 5e-3


def _front_case(rng, m, count):
    """Random, grid (ties) or curved points, duplicates, and points at or beyond 1.0."""
    kind = rng.choice(("random", "grid", "curved"))
    points = []
    for _ in range(count):
        if kind == "random":
            p = [rng.random() for _ in range(m)]
        elif kind == "grid":
            p = [rng.randint(0, 4) / 4 for _ in range(m)]
        else:
            v = [abs(rng.gauss(0, 1)) + 1e-9 for _ in range(m)]
            norm = math.sqrt(sum(x * x for x in v))
            p = [1 - x / norm for x in v]
        if rng.random() < 0.1:
            p[rng.randrange(m)] = rng.choice((1.0, 1.25))
        points.append(tuple(p))
    if points and rng.random() < 0.5:
        points += [rng.choice(points) for _ in range(rng.randint(1, 4))]
        rng.shuffle(points)
    return points


def test_sweeps_and_array_filter_match_the_recursive_oracles():
    rng = random.Random(2009)
    for case in range(2000):
        m, count = case % 4 + 1, rng.randint(0, 25)
        points = _front_case(rng, m, count)
        ref = tuple(rng.choice((1.0, 0.9)) for _ in range(m))
        expected = recursive_hypervolume(points, ref)
        assert math.isclose(hypervolume(points, ref), expected, rel_tol=1e-12), (case, points, ref)
        assert _rows(non_dominated(points)) == pairwise_non_dominated(points), (case, points)


def test_five_objective_hypervolume_matches_the_recursive_oracle():
    rng = random.Random(2012)
    for case in range(150):
        points = _front_case(rng, 5, rng.randint(0, 12))
        ref = tuple(rng.choice((1.0, 0.9)) for _ in range(5))
        expected = recursive_hypervolume(points, ref)
        assert math.isclose(hypervolume(points, ref), expected, rel_tol=1e-12), (case, points, ref)


@pytest.mark.parametrize("m", [4, 5])
def test_slices_in_sweep_order_equal_the_resorting_slicer(m):
    # Sevenths tie often and round, so a slab swept in another order than the
    # per-prefix stable sorts would change the last bits; every case repeats points.
    rng = random.Random(40 + m)
    for case in range(150):
        count = rng.randint(1, 20)
        points = [tuple(rng.randint(1, 6) / 7 for _ in range(m)) for _ in range(count)]
        points += [rng.choice(points) for _ in range(rng.randint(1, 5))]
        rng.shuffle(points)
        ref = (1.0,) * m
        assert hypervolume(points, ref) == resorting_hypervolume(points, ref), (case, points)


@pytest.mark.parametrize("m", [3, 4])
def test_hypervolume_100_points(m):
    rng = random.Random(100 + m)
    front = _front_case(rng, m, 100)
    ref = (1.0,) * m
    exact = hypervolume(front, ref)
    assert math.isclose(exact, recursive_hypervolume(front, ref), rel_tol=1e-12)
    assert abs(exact - _mc_hypervolume(front, ref, samples=200_000, seed=m)) < 5e-3


def test_hypervolume_single_objective_and_empty_front():
    assert hypervolume([(0.25,), (0.5,), (1.5,)], (1.0,)) == 0.75
    assert hypervolume([], (1.0, 1.0, 1.0)) == 0.0
    assert hypervolume([(1.0, 0.5, 0.5)], (1.0, 1.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        hypervolume([()], ())


def test_non_dominated_filter_large_front_in_blocks(monkeypatch):
    rng = random.Random(11)
    points = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(300)]
    expected = pairwise_non_dominated(points)
    assert _rows(non_dominated(points)) == expected
    monkeypatch.setattr("mqap.ranking._MASK_CELLS", 7 * 300)  # 43 column blocks
    assert _rows(non_dominated(points)) == expected


def test_non_dominated_filter():
    pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (2.5, 2.5), (1.0, 3.0)]
    assert _rows(non_dominated(pts)) == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]


def _write_result_dir(directory, algorithm, fronts):
    """A result directory on instance ``demo``: one front file per trial, rows as given."""
    directory.mkdir(parents=True)
    records = []
    for t, front in enumerate(fronts):
        name = f"trial_{t:04d}.front"
        rows = [f"{k} | " + " ".join(map(str, p)) for k, p in enumerate(front)]
        text = "\n".join(["! instance=demo", *rows]) + "\n"
        (directory / name).write_text(text, encoding="utf-8")
        records.append({"trial": t, "seed": t, "front_file": name})
    manifest = {"instance": "demo", "algorithm": algorithm, "islands": 1, "trial_records": records}
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def _random_integer_fronts(rng, m):
    """Two or three result sets of integer fronts, some with repeated rows,
    empty trials or a column constant across every front."""
    high = rng.choice((3, 8, 1000, 10**9))
    constant = rng.randrange(m) if rng.random() < 0.3 else None
    per_set = []
    for _ in range(rng.randint(2, 3)):
        fronts = []
        for _ in range(rng.randint(1, 4)):
            front = [[rng.randint(0, high) for _ in range(m)] for _ in range(rng.randint(0, 12))]
            if front and rng.random() < 0.4:
                front += [rng.choice(front) for _ in range(rng.randint(1, 3))]
            if constant is not None:
                for p in front:
                    p[constant] = 7
            fronts.append([tuple(p) for p in front])
        per_set.append(fronts)
    if not any(f for fronts in per_set for f in fronts):
        per_set[0][0] = [tuple(rng.randint(0, high) for _ in range(m))]
    return per_set


def _compare_in_files(tmp_path, per_set):
    directories = []
    for k, fronts in enumerate(per_set):
        _write_result_dir(tmp_path / f"set{k}", f"alg{k}", fronts)
        directories.append(tmp_path / f"set{k}")
    (row,) = compare_result_sets([load_result_set(d) for d in directories])
    return row


@pytest.mark.parametrize("m", [2, 3, 4])
def test_compare_hypervolumes_equal_the_tuple_path(tmp_path, m):
    rng = random.Random(1500 + m)
    seen = {"constant": 0, "repeated": 0, "empty": 0}
    for case in range(60):
        per_set = _random_integer_fronts(rng, m)
        row = _compare_in_files(tmp_path / str(case), per_set)
        expected = tuple_compare_hypervolumes(per_set)
        assert row.per_trial == expected, (case, per_set)
        assert row.means == [sum(hv) / len(hv) for hv in expected], (case, per_set)
        fronts = [f for fronts in per_set for f in fronts]
        points = [p for f in fronts for p in f]
        seen["constant"] += any(len({p[r] for p in points}) == 1 for r in range(m))
        seen["repeated"] += any(len(set(f)) < len(f) for f in fronts)
        for fronts_of_set, hvs in zip(per_set, row.per_trial):
            for front, hv in zip(fronts_of_set, hvs):
                if not front:
                    seen["empty"] += 1
                    assert hv == 0.0
    assert min(seen.values()) > 0, seen


def test_compare_discards_points_on_or_beyond_the_reference(tmp_path):
    # Normalised, the non-dominated maxima are 0.5, so the reference is
    # 0.5 + 0.01 == 51 / 100 in both coordinates: (51, 10) lies on it and
    # (100, 100) beyond it, and neither adds volume.
    per_set = [[[(0, 50), (50, 0), (51, 10)], [(100, 100)]], [[(50, 0), (0, 50)], [(51, 10)]]]
    first, _, _, _ = tuple_normalize_fronts([f for fronts in per_set for f in fronts])
    assert first[2][0] == 0.5 + 0.01
    row = _compare_in_files(tmp_path, per_set)
    assert row.per_trial == tuple_compare_hypervolumes(per_set)
    assert row.per_trial[0][0] == row.per_trial[1][0] > 0.0
    assert row.per_trial[0][1] == row.per_trial[1][1] == 0.0


def test_rank_sum_identical_samples():
    stat, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert stat == pytest.approx(0.0)
    assert p == 1.0


def test_rank_sum_exact_separated_samples():
    stat, p = wilcoxon_rank_sum([1, 2, 3], [10, 11, 12])
    assert p == pytest.approx(0.1, abs=1e-12)
    assert stat < 0


def test_rank_sum_symmetry():
    rng = random.Random(2)
    a = [rng.random() for _ in range(8)]
    b = [rng.random() + 0.3 for _ in range(9)]
    stat_ab, p_ab = wilcoxon_rank_sum(a, b)
    stat_ba, p_ba = wilcoxon_rank_sum(b, a)
    assert stat_ab == pytest.approx(-stat_ba)
    assert p_ab == pytest.approx(p_ba)


def test_rank_sum_one_sided():
    low, high = [1, 2, 3, 4], [5, 6, 7, 8]
    _, p_greater = wilcoxon_rank_sum(high, low, alternative="greater")
    _, p_less = wilcoxon_rank_sum(high, low, alternative="less")
    assert p_greater < 0.05 < p_less


def test_rank_sum_rejects_tiny_and_degenerate_samples():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1, 2], [3, 4, 5])
    # A tied sample is answered, not rejected: every rank assignment has one sum.
    assert wilcoxon_rank_sum([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == (0.0, 1.0)
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1, 2, 3], [4, 5, 6], alternative="sideways")


def test_rank_sum_normal_branch_matches_scipy():
    rng = random.Random(7)
    for shift in (0.0, 0.4):
        a = [rng.gauss(0, 1) for _ in range(14)]
        b = [rng.gauss(shift, 1) for _ in range(12)]
        _, p = wilcoxon_rank_sum(a, b)
        expected = scipy_stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=False
        ).pvalue
        assert p == pytest.approx(expected, abs=1e-10)


def test_rank_sum_normal_branch_with_ties_matches_scipy():
    a = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7]
    b = [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8]
    _, p = wilcoxon_rank_sum(a, b)
    expected = scipy_stats.mannwhitneyu(
        a, b, alternative="two-sided", method="asymptotic", use_continuity=False
    ).pvalue
    assert p == pytest.approx(expected, abs=1e-10)


def test_rank_sum_exact_branch_matches_enumeration():
    a, b = [3.0, 9.0, 1.0], [4.0, 8.0, 2.0, 6.0]
    _, p = wilcoxon_rank_sum(a, b)
    ranks = {v: r + 1 for r, v in enumerate(sorted(a + b))}
    observed = sum(ranks[v] for v in a)
    sums = [sum(combo) for combo in itertools.combinations(sorted(ranks.values()), 3)]
    p_le = sum(s <= observed for s in sums) / len(sums)
    p_ge = sum(s >= observed for s in sums) / len(sums)
    assert p == pytest.approx(min(1.0, 2 * min(p_le, p_ge)), abs=1e-12)
