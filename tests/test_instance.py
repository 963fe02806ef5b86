import math
import re

import numpy as np
import pytest

from mqap import InstanceSpec, generate_uniform, parse_instance, write_instance
from mqap import MqapError
from mqap.instance import (
    Instance,
    _INT64_SAFE,
    _int64_values,
    text_lines,
)

MINIMAL = "2\n0 1\n1 0\n0 3\n2 0"


def test_parse_minimal():
    inst = parse_instance(MINIMAL)
    assert inst.n == 2 and inst.m == 1
    assert np.array_equal(inst.distances, [[0, 1], [1, 0]])
    assert np.array_equal(inst.flows[0], [[0, 3], [2, 0]])


def test_parse_comment_and_flow_inference():
    inst = parse_instance("! comment\n2\n0 1\n1 0\n0 3\n2 0\n0 5\n4 0")
    assert inst.n == 2 and inst.m == 2


def test_parse_trailing_tokens_rejected():
    with pytest.raises(MqapError, match="9 entries do not form whole 2x2 matrices"):
        parse_instance("2\n0 1\n1 0\n0 3\n2 0\n5")


@pytest.mark.parametrize("size", [0, -2])
def test_parse_rejects_sizes_below_two(size):
    # Without the guard, 0 would divide by zero and -2 would fail in numpy's reshape.
    with pytest.raises(MqapError, match=f"^instance size must be >= 2, got {size}$"):
        parse_instance(f"{size}\n0 1\n1 0\n0 3\n2 0")


def test_parse_missing_flow_matrix_rejected():
    with pytest.raises(MqapError, match="expected at least 8 matrix entries, got 4"):
        parse_instance("2\n0 1\n1 0")


def test_parse_empty_input():
    with pytest.raises(MqapError, match="no numeric data found"):
        parse_instance("! only a comment\n")


def test_parse_negative_entry():
    with pytest.raises(MqapError, match="must be non-negative"):
        parse_instance("2\n0 1\n1 0\n0 -3\n2 0")


def test_parse_non_integer_token():
    with pytest.raises(MqapError):
        parse_instance("2\n0 1\n1 x\n0 3\n2 0")


def test_parse_accepts_what_int_accepts():
    inst = parse_instance("2\n0 +1\n1_000 007\n0 \u0663\n2 0")
    assert inst.distances.tolist() == [[0, 1], [1000, 7]]
    assert inst.flows[0].tolist() == [[0, 3], [2, 0]]


def test_parse_rows_starting_with_a_sign_are_data():
    inst = parse_instance("+2\n0 1\n+1 0\n+0 3\n2 0\n+0 5\n4 0")
    assert inst.m == 2 and inst.flows[0].tolist() == [[0, 3], [2, 0]]
    with pytest.raises(MqapError, match="must be non-negative"):
        parse_instance("2\n0 1\n1 0\n0 3\n2 0\n-1 4\n-2 0")
    # A sign not followed by a digit still starts a comment.
    assert parse_instance("- note\n+ note\n" + MINIMAL).m == 1


def test_text_lines_rule():
    lines = ["", "  ", "# note", "! k=v", "!k=w", "+1", "-1", "- 1", "|5", " 2 | 3 ", "! j = x y "]
    metadata, data, numbers = text_lines("\n".join(lines))
    # A later key replaces an earlier one; keys and values are stripped.
    assert metadata == {"k": "w", "j": "x y"}
    assert data == ["+1", "-1", "2 | 3"]
    assert numbers == [6, 7, 10]


@pytest.mark.parametrize("token", ["1.5", "0x10", "99999999999999999999", "-99999999999999999999"])
def test_parse_rejects_tokens_that_are_not_int64(token):
    with pytest.raises(MqapError, match=re.escape(repr(token))):
        parse_instance(f"2\n0 1\n1 0\n0 3\n2 {token}")


def test_metadata_comment_emission():
    inst = parse_instance(MINIMAL)
    inst.metadata["type"] = "uniform"
    text = write_instance(inst)
    assert text.splitlines()[0] == "! type=uniform"
    assert parse_instance(text).metadata["type"] == "uniform"


def test_round_trip_minimal():
    first = parse_instance(MINIMAL)
    second = parse_instance(write_instance(first))
    assert second.n == first.n
    assert np.array_equal(second.distances, first.distances)
    assert all(np.array_equal(a, b) for a, b in zip(second.flows, first.flows))


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_generated(seed):
    spec = InstanceSpec(n=6 + seed, m=1 + seed % 3, correlation=0.0, seed=seed)
    original = generate_uniform(spec)
    parsed = parse_instance(write_instance(original))
    assert parsed.n == original.n and parsed.m == original.m
    assert np.array_equal(parsed.distances, original.distances)
    assert all(np.array_equal(a, b) for a, b in zip(parsed.flows, original.flows))
    assert parsed.name == original.name


@pytest.mark.parametrize(
    "data",
    [
        "2\n0 1\n1 0",
        "0 999999999999999999\t7",  # the largest value the one-call conversion takes
        "1000000000000000000 5",
        "9223372036854775807 5",
        "9223372036854775808 5",
        "99999999999999999999 5",
        "0000000000000000000000005 1",
        "+5 -3\n-0 +0",
        "1_0 7",
        "\u0663 1",
        "1\xa02",
        "1.5 2",
        "0x10 2",
        # No tokens: no values, where np.fromstring reads blank text as one 0.
        "",
        " ",
        " \n",
        "\t\n",
    ],
)
def test_one_call_conversion_equals_the_token_path(data):
    try:
        expected = np.array(data.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        with pytest.raises(MqapError, match="invalid token"):
            _int64_values(data)
        return
    np.testing.assert_array_equal(_int64_values(data), expected, strict=True)


def test_instance_validation():
    with pytest.raises(MqapError):
        Instance(n=1, distances=np.zeros((1, 1)), flows=(np.zeros((1, 1)),))
    with pytest.raises(MqapError):
        Instance(n=3, distances=np.zeros((2, 2)), flows=(np.zeros((3, 3)),))
    with pytest.raises(MqapError, match="must be non-negative"):
        Instance(n=2, distances=np.array([[0, -1], [1, 0]]), flows=(np.zeros((2, 2)),))
    huge = np.full((2, 2), 2**40)
    with pytest.raises(MqapError):
        Instance(n=2, distances=huge, flows=(huge,))


def test_generator_determinism():
    spec = InstanceSpec(n=12, m=3, correlation=0.4, seed=99)
    a, b = generate_uniform(spec), generate_uniform(spec)
    assert np.array_equal(a.distances, b.distances)
    assert all(np.array_equal(x, y) for x, y in zip(a.flows, b.flows))


def test_generator_shape_and_diagonal():
    inst = generate_uniform(InstanceSpec(n=9, m=2, correlation=-0.3, seed=5))
    for mat in (inst.distances, *inst.flows):
        assert mat.shape == (9, 9)
        assert np.all(np.diagonal(mat) == 0)
        assert mat.min() >= 0


def test_generator_full_correlation_duplicates_flow():
    inst = generate_uniform(InstanceSpec(n=10, m=2, correlation=1.0, seed=7))
    assert np.array_equal(inst.flows[0], inst.flows[1])


def test_generator_infeasible_correlation():
    with pytest.raises(ValueError, match="cannot calibrate correlation"):
        generate_uniform(InstanceSpec(n=2, m=2, correlation=0.5, seed=1))


def _flow_correlation(inst, a=0, b=1):
    mask = ~np.eye(inst.n, dtype=bool)
    return float(np.corrcoef(inst.flows[a][mask], inst.flows[b][mask])[0, 1])


def test_generator_small_zero_correlation():
    inst = generate_uniform(InstanceSpec(n=10, m=2, correlation=0.0, seed=7))
    assert -0.15 <= _flow_correlation(inst) <= 0.15


@pytest.mark.parametrize("target", [0.0, 0.3, -0.8, 0.9])
def test_generator_correlation_calibration(target):
    for seed in range(20):
        inst = generate_uniform(InstanceSpec(n=20, m=2, correlation=target, seed=seed))
        assert abs(_flow_correlation(inst) - target) <= 0.15, (target, seed)


def test_generator_correlation_per_extra_flow():
    # Every flow beyond the first is calibrated against flow 1.
    for seed in range(5):
        inst = generate_uniform(InstanceSpec(n=24, m=3, correlation=0.5, seed=seed))
        assert abs(_flow_correlation(inst, 0, 1) - 0.5) <= 0.15
        assert abs(_flow_correlation(inst, 0, 2) - 0.5) <= 0.15


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(n=10, m=2, correlation=1.5, seed=0)
    with pytest.raises(ValueError):
        InstanceSpec(n=1, m=2, correlation=0.0, seed=0)


def test_spec_rejects_max_value_at_the_load_guard():
    # n^2 * max_value^2 must stay below the loader's 2^62 guard.
    top = math.isqrt((_INT64_SAFE - 1) // 25)
    assert generate_uniform(InstanceSpec(n=5, m=2, max_value=top)).distances.max() <= top
    for max_value in (top + 1, 10**20):
        with pytest.raises(ValueError, match="max_value"):
            InstanceSpec(n=5, m=2, max_value=max_value)
