"""Front file reading: the one-call conversion of canonical files against the per-line reader."""

import json
import re

import numpy as np
import pytest

from mqap import MqapError, runner
from mqap.cli import main
from mqap.runner import load_result_set, read_front_file, write_front_file

HEADER = {"instance": "demo", "algorithm": "memetic", "islands": "2", "seed": "7"}
PER_LINE = runner._read_per_line


@pytest.fixture
def per_line_calls(monkeypatch):
    """Counts the files that reach the per-line reader."""
    calls = []

    def counted(text):
        calls.append(text)
        return PER_LINE(text)

    monkeypatch.setattr(runner, "_read_per_line", counted)
    return calls


def _sorted_rows(perms, objs):
    """Rows in the order ``front_text`` writes them: by objectives, then permutation."""
    rows = sorted(zip(objs.tolist(), perms.tolist()))
    return np.array([p for _, p in rows]), np.array([o for o, _ in rows])


def _same_result(path, text=None):
    """``read_front_file`` on ``path`` and the per-line reader on ``text`` agree, error or not.

    The file's error is the reader's, after the file's name.
    """
    text = path.read_text(encoding="utf-8") if text is None else text
    try:
        expected = PER_LINE(text)
    except MqapError as exc:
        with pytest.raises(MqapError) as raised:
            read_front_file(path)
        assert str(raised.value) == f"{path}: {exc}"
        return
    header, perms, objs = read_front_file(path)
    assert header == expected[0]
    assert perms.dtype == objs.dtype == np.int64
    np.testing.assert_array_equal(perms, expected[1], strict=True)
    np.testing.assert_array_equal(objs, expected[2], strict=True)


@pytest.mark.parametrize(
    "n, m, k, high, bulk",
    [
        (1, 1, 1, 1, True),
        (1, 1, 5, 10**18, True),
        (3, 2, 40, 10**6, True),
        (30, 2, 60, 10**9, True),
        (4, 4, 20, 10**18, True),
        (2, 3, 10, 2**63, True),  # 19-digit values: converted token by token
    ],
)
def test_written_fronts_read_back_equal(tmp_path, np_rng, per_line_calls, n, m, k, high, bulk):
    perms = np_rng.integers(0, high, (k, n), dtype=np.int64, endpoint=False)
    objs = np_rng.integers(0, high, (k, m), dtype=np.int64, endpoint=False)
    # The extremes of the range the file holds.
    perms[0, 0], objs[-1, -1] = 0, high - 1
    path = tmp_path / "t.front"
    write_front_file(path, perms, objs, HEADER)
    header, got_perms, got_objs = read_front_file(path)
    want_perms, want_objs = _sorted_rows(perms, objs)
    assert header == HEADER
    np.testing.assert_array_equal(got_perms, want_perms, strict=True)
    np.testing.assert_array_equal(got_objs, want_objs, strict=True)
    assert len(per_line_calls) == (0 if bulk else 1)
    _same_result(path)


def test_largest_int64_reads_exactly(tmp_path, per_line_calls):
    path = tmp_path / "t.front"
    write_front_file(path, [[0, 2**63 - 1]], [[2**63 - 1, 10**18]], {})
    _, perms, objs = read_front_file(path)
    assert perms.tolist() == [[0, 2**63 - 1]] and objs.tolist() == [[2**63 - 1, 10**18]]
    assert per_line_calls == []


CANONICAL = "! instance=demo\n! seed=3\n0 1 2 | 3 40\n1 0 2 | 5 6\n2 1 0 | 70 8\n"

# Files in other layouts than front_text's: each must read as the per-line reader reads it.
VARIANTS = {
    "tabs": CANONICAL.replace(" | ", "\t|\t"),
    "double-spaces": CANONICAL.replace("1 2 |", "1  2 |"),
    "leading-space": CANONICAL.replace("\n1 0", "\n 1 0"),
    "trailing-space": CANONICAL.replace("6\n", "6 \n"),
    "no-spaces-around-bar": CANONICAL.replace(" | ", "|"),
    "comment-between-rows": CANONICAL.replace("\n1 0", "\n# a note\n1 0"),
    "blank-between-rows": CANONICAL.replace("\n1 0", "\n\n1 0"),
    "blank-after-header": CANONICAL.replace("\n0 1", "\n\n0 1"),
    "no-final-newline": CANONICAL[:-1],
    "plus-sign": CANONICAL.replace("| 5 6", "| +5 6"),
    "plus-sign-first": CANONICAL.replace("\n1 0", "\n+1 0"),
    "minus-sign-first": CANONICAL.replace("\n1 0", "\n-1 0"),
    "underscore": CANONICAL.replace("| 70", "| 7_0"),
    "leading-zeros": CANONICAL.replace("| 70", "| 0070"),
    "header-after-data": CANONICAL + "! seed=4\n! algorithm=nsga2\n",
    "header-line-indented": CANONICAL.replace("! seed", " ! seed"),
    "form-feed-in-header": CANONICAL.replace("! seed=3", "! seed=3\x0c9 9 9 | 1 1"),
    "line-separator-in-body": CANONICAL.replace("6\n", "6\u2028"),
    "rows-joined": CANONICAL.replace("6\n", "6 "),
    "no-header": CANONICAL.split("! seed=3\n")[1],
    "only-header": "! instance=demo\n",
    "only-header-no-final-newline": "! instance=demo",
    "empty": "",
    "nineteen-digits": CANONICAL.replace("| 70", "| 9223372036854775807"),
    "beyond-int64": CANONICAL.replace("| 70", "| 99999999999999999999"),
    "bad-token": CANONICAL.replace("| 70", "| 7x"),
    "no-objectives": CANONICAL.replace("| 5 6", "|"),
    "ragged-objectives": CANONICAL.replace("| 5 6", "| 5 6 7"),
    "ragged-permutation": CANONICAL.replace("1 0 2 |", "1 0 |"),
    # The row is as wide as the first, but splits it at another place.
    "bar-moved": CANONICAL.replace("1 0 2 | 5 6", "1 0 | 2 5 6"),
    # The separators of the first row, one value fewer.
    "empty-token": CANONICAL.replace("1 0 2 | 5 6", "1 02  | 5 6"),
    "bare-bar": "! instance=demo\n | \n",
    # The skeleton of the first row, with the bar against a token.
    "bar-touches-a-token": CANONICAL.replace("1 0 2 | 5 6", "1 0 2 |5  6"),
}
# The variants that are in front_text's layout after all.
BULK_VARIANTS = {"no-header", "only-header", "empty", "leading-zeros", "nineteen-digits"}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_other_layouts_read_as_the_per_line_reader_reads_them(tmp_path, per_line_calls, name):
    path = tmp_path / "t.front"
    path.write_text(VARIANTS[name], encoding="utf-8")
    _same_result(path)
    assert len(per_line_calls) == (name not in BULK_VARIANTS)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_other_line_ends_read_as_the_per_line_reader_reads_them(tmp_path, newline):
    text = CANONICAL.replace("\n", newline)
    path = tmp_path / "t.front"
    path.write_bytes(text.encode("utf-8"))
    _same_result(path, text)
    _same_result(path, CANONICAL)


def test_rows_of_two_then_four_objectives_name_their_line(tmp_path):
    # 4 + 6 tokens over 2 rows: the total alone cannot tell this file from a valid one.
    path = tmp_path / "t.front"
    path.write_text("! instance=demo\n0 1 | 3 4\n1 0 | 5 6 7 8\n", encoding="utf-8")
    message = f"{path}: line 3 holds 4 objectives, the first row 2"
    with pytest.raises(MqapError, match=f"^{re.escape(message)}$"):
        read_front_file(path)


def test_a_second_bar_is_an_invalid_token(tmp_path):
    path = tmp_path / "t.front"
    path.write_text("0 1 | 3 4\n1 0 | 5 |\n", encoding="utf-8")
    message = f"{path}: line 2: invalid token '|'"
    with pytest.raises(MqapError, match=f"^{re.escape(message)}"):
        read_front_file(path)


def _run(argv):
    return main([str(a) for a in argv])


def test_sign_led_rows_are_data(tmp_path, capsys):
    path = tmp_path / "t.front"
    path.write_text("0 1 | 5 6\n-1 0 | 3 4\n+1 0 | 1 2\n", encoding="utf-8")
    _, perms, objs = read_front_file(path)
    assert perms.tolist() == [[0, 1], [-1, 0], [1, 0]]
    assert objs.tolist() == [[5, 6], [3, 4], [1, 2]]
    # (1, 2) alone covers 9 x 8 of the box below (10, 10); (5, 6) alone 5 x 4.
    assert _run(["hv", "--front", path, "--ref", "10,10"]) == 0
    assert capsys.readouterr().out == "72.000000\n"


def test_run_and_enumerate_output_never_reaches_the_per_line_reader(
    tmp_path, capsys, per_line_calls
):
    out = tmp_path / "results"
    assert _run(["run", "--gen-spec", "n=6,m=3,seed=2", "--trials", 2, "--generations", 2,
                 "--ls-secs", 0.05, "--out", out]) == 0
    result = load_result_set(out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [len(f) for f in result.fronts] == [r["front_size"] for r in manifest["trial_records"]]
    assert _run(["gen", "--n", 5, "--m", 2, "--seed", 1, "--out", tmp_path / "five.qap"]) == 0
    capsys.readouterr()
    assert _run(["enumerate", "--instance", tmp_path / "five.qap"]) == 0
    enumerated = tmp_path / "exact.front"
    enumerated.write_text(capsys.readouterr().out, encoding="utf-8")
    header, perms, objs = read_front_file(enumerated)
    assert header["exact"] == "true" and perms.shape[1] == 5 and objs.shape[1] == 2 and len(perms) >= 1
    empty = tmp_path / "empty.front"
    write_front_file(empty, np.empty((0, 4), dtype=np.int64), np.empty((0, 2)), HEADER)
    assert read_front_file(empty)[0] == HEADER
    assert per_line_calls == []


def test_result_set_without_manifest_is_named(tmp_path):
    with pytest.raises(MqapError, match="has no manifest.json"):
        load_result_set(tmp_path)
    with pytest.raises(MqapError, match="has no manifest.json"):
        load_result_set(tmp_path / "missing")

