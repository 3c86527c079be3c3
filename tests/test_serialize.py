import json
import math
import os
import stat
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualshare.boolcube import SymmetricDistribution
from dualshare.cli import main
from dualshare.ratpoly import RationalPoly
from dualshare.serialize import (
    _json_pieces,
    dist_from_json,
    dist_to_json,
    poly_to_json,
    rat_to_str,
    witness_from_json,
    witness_to_json,
    write_csv,
    write_json,
)


def test_rational_strings():
    assert rat_to_str(Fraction(-3, 6)) == "-1/2"
    assert rat_to_str(5) == "5/1"
    assert Fraction(rat_to_str(Fraction(-1, 2))) == Fraction(-1, 2)  # read back by Fraction


@given(st.fractions())
def test_rational_strings_match_the_fraction_route(x):
    def oracle(v):
        f = Fraction(v)
        return f"{f.numerator}/{f.denominator}"

    inputs = [x, str(x), f"{2 * x.numerator}/{2 * x.denominator}"]
    if x.denominator == 1:
        inputs.append(x.numerator)
    for v in inputs:
        assert rat_to_str(v) == oracle(v) == f"{x.numerator}/{x.denominator}"


def test_poly_round_trip():
    p = RationalPoly.of(Fraction(1, 3), 0, Fraction(-5, 2))
    assert RationalPoly.from_coeffs(map(Fraction, poly_to_json(p))) == p
    assert poly_to_json(p)[0] == "1/3"  # lowest power first


def test_distribution_round_trip():
    d = SymmetricDistribution.of(3, [Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)])
    doc = dist_to_json(d)
    assert doc["n"] == 3
    assert dist_from_json(doc) == d


def test_witness_round_trip():
    values = (Fraction(1, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 4))
    doc = witness_to_json(2, Fraction(1), [rat_to_str(v) for v in values])
    assert doc["representation"] == "cube"
    assert doc["n"] == 2
    assert tuple(map(Fraction, doc["values"])) == values
    assert Fraction(doc["claimed_degree"]) == 1


def test_atomic_json_write(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"b": 1, "a": 2})
    text = path.read_text()
    assert json.loads(text) == {"a": 2, "b": 1}
    assert text.index('"a"') < text.index('"b"')  # sorted keys: stable bytes
    # no stray temp files left behind
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp")] == []


def test_atomic_csv_write(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["a", "b"], [[1, "1/2"], [2, "3/4"]])
    assert path.read_text().splitlines() == ["a,b", "1,1/2", "2,3/4"]


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"a": 1}),
    lambda path: write_csv(path, ["a"], [[1]]),
], ids=["json", "csv"])
def test_output_files_get_the_mode_of_a_plain_write(tmp_path, write):
    """0o666 less the umask, for a new file and for one written over."""
    old = os.umask(0o022)
    try:
        fresh, plain, over = (str(tmp_path / name) for name in ("fresh", "plain", "over"))
        with open(plain, "w"):
            pass
        write(fresh)
        with open(over, "w"):
            pass
        os.chmod(over, 0o600)
        write(over)
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(path).st_mode) for path in (fresh, plain, over)]
    assert modes == [0o644] * 3
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp")] == []


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# quotes, backslashes, control characters, non-ASCII and surrogates
_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "a\nb\tc", "é", "\u2028",
                                     "\U0001f600", "\ud800", "</script>", ""])
_SCALAR = (st.none() | st.booleans() | _TEXT | st.floats()
           | st.integers() | st.integers(min_value=-(1 << 300), max_value=1 << 300))
_JSON = st.recursive(
    _SCALAR,
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=6)),
    max_leaves=40)


@given(_JSON)
@example(-0.0)
@example([0.0, -0.0, math.inf, -math.inf, math.nan])
@example([True, False, 1, 0, None])
@example([[], {}, [[]], {"a": {}}, ([],), ()])
@example({"b": [1, "x"], "a": ({"c": []},), "": None})
@example([{1: [1, {"b": 2}], 2: "x"}, {None: 0}])  # keys json.dumps converts
def test_json_pieces_are_the_bytes_of_json_dumps(obj):
    assert "".join(_json_pieces(obj)) == _dumps(obj)


@pytest.mark.parametrize("size", [4095, 4096, 4097, 8193])
def test_long_lists_are_the_bytes_of_json_dumps(size):
    texts = [f"{k % 7}/{k % 5 + 1}" for k in range(size)]  # few distinct strings
    ints = list(range(-(size // 2), size - size // 2))
    lists = {
        "repeated-texts": texts,
        "distinct-texts": [f'"{k}"\\é' for k in range(size)],
        "ints": ints,
        "big-ints": [k << 70 for k in ints],
        "bools": [k % 3 == 0 for k in range(size)],
        "ints-then-a-bool": [*ints[:-1], True],  # the last block is mixed
        "texts-then-an-int": [*texts[:-1], 7],
        "a-bool-at-the-block-edge": [*ints[:4096], False, *ints[4097:]],
        "mixed": [texts[k] if k % 3 else k for k in range(size)],
        "rows": [[1, -1, 1]] * size,
    }
    for name, items in lists.items():
        for obj in (items, tuple(items), {"v": items, "w": [items]}):
            assert "".join(_json_pieces(obj)) == _dumps(obj), name


def _dual_and_file(tmp_path, n: int):
    path = tmp_path / "wit.json"
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        main(["dual-and", "--n", str(n), "--d", "6", "--out", str(path)])
    return path


def test_writing_the_witness_holds_less_than_the_file(tmp_path):
    # json.dumps(indent=2) built the whole text and its pieces: 6.99 MB traced
    # for this 1.58 MB file
    path = _dual_and_file(tmp_path, 16)
    doc = json.loads(path.read_text())
    tracemalloc.start()
    try:
        write_json(str(tmp_path / "again.json"), doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert peak < path.stat().st_size, peak


def test_reading_the_witness_builds_no_table_beside_the_mask_classes(tmp_path):
    # the mask -> class table is 8 bytes a point; the reader's 2^n set, tuple
    # and expansion beside it took 1.65-1.77 MB traced at n = 16
    doc = json.loads(_dual_and_file(tmp_path, 16).read_text())
    tracemalloc.start()
    try:
        witness_from_json(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 16, peak
