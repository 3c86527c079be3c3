import json
import os
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from dualshare.boolcube import SymmetricDistribution
from dualshare.ratpoly import RationalPoly
from dualshare.serialize import (
    dist_from_json,
    dist_to_json,
    poly_to_json,
    rat_to_str,
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
