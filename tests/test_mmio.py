import re

import numpy as np
import pytest

from l1linf.mmio import ParseError, read_matrixmarket_array, read_vector
from reference_lp import write_matrixmarket_array

MM_SAMPLE = """%%MatrixMarket matrix array real general
% column-major storage
2 3
1.0
4.0
2.0
5.0
3.0
6.0
"""


def test_read_array_column_major():
    a = read_matrixmarket_array(MM_SAMPLE)
    np.testing.assert_array_equal(a, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    f = tmp_path / "a.mtx"
    f.write_text(write_matrixmarket_array(a))
    np.testing.assert_array_equal(read_matrixmarket_array(f), a)


def test_rejects_coordinate_format():
    bad = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5.0\n"
    with pytest.raises(ParseError):
        read_matrixmarket_array(bad)


def test_rejects_garbage():
    with pytest.raises(ParseError):
        read_matrixmarket_array("not a matrix\n1 2 3\n")
    with pytest.raises(ParseError):
        read_matrixmarket_array("%%MatrixMarket matrix array real general\n2 2\n1.0\n")


def test_rejects_negative_size_line():
    # -1 x -2 declares as many entries as are given; it must still be
    # refused by the parser, naming the size line
    for size in ("-1 -2", "-2 1", "3 -1"):
        text = f"%%MatrixMarket matrix array real general\n{size}\n1.0\n2.0\n3.0\n"
        with pytest.raises(ParseError, match=f"size line: '{size}'"):
            read_matrixmarket_array(text)
    empty = read_matrixmarket_array("%%MatrixMarket matrix array real general\n0 3\n")
    assert empty.shape == (0, 3)


def test_read_vector_plain_and_json(tmp_path):
    np.testing.assert_array_equal(read_vector("1.5 -2 3e0"), [1.5, -2.0, 3.0])
    np.testing.assert_array_equal(read_vector("[1, 2.5]"), [1.0, 2.5])
    f = tmp_path / "v.txt"
    f.write_text("7\n8\n")
    np.testing.assert_array_equal(read_vector(f), [7.0, 8.0])
    with pytest.raises(ParseError):
        read_vector("1 two 3")
    # numpy reads a boolean or a numeric string as a number; JSON does not
    for text, kind in (('[true, "2", 3]', "a string"), ("[1, true]", "a boolean"),
                       ('["2"]', "a string"), ("[1, null]", "null")):
        with pytest.raises(ParseError, match=f"JSON vector must hold numbers, not {kind}"):
            read_vector(text)


def test_read_vector_missing_path_is_named_and_str_is_text(tmp_path):
    missing = tmp_path / "3"
    with pytest.raises(ParseError, match=re.escape(str(missing))):
        read_vector(missing)
    np.testing.assert_array_equal(read_vector("3"), [3.0])
