"""CSV round-trip tests, including property-based round-trips."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.frame import Frame, read_csv, write_csv
from repro.frame.csvio import dumps_csv, loads_csv


def test_round_trip_via_file(tmp_path):
    frame = Frame({"name": ["a", "b"], "x": [1, 2], "y": [1.5, 2.5]})
    path = tmp_path / "t.csv"
    write_csv(frame, path)
    back = read_csv(path)
    assert back == frame


def test_round_trip_creates_parent_dirs(tmp_path):
    frame = Frame({"x": [1]})
    path = tmp_path / "deep" / "dir" / "t.csv"
    write_csv(frame, path)
    assert read_csv(path) == frame


def test_type_inference_int_float_string():
    frame = loads_csv("a,b,c\n1,1.5,x\n2,2.5,y\n")
    assert frame["a"].dtype.kind == "i"
    assert frame["b"].dtype.kind == "f"
    assert frame["c"].dtype == object


def test_empty_csv_gives_empty_frame():
    assert len(loads_csv("")) == 0


def test_header_only_gives_empty_columns():
    frame = loads_csv("a,b\n")
    assert frame.names == ["a", "b"]
    assert len(frame) == 0


def test_none_rendered_as_empty_string():
    frame = Frame({"x": np.asarray([None, "v"], dtype=object)})
    text = dumps_csv(frame)
    # A lone empty field is quoted by the csv module to stay distinguishable
    # from a blank line.
    assert text.splitlines()[1] in ("", '""')


_safe_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_-"
    ),
    min_size=1,
    max_size=10,
)


@given(
    ints=st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=1, max_size=30),
    data=st.data(),
)
def test_property_round_trip_preserves_values(ints, data):
    names = data.draw(
        st.lists(_safe_text, min_size=1, max_size=3, unique=True)
    )
    frame = Frame({name: list(ints) for name in names})
    assert loads_csv(dumps_csv(frame)) == frame


@given(
    floats=st.lists(
        st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
        ),
        min_size=1,
        max_size=30,
    )
)
def test_property_float_round_trip_close(floats):
    frame = Frame({"v": floats})
    back = loads_csv(dumps_csv(frame))
    assert np.allclose(
        np.asarray(back["v"], dtype=float), np.asarray(floats), rtol=1e-12, atol=0
    )


@given(strings=st.lists(_safe_text, min_size=1, max_size=20))
@example(["0E0"])
@example(["-0", "1e5"])
def test_property_string_round_trip(strings):
    frame = Frame({"s": strings})
    back = loads_csv(dumps_csv(frame))
    assert [str(v) for v in back["s"]] == [str(v) for v in frame["s"]]


def test_numeric_looking_string_column_is_tagged():
    frame = Frame({"s": np.asarray(["0E0", "12"], dtype=object), "x": [1, 2]})
    text = dumps_csv(frame)
    assert text.splitlines()[0] == "s:str,x"
    back = loads_csv(text)
    assert back.names == ["s", "x"]
    assert list(back["s"]) == ["0E0", "12"]
    assert back["x"].dtype.kind == "i"


def test_plain_string_column_header_unchanged():
    assert dumps_csv(Frame({"s": ["a", "b"]})).splitlines()[0] == "s"


def test_tag_suffix_in_a_string_column_name_round_trips():
    frame = Frame({"a:str": ["x"]})
    assert loads_csv(dumps_csv(frame)) == frame


def test_object_column_of_numbers_is_not_tagged():
    frame = Frame({"n": np.asarray([1, 2], dtype=object)})
    assert dumps_csv(frame).splitlines()[0] == "n"
