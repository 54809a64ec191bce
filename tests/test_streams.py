import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrl_lab.dynamics import hecke_stream
from rrl_lab.errors import ValidationError
from rrl_lab.streams import CoeffStream, from_values, partial_sum, periodic, preperiodic


def test_periodic_values():
    s = periodic([0, 1])
    assert [s.a(k) for k in range(5)] == [0, 1, 0, 1, 0]
    assert np.array_equal(s.take(4), np.array([0, 1, 0, 1], dtype=complex))


def test_preperiodic_values():
    s = preperiodic([5], [0, 1])
    assert [s.a(k).real for k in range(6)] == [5, 0, 1, 0, 1, 0]
    assert np.array_equal(s.take(4).real, np.array([5.0, 0.0, 1.0, 0.0]))


def test_bound_violation_rejected():
    s = CoeffStream("bad", lambda ks: ks.astype(complex), bound=1.0)
    with pytest.raises(ValidationError):
        s.take(5)


def test_nan_fails_bound_check():
    s = CoeffStream("nan", lambda ks: np.where(ks == 2, np.nan, 0.0), bound=1.0)
    with pytest.raises(ValidationError):
        s.take(5)
    with pytest.raises(ValidationError):
        s.a(2)


def test_real_rules_read_as_float64():
    assert CoeffStream("ints", lambda ks: ks % 2, 1.0).take(4).dtype == np.float64
    assert CoeffStream("bools", lambda ks: ks % 2 == 0, 1.0).take(4).dtype == np.float64
    assert CoeffStream("units", lambda ks: 1j**ks, 1.0).take(4).dtype == np.complex128


def test_real_tables_stay_real_and_complex_ones_complex():
    assert periodic([0.0, 1.0]).take(4).dtype == np.float64
    assert from_values([3, 4]).take(4).dtype == np.float64
    assert preperiodic([5], [0.0, 1.0]).take(4).dtype == np.float64
    assert periodic([0.0, 1j]).take(4).dtype == np.complex128
    assert from_values([3.0, 4j]).take(4).dtype == np.complex128
    s = preperiodic([2j], [0.0, 1.0])  # a complex head makes the whole table complex
    assert s.take(3).tolist() == [2j, 0.0, 1.0]


def test_negative_index_rejected():
    s = periodic([1.0])
    with pytest.raises(ValidationError):
        s.a(-1)


def test_from_values_pads_with_zeros():
    s = from_values([3.0, 4.0])
    assert s.a(1) == 4.0 and s.a(10) == 0.0
    assert s.bound == 4.0


def test_partial_sum_geometric():
    s = CoeffStream("ones", lambda ks: np.ones(len(ks)), 1.0)
    val, tail = partial_sum(s, 0.5, 30)
    # sum_{k<30} 0.5^k = 2 - 2*0.5^30; tail bound 0.5^30 / 0.5
    assert abs(val - (2.0 - 2.0 * 0.5**30)) < 1e-15
    assert abs(tail - 0.5**30 / 0.5) < 1e-18
    assert abs(val - 2.0) <= tail


VALUES = st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False), min_size=1,
                  max_size=6)
STREAMS = st.one_of(
    VALUES.map(from_values),
    VALUES.map(periodic),
    st.tuples(VALUES, VALUES).map(lambda hc: preperiodic(*hc)),
    st.floats(-10.0, 10.0, allow_nan=False).map(hecke_stream),
    st.just(hecke_stream(0.7)),
)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(STREAMS, st.integers(1, 2000), st.data())
def test_single_read_matches_prefix_bitwise(stream, n, data):
    prefix = stream.take(n)
    k = data.draw(st.integers(0, n - 1))
    assert np.array_equal(bits([stream.a(k)]), bits(prefix[k : k + 1]))


def test_hecke_stream_single_reads_are_unsnapped():
    s = hecke_stream(0.7)
    prefix = s.take(2000)
    assert s.a(90) == prefix[90] == np.mod(90 * 0.7, 1.0)
    assert np.array_equal(bits([s.a(k) for k in range(2000)]), bits(prefix))
