import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrl_lab.dynamics import hecke_stream
from rrl_lab.errors import ValidationError
from rrl_lab.streams import CoeffStream, preperiodic


def test_periodic_values():
    s = preperiodic([], [0, 1])
    assert s.take(5).tolist() == [0, 1, 0, 1, 0]
    assert s.take(3, start=7).tolist() == [1, 0, 1]


def test_preperiodic_values():
    s = preperiodic([5], [0, 1])
    assert s.take(6).tolist() == [5, 0, 1, 0, 1, 0]
    assert s.take(2, start=3).tolist() == [0, 1]


def test_bound_violation_rejected():
    s = CoeffStream("bad", lambda ks: ks.astype(complex), bound=1.0)
    with pytest.raises(ValidationError):
        s.take(5)


def test_nan_fails_bound_check():
    s = CoeffStream("nan", lambda ks: np.where(ks == 2, np.nan, 0.0), bound=1.0)
    with pytest.raises(ValidationError):
        s.take(5)
    with pytest.raises(ValidationError):
        s.take(1, start=2)


def test_real_rules_read_as_float64():
    assert CoeffStream("ints", lambda ks: ks % 2, 1.0).take(4).dtype == np.float64
    assert CoeffStream("bools", lambda ks: ks % 2 == 0, 1.0).take(4).dtype == np.float64
    assert CoeffStream("units", lambda ks: 1j**ks, 1.0).take(4).dtype == np.complex128


def test_real_tables_stay_real_and_complex_ones_complex():
    assert preperiodic([], [0.0, 1.0]).take(4).dtype == np.float64
    assert preperiodic([3, 4], [0]).take(4).dtype == np.float64
    assert preperiodic([5], [0.0, 1.0]).take(4).dtype == np.float64
    assert preperiodic([], [0.0, 1j]).take(4).dtype == np.complex128
    assert preperiodic([3.0, 4j], [0]).take(4).dtype == np.complex128
    s = preperiodic([2j], [0.0, 1.0])  # a complex head makes the whole table complex
    assert s.take(3).tolist() == [2j, 0.0, 1.0]


def test_negative_index_rejected():
    for start in (-1, np.int64(-1)):
        with pytest.raises(ValidationError):
            preperiodic([], [1.0]).take(3, start=start)


def test_empty_cycle_and_negative_bound_rejected():
    with pytest.raises(ValidationError, match="cycle must be nonempty"):
        preperiodic([], [])
    with pytest.raises(ValidationError, match="bound must be nonnegative"):
        CoeffStream("negative", lambda ks: ks * 0.0, bound=-1)


def test_zero_cycle_pads_a_finite_sequence_with_zeros():
    s = preperiodic([3.0, 4.0], [0])
    assert s.take(1, start=1)[0] == 4.0 and s.take(1, start=10)[0] == 0.0
    assert s.bound == 4.0
    assert preperiodic([], [0]).bound == 0.0


VALUES = st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False), min_size=1,
                  max_size=6)
STREAMS = st.one_of(
    VALUES.map(lambda v: preperiodic(v, [0])),
    VALUES.map(lambda c: preperiodic([], c)),
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
    assert np.array_equal(bits(stream.take(1, start=k)), bits(prefix[k : k + 1]))
    # a slice read from k: the blocks of the right-limit search
    assert np.array_equal(bits(stream.take(n - k, start=k)), bits(prefix[k:]))


def test_hecke_stream_single_reads_are_unsnapped():
    s = hecke_stream(0.7)
    prefix = s.take(2000)
    assert s.take(1, start=90)[0] == prefix[90] == np.mod(90 * 0.7, 1.0)
    assert np.array_equal(bits([s.take(1, start=k)[0] for k in range(2000)]), bits(prefix))


@settings(max_examples=200, deadline=None)
@given(STREAMS, st.integers(0, 40), st.lists(st.integers(0, 3000), max_size=20))
def test_array_of_starts_reads_rows_of_scalar_takes_bitwise(stream, n, starts):
    # window_cluster reads the negative sides of a block of hits in one take
    rows = stream.take(n, start=np.array(starts, dtype=np.int64))
    assert rows.shape == (len(starts), n)
    for row, k in zip(rows, starts):
        assert np.array_equal(bits(row), bits(stream.take(n, start=k)))
        assert np.array_equal(bits(row), bits(stream.take(n, start=np.int64(k))))


def test_one_negative_start_in_an_array_rejected():
    s = preperiodic([], [1.0])
    with pytest.raises(ValidationError):
        s.take(3, start=np.array([4, 0, -1, 7]))
    assert s.take(3, start=np.array([4, 0, 7])).shape == (3, 3)
