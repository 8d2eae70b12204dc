"""The compiled table formatter against Python's "%.17g", cell by cell."""

import decimal
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubitrot import _kernel, stirap, sweeps
from qubitrot.cli import _table_lines
from qubitrot.types import InitialQubit, PulsePair, normalizing_beta


def _python(x: float) -> str:
    return "%.17g" % x


def _compiled(values) -> list[str]:
    return _kernel.format_rows(np.array(values, dtype=float)[:, None])


def _assert_same(values) -> None:
    values = [float(v) for v in values]
    got = _compiled(values)
    assert len(got) == len(values)
    wrong = [(v.hex(), g, _python(v)) for v, g in zip(values, got) if g != _python(v)]
    assert not wrong, wrong[:10]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _digits(x: float) -> tuple[int, ...]:
    """The significant decimal digits of x, exactly."""
    return decimal.Decimal(x).normalize().as_tuple().digits


class TestFormatRows:
    def test_special_values(self, kernel):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
        values += [_from_bits(0x7FF0_0000_0000_0001), _from_bits(0xFFF8_0000_0000_0001)]
        assert [math.copysign(1.0, v) for v in values[4:]] == [1.0, -1.0, 1.0, -1.0]
        _assert_same(values)
        assert _compiled(values[4:]) == ["nan"] * 4

    def test_subnormals_and_normal_limits(self, kernel):
        tiny, huge = 2.2250738585072014e-308, 1.7976931348623157e308
        values = [5e-324, 1e-320, 2.225073858507201e-308, *_neighbours(tiny), huge]
        values.append(math.nextafter(huge, 0.0))
        _assert_same(values + [-v for v in values])

    def test_powers_of_ten_and_their_neighbours(self, kernel):
        values = [v for k in range(-323, 309) for v in _neighbours(float(f"1e{k}"))]
        # the double nearest 1e-12 lies below it: its exponent is -13, and
        # only its rounding to 17 digits would reach 1e-12
        assert _compiled([1e-12]) == ["9.9999999999999998e-13"]
        _assert_same(values + [-v for v in values])

    def test_halfway_ties_round_to_even(self, kernel):
        rng = np.random.default_rng(7)
        values = []
        for j in range(2, 24):
            # odd m with 18 digits in m 5^j: m / 2^j is a tie at 17 digits
            lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
            values += [(int(m) | 1) / 2**j for m in rng.integers(lo, hi - 1, size=40)]
        values += [k / 2**j for k in range(1, 200, 3) for j in range(0, 70, 3)]
        ties = [d for d in map(_digits, values) if len(d) == 18 and d[-1] == 5]
        assert len(ties) > 500
        # both directions occur: the 17th digit is odd in some ties, even in others
        assert {d[16] % 2 for d in ties} == {0, 1}
        _assert_same(values + [-v for v in values])

    def test_fast_range_dense(self, kernel):
        rng = np.random.default_rng(11)
        values = []
        for k in range(-52, 66):
            values += list(np.ldexp(rng.uniform(1.0, 2.0, size=300), k))
        _assert_same(values + [-v for v in values])

    def test_tiny_range_dense(self, kernel):
        # every binade below 2^-49, the subnormal ones included
        rng = np.random.default_rng(12)
        values = []
        for k in range(-1074, -49):
            values += list(np.ldexp(rng.uniform(1.0, 2.0, size=300), k))
        assert min(values) == 5e-324 and max(values) < 2.0**-49
        _assert_same(values + [-v for v in values])

    def test_tiny_range_limits(self, kernel):
        values = [v for x in (2.0**-49, 2.2250738585072014e-308, 5e-324) for v in _neighbours(x)]
        _assert_same(values + [-v for v in values])

    def test_three_digit_exponents(self, kernel):
        assert _compiled([1e-100, -2.5e-308, 1e-200, 5e-324]) == [
            "1e-100",
            "-2.4999999999999998e-308",
            "9.9999999999999998e-201",
            "4.9406564584124654e-324",
        ]
        # 1e-99 has two exponent digits, the double below it three
        values = _neighbours(1e-100) + _neighbours(1e-99)
        values += list(10.0 ** np.random.default_rng(13).uniform(-323.9, -100.0, size=2000))
        exponents = {_python(v)[-5:] for v in values}
        assert {"e-100", "e-101", "e-200", "e-323", "e-324"} <= exponents
        _assert_same(values + [-v for v in values])

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bit_patterns(self, kernel, patterns):
        _assert_same([_from_bits(b) for b in patterns])

    def test_rows_and_columns(self, kernel):
        rows = np.array([[0.1, 1e300], [-2.5e-7, 3.0], [math.nan, -0.0]])
        assert _kernel.format_rows(rows) == [
            "0.10000000000000001,1.0000000000000001e+300",
            "-2.4999999999999999e-07,3",
            "nan,-0",
        ]
        assert _kernel.format_rows(np.empty((0, 3))) == _kernel.format_rows(np.empty((3, 0))) == []
        # more rows than one buffer holds, and more columns than fit in it
        for shape in [(9001, 3), (3, 5000)]:
            rows = np.random.default_rng(3).standard_normal(shape) * 1e-3
            assert _kernel.format_rows(rows) == [",".join(map(_python, r)) for r in rows.tolist()]

    def test_zeros_of_both_signs(self, kernel):
        # zeros have their own branch; an all-zero table spanning several buffers
        signs = np.random.default_rng(4).random((9001, 15)) < 0.5
        rows = np.where(signs, 0.0, -0.0)
        lines = _kernel.format_rows(rows)
        assert lines == [",".join(map(_python, r)) for r in rows.tolist()]
        assert {cell for line in lines for cell in line.split(",")} == {"0", "-0"}


def test_table_lines_without_the_kernel(monkeypatch):
    columns = [np.array([0.1, math.nan, -0.0, 5e-324]), [1.0, -math.nan, 1e-12, 123456789.5]]
    expected = ["a,b"] + ["%.17g,%.17g" % row for row in zip(*columns)]
    if _kernel.library() is not None:
        assert _table_lines("a,b", columns) == expected
    monkeypatch.setattr(_kernel, "_library", None)
    assert _table_lines("a,b", columns) == expected


def test_stirap_envelopes_without_the_kernel(kernel, monkeypatch):
    # the envelopes table of a stirap run, whose Gaussian tails reach 1e-96
    alpha = sweeps.BASE_ALPHA
    qubit = InitialQubit(alpha, normalizing_beta(alpha), sweeps.BASE_PHI)
    traj = stirap.chopped_rotation(qubit, stop_time=math.inf)
    w = stirap.designed_drive(qubit, PulsePair.T, stirap.DEFAULT_SCALE).sample(traj.times)
    columns = [traj.times, w[:, 0].real, w[:, 0].imag, w[:, 1].real, w[:, 1].imag]
    compiled = _table_lines("t,a,b,c,d", columns)
    tiny = [c for line in compiled[1:] for c in line.split(",") if 0 < abs(float(c)) < 2.0**-49]
    assert len(tiny) > 500 and min(abs(float(c)) for c in tiny) < 1e-90
    monkeypatch.setattr(_kernel, "_library", None)
    python = _table_lines("t,a,b,c,d", columns)
    assert len(compiled) == len(python) == len(traj.times) + 1
    for got, expected in zip(compiled, python):
        assert got == expected
