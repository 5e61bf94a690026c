"""Recurrence iteration vs the closed form, and the nonvanishing witness."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbary import (
    InvalidInput,
    RecurrenceParams,
    generating_coefficients,
    growth_witness,
    kernel_recurrence_solve,
)

seed_floats = st.floats(-10.0, 10.0, allow_nan=False)


class TestRecurrenceIteration:
    def test_alternating_seed(self):
        y = kernel_recurrence_solve(RecurrenceParams(1.0, 0.0, "plus", 6))
        np.testing.assert_array_equal(y, [1.0, 0.0, -1.0, 2.0, -3.0, 4.0, -5.0])

    def test_zero_seed(self):
        y = kernel_recurrence_solve(RecurrenceParams(0.0, 0.0, "plus", 10))
        np.testing.assert_array_equal(y, np.zeros(11))

    def test_minus_constant(self):
        y = kernel_recurrence_solve(RecurrenceParams(1.0, 1.0, "minus", 8))
        np.testing.assert_array_equal(y, np.ones(9))

    def test_bad_params(self):
        with pytest.raises(InvalidInput):
            RecurrenceParams(1.0, 0.0, "times", 5)
        with pytest.raises(InvalidInput):
            RecurrenceParams(1.0, 0.0, "plus", 1)

    @pytest.mark.parametrize("horizon", [2.5, 3.0, np.nan, np.inf, True, "30", None],
                             ids=["fraction", "integral-float", "nan", "inf", "bool", "str",
                                  "none"])
    def test_horizon_must_be_an_integer(self, horizon):
        # checked before the seeds' overflow check, whose message would mislead
        with pytest.raises(InvalidInput, match="horizon must be an integer >= 2"):
            RecurrenceParams(1.0, 0.0, "plus", horizon)

    @pytest.mark.parametrize("y0", [True, "1"], ids=["bool", "str"])
    def test_seeds_must_be_numbers(self, y0):
        with pytest.raises(InvalidInput, match="y0 and y1 must be finite real numbers"):
            RecurrenceParams(y0, 0.0, "plus", 6)

    def test_numpy_integer_horizon_is_an_int(self):
        p = RecurrenceParams(np.float64(1.0), np.float64(0.0), "plus", np.int64(6))
        assert type(p.horizon) is int and type(p.y0) is float and type(p.y1) is float
        assert p == RecurrenceParams(1.0, 0.0, "plus", 6)

    @pytest.mark.parametrize("y0, y1, sign, horizon", [
        (np.nan, 0.0, "plus", 5),
        (np.inf, 0.0, "plus", 5),
        (0.0, -np.inf, "minus", 5),
        (np.float64(np.nan), 1.0, "minus", 5),
    ], ids=["nan", "inf", "minus-inf", "numpy-nan"])
    def test_nonfinite_seeds(self, y0, y1, sign, horizon):
        with pytest.raises(InvalidInput, match="must be finite"):
            RecurrenceParams(y0, y1, sign, horizon)

    @pytest.mark.parametrize("y0, y1, sign, horizon", [
        # b = 2 y0 + y1 overflows
        (1e308, 1e308, "plus", 30),
        (1e308, -1e308, "minus", 30),
        # a and b are finite, but |a| (horizon + 1) is not
        (1e300, 0.0, "plus", 2 ** 40),
        # |b| + |a| (horizon + 1) = 11 |a| is finite, but the iteration
        # doubles y_9 = -10 a to 20 a, which overflows
        (1.198e307, -2.396e307, "plus", 10),
        (np.float64(1e308), np.float64(1e308), "plus", 30),
    ], ids=["b-overflows", "minus-b-overflows", "long-horizon", "doubled-term",
            "numpy-scalars"])
    def test_overflowing_seeds(self, y0, y1, sign, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="too large"):
                RecurrenceParams(y0, y1, sign, horizon)

    @pytest.mark.parametrize("y0, y1, sign, horizon, message", [
        (10**400, 0.0, "plus", 30, "must be finite"),
        (1.0, 10**400, "plus", 30, "must be finite"),
        (1.0, 0.0, "plus", 10**400, "horizon must be an integer >= 2"),
    ], ids=["y0", "y1", "horizon"])
    def test_ints_beyond_the_float_range(self, y0, y1, sign, horizon, message):
        # math.isfinite and int-to-float conversion raise OverflowError on these
        with pytest.raises(InvalidInput, match=message):
            RecurrenceParams(y0, y1, sign, horizon)

    def test_largest_seeds_iterate_finitely(self):
        # y_j = (-1)^j 8e307 for every j: the doubled term 1.6e308 is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = RecurrenceParams(8e307, -8e307, "plus", 30)
            y = kernel_recurrence_solve(p)
        np.testing.assert_array_equal(y, generating_coefficients(p))


def numpy_iteration(params):
    """The reference: the recurrence iterated in a float64 array."""
    y = np.empty(params.horizon + 1)
    y[0], y[1] = params.y0, params.y1
    two = -2.0 if params.sign == "plus" else 2.0
    for j in range(2, params.horizon + 1):
        y[j] = two * y[j - 1] - y[j - 2]
    return y


def numpy_closed_form(params):
    """The reference: the closed form evaluated on a float64 index array."""
    a, b = params.affine_coefficients()
    j = np.arange(params.horizon + 1, dtype=np.float64)
    affine = b + a * (j + 1.0)
    if params.sign == "plus":
        return np.where(np.arange(params.horizon + 1) % 2 == 0, affine, -affine) + 0.0
    return affine


def bit_seeds():
    """Integer, fractional and negative seeds, and seeds of every scale from 1e-300 to 1e150."""
    rng = np.random.default_rng(31)
    seeds = [(1.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (2.0, -1.0), (-7.0, 3.0), (0.1, 0.2),
             (-0.3, 0.7), (1e10, 0.1), (1e8, 0.3), (1.0, 1e-11)]
    for exponent in range(-300, 151, 15):
        y0, y1 = rng.uniform(-1.0, 1.0, 2) * 10.0 ** exponent
        seeds += [(float(y0), float(y1)), (float(-y1), float(y0))]
    return seeds


class TestBitIdentity:
    """The float loops give the bits of the float64 array loops they replaced."""

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_public_arrays_have_the_reference_bits(self, sign):
        for horizon in range(2, 61):
            for y0, y1 in bit_seeds():
                p = RecurrenceParams(y0, y1, sign, horizon)
                for got, expected in ((kernel_recurrence_solve(p), numpy_iteration(p)),
                                      (generating_coefficients(p), numpy_closed_form(p))):
                    assert got.dtype == np.float64 and got.shape == (horizon + 1,)
                    assert got.tobytes() == expected.tobytes(), (y0, y1, sign, horizon)


class TestClosedForm:
    def test_coefficients_plus(self):
        # a = -y0 - y1 and b = 2 y0 + y1
        assert RecurrenceParams(1.0, 0.0, "plus").affine_coefficients() == (-1.0, 2.0)
        assert RecurrenceParams(2.0, -1.0, "plus").affine_coefficients() == (-1.0, 3.0)

    def test_coefficients_minus(self):
        assert RecurrenceParams(1.0, 1.0, "minus").affine_coefficients() == (0.0, 1.0)

    def test_alternating_values(self):
        y = generating_coefficients(RecurrenceParams(1.0, 0.0, "plus", 5))
        expected = [(-1.0) ** j * (1 - j) for j in range(6)]
        np.testing.assert_array_equal(y, expected)

    def test_zero_seed(self):
        y = generating_coefficients(RecurrenceParams(0.0, 0.0, "minus", 5))
        np.testing.assert_array_equal(y, np.zeros(6))

    def test_exact_for_integer_seeds(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            y0, y1 = (float(v) for v in rng.integers(-10, 11, 2))
            sign = "plus" if rng.integers(2) else "minus"
            p = RecurrenceParams(y0, y1, sign, 40)
            np.testing.assert_array_equal(
                kernel_recurrence_solve(p), generating_coefficients(p)
            )

    @settings(max_examples=300, deadline=None)
    @given(seed_floats, seed_floats, st.sampled_from(["plus", "minus"]))
    def test_oracle_equivalence(self, y0, y1, sign):
        p = RecurrenceParams(y0, y1, sign, 30)
        diff = np.abs(kernel_recurrence_solve(p) - generating_coefficients(p))
        assert float(diff.max()) <= 1e-9


class TestGrowthWitness:
    def test_linear_growth(self):
        w = growth_witness(RecurrenceParams(1.0, 0.0, "plus"))
        assert w.kind == "linear" and w.slope == 1.0 and w.holds
        assert not w.all_zero

    def test_zero(self):
        w = growth_witness(RecurrenceParams(0.0, 0.0, "plus"))
        assert w.all_zero and w.holds

    def test_bounded_nonvanishing(self):
        # a = 0, b = 1: the sequence alternates with |y_j| = 1 forever
        w = growth_witness(RecurrenceParams(1.0, -1.0, "plus"))
        assert w.kind == "bounded" and w.floor == 1.0 and w.holds
        y = generating_coefficients(RecurrenceParams(1.0, -1.0, "plus", 20))
        np.testing.assert_array_equal(np.abs(y), np.ones(21))

    def test_start_index_is_valid(self):
        # large offset, small slope: the bound must kick in at the returned
        # index and hold beyond it
        p = RecurrenceParams(3.0, -2.5, "plus", 30)
        w = growth_witness(p)
        assert w.kind == "linear"
        longer = RecurrenceParams(3.0, -2.5, "plus", w.start_index + 40)
        y = np.abs(generating_coefficients(longer))
        j = np.arange(w.start_index, len(y))
        assert np.all(y[w.start_index:] >= 0.5 * w.slope * j - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(seed_floats, seed_floats, st.sampled_from(["plus", "minus"]))
    def test_all_zero_iff_zero_seed(self, y0, y1, sign):
        w = growth_witness(RecurrenceParams(y0, y1, sign))
        assert w.all_zero == (y0 == 0.0 and y1 == 0.0)
