"""Fixed-point arithmetic: worked examples and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from neurocore.fxp import (
    DA_FMT,
    ISYN_FMT,
    REG_FMT,
    V_FMT,
    Fixed,
    FixedFormat,
    decode,
    encode,
    encode_checked,
    mul_rescale,
    neg,
    quantize_raw,
    sat_add,
    shl,
    shr,
)

Q24_12 = FixedFormat(24, 12)
Q16_12 = FixedFormat(16, 12)


def fixed(raw, fmt=Q24_12):
    return Fixed(raw, fmt)


class TestFormat:
    def test_raw_range(self):
        fmt = FixedFormat(24, 12)
        assert fmt.min_raw == -(2**23)
        assert fmt.max_raw == 2**23 - 1

    @pytest.mark.parametrize("width,frac", [(0, 0), (33, 12), (8, 8), (8, -1)])
    def test_invalid_formats_rejected(self, width, frac):
        with pytest.raises(ValueError):
            FixedFormat(width, frac)

    def test_out_of_range_raw_rejected(self):
        with pytest.raises(ValueError):
            Fixed(2**23, Q24_12)


class TestEncode:
    def test_one_in_q12(self):
        assert encode(1.0, Q24_12).raw == 4096

    def test_minus_65(self):
        # -65 * 2^12, comfortably inside the 24-bit signed range
        assert encode(-65.0, Q24_12).raw == -266240

    def test_round_to_nearest(self):
        # round(0.2 * 4096) = round(819.2) = 819
        assert encode(0.2, Q16_12).raw == 819

    def test_ties_away_from_zero(self):
        half_lsb = 0.5 / 4096
        assert encode(half_lsb, Q24_12).raw == 1
        assert encode(-half_lsb, Q24_12).raw == -1

    def test_saturates_instead_of_overflowing(self):
        assert encode(1e9, Q24_12).raw == Q24_12.max_raw
        assert encode(-1e9, Q24_12).raw == Q24_12.min_raw

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            encode(bad, Q24_12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_checked_reports_non_finite_not_saturation(self, bad):
        with pytest.raises(ValueError, match=f"^delta_dop = {bad} is not finite$"):
            encode_checked("delta_dop", bad, Q16_12)

    def test_checked_reports_saturation(self):
        with pytest.raises(ValueError, match="delta_dop = 9 saturates its 16-bit field"):
            encode_checked("delta_dop", 9.0, Q16_12)
        assert encode_checked("delta_dop", -8.0, Q16_12) == Q16_12.min_raw


class TestDecode:
    def test_unit(self):
        assert decode(fixed(4096)) == 1.0

    def test_inverse_of_encode(self):
        assert decode(fixed(-266240)) == -65.0

    def test_three_fraction_bits(self):
        assert decode(Fixed(80, FixedFormat(16, 3))) == 10.0


class TestSatAdd:
    def test_identity(self):
        x = fixed(1234)
        assert sat_add(fixed(0), x) == x

    def test_saturation_at_ceiling(self):
        top = fixed(Q24_12.max_raw)
        assert sat_add(top, fixed(1)) == top

    def test_exact_when_no_overflow(self):
        a = encode(-65.0, Q24_12)
        b = encode(5.0, Q24_12)
        assert sat_add(a, b) == encode(-60.0, Q24_12)

    def test_format_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sat_add(fixed(1), Fixed(1, Q16_12))


class TestMulRescale:
    def test_multiplicative_identity(self):
        x = fixed(-98765)
        assert mul_rescale(encode(1.0, Q24_12), x) == Fixed(-98765, Q24_12)

    def test_half_squared(self):
        half = encode(0.5, Q24_12)
        assert mul_rescale(half, half).raw == 1024  # 2048*2048 >> 12

    def test_arithmetic_shift_of_negative_product(self):
        assert mul_rescale(encode(-1.0, Q24_12), encode(0.5, Q24_12)).raw == -2048

    def test_floor_toward_minus_infinity(self):
        # (-3 * 1) >> 12 floors to -1, not 0
        assert mul_rescale(fixed(-3), fixed(1)).raw == -1


class TestShr:
    def test_eighth_by_three_bits(self):
        assert shr(fixed(4096), 3).raw == 512

    def test_floor_semantics_on_negative(self):
        assert shr(fixed(-1), 1).raw == -1

    def test_zero_shift_is_identity(self):
        assert shr(Fixed(80, Q16_12), 0).raw == 80

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            shr(fixed(1), -1)


class TestShl:
    def test_accumulator_alignment(self):
        assert shl(Fixed(8, DA_FMT), 9, REG_FMT).raw == 4096

    def test_saturates(self):
        assert shl(fixed(Q24_12.max_raw), 4).raw == Q24_12.max_raw


class TestQuantizeRaw:
    def test_round_to_nearest_ties_away(self):
        assert int(quantize_raw(256)) == 1  # exactly half an accumulator LSB
        assert int(quantize_raw(-256)) == -1
        assert int(quantize_raw(255)) == 0

    def test_array_matches_scalar(self):
        raws = np.array([-1000, -256, -255, 0, 255, 256, 1000])
        out = quantize_raw(raws)
        assert out.tolist() == [-2, -1, 0, 0, 0, 1, 2]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

formats = st.sampled_from([Q24_12, Q16_12, V_FMT, ISYN_FMT, REG_FMT])


def raws_for(fmt):
    return st.integers(min_value=fmt.min_raw, max_value=fmt.max_raw)


@given(st.data())
def test_closure_all_ops_stay_in_range(data):
    fmt = data.draw(formats)
    a = Fixed(data.draw(raws_for(fmt)), fmt)
    b = Fixed(data.draw(raws_for(fmt)), fmt)
    n = data.draw(st.integers(min_value=0, max_value=40))
    for result in (sat_add(a, b), mul_rescale(a, b), shr(a, n), shl(a, n), neg(a)):
        assert fmt.min_raw <= result.raw <= fmt.max_raw


@given(st.data())
def test_sat_add_monotone_in_each_argument(data):
    fmt = data.draw(formats)
    a1 = data.draw(raws_for(fmt))
    a2 = data.draw(raws_for(fmt))
    b = Fixed(data.draw(raws_for(fmt)), fmt)
    lo, hi = sorted((a1, a2))
    assert sat_add(Fixed(lo, fmt), b).raw <= sat_add(Fixed(hi, fmt), b).raw


@given(st.data())
def test_encode_decode_within_half_lsb(data):
    fmt = data.draw(formats)
    span = fmt.max_raw / fmt.scale
    x = data.draw(
        st.floats(min_value=-span, max_value=span, allow_nan=False, width=64)
    )
    assert abs(decode(encode(x, fmt)) - x) <= 2.0 ** (-fmt.frac_bits - 1)


@given(st.data())
def test_mul_rescale_commutes(data):
    fmt = data.draw(formats)
    a = Fixed(data.draw(raws_for(fmt)), fmt)
    b = Fixed(data.draw(raws_for(fmt)), fmt)
    assert mul_rescale(a, b) == mul_rescale(b, a)


@given(st.data())
def test_shr_composes(data):
    fmt = data.draw(formats)
    a = Fixed(data.draw(raws_for(fmt)), fmt)
    m = data.draw(st.integers(min_value=0, max_value=20))
    n = data.draw(st.integers(min_value=0, max_value=20))
    assert shr(a, m + n) == shr(shr(a, m), n)
