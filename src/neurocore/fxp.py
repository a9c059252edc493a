"""Saturating signed fixed-point arithmetic emulating the neurocore datapath.

Values are plain integers interpreted in a Q-format (a declared number of
fractional bits).  Every operation saturates its result to the declared
width, never wraps.  Encoding rounds to nearest with ties away from zero;
runtime rescaling after a multiply is an arithmetic right shift (floor),
matching the shift-based datapath of the emulated core.

Scalar operations work on :class:`Fixed` values.  The ``*_raw`` helpers
apply the identical arithmetic to numpy int64 arrays so the batch engine
stays bit-for-bit equal to the scalar pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedFormat:
    """Signed fixed-point format: total bit width and fraction bits."""

    width: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= 32:
            raise ValueError(f"width must be in [1, 32], got {self.width}")
        if not 0 <= self.frac_bits < self.width:
            raise ValueError(
                f"frac_bits must be in [0, width), got {self.frac_bits} for width {self.width}"
            )

    @property
    def min_raw(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.width - 1)) - 1

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def lsb(self) -> float:
        """Real value of one raw unit."""
        return 1.0 / self.scale

    def saturate(self, raw: int) -> int:
        if raw < self.min_raw:
            return self.min_raw
        if raw > self.max_raw:
            return self.max_raw
        return int(raw)


@dataclass(frozen=True)
class Fixed:
    """A raw integer together with its format.  Immutable value type."""

    raw: int
    fmt: FixedFormat

    def __post_init__(self) -> None:
        if not self.fmt.min_raw <= self.raw <= self.fmt.max_raw:
            raise ValueError(
                f"raw {self.raw} outside representable range of {self.fmt}"
            )


# Compartment-state field formats.  State variables carry 12 fraction bits;
# the dendrite accumulator carries 3 (its total width is not pinned by the
# hardware tables, 16 is the configurable default).  Registers are modelled
# twice as wide as the widest state field so intermediates never clip in
# normal dynamics.
Q12 = 12
V_FMT = FixedFormat(24, Q12)
U_FMT = FixedFormat(24, Q12)
AB_FMT = FixedFormat(16, Q12)
CD_FMT = FixedFormat(24, Q12)
ISYN_FMT = FixedFormat(24, Q12)
ICONST_FMT = FixedFormat(16, Q12)
DDOP_FMT = FixedFormat(16, Q12)
DA_FMT = FixedFormat(16, 3)
REG_FMT = FixedFormat(32, Q12)
WEIGHT_FMT = FixedFormat(24, Q12)


def _round_half_away(x: float) -> int:
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


def encode(x: float, fmt: FixedFormat = REG_FMT) -> Fixed:
    """Encode a real number: round to nearest (ties away), then saturate."""
    if not math.isfinite(x):
        raise ValueError(f"cannot encode non-finite value {x!r}")
    return Fixed(fmt.saturate(_round_half_away(x * fmt.scale)), fmt)


def require_finite(name: str, x: float) -> None:
    """Raise ``ValueError`` naming ``name`` if ``x`` is NaN or infinite."""
    if not math.isfinite(x):
        raise ValueError(f"{name} = {x} is not finite")


def encode_checked(name: str, x: float, fmt: FixedFormat) -> int:
    """The raw encoding of the value ``name = x``, which must be finite and
    lie in the range of ``fmt``: any other value raises ``ValueError``."""
    require_finite(name, x)
    low, high = fmt.min_raw * fmt.lsb, fmt.max_raw * fmt.lsb
    if not low <= x <= high:
        raise ValueError(
            f"{name} = {x:g} saturates its {fmt.width}-bit field, range [{low}, {high}]"
        )
    return encode(x, fmt).raw


def decode(x: Fixed) -> float:
    return x.raw / x.fmt.scale


def sat_add(a: Fixed, b: Fixed) -> Fixed:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return Fixed(a.fmt.saturate(a.raw + b.raw), a.fmt)


def neg(a: Fixed) -> Fixed:
    """Saturating negation (the most negative raw clips to the maximum)."""
    return Fixed(a.fmt.saturate(-a.raw), a.fmt)


def mul_rescale(a: Fixed, b: Fixed, out_fmt: FixedFormat | None = None) -> Fixed:
    """Multiply and rescale back to ``frac_bits`` via an arithmetic right shift.

    The product is formed at full precision before the shift.  Result keeps
    ``a``'s format unless ``out_fmt`` widens it (the pipeline spills most
    intermediates into registers).
    """
    if a.fmt.frac_bits != b.fmt.frac_bits:
        raise ValueError(
            f"fraction mismatch: {a.fmt.frac_bits} vs {b.fmt.frac_bits}"
        )
    fmt = out_fmt if out_fmt is not None else a.fmt
    return Fixed(fmt.saturate((a.raw * b.raw) >> a.fmt.frac_bits), fmt)


def shr(a: Fixed, n: int) -> Fixed:
    """Arithmetic right shift by ``n`` (floor semantics on negatives)."""
    if n < 0:
        raise ValueError(f"shift count must be >= 0, got {n}")
    return Fixed(a.raw >> n, a.fmt)


def shl(a: Fixed, n: int, out_fmt: FixedFormat | None = None) -> Fixed:
    """Saturating left shift, used to align fraction conventions."""
    if n < 0:
        raise ValueError(f"shift count must be >= 0, got {n}")
    fmt = out_fmt if out_fmt is not None else a.fmt
    return Fixed(fmt.saturate(a.raw << n), fmt)


# ---------------------------------------------------------------------------
# Array mirror of the scalar operations (int64, same clip bounds, same order).
# ---------------------------------------------------------------------------

def sat_raw(raw: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    # np.minimum/np.maximum: np.clip's per-call overhead dominates at the
    # population sizes the network runs
    return np.minimum(np.maximum(raw, fmt.min_raw), fmt.max_raw)


def sat_add_raw(a: np.ndarray, b, fmt: FixedFormat) -> np.ndarray:
    return sat_raw(a + b, fmt)


def mul_rescale_raw(a, b, fmt: FixedFormat, frac_bits: int = Q12) -> np.ndarray:
    return sat_raw((a * b) >> frac_bits, fmt)


def shr_raw(a: np.ndarray, n: int) -> np.ndarray:
    # numpy's >> on signed integers is an arithmetic shift
    return a >> n


def shl_raw(a, n: int, fmt: FixedFormat) -> np.ndarray:
    return sat_raw(a * (1 << n), fmt)


def quantize_raw(raw_q12, fmt: FixedFormat = DA_FMT) -> np.ndarray:
    """Requantize a Q12 raw sum onto a coarser fraction grid.

    Round to nearest, ties away from zero, then saturate.  Used when the
    per-step synaptic sum is handed to the dendrite-accumulator register.
    """
    shift = Q12 - fmt.frac_bits
    half = 1 << (shift - 1)
    raw_q12 = np.asarray(raw_q12)
    mag = (np.abs(raw_q12) + half) >> shift
    return sat_raw(np.sign(raw_q12) * mag, fmt)
