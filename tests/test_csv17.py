"""The vectorized ``"%.17g"`` kernel against the formatting loop it
replaced, kept here as the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import peak_traced_bytes
from porovisco._csv17 import _X_MAX, _X_MIN, format_rows


def reference(block) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in np.asarray(block).tolist()).encode()


def _ulps(values):
    values = np.asarray(values, dtype=float)
    below, above = np.nextafter(values, -np.inf), np.nextafter(values, np.inf)
    out = np.concatenate([values, below, above, np.nextafter(below, -np.inf), np.nextafter(above, np.inf)])
    return np.concatenate([out, -out])


def _assert_same(values, shapes=None):
    values = np.asarray(values, dtype=float).ravel()
    for shape in shapes or [(1, values.size), (values.size, 1)]:
        block = values.reshape(shape)
        assert format_rows(block) == reference(block)


# any bit pattern, and patterns whose exponent lies in the vectorized range
_BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.builds(lambda s, e, m: s << 63 | e << 52 | m,
              st.integers(0, 1), st.integers(1023 - 110, 1023 + 110), st.integers(0, 2 ** 52 - 1)),
    st.sampled_from([0, 1 << 63, 1, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48, 0x000F_FFFF_FFFF_FFFF]),
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.uint64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9), elements=_BITS))
def test_any_bit_pattern_formats_as_the_loop(bits):
    block = bits.view(np.float64)  # subnormals, +-0, NaN and +-inf included
    assert format_rows(block) == reference(block)


def test_powers_of_ten_and_their_neighbours():
    # 1e-14 is the one double in range that rounds up to a power of ten
    _assert_same(_ulps([float(f"1e{k}") for k in range(-40, 41)] + [1e-14]))


def test_layout_boundaries():
    # X = -5 and 17 are scientific, X = -4 and 16 fixed
    edges = [1.2345678901234567e-5, 9.99e-5, 1e-4, 1.2345678901234567e-4, 0.5e-4,
             1e16, 1.2345678901234567e16, 9.999999999999998e16, 1e17, 1.2345678901234567e17,
             1.5, 123.25, 1234567890123456.8, 0.1, 0.2, 0.3, 1 / 3, 2 / 3]
    _assert_same(_ulps(edges))


@pytest.mark.parametrize("X", range(_X_MIN, _X_MAX + 1))
def test_every_slot_class(X):
    # every decimal exponent X the kernel's tables hold, with 1-17
    # significant digits (zeros among them, so that a 4-digit group or the
    # fraction can end in zeros), both signs, and the neighbouring doubles:
    # fixed and scientific layouts, with and without a decimal point
    values = [float(f"{digits[:k]}e{X - k + 1}") for digits in ("98765432123456789", "10020003000040005")
              for k in range(1, 18)]
    values += [float(f"{d}e{X}") for d in (1, 5, 9.5, 1.25, 3.0625)]
    _assert_same(_ulps(values))


def test_zeros_and_values_outside_the_vectorized_range():
    _assert_same([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 1e-31, 9.99e-31, 1e30, 1e31])


def test_decimal_near_ties():
    rng = np.random.default_rng(12)
    heads = rng.integers(10 ** 16, 10 ** 17, 400)
    exponents = rng.integers(-30, 30, 400)
    # 18 and 17 significant digits ending in 5: the rounding at 17 (or 16)
    # digits is a near-tie that the double-double must resolve
    near = [float(f"{h}5e{e}") for h, e in zip(heads, exponents)]
    near += [float(f"{h // 10}5e{e}") for h, e in zip(heads, exponents)]
    # exact ties: a quarter of an odd 16-digit integer has 18 digits, the last a 5
    quarters = (rng.integers(4 * 10 ** 15, 9 * 10 ** 15, 400) | 1) / 4.0
    _assert_same(np.concatenate([near, quarters, [1000000000000000.75, 1000000000000000.25]]),
                 [(1, -1), (-1, 1), (-1, 2)])


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (40, 300)])
def test_block_shapes(shape):
    rng = np.random.default_rng(3)
    block = rng.standard_normal(shape) * 10.0 ** rng.integers(-35, 35, shape)
    assert format_rows(block) == reference(block)


@pytest.mark.parametrize("size", [1, 127, 128, 384])
def test_format_rows_on_either_side_of_the_small_block_size(size):
    # 128 values was the block size below which format_rows ran the
    # formatting loop in place of the kernel; the kernel now takes every block
    block = np.random.default_rng(size).standard_normal((1, size)) * 1e-3
    assert format_rows(block) == reference(block)


def test_every_small_block_formats_as_the_loop():
    # every block of 1-130 values, as a row and as a column, with NaN,
    # +-inf and subnormals among the regular values
    rng = np.random.default_rng(130)
    specials = [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308]
    for size in range(1, 131):
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-35, 35, size)
        values[:len(specials)] = specials[:size]
        rng.shuffle(values)
        for block in (values.reshape(1, -1), values.reshape(-1, 1)):
            assert format_rows(block) == reference(block), size


@pytest.mark.parametrize("shape", [(64, 128), (1, 8192), (8192, 1)])
def test_one_call_holds_a_pass_not_the_block(shape):
    # the kernel works in passes of _PASS values and frees each array once
    # it is used up; holding every temporary of an 8192-value block to the
    # end traces 2.32 MiB
    block = np.random.default_rng(5).standard_normal(shape) * 10.0 ** np.arange(-8, 8).repeat(512).reshape(shape)
    format_rows(block)  # the tables are built once per process
    assert peak_traced_bytes(lambda: format_rows(block)) <= 1.25 * 2 ** 20
    assert format_rows(block) == reference(block)
