import pytest

from dynact.svgplot import Panel, Scatter, _data_bounds, render_figure


def test_zero_width_range_widens_by_half():
    x0, x1, y0, y1 = _data_bounds(Panel("", "", "", [Scatter((3.0, 3.0), (1.0, 2.0))]))
    assert (x0, x1) == (2.5 - 0.05, 3.5 + 0.05)
    assert (y0, y1) == (1.0 - 0.05, 2.0 + 0.05)


@pytest.mark.parametrize("v", [0.0, -2.5e15, 2.0**53, 1e17, -1e300])
def test_zero_width_range_widens_by_at_least_one_float_spacing(v):
    # above 2**53, v +- 0.5 rounds back to v
    x0, x1, y0, y1 = _data_bounds(Panel("", "", "", [Scatter((v,), (v,))]))
    assert x0 < v < x1
    assert y0 < v < y1


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("wide", [(-1e308, 1e308), (-8.5e307, 8.5e307)])  # the second overflows once padded
def test_axis_wider_than_the_float_range_is_a_value_error(axis, wide):
    # refused by a ValueError naming the axis, not an OverflowError from the ticks
    narrow = (0.0, 1.0)
    xs, ys = (wide, narrow) if axis == "x" else (narrow, wide)
    with pytest.raises(ValueError, match=f"^the {axis} axis spans"):
        render_figure([Panel("", "", "", [Scatter(xs, ys)])])
