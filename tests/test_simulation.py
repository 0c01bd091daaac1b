import csv
import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynact import simulation
from dynact.core_math import layer_norm
from dynact.rng import CounterRng
from dynact.simulation import (
    EmptyOutliers,
    OutlierScenario,
    SimulationConfig,
    outlier_points,
    read_points_csv,
    run_scenario,
    sample_base,
    scenario_to_csv,
)


class TestConfig:
    def test_defaults_match_experiment_setup(self):
        config = SimulationConfig(seed=0)
        assert (config.channels, config.sigma, config.mu) == (100, 2.0, 0.0)
        assert (config.step, config.s_max) == (5.0, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(channels=1)
        with pytest.raises(ValueError):
            SimulationConfig(sigma=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(step=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(s_max=-1)
        # non-finite settings are refused by name, not later by layer_norm
        for kwargs, message in [
            ({"mu": math.nan}, "mu must be finite, got nan"),
            ({"mu": -math.inf}, "mu must be finite, got -inf"),
            ({"sigma": math.inf}, "sigma must be finite and > 0, got inf"),
            ({"sigma": math.nan}, "sigma must be finite and > 0, got nan"),
            ({"step": math.inf}, "step must be finite and > 0, got inf"),
            ({"step": 1e308}, r"step \* s_max must be finite, got 1e\+308 \* 9"),
            # integer fields refuse a float rather than truncating it or failing later
            ({"channels": 2.5}, r"channels must be an integer, got 2\.5"),
            ({"channels": 2**63}, "channels must be <= 9223372036854775807, got 9223372036854775808"),
            ({"s_max": 2.5}, r"s_max must be an integer, got 2\.5"),
            ({"seed": 2.5}, r"seed must be an integer, got 2\.5"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                SimulationConfig(**kwargs)
        # a step whose product with s_max would overflow is fine with no step taken
        SimulationConfig(step=1e308, s_max=0)

    def test_seed_outside_int64_and_uint64_is_refused(self):
        # refused when the config is built, before CounterRng sees it
        with pytest.raises(ValueError, match="^seed must be >= -9223372036854775808, got -9223372036854775809$"):
            SimulationConfig(seed=-(2**63) - 1)
        with pytest.raises(ValueError, match="^seed must be <= 18446744073709551615, got 18446744073709551616$"):
            SimulationConfig(seed=2**64)
        SimulationConfig(seed=-(2**63))
        SimulationConfig(seed=2**64 - 1)


class TestSampleBase:
    def test_deterministic(self):
        config = SimulationConfig(seed=12345)
        np.testing.assert_array_equal(sample_base(config), sample_base(config))

    def test_seeds_differ(self):
        a = sample_base(SimulationConfig(seed=1))
        b = sample_base(SimulationConfig(seed=2))
        assert not np.array_equal(a, b)

    def test_statistical_oracle(self):
        # 10^5 aggregated draws: mean within 3*sigma/sqrt(N), sd within 2%
        draws = np.concatenate(
            [sample_base(SimulationConfig(seed=s)) for s in range(1000)]
        )
        n = draws.size
        assert n == 100_000
        assert abs(draws.mean()) <= 3.0 * 2.0 / math.sqrt(n)
        assert draws.std() == pytest.approx(2.0, rel=0.02)

    def test_mu_sigma_applied(self):
        config = SimulationConfig(mu=10.0, sigma=0.5, seed=3)
        x = sample_base(config)
        z = (x - 10.0) / 0.5
        np.testing.assert_allclose(z, CounterRng(3, "sample_base").normals(100), atol=1e-12)


class TestRunScenario:
    def test_single_baseline_frame(self):
        scenario = run_scenario(SimulationConfig(s_max=0, seed=0))
        assert scenario.x.shape == scenario.y.shape == (1, 100)
        np.testing.assert_array_equal(scenario.x[0], scenario.base_sample)

    def test_default_frames(self):
        scenario = run_scenario(SimulationConfig(seed=0))
        assert scenario.x.shape == scenario.y.shape == (10, 100)
        o = scenario.outlier_index
        assert o == int(np.argmax(scenario.base_sample))
        assert scenario.x[9, o] == scenario.base_sample[o] + 45.0
        mask = np.arange(100) != o
        for x in scenario.x:
            np.testing.assert_array_equal(x[mask], scenario.base_sample[mask])

    @pytest.mark.parametrize("config", [
        SimulationConfig(seed=0),
        SimulationConfig(channels=2, s_max=3, seed=5),
        SimulationConfig(channels=1024, s_max=16, seed=501),
        SimulationConfig(mu=-3.0, step=0.5, seed=11),
    ])
    def test_rows_match_per_frame_layer_norm(self, config):
        # one (s_max + 1, C) call gives every frame the bits of its own 1-D call
        scenario = run_scenario(config)
        for s, (x, y) in enumerate(zip(scenario.x, scenario.y)):
            want = scenario.base_sample.copy()
            want[scenario.outlier_index] += config.step * s
            assert x.tobytes() == want.tobytes()
            assert y.tobytes() == layer_norm(want).tobytes()

    def test_deterministic(self):
        a = run_scenario(SimulationConfig(seed=77))
        b = run_scenario(SimulationConfig(seed=77))
        assert a.outlier_index == b.outlier_index
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_per_frame_normalization_invariants(self):
        scenario = run_scenario(SimulationConfig(seed=4))
        for y in scenario.y:
            assert abs(y.mean()) <= 1e-12
            assert np.mean((y - y.mean()) ** 2) == pytest.approx(1.0, rel=1e-9)

    def test_outlier_squashing_is_monotone(self):
        scenario = run_scenario(SimulationConfig(seed=4))
        o = scenario.outlier_index
        ratios = scenario.y[:, o] / scenario.x[:, o]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        bound = math.sqrt(99.0)
        assert (scenario.y[:, o] < bound).all()

    def test_slope_decreases_with_outlier_size(self):
        scenario = run_scenario(SimulationConfig(seed=4))
        o = scenario.outlier_index
        mask = np.arange(100) != o
        slopes = []
        for x, y in zip(scenario.x, scenario.y):
            slope, _ = np.polyfit(x[mask], y[mask], 1)
            slopes.append(slope)
        assert all(a > b for a, b in zip(slopes, slopes[1:]))

    def test_non_outliers_are_collinear(self):
        scenario = run_scenario(SimulationConfig(seed=4))
        o = scenario.outlier_index
        mask = np.arange(100) != o
        for x, y in zip(scenario.x, scenario.y):
            xk, yk = x[mask], y[mask]
            fitted = np.polyval(np.polyfit(xk, yk, 1), xk)
            ss_res = float(np.sum((yk - fitted) ** 2))
            ss_tot = float(np.sum((yk - yk.mean()) ** 2))
            assert 1.0 - ss_res / ss_tot >= 1.0 - 1e-12


class TestOutlierPoints:
    def test_default_gives_nine_points(self):
        scenario = run_scenario(SimulationConfig(seed=0))
        pts = outlier_points(scenario)
        assert len(pts) == 9
        base_max = float(scenario.base_sample.max())
        assert all(x > base_max for x, _ in pts)

    def test_single_step(self):
        scenario = run_scenario(SimulationConfig(s_max=1, seed=0))
        assert len(outlier_points(scenario)) == 1

    def test_empty(self):
        scenario = run_scenario(SimulationConfig(s_max=0, seed=0))
        with pytest.raises(EmptyOutliers):
            outlier_points(scenario)


class TestCsv:
    def test_header_and_shape(self):
        scenario = run_scenario(SimulationConfig(seed=0))
        lines = scenario_to_csv(scenario).splitlines()
        assert lines[0] == "s,channel,x,y,is_outlier"
        assert len(lines) == 1 + 10 * 100

    def test_round_trip(self, tmp_path):
        scenario = run_scenario(SimulationConfig(seed=9))
        path = tmp_path / "scenario.csv"
        path.write_text(scenario_to_csv(scenario), encoding="utf-8")
        points, channels = read_points_csv(path)
        assert channels == 100
        expected = outlier_points(scenario)
        assert points == expected  # bit-exact through decimal text

    def test_outlier_flags(self):
        scenario = run_scenario(SimulationConfig(seed=9))
        o = scenario.outlier_index
        rows = [line.split(",") for line in scenario_to_csv(scenario).splitlines()[1:]]
        flagged = [(int(r[0]), int(r[1])) for r in rows if r[4] == "1"]
        assert flagged == [(s, o) for s in range(1, 10)]

    def test_frames_off_the_base_sample_match_per_row_formatting(self):
        # frames built by hand may differ from the base away from the outlier,
        # including by the sign of a zero
        base = np.array([1.0, 0.0, 3.5, -2.0])
        x = np.array([base, [1.0, -0.0, 8.5, -2.0], [0.5, 0.0, 13.5, np.nan]])
        scenario = OutlierScenario(base_sample=base, outlier_index=2, x=x, y=x / 7.0)
        expected = ["s,channel,x,y,is_outlier"] + [
            f"{s},{k},{float(x[s, k])!r},{float(x[s, k] / 7.0)!r},{int(k == 2 and s >= 1)}"
            for s in range(3)
            for k in range(4)
        ]
        assert scenario_to_csv(scenario) == "\n".join(expected) + "\n"

    def test_plain_xy_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.5,0.25\n-2.0,-0.5\n", encoding="utf-8")
        points, channels = read_points_csv(path)
        assert points == [(1.5, 0.25), (-2.0, -0.5)]
        assert channels is None

    def test_plain_xy_csv_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5,0.25\n-2.0,-0.5\n", encoding="utf-8")
        assert read_points_csv(path) == ([(1.5, 0.25), (-2.0, -0.5)], None)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("oops,0.25\n", "row 1: could not convert string to float: 'oops'"),
            ("1.5\n", "row 1: expected 2 columns, got 1"),
            ("1.5,0.25,7\n", "row 1: expected 2 columns, got 3"),
            ("1.5,0.25\n\n", "row 2: expected 2 columns, got 0"),
            ("x,y\n1.5,0.25\n2.0\n", "row 3: expected 2 columns, got 1"),
        ],
    )
    def test_malformed_plain_xy_names_first_bad_row(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_points_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("s,channel,x,y,is_outlier\n0,0,1.0,0.5,0\n1,0,2.0,0.7,1\n", ([(2.0, 0.7)], 1)),
            ("x,y\n1.5,0.25\n", ([(1.5, 0.25)], None)),
        ],
    )
    def test_byte_order_mark_is_ignored(self, tmp_path, text, expected):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert read_points_csv(path) == expected

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\noops,3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 3"):
            read_points_csv(path)

    @pytest.mark.parametrize(
        "body,message",
        [
            ("0,1,2.0,0.7\n", "row 3: expected 5 columns, got 4"),
            ("\n0,1,2.0,0.7,0\n", "row 3: expected 5 columns, got 0"),
            ("0,1,abc,0.7,0\n", "row 3: could not convert string to float: 'abc'"),
            ("0,1,2.0,,0\n", "row 3: could not convert string to float: ''"),
            ("0,x,2.0,0.7,0\n", "row 3: invalid literal for int() with base 10: 'x'"),
            ("x,1,2.0,0.7,1\n", "row 3: invalid literal for int() with base 10: 'x'"),
            ("0,1,2.0,0.7,1.0\n", "row 3: invalid literal for int() with base 10: '1.0'"),
            # two bad rows: the first one is named, whichever kind of fault it has
            ("0,1,2.0,0.7\n0,2,zz,0.7,0\n", "row 3: expected 5 columns, got 4"),
            ("0,1,zz,0.7,0\n0,2,2.0,0.7\n", "row 3: could not convert string to float: 'zz'"),
            ("0,1,2.0,0.7,0\n0,2,2.0,0.7,0\n0,3,zz,0.7\n", "row 5: expected 5 columns, got 4"),
            # a flag other than 0 or 1 and a negative channel are refused, not misread
            ("0,1,2.0,0.7,2\n", "row 3: is_outlier must be 0 or 1, got '2'"),
            ("0,1,2.0,0.7,-1\n", "row 3: is_outlier must be 0 or 1, got '-1'"),
            ("0,-1,2.0,0.7,0\n", "row 3: channel must be >= 0, got '-1'"),
            ("0,1,2.0,0.7,0\n0,-3,2.0,0.7,1\n", "row 4: channel must be >= 0, got '-3'"),
            # quotes send the text through csv.reader, with the same messages
            ('"0",1,zz,0.7,0\n', "row 3: could not convert string to float: 'zz'"),
            ('0,1,2.0,0.7,"1,0"\n', "row 3: invalid literal for int() with base 10: '1,0'"),
            ('0,1,"2.0,0.7",0\n', "row 3: expected 5 columns, got 4"),
        ],
    )
    def test_malformed_scenario_names_first_bad_row(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("s,channel,x,y,is_outlier\n0,0,1.0,0.5,0\n" + body, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_points_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            # csv.reader refuses a field longer than its limit of 131072 characters
            ('x,y\n1.0,0.5\n"' + "1" * 200_000 + '",0.5\n', "row 3: field larger than field limit (131072)"),
            (
                's,channel,x,y,is_outlier\n"' + "0" * 200_000 + '",0,1.0,0.5,1\n',
                "row 2: field larger than field limit (131072)",
            ),
            # as in an unquoted file, the first bad row is named, whatever its fault
            (
                'x,y\n1.0,0.5\nzz,0.5\n2.0,0.5\n"' + "1" * 200_000 + '",0.5\n',
                "row 3: could not convert string to float: 'zz'",
            ),
        ],
        ids=["xy", "scenario", "value-error-first"],
    )
    def test_csv_reader_error_names_its_row(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_points_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("quoted", [False, True])
    def test_nul_byte_names_its_row(self, tmp_path, quoted):
        # csv.reader refuses a NUL byte up to Python 3.10 and reads it as text after
        path = tmp_path / "nul.csv"
        path.write_text('x,y\n1.0,0.5\n"2.0\0",0.5\n' if quoted else "x,y\n1.0,0.5\n2.0\0,0.5\n")
        with pytest.raises(ValueError, match="^row 3: "):
            read_points_csv(path)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda line: line + "\r",
            lambda line: ",".join(f'"{field}"' for field in line.split(",")),
        ],
        ids=["crlf", "quoted"],
    )
    def test_crlf_and_quoted_copies_read_the_same(self, tmp_path, rewrite):
        text = scenario_to_csv(run_scenario(SimulationConfig(seed=9)))
        plain, copy = tmp_path / "plain.csv", tmp_path / "copy.csv"
        plain.write_text(text, encoding="utf-8")
        copy.write_bytes("".join(rewrite(line) + "\n" for line in text.splitlines()).encode())
        assert repr(read_points_csv(copy)) == repr(read_points_csv(plain))

    @pytest.mark.parametrize("s_max", [16, 67])
    def test_memory_stays_bounded(self, tmp_path, s_max):
        # the C = 1024 scenario of the artifacts benchmark, and one about 4x taller:
        # the reader holds at most the file's bytes and text, or its text and one block
        # of rows
        path = tmp_path / "scenario.csv"
        path.write_text(scenario_to_csv(run_scenario(SimulationConfig(channels=1024, s_max=s_max, seed=3))))
        tracemalloc.start()
        try:
            points, channels = read_points_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(points), channels) == (s_max, 1024)
        assert peak <= 2.5 * path.stat().st_size + 2**20

    @pytest.mark.parametrize("s_max", [16, 67])
    def test_quoted_memory_stays_bounded(self, tmp_path, s_max):
        # the same scenarios with their first field quoted, as
        # sed 's/^\([^,]*\),/"\1",/' quotes it: csv.reader streams the rows, so the
        # reader holds the file's text and csv's copy of it, not every row
        text = scenario_to_csv(run_scenario(SimulationConfig(channels=1024, s_max=s_max, seed=3)))
        path = tmp_path / "quoted.csv"
        path.write_text(re.sub(r"(?m)^([^,\n]*),", r'"\1",', text))
        tracemalloc.start()
        try:
            points, channels = read_points_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(points), channels) == (s_max, 1024)
        assert peak <= 6 * path.stat().st_size + 2**20

    def test_bad_row_in_last_block(self, tmp_path):
        text = scenario_to_csv(run_scenario(SimulationConfig(channels=1024, s_max=16, seed=3)))
        assert len(text) > 10 * simulation._BLOCK
        lines = text.splitlines()
        lines[-1] = lines[-1][:-1] + "2"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_points_csv(path)
        assert str(info.value) == f"row {len(lines)}: is_outlier must be 0 or 1, got '2'"

    def test_simulate_csv_skips_the_row_path(self, tmp_path):
        # every block of rows as scenario_to_csv writes them matches the row grammar
        scenario = run_scenario(SimulationConfig(channels=1024, s_max=16, seed=3))
        text = scenario_to_csv(scenario)
        assert len(text) > 10 * simulation._BLOCK
        path = tmp_path / "scenario.csv"
        path.write_text(text)
        with mock.patch.object(simulation, "_row_points", side_effect=AssertionError("row path")):
            assert read_points_csv(path) == (outlier_points(scenario), 1024)

    @pytest.mark.parametrize(
        "text,expected",
        [
            # a bad row in the last block, whichever block that is
            ("x,y\n1.0,2.0\n3.0,4.0\n5.0,zz\n", "ValueError(row 4: could not convert string to float: 'zz')"),
            # a blank line, which some block size puts right at a block end
            ("x,y\n1.0,2.0\n\n3.0,4.0\n", "ValueError(row 3: expected 2 columns, got 0)"),
            ("x,y\n1.0,2.0\n3.0,4.0\n\n", "ValueError(row 4: expected 2 columns, got 0)"),
            # a header-only file, with and without a line end
            ("s,channel,x,y,is_outlier\n", "([], 0)"),
            ("x,y", "([], None)"),
            # the largest channel is in the first block only
            ("s,channel,x,y,is_outlier\n0,7,1.0,0.5,0\n1,0,2.0,0.7,1\n1,1,3.0,0.8,0\n", "([(2.0, 0.7)], 8)"),
            # the last line has no line end
            ("1.0,2.0\n3.0,4.0", "([(1.0, 2.0), (3.0, 4.0)], None)"),
            ('x,y\n1.0,2.0\n"3.0",4.0', "([(1.0, 2.0), (3.0, 4.0)], None)"),
        ],
    )
    def test_every_block_size_reads_the_same(self, tmp_path, text, expected):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert _read(path) == expected
        for block in range(len(text) + 1):
            with mock.patch.object(simulation, "_BLOCK", block):
                assert _read(path) == expected, block


@settings(max_examples=2000, deadline=None)
@given(v=st.floats(allow_nan=False, allow_infinity=False))
@example(v=5e-324)
@example(v=-1.7976931348623157e308)
@example(v=1e16)
@example(v=1e-05)
@example(v=-0.0)
def test_repr_of_a_finite_float_matches_the_row_grammar(v):
    assert re.fullmatch(simulation._NUM, repr(v))


def _oracle_read_points_csv(path):
    """read_points_csv as csv.reader rows and one int/float call per field, row by row."""
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8-sig"))))
    if not rows:
        raise ValueError("empty CSV")
    header = [h.strip().lower() for h in rows[0]]
    scenario = header == ["s", "channel", "x", "y", "is_outlier"]
    types = (int, int, float, float, int) if scenario else (float, float)
    first = 2 if scenario or header == ["x", "y"] else 1
    values = []
    for n, row in enumerate(rows[first - 1:], start=first):
        if len(row) != len(types):
            raise ValueError(f"row {n}: expected {len(types)} columns, got {len(row)}")
        try:
            values.append([convert(text) for convert, text in zip(types, row)])
        except ValueError as exc:
            raise ValueError(f"row {n}: {exc}") from None
    if not scenario:
        return [tuple(v) for v in values], None
    return [(v[2], v[3]) for v in values if v[4]], max((v[1] for v in values), default=-1) + 1


# Pools of field texts per column. \x0c and \x85 are whitespace to float() but no line
# end to csv.reader. The pools hold no negative channel and no int flag other than 0
# or 1: read_points_csv refuses those rows, where the oracle misreads them.
_FLOATS = ["0.25", "-2.0", " 1.5 ", "1_0", "inf", "-inf", "nan", "-0.0", "1e400", "1.0", "7"]
_FLOATS += ["1e-05", "1.5e+20", "1e+400", "abc", "", "1,5", '1"5', "\x0c3", "4\x85"]
# 19 digits and more fall outside the row grammar; past int()'s digit limit (Python 3.11
# on), int refuses them
_INTS = ["0", "3", "007", "9" * 19, "9" * 5000, "1_0", " 4 ", "+2", "1.0", "x", ""]
_FLAGS = ["0", "1", " 1", "+1", "01", "0_0", "1.0", "y", ""]
_SCENARIO_POOLS = [_INTS + ["-3"], _INTS, _FLOATS, _FLOATS, _FLAGS]
_HEADERS = {
    "scenario": ["s,channel,x,y,is_outlier", " S ,Channel,X,y,IS_OUTLIER", '"s",channel,x,y,is_outlier'],
    "xy": ["x,y", " X , y", '"x","y"'],
    "headerless": [],
}


def _field(text: str, quote: bool) -> str:
    return '"' + text.replace('"', '""') + '"' if quote or "," in text else text


@st.composite
def _csv_texts(draw):
    kind = draw(st.sampled_from(sorted(_HEADERS)))
    pools = _SCENARIO_POOLS if kind == "scenario" else [_FLOATS, _FLOATS]
    lines = [draw(st.sampled_from(_HEADERS[kind]))] if _HEADERS[kind] else []
    for _ in range(draw(st.integers(0, 6))):
        # mostly the right width; 0 is a blank line
        width = draw(st.sampled_from([len(pools)] * 6 + [0, 1, len(pools) + 1]))
        quote = draw(st.booleans()) and draw(st.booleans())
        fields = [draw(st.sampled_from(pools[min(k, len(pools) - 1)])) for k in range(width)]
        # a lone empty field would be a blank line, which csv.reader reads as no field
        lines.append(",".join(_field(f, quote) for f in fields) if fields != [""] else '""')
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ending = draw(st.sampled_from(["", newline, newline * 2]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + (ending if lines else "")


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "in.csv"


def _read(path, reader=read_points_csv):
    """repr of reader's result, or ValueError(message)."""
    try:
        return repr(reader(path))
    except ValueError as exc:
        return f"ValueError({exc})"


@pytest.mark.parametrize(
    "rows",
    [
        # inside the row grammar
        "0,999999999999999999,1.0,0.5,1\n007,007,1e-05,-1.5e+20,1",
        "1,0,1e+400,-1e+400,1\n1,1,-0.0,0,0",
        # outside it: 19 digits (above int64), int()'s digit limit, other float texts
        "0,9999999999999999999,1.0,0.5,1",
        "9" * 5000 + ",0,1.0,0.5,1",
        "0,1,1.,.5,1\n0,2,1e5,1E+5,1",
        "0,1,+1.0,0.5,1\n0,2,1.0,0.5,0",
    ],
)
def test_reader_matches_per_row_oracle_at_the_row_grammar_edges(csv_path, rows):
    csv_path.write_text("s,channel,x,y,is_outlier\n0,3,2.0,0.5,0\n" + rows + "\n")
    for block in (0, 1 << 16):
        with mock.patch.object(simulation, "_BLOCK", block):
            assert _read(csv_path) == _read(csv_path, _oracle_read_points_csv)


@settings(max_examples=400, deadline=None)
@given(text=_csv_texts())
def test_reader_matches_per_row_oracle(csv_path, text):
    csv_path.write_bytes(text.encode("utf-8"))
    assert _read(csv_path) == _read(csv_path, _oracle_read_points_csv)


@settings(max_examples=400, deadline=None)
@given(text=_csv_texts(), block=st.integers(0, 16))
def test_reader_matches_per_row_oracle_across_block_ends(csv_path, text, block):
    # blocks of a few characters put block ends between every pair of rows
    csv_path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(simulation, "_BLOCK", block):
        assert _read(csv_path) == _read(csv_path, _oracle_read_points_csv)
