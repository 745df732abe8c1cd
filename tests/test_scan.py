"""The vectorized scan blocks and the block CSV writer against their
per-point and per-value reference implementations."""

import os
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodrev import IsothermalMetric, LinearForm, MetricBundle, PhiFunction, Rectangle
from geodrev import cli
from geodrev.cli import main
from geodrev.frames import crosscheck
from geodrev.metric import _BLOCK_VALUES, _MARGIN_BUDGETS, _row_blocks
from geodrev.reversibility import residual
from geodrev.scalarfield import EvalDomainError

from conftest import (
    make_class_a_bundle,
    make_class_b_bundle,
    make_even_bundle,
    make_irreversible_bundle,
    scan_table,
)

WITNESSES = {
    "class_a": make_class_a_bundle,
    "class_b": make_class_b_bundle,
    "irreversible": make_irreversible_bundle,
    "even": make_even_bundle,
}


def reference_scan_rows(bundle, what):
    """The per-base-point scan loop: one residual or crosscheck call per (x1, x2)."""
    sampling = bundle.sampling
    bundle.validate()
    d = bundle.metric.domain
    xs1 = np.linspace(d.x1min, d.x1max, sampling.n_x1)
    xs2 = np.linspace(d.x2min, d.x2max, sampling.n_x2)
    ts = np.linspace(0.0, 2.0 * np.pi, sampling.n_t, endpoint=False)
    rows = []
    if what == "residual":
        for x1 in xs1:
            for x2 in xs2:
                values = np.broadcast_to(residual(bundle, (x1, x2), ts), ts.shape)
                rows.extend((x1, x2, t, v) for t, v in zip(ts, values))
        return ["x1", "x2", "t", "residual"], rows
    for x1 in xs1:
        for x2 in xs2:
            result = crosscheck(bundle, (x1, x2), ts)
            direct = np.broadcast_to(result.direct, ts.shape)
            closed = np.broadcast_to(result.closed_form, ts.shape)
            gap = np.broadcast_to(result.relative_gap, ts.shape)
            rows.extend((x1, x2, t, dv, cv, gv) for t, dv, cv, gv in zip(ts, direct, closed, gap))
    return ["x1", "x2", "t", "direct", "closed_form", "gap"], rows


def reference_write_csv(path, header, rows):
    """The per-value writer: one {:.17g} f-string per value."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")


def assert_bitwise_table(table, rows):
    expected = np.array(rows, dtype=float)
    assert table.dtype == np.float64
    assert table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()


class TestScanTable:
    @pytest.mark.parametrize("what", ["residual", "crosscheck"])
    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_equals_per_point_loop(self, name, what):
        bundle = WITNESSES[name]()
        header, table = scan_table(bundle, what)
        ref_header, rows = reference_scan_rows(bundle, what)
        assert header == ref_header
        assert_bitwise_table(table, rows)

    @pytest.mark.parametrize("what", ["residual", "crosscheck"])
    def test_equals_per_point_loop_doubled(self, what):
        base = make_irreversible_bundle()
        bundle = MetricBundle(base.metric, base.form, base.phi, base.sampling.doubled())
        _, table = scan_table(bundle, what)
        _, rows = reference_scan_rows(bundle, what)
        assert table.shape == (42 * 42 * 128, 6 if what == "crosscheck" else 4)
        assert_bitwise_table(table, rows)

    @pytest.mark.parametrize("what", ["E", "F"])
    def test_profile_scan_is_a_table(self, what):
        bundle = make_class_b_bundle()
        header, table = scan_table(bundle, what)
        assert header == ["s", "E", "F"]
        assert table.shape == (bundle.sampling.n_s, 3)

    @pytest.mark.parametrize("what", ["residual", "crosscheck"])
    def test_domain_error_names_first_failing_point_in_row_order(self, what):
        # d(b1)/dx1 divides by zero on the line x1 = 0 and d(b1)/dx2 on the
        # line x2 = -0.5; validation only evaluates b1 itself and passes.
        metric = IsothermalMetric.from_text("0", Rectangle(-1.0, 1.0, -1.0, 1.0))
        form = LinearForm.from_text("0.05*sqrt(x1^2) + 0.05*sqrt((x2 + 0.5)^2)", "0.1")
        bundle = MetricBundle(metric, form, PhiFunction.matsumoto(0.4))
        assert bundle.validate().passed
        with pytest.raises(EvalDomainError) as expected:
            reference_scan_rows(bundle, what)
        with pytest.raises(EvalDomainError) as got:
            scan_table(bundle, what)
        assert str(got.value) == str(expected.value)
        # x1 is the outer loop: the first failure sits on the row x1 = -1
        assert str(got.value).endswith("at x1=-1.0, x2=-0.5")


def nan_with(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SPECIAL_VALUES = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300, 0.1, -1.0 / 3.0]


def csv_bytes(tmp_path, writer, header, rows, name):
    path = tmp_path / name
    writer(str(path), header, rows)
    return path.read_bytes()


def table_blocks(table):
    """A (rows, columns) table in _row_blocks slices, as the commands cut theirs."""
    return [table[rows] for rows in _row_blocks(len(table), table.shape[1])]


def grid_blocks(grid):
    """A (base points, angles, columns) grid in _row_blocks slices of base points."""
    return [grid[rows] for rows in _row_blocks(len(grid), grid.shape[1])]


class TestWriteCsv:
    def check(self, tmp_path, header, rows, *writes):
        """Each list of blocks, 2-D tables or grids of base points x angles,
        writes the reference bytes of ``rows``."""
        want = csv_bytes(tmp_path, reference_write_csv, header, rows, "want.csv")
        for blocks in writes:
            assert csv_bytes(tmp_path, cli.write_csv, header, blocks, "table.csv") == want
        return want

    def test_special_values(self, tmp_path):
        rows = [(float(i), v, -v) for i, v in enumerate(SPECIAL_VALUES)]
        want = self.check(tmp_path, ["step", "a", "b"], rows, [np.array(rows)])
        assert b"\n0,-0,0\n" in want
        assert b",nan,nan\n" in want
        assert b",inf,-inf\n" in want
        assert b",4.9406564584124654e-324," in want

    def test_integer_step_column(self, tmp_path):
        samples = np.random.default_rng(3).normal(size=(50, 2))
        steps = np.arange(50, dtype=float)
        rows = [(float(i), p[0], p[1]) for i, p in enumerate(samples)]
        want = self.check(tmp_path, ["step", "x1", "x2"], rows, [np.column_stack((steps, samples))])
        assert want.splitlines()[-1].startswith(b"49,")
        # integer arrays format like the floats they convert to
        int_rows = [(i, 2 * i, 3) for i in range(20)]
        self.check(tmp_path, ["a", "b", "c"], int_rows, [np.array(int_rows)])

    def test_zero_rows(self, tmp_path):
        want = self.check(tmp_path, ["s", "b", "m"], [], [np.empty((0, 3))], [])
        assert want == b"s,b,m\n"

    def test_rows_across_blocks(self, tmp_path):
        n = 2 * (_BLOCK_VALUES // 3) + 17
        values = np.random.default_rng(5).normal(size=(n, 3)) * np.logspace(-300, 300, n)[:, None]
        rows = [tuple(map(float, row)) for row in values]
        blocks = table_blocks(values)
        assert len(blocks) == 3
        want = self.check(tmp_path, ["a", "b", "c"], rows, blocks, [values])
        assert want.count(b"\n") == n + 1

    def test_width_mismatch_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [np.zeros((4, 3))])

    @pytest.mark.parametrize("shape", [(2, 4, 3), (2, 4, 1), (4,), (2, 2, 2, 2)])
    def test_grid_of_another_shape_is_rejected(self, tmp_path, shape):
        with pytest.raises(ValueError, match=r"rows of 2 values expected"):
            cli.write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [np.zeros(shape)])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [0, 2, 1, 4, 3], [4, 0, 3, 1, 2]])
    def test_grid_of_base_points(self, tmp_path, order):
        # x1 and x2 constant within each base point, t the same in every
        # one, a constant column and one that varies in every row, in
        # orders that split x1 from x2; 1, 8 and more than a block of
        # angles; base points that do not fill their last block.
        header = [["x1", "x2", "t", "zero", "v"][c] for c in order]
        for n_t in (1, 8, _BLOCK_VALUES + 5):
            n_base = max(1, _BLOCK_VALUES // n_t) + 3
            base = np.random.default_rng(n_t).normal(size=(n_base, 2))
            t = np.linspace(0.0, 6.0, n_t, endpoint=False)
            grid = np.empty((n_base, n_t, 5))
            grid[:, :, :2] = base[:, None, :]
            grid[:, :, 2] = t
            grid[:, :, 3] = -0.0
            grid[:, :, 4] = np.random.default_rng(1).normal(size=(n_base, n_t))
            grid = grid[:, :, order]
            rows = grid.reshape(-1, 5)
            blocks = grid_blocks(grid)
            assert len(blocks) == (4 if n_t > _BLOCK_VALUES else 2)
            self.check(tmp_path, header, rows.tolist(), blocks, [grid], [rows])

    def test_signed_zeros_and_nans_in_one_repeating_column(self, tmp_path):
        # one block, a column with repeats: each 64-bit pattern is its own value
        nans = [float("nan"), -float("nan"), nan_with(0x7FF8000000000123), nan_with(0xFFF8000000000123)]
        column = [0.0, -0.0, *nans, 0.0, -0.0, 1.5] * 7
        table = np.column_stack((np.arange(len(column), dtype=float), column, np.negative(column)))
        assert len(np.unique(table[:, 1].view(np.int64))) == 7
        want = self.check(tmp_path, ["step", "a", "b"], table.tolist(), [table])
        assert want.splitlines()[1:4] == [b"0,0,-0", b"1,-0,0", b"2,nan,nan"]

    def test_value_recurring_in_two_blocks(self, tmp_path):
        n = _BLOCK_VALUES // 3 + 100
        grid = np.linspace(-1.0, 1.0, 21)
        table = np.column_stack((grid[np.arange(n) % 21], grid[np.arange(n) // 21 % 21], np.arange(n) * 0.1))
        blocks = table_blocks(table)
        assert len(blocks) == 2
        want = self.check(tmp_path, ["x1", "x2", "t"], table.tolist(), blocks)
        assert want.count(b"\n") == n + 1

    def test_all_distinct_geodesic_table(self, tmp_path):
        n = 1001
        path = np.cumsum(np.random.default_rng(11).normal(size=(n, 2)) * 1e-3, axis=0)
        table = np.column_stack((np.arange(n, dtype=float), path))
        assert all(len(np.unique(table[:, c])) == n for c in range(3))
        self.check(tmp_path, ["step", "x1", "x2"], table.tolist(), [table])

    @pytest.mark.parametrize("what", ["residual", "crosscheck"])
    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_witness_scans(self, tmp_path, name, what):
        bundle = WITNESSES[name]()
        header, blocks = cli.SCAN_HEADERS[what], list(cli._scan_rows(bundle, what))
        assert len(blocks) > 1
        table = np.concatenate([block.reshape(-1, len(header)) for block in blocks])
        grid = table.reshape(-1, bundle.sampling.n_t, len(header))
        self.check(tmp_path, header, table.tolist(), blocks, [table], [grid])

    def test_a_failing_block_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"earlier\n")

        def blocks():
            yield np.zeros((2, 3))
            raise RuntimeError("block 2")

        with pytest.raises(RuntimeError, match="block 2"):
            cli.write_csv(str(path), ["a", "b", "c"], blocks())
        assert path.read_bytes() == b"earlier\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_mode_is_that_of_open(self, tmp_path):
        # a new file gets open(path, "w")'s mode, not mkstemp's 0600; an
        # existing one keeps its own, as open(path, "w") leaves it
        (tmp_path / "plain.csv").write_text("")
        cli.write_csv(str(tmp_path / "new.csv"), ["a"], [np.zeros((1, 1))])
        assert os.stat(tmp_path / "new.csv").st_mode == os.stat(tmp_path / "plain.csv").st_mode
        os.chmod(tmp_path / "plain.csv", 0o640)
        cli.write_csv(str(tmp_path / "plain.csv"), ["a"], [np.zeros((1, 1))])
        assert os.stat(tmp_path / "plain.csv").st_mode & 0o7777 == 0o640

    def test_a_pipe_is_written_in_place(self, tmp_path):
        # replacing it would leave its reader waiting and a file in its place
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        cli.write_csv(str(pipe), ["a"], [np.zeros((2, 1))])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"a\n0\n0\n"]
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_a_symlink_is_written_through(self, tmp_path):
        # the link stays a link, to the file that now holds the CSV
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier\n")
        (tmp_path / "link.csv").symlink_to(target)
        cli.write_csv(str(tmp_path / "link.csv"), ["a"], [np.zeros((2, 1))])
        assert (tmp_path / "link.csv").is_symlink()
        assert target.read_bytes() == b"a\n0\n0\n"
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    @pytest.mark.parametrize("writable", ["folder", "file"])
    def test_a_file_this_process_may_not_replace_is_written_in_place(self, tmp_path, monkeypatch, writable):
        # as open(path, "w") writes it: no new file next to it, and its
        # own permission decides, not a rename over it
        path = tmp_path / "out.csv"
        path.write_bytes(b"earlier\n")
        denied = str(path) if writable == "file" else str(tmp_path)
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: str(p) != denied and access(p, mode))
        inode = path.stat().st_ino
        cli.write_csv(str(path), ["a"], [np.zeros((1, 1))])
        assert path.stat().st_ino == inode
        assert path.read_bytes() == b"a\n0\n"
        assert os.listdir(tmp_path) == ["out.csv"]


README_CONFIG = (
    '[metric]\nnu = "0"\nx1min = -1.0\nx1max = 1.0\nx2min = -1.0\nx2max = 1.0\n'
    '[form]\nb1 = "0.2 + 0.1*x1"\nb2 = "0"\n[phi]\nkind = "matsumoto"\nb0 = 0.4\n[sampling]\n'
)


def traced_peak(argv):
    """The exit code of main(argv) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_84x84_crosscheck_scan_peaks_under_16_mb(self, tmp_path):
        # 84 x 84 x 64 rows, a 56 MB CSV; the whole table took 124 MB
        config = tmp_path / "exp.cfg"
        config.write_text(README_CONFIG + "n_x1 = 84\nn_x2 = 84\n", encoding="utf-8")
        code, peak = traced_peak(["scan", str(config), "--what", "crosscheck", "--out", str(tmp_path / "c.csv")])
        assert code == 0
        assert peak < 16 * 2**20

    def test_validate_out_blocks_do_not_grow_with_n_s(self, tmp_path, monkeypatch, capsys):
        sizes = []

        def consume(path, header, blocks):
            sizes.extend(len(block) for block in blocks)

        monkeypatch.setattr(cli, "write_csv", consume)
        peaks = {}
        for n_s in (402, 804):
            config = tmp_path / f"exp{n_s}.cfg"
            config.write_text(README_CONFIG + f"n_s = {n_s}\n", encoding="utf-8")
            sizes.clear()
            code, peaks[n_s] = traced_peak(["validate", str(config), "--out", "unused.csv"])
            assert code == 0
            assert sum(sizes) == n_s * n_s
            assert max(sizes) <= _MARGIN_BUDGETS * _BLOCK_VALUES
        assert peaks[804] < 1.5 * peaks[402]


SPECIAL_BITS = [
    0x0000000000000000,  # 0.0
    0x8000000000000000,  # -0.0
    0x7FF8000000000000,  # nan
    0xFFF8000000000000,  # -nan
    0x7FF8000000000123,  # nan with a payload
    0xFFF8000000000123,  # -nan with a payload
    0x7FF0000000000001,  # signalling nan
    0x7FF0000000000000,  # inf
    0xFFF0000000000000,  # -inf
    0x0000000000000001,  # the smallest subnormal
    0x800FFFFFFFFFFFFF,  # the largest negative subnormal
]
SPECIALS = [nan_with(bits) for bits in SPECIAL_BITS]
VALUES = st.one_of(
    st.sampled_from(SPECIALS),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
)
COLUMN_KINDS = ("constant", "sequence", "base", "few", "half", "mostly", "distinct")


def distinct_values(rng, n):
    """n values of distinct 64-bit patterns, the specials first."""
    pool = np.concatenate((SPECIALS, rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, size=n)))
    _, first = np.unique(pool.view(np.int64), return_index=True)
    return pool[np.sort(first)][:n]


def written_blocks(n_base, n_t, width):
    """The (base points, angles) slices of a grid that write_csv formats in
    one _grid_text call each, when given grid_blocks of it."""
    for bases in _row_blocks(n_base, n_t):
        if len(range(n_base)[bases]) == 1:
            yield from ((bases, angles) for angles in _row_blocks(n_t, width))
        else:
            yield bases, slice(None)


@st.composite
def grids(draw):
    """A (base points, angles, columns) grid whose columns are drawn as a
    constant, a sequence shared by every base point (as t), a value per base
    point (as x1), a few values, n/2 or n/2 + 1 distinct values (rounded
    down) in each block of n values that write_csv formats, about a quarter
    of the values repeated, or only distinct values; then, optionally, a
    sequence that differs in one base point and a per-base-point value that
    changes inside one."""
    n_t = draw(st.sampled_from([1, 8, _BLOCK_VALUES + 3]))
    per_block = max(1, _BLOCK_VALUES // n_t)
    if n_t > _BLOCK_VALUES:
        n_base = draw(st.sampled_from([1, 2, 3]))
    else:
        n_base = draw(st.sampled_from([1, 2, per_block - 1, per_block + 1, 2 * per_block + 5]))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_base, n_t)
    columns = []
    for kind in kinds:
        if kind == "constant":
            column = np.full(shape, draw(VALUES))
        elif kind == "sequence":
            column = np.broadcast_to(rng.choice(SPECIALS + [0.1, -2.5], n_t), shape)
        elif kind == "base":
            column = np.broadcast_to(rng.choice(SPECIALS + [0.3, 1e300], n_base)[:, None], shape)
        elif kind == "few":
            column = rng.choice(draw(st.lists(VALUES, min_size=1, max_size=4)), shape)
        elif kind == "half":
            column = np.empty(shape)
            for block in written_blocks(n_base, n_t, len(kinds)):
                n = column[block].size
                values = distinct_values(rng, max(1, n // 2 + draw(st.integers(0, 1))))
                column[block] = rng.permutation(np.resize(values, n)).reshape(column[block].shape)
        elif kind == "mostly":
            column = rng.permutation(distinct_values(rng, n_base * n_t))
            repeats = rng.choice(column.size, column.size // 4, replace=False)
            column[repeats] = column[rng.integers(0, column.size, len(repeats))]
            column = column.reshape(shape)
        else:
            column = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)
        columns.append(np.array(column, dtype=float))
    grid = np.stack(columns, axis=-1)
    for kind in ("sequence", "base"):
        if kind in kinds and draw(st.booleans()):
            c = kinds.index(kind)
            b, t = draw(st.integers(0, n_base - 1)), draw(st.integers(0, n_t - 1))
            grid[b, t, c] = draw(VALUES)
    return grid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=grids())
def test_grid_bytes_equal_the_reference(tmp_path_factory, grid):
    tmp_path = tmp_path_factory.mktemp("grid")
    header = [f"c{i}" for i in range(grid.shape[-1])]
    rows = grid.reshape(-1, grid.shape[-1])
    want = csv_bytes(tmp_path, reference_write_csv, header, rows.tolist(), "want.csv")
    assert csv_bytes(tmp_path, cli.write_csv, header, grid_blocks(grid), "grid.csv") == want


@pytest.mark.parametrize("n", [1, 2, 7, 8, 1001])
def test_texts_only_for_columns_at_most_half_distinct(n):
    rng = np.random.default_rng(n)
    for d in sorted({1, n // 2, n // 2 + 1, n} - {0}):
        column = rng.permutation(np.resize(distinct_values(rng, d), n))
        texts = cli._texts(column.view(np.int64))
        if 2 * d > n:
            assert texts is None
        else:
            assert texts.tolist() == ["%.17g" % v for v in column.tolist()]
