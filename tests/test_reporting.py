import numpy as np
import pytest

import csv_writer_reference
from pseudoplap import reporting
from pseudoplap.reporting import write_csv

# cells of every type a report row holds, and the edge cases of each
MIXED = [
    [True, np.True_, None, 1, np.int64(-3), np.float64(0.1), "small"],
    [np.False_, False, None, 0, np.int64(7), 2.5, "large"],
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2250738585072014e-308, ""],
    ["a,b", 'say "hi"', "two\nlines", "cr\r", "tab\t", " lead", "plain"],
    [1e300, -1.5e-300, np.float32(0.1), (1, 2), None, None, "uncovered=a:N1,b:N2"],
]


@pytest.mark.parametrize("columns, rows", [
    (["a", "b,c", 'd"e', "f", "g", "h", "i"], MIXED),
    (["a", "b,c", 'd"e', "f", "g", "h", "i"], MIXED[::-1] * 3 + MIXED[:1] * 5000),
    (["only"], [[None], [""], ["x,y"], [1.0], [True], [np.bool_(False)], [3], ['"']]),
    ([], [[], []]),
    (["none"], []),
], ids=["mixed", "runs-and-blocks", "one-column", "no-column", "no-row"])
def test_write_csv_matches_per_cell_reference(tmp_path, columns, rows):
    write_csv(tmp_path / "blocks.csv", columns, rows, "abc")
    csv_writer_reference.write_csv(tmp_path / "reference.csv", columns, rows, "abc")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_write_csv_one_format_call_per_block(tmp_path, monkeypatch):
    # rows of float, int and str cells, in two runs of cell types, take one
    # `%` call per block of rows, not one format call per cell
    blocks = []
    lines = reporting._lines

    def counted(rows, single):
        blocks.append(len(rows))
        return lines(rows, single)

    monkeypatch.setattr(reporting, "_lines", counted)
    size = reporting._BLOCK_ROWS
    rows = [["small", 0.5 * k, k] for k in range(2 * size + 7)] \
        + [["large", None, k] for k in range(size)]
    write_csv(tmp_path / "rows.csv", ["branch", "x", "k"], rows)
    assert blocks == [1, size, size, 7, size]  # the header, then each run in blocks
