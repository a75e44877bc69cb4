"""The six text-table loaders share one reader and their writers one writer."""

import re

import pytest

from seqplace.cli import _MATCH_HEADER, load_match_csv
from seqplace.dataset import load_positions_file, save_positions_file, write_table
from seqplace.evaluation import (
    load_ground_truth,
    load_pr_csv,
    load_sweep_csv,
    save_pr_csv,
    save_sweep_csv,
)
from seqplace.neural import load_curves_csv, save_curves_csv

# loader, writer of what the loader returns (match is written inline by the
# match command, so through write_table), and a valid file ending in two rows
TABLES = {
    "positions": (
        load_positions_file,
        save_positions_file,
        "0.5,-1.25\n2.0,3.0\n",
    ),
    "ground_truth": (
        load_ground_truth,
        lambda truth, path: write_table(path, None, truth.items()),
        "0,5\n1,6\n",
    ),
    "pr": (
        load_pr_csv,
        save_pr_csv,
        "# auc=0.25\nthreshold,precision,recall\ninf,1.0,0.0\n0.5,0.5,0.5\n",
    ),
    "sweep": (
        load_sweep_csv,
        save_sweep_csv,
        "method,d_s,query_name,auc\nseqslam,2,q,0.5\ndelta,2,q,\n",
    ),
    "curves": (
        load_curves_csv,
        save_curves_csv,
        "epoch,loss,accuracy,seconds\n0,2.5,0.1,0.01\n1,1.25,0.5,0.02\n",
    ),
    "match": (
        load_match_csv,
        lambda loaded, path: write_table(
            path, _MATCH_HEADER, zip(loaded[0].query_indices, loaded[0].best_ref, loaded[0].scores),
            loaded[1].items(),
        ),
        "# method=delta\n# polarity=lower\n# ds=2\nquery_index,best_ref,score\n0,3,0.25\n1,4,0.5\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_every_table_follows_the_one_reader_and_writer(tmp_path, kind):
    load, save, text = TABLES[kind]
    lines = text.splitlines()
    path = tmp_path / f"{kind}.csv"

    def written(content):
        path.write_text(content)
        out = tmp_path / "out.csv"
        save(load(path), out)
        return out.read_bytes()

    # a blank line and a note between the data rows change nothing
    noted = "\n".join(lines[:-1] + ["", "# note", lines[-1]]) + "\n"
    assert written(noted) == written(text)

    # written, read back and written again: the same bytes
    first = written(text)
    assert written(first.decode("ascii")) == first

    lineno = len(lines) + 1
    fields = lines[-1].split(",")
    extra = text + ",".join(fields + ["7"]) + "\n"
    path.write_text(extra)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: expected {len(fields)} fields")):
        load(path)

    bad_row = ",".join(fields[:-1] + ["x"])
    path.write_text(text + bad_row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: malformed row {bad_row!r}")):
        load(path)


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_a_byte_outside_ascii_names_its_line(tmp_path, kind):
    load, _, text = TABLES[kind]
    lines = text.splitlines()
    path = tmp_path / f"{kind}.csv"
    # past the first chunk the text decoder reads, so the line is counted on
    rows = 2000
    path.write_bytes((text + (lines[-1] + "\n") * rows).encode("ascii") + b"0.7,\xc3\xa9\n")
    lineno = len(lines) + rows + 1
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: a byte is not ASCII")):
        load(path)
