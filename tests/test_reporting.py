import csv
import hashlib
import io
import json

import numpy as np
import pytest

from udmrg.reporting import (
    ScanReport,
    canonical_json,
    config_hash,
    format_value,
    sha256_file,
    write_json,
    write_report_csv,
)


def test_format_value_round_trips_floats():
    assert format_value(0.1) == "0.1"
    assert format_value(1.0) == "1.0"
    assert format_value(1e-8) == "1e-08"
    assert format_value(np.float64(0.25)) == "0.25"
    for x in (0.1, 1 / 3, 1e-300, 123456.789):
        assert float(format_value(x)) == x


def test_format_value_non_floats():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(np.int64(7)) == "7"
    assert format_value("label") == "label"


def test_format_value_renders_numpy_bools_like_json():
    # a numpy bool reads the same in a CSV cell as in the summary JSON
    assert format_value(np.True_) == "true"
    assert format_value(np.False_) == "false"
    assert json.loads(canonical_json({"x": np.True_}))["x"] is True


def test_add_row_enforces_arity():
    report = ScanReport(name="t", columns=["a", "b"])
    report.add_row(1, 2)
    with pytest.raises(ValueError, match="columns"):
        report.add_row(1, 2, 3)


def test_csv_bytes_layout():
    report = ScanReport(name="t", columns=["index", "value", "ok"])
    report.add_row(0, 0.5, True)
    report.add_row(1, 1e-10, False)
    assert report.csv_bytes() == (
        b"index,value,ok\n0,0.5,true\n1,1e-10,false\n"
    )


def test_csv_bytes_render_every_cell_as_format_value_does():
    """Plain floats, ints and strings skip ``format_value``; the bytes are
    those of formatting every cell first."""
    row = [0.1, np.float64(1 / 3), 7, np.int64(-3), True, np.False_, "a,b \"c\"",
           float("nan"), float("-inf"), np.float64("inf"), 1e-300, -0.0]
    report = ScanReport(name="t", columns=[f"c{i}" for i in range(len(row))])
    report.add_row(*row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    writer.writerow([format_value(v) for v in row])
    assert report.csv_bytes() == buf.getvalue().encode("utf-8")
    assert report.csv_bytes().splitlines()[1] == (
        b'0.1,0.3333333333333333,7,-3,true,false,"a,b ""c""",nan,-inf,inf,1e-300,-0.0')


def test_canonical_json_is_sorted_and_newline_terminated():
    blob = canonical_json({"b": 1, "a": np.float64(0.5),
                           "c": np.array([1.0, 2.0])})
    text = blob.decode("utf-8")
    assert text.endswith("\n")
    decoded = json.loads(text)
    assert decoded == {"a": 0.5, "b": 1, "c": [1.0, 2.0]}
    assert list(decoded) == ["a", "b", "c"]
    # key order is canonical regardless of insertion order
    assert blob == canonical_json({"c": [1.0, 2.0], "a": 0.5, "b": 1})


def test_summary_payload_strips_numpy_types():
    report = ScanReport(name="t", columns=["x"],
                        summary={"m": np.float64(2.0),
                                 "v": np.array([1, 2]),
                                 "flag": np.bool_(True)},
                        provenance={"seed": np.int64(7)})
    payload = report.summary_payload()
    assert payload["summary"] == {"m": 2.0, "v": [1, 2], "flag": True}
    assert payload["provenance"] == {"seed": 7}
    assert payload["name"] == "t"
    json.dumps(payload)  # must be serializable with the stdlib encoder


def test_writers_and_file_digest(tmp_path):
    report = ScanReport(name="t", columns=["a"])
    report.add_row(1.5)
    csv_path = write_report_csv(report, tmp_path / "t.csv")
    json_path = write_json({"k": 1}, tmp_path / "t.json")
    assert csv_path.read_bytes() == report.csv_bytes()
    assert json_path.read_bytes() == canonical_json({"k": 1})
    expected = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert sha256_file(csv_path) == expected


def test_config_hash_is_order_insensitive_and_value_sensitive():
    a = config_hash({"x": 1, "y": 2})
    b = config_hash({"y": 2, "x": 1})
    c = config_hash({"x": 1, "y": 3})
    assert a == b
    assert a != c
    assert len(a) == 64
