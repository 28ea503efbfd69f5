"""The public record types: field order, defaults, construction, immutability
and repr.  They are NamedTuples, so they also compare and unpack as tuples.
A pass's detections are an array of `DETECTION_ROW`s and its search windows
a `SearchWindows` of columns, one search window a row: their field order is
pinned here too, and the window table's immutability."""

import dataclasses

import numpy as np
import pytest

from panosearch.detector import DETECTION_ROW, Detection
from panosearch.galvo import View, VisibleObject
from panosearch.refinement import SearchWindows

VISIBLE = VisibleObject(object_id=3, x_px=1.5, y_px=2.5, width_px=30.0,
                        height_px=20.0, occlusion=0.25)
DETECTION = Detection(theta_h=0.5, theta_v=-0.5, width_deg=0.06,
                      height_deg=0.04, confidence=0.9, var_h=1e-4, var_v=2e-4,
                      object_id=3)

# type, field names in order, field defaults, and one value per field
RECORDS = {
    "View": (View, ("theta_h", "theta_v", "width", "height", "visible"), {},
             (1.25, -2.0, 264, 224, (VISIBLE,))),
    "VisibleObject": (VisibleObject, ("object_id", "x_px", "y_px", "width_px",
                                      "height_px", "occlusion"), {},
                      tuple(VISIBLE)),
    "Detection": (Detection, ("theta_h", "theta_v", "width_deg", "height_deg",
                              "confidence", "var_h", "var_v", "object_id"),
                  {"object_id": None}, tuple(DETECTION)),
}

# a search window is a row of the frozen SearchWindows table: its columns,
# then each merged detection row's window (three rows merged into two windows)
WINDOWS = {
    "SearchWindow": (SearchWindows, ("center_h", "center_v", "radius_h",
                                     "radius_v", "confidence", "width_deg",
                                     "height_deg", "window_of"), {},
                     (*[np.zeros(2)] * 7, np.array([0, 1, 0]))),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


@pytest.fixture(params=sorted(RECORDS | WINDOWS))
def record_or_table(request):
    return (RECORDS | WINDOWS)[request.param]


def test_field_order_and_defaults(record_or_table):
    cls, names, defaults, _ = record_or_table
    if dataclasses.is_dataclass(cls):
        fields = dataclasses.fields(cls)
        assert tuple(f.name for f in fields) == names
        assert {f.name: f.default for f in fields
                if f.default is not dataclasses.MISSING} == defaults
    else:
        assert cls._fields == names
        assert cls._field_defaults == defaults


def test_keyword_construction_matches_positional(record):
    cls, names, _, values = record
    by_keyword = cls(**dict(zip(names, values)))
    assert by_keyword == cls(*values) == values  # a tuple of its fields
    assert [getattr(by_keyword, n) for n in names] == list(values)
    *_, last = by_keyword
    assert last == values[-1]


def test_fields_cannot_be_assigned(record_or_table):
    cls, names, _, values = record_or_table
    rec = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert all(getattr(rec, n) is v for n, v in zip(names, values))
    if not dataclasses.is_dataclass(cls):
        assert tuple(rec) == values


def test_repr_names_every_field(record):
    cls, names, _, values = record
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({body})"


def test_detection_defaults_to_a_false_positive():
    det = Detection(0.0, 0.0, 0.1, 0.1, 0.2, 1e-4, 1e-4)
    assert det.object_id is None
    assert repr(det).endswith(", object_id=None)")


def test_detection_row_is_a_view_then_a_detection():
    assert DETECTION_ROW.names == ("view", *Detection._fields)
    assert [DETECTION_ROW[n].kind for n in DETECTION_ROW.names] == \
        ["i"] + ["f"] * 7 + ["i"]
    table = np.array([(2, *DETECTION[:7], 3), (2, *DETECTION[:7], -1)],
                     dtype=DETECTION_ROW)
    assert table.tolist() == [(2, *DETECTION), (2, *DETECTION[:7], -1)]
    assert len(table) == 2


def test_search_windows_count_windows_not_members():
    windows = SearchWindows(*WINDOWS["SearchWindow"][3])
    assert len(windows) == 2
