import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarpose.records import ACTIONS, SWING_STATES, make_record, read_jsonl, write_jsonl

_floats = st.floats(allow_nan=False, allow_infinity=False)
_ints = st.integers(-(2**53), 2**53)

_records = st.lists(
    st.builds(
        make_record,
        frame_id=_ints,
        t_ms=_ints,
        radar_id=st.integers(-1, 1),
        points=st.lists(st.lists(_floats, min_size=5, max_size=5), max_size=6),
        gt=st.lists(st.lists(_floats, min_size=3, max_size=3), min_size=32, max_size=32),
        action=st.sampled_from(ACTIONS),
        subject=_ints,
        swing_state=st.sampled_from(SWING_STATES),
        fused=st.booleans(),
    ),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(_records)
def test_jsonl_round_trip_is_exact_and_rewrites_the_same_bytes(tmp_path_factory, records):
    d = tmp_path_factory.mktemp("jsonl")
    write_jsonl(d / "a.jsonl", records)
    back = read_jsonl(d / "a.jsonl")
    assert back == records
    write_jsonl(d / "b.jsonl", back)
    assert (d / "b.jsonl").read_bytes() == (d / "a.jsonl").read_bytes()


def _record(frame_id, points=((0.1, 2.0, 0.5, -0.2, 9.0),)):
    return make_record(frame_id, 50 * frame_id, 0, list(points), [[0.0, 2.0, 1.0]] * 32, "walk_toward", 0, "none")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_read_rejects_a_non_finite_token_naming_line_and_frame(tmp_path, token):
    path = tmp_path / "raw.jsonl"
    write_jsonl(path, [_record(4), _record(5)])
    lines = path.read_text().splitlines()
    assert "2.0, 0.5" in lines[1]
    lines[1] = lines[1].replace("2.0, 0.5", f"2.0, {token}", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"raw\.jsonl line 2: frame 5: {token} is not a finite number$"):
        read_jsonl(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rec: rec["gt"].pop(), r"frame 7: gt is not 32 finite \[x, y, z\] rows \(got 31 rows\)"),
        (lambda rec: rec["gt"][3].append(0.0), r"frame 7: gt is not 32 finite .* \(got rows that are not 3 values"),
        (lambda rec: rec.update(gt=5), r"frame 7: gt is not 32 finite .* \(got rows that are not 3 values"),
        (lambda rec: rec["points"][0].pop(), r"frame 7: points are not \[x, y, z, v, snr\] rows$"),
        (lambda rec: rec.pop("action"), r"record missing key 'action'"),
        (lambda rec: rec.update(radar_id="0"), r"frame 7: radar_id must be an integer, got '0'$"),
        (lambda rec: rec.update(t_ms="x"), r"frame 7: t_ms must be an integer, got 'x'$"),
        (lambda rec: rec.update(subject=1.0), r"frame 7: subject must be an integer, got 1\.0$"),
        (lambda rec: rec.update(frame_id=True), r"frame True: frame_id must be an integer, got True$"),
        (lambda rec: rec.update(action="jump"), r"frame 7: action must be one of \('walk_toward', .*\), got 'jump'$"),
        (lambda rec: rec.update(swing_state="up"),
         r"frame 7: swing_state must be one of \('none', 'left', 'right'\), got 'up'$"),
        (lambda rec: rec.update(fused=False), r"frame 7: fused must be true when present, got False$"),
    ],
    ids=["31-joints", "4-value-joint", "number-gt", "4-value-point", "no-action", "radar-id-string",
         "t-ms-string", "subject-float", "frame-id-bool", "unknown-action", "unknown-swing-state", "fused-false"],
)
def test_read_names_line_and_frame_of_a_malformed_record(tmp_path, edit, message):
    rec = _record(7)
    edit(rec)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n" + json.dumps(_record(6)) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match=rf"bad\.jsonl line 3: {message}"):
        read_jsonl(path)


def test_read_names_the_line_of_text_that_is_not_a_json_object(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_record(1)) + "\n{not json\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl line 2: Expecting property name"):
        read_jsonl(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl line 1: record is a list, not an object"):
        read_jsonl(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_rejects_a_non_finite_value_naming_the_frame(tmp_path, value):
    rec = _record(9, [(0.1, 2.0, 0.5, value, 9.0)])
    with pytest.raises(ValueError, match=r"out\.jsonl: frame 9: Out of range float values are not JSON compliant"):
        write_jsonl(tmp_path / "out.jsonl", [_record(8), rec])


@pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-file"])
def test_write_leaves_no_partial_file_when_a_record_fails(tmp_path, existing):
    # frame 1's line used to be written before frame 2 failed, leaving a valid-looking one-record file
    path = tmp_path / "out.jsonl"
    if existing:
        write_jsonl(path, [_record(3), _record(4)])
        before = path.read_bytes()
    with pytest.raises(ValueError, match=r"out\.jsonl: frame 2: Out of range float values"):
        write_jsonl(path, [_record(1), _record(2, [(0.1, math.nan, 0.5, 0.0, 9.0)])])
    if existing:
        assert path.read_bytes() == before
    else:
        assert not path.exists()
