from hypothesis import given, settings
from hypothesis import strategies as st

from radarpose.records import SWING_STATES, make_record, read_jsonl, write_jsonl

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
        action=st.text(),
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
