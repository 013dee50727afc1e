"""Properties of the slotted ``Access`` record and its trusted constructor."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.trace.record import Access, Op, TraceError, trusted_access

ops = st.sampled_from(list(Op))
addrs = st.integers(min_value=0, max_value=2**48)
payloads = st.binary(min_size=1, max_size=64)


@given(op=ops, addr=addrs, data=payloads)
def test_the_trusted_constructor_builds_the_same_record(op, addr, data):
    checked = Access(op, addr, data)
    trusted = trusted_access(op, addr, data)
    assert trusted == checked and checked == trusted
    assert type(trusted) is Access
    assert hash(trusted) == hash(checked) == hash((op, addr, data))
    assert repr(trusted) == repr(checked)
    assert repr(checked) == f"Access(op={op!r}, addr={addr!r}, data={data!r})"
    assert (trusted.op, trusted.addr, trusted.data) == (op, addr, data)
    for clone in (
        pickle.loads(pickle.dumps(trusted)),
        copy.copy(trusted),
        copy.deepcopy(trusted),
    ):
        assert type(clone) is Access
        assert clone == checked and hash(clone) == hash(checked)


@given(op=ops, addr=addrs, data=payloads)
def test_an_access_never_equals_a_plain_tuple(op, addr, data):
    access = Access(op, addr, data)
    assert access != (op, addr, data)
    assert (op, addr, data) != access
    assert len({access, (op, addr, data)}) == 2


@given(
    op=ops,
    addr=addrs,
    data=payloads,
    other=st.tuples(ops, addrs, payloads),
)
def test_equality_compares_all_three_fields(op, addr, data, other):
    assert (Access(op, addr, data) == Access(*other)) == ((op, addr, data) == other)


@given(op=ops, addr=st.integers(max_value=-1), data=payloads)
def test_a_negative_address_is_rejected(op, addr, data):
    with pytest.raises(TraceError, match="address must be non-negative"):
        Access(op, addr, data)


@given(op=ops, addr=addrs)
def test_empty_data_is_rejected(op, addr):
    with pytest.raises(TraceError, match="access data must be non-empty"):
        Access(op, addr, b"")


@given(
    access=st.builds(trusted_access, ops, addrs, payloads),
    field=st.sampled_from(["op", "addr", "data", "size", "other"]),
)
def test_fields_can_be_neither_set_nor_deleted(access, field):
    before = (access.op, access.addr, access.data)
    with pytest.raises(AttributeError):
        setattr(access, field, 1)
    with pytest.raises(AttributeError):
        delattr(access, field)
    assert (access.op, access.addr, access.data) == before
    assert not hasattr(access, "__dict__")
