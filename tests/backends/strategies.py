"""Hypothesis strategies and example budgets shared by the backend suites.

``examples(n)`` is a test's example count: ``n`` under the default
Hypothesis profile, scaled by the loaded profile's ``max_examples``
against the default's.  ``pytest --hypothesis-profile=ci`` (the profile
is registered in ``tests/conftest.py``) runs every backend differential
test with four times its examples.
"""

from hypothesis import settings, strategies as st

from repro.cnfet.leakage import LeakageModel
from repro.core.config import SCHEMES, CNTCacheConfig
from repro.trace.record import Access


def examples(n: int) -> int:
    """``n`` examples, scaled with the loaded Hypothesis profile."""
    default = settings.get_profile("default").max_examples
    return max(1, n * settings.default.max_examples // default)


@st.composite
def traces(draw) -> tuple[list[Access], list[tuple[int, bytes]]]:
    """A trace over a small footprint with optional line-crossing
    accesses, at a small or a beyond-2**64 base address.  The footprint
    is 2, 12 or 96 8-byte slots: one or two lines that complete many
    W=16 windows, a few lines, or 12-24 lines with evictions."""
    base = draw(st.sampled_from((0, 1 << 64, (1 << 80) + 4096)))
    slots = draw(st.sampled_from((2, 12, 96)))
    ops = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=slots - 1),  # 8-byte slot
                st.sampled_from((1, 4, 8, 12)),  # 12 bytes may cross
                st.binary(min_size=12, max_size=12),
            ),
            min_size=1,
            max_size=100,
        )
    )
    trace = []
    for is_write, slot, size, payload in ops:
        addr = base + slot * 8 + (4 if size == 12 else 0)
        if is_write:
            trace.append(Access.write(addr, payload[:size]))
        else:
            trace.append(Access.read(addr, payload[:size]))
    preloads = [(base, bytes(range(64))), (base + 512, b"\xf0" * 40)]
    return trace, preloads


geometries = st.builds(
    CNTCacheConfig,
    size=st.sampled_from((512, 1024, 2048)),
    assoc=st.sampled_from((1, 2, 4)),
    line_size=st.sampled_from((32, 64)),
    replacement=st.sampled_from(("lru", "fifo", "random", "plru")),
    write_policy=st.sampled_from(("wb-wa", "wt-wa", "wt-nwa", "wb-nwa")),
    seed=st.integers(min_value=0, max_value=3),
)

#: Encoding knobs, none of which changes a hit, a fill or an eviction.
encodings = st.fixed_dictionaries(
    {
        "scheme": st.sampled_from(SCHEMES),
        "window": st.sampled_from((2, 4, 16, 64)),
        "partitions": st.sampled_from((1, 2, 8)),
        "delta_t": st.sampled_from((0.0, 0.2)),
        "dbi_word_bytes": st.sampled_from((4, 8)),
        "fifo_depth": st.sampled_from((1, 8)),
        "drain_per_access": st.sampled_from((0, 1, 4)),
        "access_granularity": st.sampled_from(("line", "word")),
        "account_metadata": st.booleans(),
        "fill_policy": st.sampled_from(("neutral", "read-greedy", "write-greedy")),
        "leakage": st.sampled_from((None, LeakageModel.cnfet())),
    }
)
