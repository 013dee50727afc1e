"""The oracle bound's popcount tables against the reference per-access oracle."""

from hypothesis import given, settings, strategies as st

from repro.cnfet.energy import BitEnergyModel
from repro.encoding import PartitionedInvertCodec
from repro.harness.oracle import min_energy_table, table_access_energy
from repro.predictor.oracle import oracle_access_energy

energies = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
gaps = st.floats(min_value=0.001, max_value=10.0, allow_nan=False)


@st.composite
def models(draw) -> BitEnergyModel:
    """Any valid model: cheap read '1', cheap write '0'."""
    e_rd1, e_wr0 = draw(energies), draw(energies)
    return BitEnergyModel(
        e_rd0=e_rd1 + draw(gaps),
        e_rd1=e_rd1,
        e_wr0=e_wr0,
        e_wr1=e_wr0 + draw(gaps),
    )


@st.composite
def lines(draw) -> tuple[int, int, bytes]:
    """(line size, partition count, line contents) of a valid codec."""
    line_size = draw(st.sampled_from([8, 16, 32, 64, 128]))
    partitions = draw(
        st.sampled_from([k for k in (1, 2, 4, 8, 16) if line_size % k == 0])
    )
    data = draw(st.binary(min_size=line_size, max_size=line_size))
    return line_size, partitions, data


@settings(max_examples=300, deadline=None)
@given(
    line=lines(),
    model=st.one_of(st.just(BitEnergyModel.paper_table1()), models()),
    is_write=st.booleans(),
)
def test_table_path_is_bit_identical_to_the_reference(line, model, is_write):
    line_size, partitions, data = line
    codec = PartitionedInvertCodec(line_size, partitions)
    table = min_energy_table(model, codec.partition_bits, is_write)
    fast = table_access_energy(table, data, partitions, codec.partition_bits)
    reference = oracle_access_energy(codec, data, is_write, model)
    assert fast.hex() == reference.hex()


def test_table_entries_take_the_cheaper_direction():
    model = BitEnergyModel.paper_table1()
    reads = min_energy_table(model, 8, is_write=False)
    writes = min_energy_table(model, 8, is_write=True)
    assert len(reads) == len(writes) == 9
    # Reading all-zeros costs the same as reading all-ones once inverted.
    assert reads[0] == reads[8] == model.read_energy(8, 0)
    assert writes[0] == writes[8] == model.write_energy(0, 8)
