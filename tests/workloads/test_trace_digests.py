"""Pinned digests of every workload's valued trace.

Each digest is a SHA-256 over every access's ``(op, addr, data)``, then
the kernel checksum, then every preload, at (size, seed 7).  Any change
to a kernel, to the traced memory or to how accesses are built that
moves a single traced byte fails here, before a benchmark or a cached
result sees it.  If a change is *intentional*, regenerate with::

    PYTHONPATH=src python -c "
    from repro.workloads import workload_names, get_workload
    from tests.workloads.test_trace_digests import trace_digest
    for size in ('tiny', 'small'):
        for name in workload_names():
            run = get_workload(name).build(size, seed=7)
            print(f'    (\"{name}\", \"{size}\"): \"{trace_digest(run)}\",')"
"""

import hashlib

import pytest

from repro.workloads import get_workload, workload_names
from repro.workloads.program import WorkloadRun

SEED = 7

DIGESTS: dict[tuple[str, str], str] = {
    ("bitcount", "tiny"): "0f0b8bb4c8fdb557d0ba3af4fd57f2169612521694339648765f661c03ffb1a2",
    ("crc32", "tiny"): "f0970402b1f0d81b6094b80809ae907abd94337160cd165bfb01b2b3453f62b8",
    ("dijkstra", "tiny"): "73b465ff63978166e7809ae3bee73558b27684c02c2d4c0745333be915d1131d",
    ("fft", "tiny"): "c5d60bc7784e1c881cc64ee1400bcc042f17bf52158d64aae3c5d6aec127b976",
    ("histogram", "tiny"): "69c03b61cafb824a39be80503d6664194bd7ca4ed1f6227798571ec0569a5825",
    ("lz77", "tiny"): "5bf2a3f7c6e708a544198f1435d1758508bdcbcaef5b9e36507066850b1877b4",
    ("matmul", "tiny"): "8d67b876b55d2ca3542d12f97cf5536ce612a2caa5043bcf9a614316a25f5362",
    ("pointer_chase", "tiny"): "5f0e9ace0700eaf2dcb61e7e64e2cf1fbbdd4d4c7da785702797e20314ec16d6",
    ("qsort", "tiny"): "583d67d31f2cb01ade6b8599b719b691cfc1ae387d2f8090c251f0c8768056dd",
    ("records", "tiny"): "0ab57d52e1216257a275388758da6974643ee72d808e090fd89a998399a5baff",
    ("sha256", "tiny"): "5faeaecbd09c3e006c5e51c2e018c463449026514515c26041272ce87335f427",
    ("spmv", "tiny"): "b48c8a0934f6874ca13b2f17412eac51386a6463fe67b7c2eb148c459728bd1d",
    ("stencil", "tiny"): "749edce4084bf912dea68496188a5b595e6abd42a2fcb6bf3c28ebb2228a2152",
    ("stream", "tiny"): "8fade7e2a929aeb2423975242bfe073655b812b47f3e00f04b91f0faeb8d48b5",
    ("stringsearch", "tiny"): "217a0d0fdb765665ba57c8aa3ac6724d9fabfa1a52715dd820bf9e4050999a58",
    ("bitcount", "small"): "7a094f2de0d6d3cbcc4ee488672ec8ba5218e0caa2c7ff5e006f8aaa25cbe26e",
    ("crc32", "small"): "074d328691308f46da7161e7958b728fd82545211c4677bee716c6a61432f8f4",
    ("dijkstra", "small"): "7b6e18c2b4426ff2737768f5b7de2e5b3eafdec05f8581ce6b5b8bb8445d992d",
    ("fft", "small"): "343ffb56b49635290336f79ea10e204c7f3137ed11b743852138e600143c4bcb",
    ("histogram", "small"): "22a43e041da6393988b30966b0a52771104ff44f2abab0e9ef7f534d36afa53b",
    ("lz77", "small"): "debebff1b7aa887cde49c847b01c1ad85dd92fce039a29630519b73ceea16a28",
    ("matmul", "small"): "1b601277252632254ebf1c37415742fcc87a0aef9e853002bd323ccaa0448bc9",
    ("pointer_chase", "small"): "7de63c279518673fb9fc9bf59f7d99f2d298524ee07113b8a75ac4a77f25fece",
    ("qsort", "small"): "595674472212218d9db5b55175a45da2bb3af3db3cfbb214a6819a5b8db63973",
    ("records", "small"): "34a058777abb7224260ed208bd062886942cb6e46c715f9768c724035eea382c",
    ("sha256", "small"): "fa308b7e2ebd136d28e8e86562883e81fe3544723bfcab637e6dc33ae0750656",
    ("spmv", "small"): "d6affb08b96c986c583063292c8e4a25f5d57b1d5336f151eed61f50e1d5895b",
    ("stencil", "small"): "ca1bbeb69f0d0edc8178e4a40f232a6fbc35aaf775fdf04a2fccbfba2a62d413",
    ("stream", "small"): "b182c4ab9e241adedc6d006ed752a7561634c27b795d571daf7bf0a45e101b76",
    ("stringsearch", "small"): "c9c49876cf76ea7c949179a8c55a9ef561a3b102167b39bed350b6c8a5a57da6",
}


def trace_digest(run: WorkloadRun) -> str:
    """SHA-256 over the trace, the checksum and the preloads of ``run``."""
    digest = hashlib.sha256()
    for access in run.trace:
        line = f"{access.op.value} {access.addr:x} {access.data.hex()}\n"
        digest.update(line.encode())
    digest.update(f"checksum {run.checksum:x}\n".encode())
    for addr, payload in run.preloads:
        digest.update(f"P {addr:x} {payload.hex()}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, size", sorted(DIGESTS))
def test_the_trace_is_byte_identical_to_its_pin(name, size):
    run = get_workload(name).build(size, seed=SEED)
    assert trace_digest(run) == DIGESTS[name, size]


def test_every_workload_is_pinned_at_both_sizes():
    assert set(DIGESTS) == {
        (name, size) for name in workload_names() for size in ("tiny", "small")
    }
