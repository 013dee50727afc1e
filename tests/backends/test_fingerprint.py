"""The array backend participates in job identity and cache invalidation."""

import hashlib
import shutil
from pathlib import Path

from repro.core.config import CNTCacheConfig
from repro.exec import ExecEngine
from repro.exec.job import (
    code_fingerprint,
    fingerprint_module_names,
    fingerprint_sources,
    workload_job,
)

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def _digest(root: Path) -> str:
    """Mirror of code_fingerprint()'s hashing loop, over an arbitrary tree."""
    digest = hashlib.sha256()
    for path in fingerprint_sources(root):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


class TestFingerprintCoverage:
    def test_backend_modules_are_fingerprinted(self):
        names = fingerprint_module_names()
        assert "repro.backends" in names
        assert "repro.backends.array" in names

    def test_array_source_file_is_hashed(self):
        sources = fingerprint_sources()
        assert any(
            path.parts[-2:] == ("backends", "array.py") for path in sources
        )

    def test_editing_the_array_backend_changes_the_fingerprint(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(SRC_ROOT, copy)
        before = _digest(copy)
        assert before == code_fingerprint()  # the mirror is faithful
        target = copy / "backends" / "array.py"
        target.write_bytes(target.read_bytes() + b"\n# edited\n")
        assert _digest(copy) != before


class TestJobIdentity:
    def test_backend_field_enters_the_fingerprint(self):
        config = CNTCacheConfig()
        array = workload_job(config, "stream", "tiny", 7)
        scalar = workload_job(config, "stream", "tiny", 7, backend="scalar")
        assert scalar.describe()["backend"] == "scalar"
        assert array.describe()["backend"] == "array"
        assert scalar.fingerprint != array.fingerprint
        # Only the non-default engine is spelled out in the label.
        assert scalar.label.endswith("@scalar")
        assert "@" not in array.label

    def test_code_edit_invalidates_cached_results(self, tmp_path, monkeypatch):
        """A changed code fingerprint turns cache hits back into runs."""
        config = CNTCacheConfig()
        first = ExecEngine(cache_dir=tmp_path).run_job(
            workload_job(config, "stream", "tiny", 7)
        )
        assert first.source == "run"
        again = ExecEngine(cache_dir=tmp_path).run_job(
            workload_job(config, "stream", "tiny", 7)
        )
        assert again.source == "cache"
        # Simulate an edit to a fingerprinted source (e.g. the array
        # backend): the job's identity changes, so the cache misses.
        monkeypatch.setattr(
            "repro.exec.job.code_fingerprint", lambda: "0" * 64
        )
        edited = ExecEngine(cache_dir=tmp_path).run_job(
            workload_job(config, "stream", "tiny", 7)
        )
        assert edited.source == "run"
