"""Single registry of every serialized-payload schema tag.

Every on-disk or cross-process payload the chassis writes — exec cache
entries and result payloads, run manifests, trace snapshots, bench
pin records, profile reports — carries a version tag so readers
can reject documents written under an incompatible layout.  Before this
registry existed each owning module kept its own string literal, which
meant the full set of tags (the project's serialization surface) was
discoverable only by grep and nothing stopped a sixth module from
minting ``"exec-v3"`` with a different payload meaning.

The registry is now the *only* place a tag literal may appear in
``repro`` source: lint rule ``S001`` (see docs/STATIC_ANALYSIS.md)
flags any string literal of tag shape outside this module and names
the registered constant to reference instead.

Bumping a version is still a deliberate, by-hand act: change the
``version`` argument here and update the owning module's reader/writer
in the same commit.  The tag string itself (``<family>-v<n>``) is
derived, never typed.
"""

from __future__ import annotations

from dataclasses import dataclass


class SchemaError(ValueError):
    """Raised on invalid schema registration or lookup."""


@dataclass(frozen=True)
class Schema:
    """One registered payload schema.

    ``family``
        Dotted-dash family name (``exec``, ``obs-manifest``...).
    ``version``
        Integer version; bumped when the payload layout or meaning
        changes incompatibly.
    ``owner``
        The module whose reader/writer pair defines the layout.
    ``doc``
        One line on what the payload is.
    """

    family: str
    version: int
    owner: str
    doc: str

    def __post_init__(self) -> None:
        if not self.family or not self.family.replace("-", "").isalnum():
            raise SchemaError(f"malformed schema family {self.family!r}")
        if self.family != self.family.lower():
            raise SchemaError(f"schema family must be lowercase: {self.family!r}")
        if not isinstance(self.version, int) or self.version < 1:
            raise SchemaError(f"schema version must be a positive int: {self.version!r}")
        if not self.owner:
            raise SchemaError("schema owner must be named")

    @property
    def tag(self) -> str:
        """The wire tag: ``<family>-v<version>``."""
        return f"{self.family}-v{self.version}"


#: Every registered schema, keyed by tag (``exec-v3`` -> Schema).
SCHEMAS: dict[str, Schema] = {}

#: Registry constant name by tag — lint rule S001 uses this to point a
#: stray ``"obs-trace-v1"`` at ``TRACE.tag``.
CONSTANT_BY_TAG: dict[str, str] = {}


def _register(constant: str, schema: Schema) -> Schema:
    if schema.tag in SCHEMAS:
        raise SchemaError(f"duplicate schema tag {schema.tag!r}")
    SCHEMAS[schema.tag] = schema
    CONSTANT_BY_TAG[schema.tag] = constant
    return schema


#: Exec job/result contract (content-addressed cache entries and the
#: worker payload transport).  v3: payloads carry a "trace" snapshot.
EXEC = _register(
    "EXEC",
    Schema(
        family="exec",
        version=3,
        owner="repro.exec.job",
        doc="SimJob descriptions, ExecResult payloads, on-disk cache entries",
    ),
)

#: JSONL run manifests (header/job/failure/summary entries).
MANIFEST = _register(
    "MANIFEST",
    Schema(
        family="obs-manifest",
        version=1,
        owner="repro.obs.manifest",
        doc="JSONL run manifest entries behind `cntcache profile`",
    ),
)

#: Bounded per-access trace snapshots (ExecResult.trace slot).
TRACE = _register(
    "TRACE",
    Schema(
        family="obs-trace",
        version=1,
        owner="repro.obs.trace",
        doc="ring-buffer trace snapshots with per-access energy deltas",
    ),
)

#: The committed fidelity pin record (benchmarks/trajectory/BENCH_0001.json).
BENCH = _register(
    "BENCH",
    Schema(
        family="obs-bench",
        version=2,
        owner="repro.obs.bench",
        doc="fidelity pins checked by `cntcache bench` and tier-1",
    ),
)

#: Broker job records, lease files and quarantine records (the
#: filesystem work queue behind the distributed exec backend).
BROKER = _register(
    "BROKER",
    Schema(
        family="exec-broker",
        version=1,
        owner="repro.exec.broker",
        doc="work-broker job records, lease files and quarantine records",
    ),
)

#: Streaming fleet-telemetry frames (per-process NDJSON files under
#: ``<broker>/telemetry/``) and the merged snapshot/collector state.
TELEMETRY = _register(
    "TELEMETRY",
    Schema(
        family="obs-telemetry",
        version=1,
        owner="repro.obs.telemetry",
        doc="live fleet heartbeat/lifecycle frames behind `cntcache top`",
    ),
)

#: Profile reports (`cntcache profile --json`).
PROFILE = _register(
    "PROFILE",
    Schema(
        family="obs-profile",
        version=1,
        owner="repro.obs.profile",
        doc="pipeline-breakdown reports emitted by `cntcache profile`",
    ),
)


def is_registered_tag(tag: str) -> bool:
    """True if ``tag`` is a registered schema tag."""
    return tag in SCHEMAS


def registered_tags() -> tuple[str, ...]:
    """Every registered tag, sorted (the S001 rule's ground truth)."""
    return tuple(sorted(SCHEMAS))


def schema_for(tag: str) -> Schema:
    """The :class:`Schema` registered under ``tag`` (raises on unknown)."""
    try:
        return SCHEMAS[tag]
    except KeyError:
        raise SchemaError(
            f"unknown schema tag {tag!r}; registered: {registered_tags()}"
        ) from None


__all__ = [
    "BENCH",
    "BROKER",
    "CONSTANT_BY_TAG",
    "EXEC",
    "MANIFEST",
    "PROFILE",
    "SCHEMAS",
    "Schema",
    "SchemaError",
    "TELEMETRY",
    "TRACE",
    "is_registered_tag",
    "registered_tags",
    "schema_for",
]
