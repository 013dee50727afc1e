"""The repro.schemas registry: derived tags, validation, lookups."""

import pytest

from repro import schemas
from repro.schemas import (
    CONSTANT_BY_TAG,
    SCHEMAS,
    Schema,
    SchemaError,
    is_registered_tag,
    registered_tags,
    schema_for,
)


class TestSchemaValue:
    def test_tag_is_derived_from_family_and_version(self):
        schema = Schema(family="exec", version=3, owner="m", doc="d")
        assert schema.tag == "exec-v3"

    def test_frozen(self):
        schema = Schema(family="exec", version=3, owner="m", doc="d")
        with pytest.raises(AttributeError):
            schema.version = 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "", "version": 1, "owner": "m", "doc": "d"},
            {"family": "Exec", "version": 1, "owner": "m", "doc": "d"},
            {"family": "has space", "version": 1, "owner": "m", "doc": "d"},
            {"family": "exec", "version": 0, "owner": "m", "doc": "d"},
            {"family": "exec", "version": -2, "owner": "m", "doc": "d"},
            {"family": "exec", "version": 1, "owner": "", "doc": "d"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(SchemaError):
            Schema(**kwargs)


class TestRegistry:
    def test_every_expected_payload_family_is_registered(self):
        assert set(registered_tags()) == {
            "exec-v3",
            "exec-broker-v1",
            "obs-manifest-v1",
            "obs-telemetry-v1",
            "obs-trace-v1",
            "obs-bench-v2",
            "obs-profile-v1",
        }

    def test_lookup_surfaces_agree(self):
        for tag in registered_tags():
            assert is_registered_tag(tag)
            assert schema_for(tag).tag == tag
            constant = CONSTANT_BY_TAG[tag]
            assert getattr(schemas, constant) is SCHEMAS[tag]

    def test_unknown_tag_raises_with_the_known_set(self):
        assert not is_registered_tag("exec-v99")
        with pytest.raises(SchemaError, match="exec-v99"):
            schema_for("exec-v99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            schemas._register(
                "DUPE", Schema(family="exec", version=3, owner="m", doc="d")
            )
        assert "DUPE" not in CONSTANT_BY_TAG.values()

    def test_owner_modules_reexport_the_registered_tags(self):
        from repro.exec import job
        from repro.obs import bench, manifest, profile, telemetry, trace

        assert job.ENGINE_SCHEMA == schemas.EXEC.tag
        assert manifest.MANIFEST_SCHEMA == schemas.MANIFEST.tag
        assert trace.TRACE_SCHEMA == schemas.TRACE.tag
        assert bench.BENCH_SCHEMA == schemas.BENCH.tag
        assert profile.PROFILE_SCHEMA == schemas.PROFILE.tag
        assert telemetry.TELEMETRY_SCHEMA == schemas.TELEMETRY.tag

    def test_owner_field_names_a_real_module(self):
        import importlib

        for schema in SCHEMAS.values():
            assert importlib.import_module(schema.owner)
