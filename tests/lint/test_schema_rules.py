"""S001/S002: registry-backed tags and fingerprint coverage of imports."""

from pathlib import Path

from repro.lint import LintConfig, LintContext, lint_paths, parse_module
from repro.lint.project import ProjectIndex
from repro.lint.rules.schema_rules import (
    FingerprintCoverageRule,
    FingerprintSpec,
    default_fingerprint_spec,
)

from tests.lint.test_rules import FIXTURES, findings_for, hits

SRC = Path(__file__).resolve().parents[2] / "src"


class TestS001:
    def test_fires_on_registered_and_unknown_tag_literals(self):
        findings = findings_for("s001_tags.py", rules=frozenset({"S001"}))
        assert hits(findings) == [("S001", 4), ("S001", 5)]
        assert "repro.schemas.EXEC.tag" in findings[0].message
        assert "not in the repro.schemas registry" in findings[1].message

    def test_plain_strings_and_docstrings_stay_quiet(self):
        findings = findings_for("s001_tags.py", rules=frozenset({"S001"}))
        assert all(finding.line in (4, 5) for finding in findings)

    def test_migrated_owner_modules_are_clean(self):
        owners = [
            SRC / "repro" / "exec" / "job.py",
            SRC / "repro" / "obs" / "manifest.py",
            SRC / "repro" / "obs" / "trace.py",
            SRC / "repro" / "obs" / "bench.py",
            SRC / "repro" / "obs" / "profile.py",
        ]
        config = LintConfig(enabled_rules=frozenset({"S001"}))
        assert lint_paths(owners, config) == []

    def test_registry_module_itself_is_exempt(self):
        config = LintConfig(enabled_rules=frozenset({"S001"}))
        assert lint_paths([SRC / "repro" / "schemas.py"], config) == []


def fixture_context(package: str) -> LintContext:
    modules = [
        parse_module(path)
        for path in sorted((FIXTURES / package).rglob("*.py"))
    ]
    context = LintContext(
        config=LintConfig(honor_skip_file=False, scope_to_source=False),
        modules=modules,
    )
    context.project = ProjectIndex.build(modules)
    return context


def minipkg_context() -> LintContext:
    return fixture_context("minipkg")


MINI_SPEC = FingerprintSpec(
    roots=("minipkg.cachepkg",),
    covered=frozenset(
        {
            "minipkg",
            "minipkg.cachepkg",
            "minipkg.cachepkg.core",
            "minipkg.helper",
        }
    ),
    exempt=("minipkg.exemptpkg",),
    declared_in="minipkg/spec.py",
)


def flagged_modules(findings) -> dict:
    """Findings keyed by the module each one flags."""
    return {finding.message.split("'")[1]: finding for finding in findings}


class TestS002OnTheMiniPackage:
    def test_uncovered_reachable_module_is_flagged_with_witness(self):
        rule = FingerprintCoverageRule(spec=MINI_SPEC)
        findings = flagged_modules(rule.check_project(minipkg_context()))
        finding = findings["minipkg.uncovered"]
        assert finding.rule_id == "S002"
        assert "imported by minipkg.helper" in finding.message
        # Anchored at the witness import in helper.py, line 3.
        assert finding.path.endswith("helper.py")
        assert finding.line == 3

    def test_exempt_modules_are_not_flagged(self):
        rule = FingerprintCoverageRule(spec=MINI_SPEC)
        messages = [
            finding.message
            for finding in rule.check_project(minipkg_context())
        ]
        assert not any("exemptpkg" in message for message in messages)

    def test_function_level_import_is_flagged(self):
        """Deferring an import into a function keeps it reachable."""
        rule = FingerprintCoverageRule(spec=MINI_SPEC)
        findings = flagged_modules(rule.check_project(minipkg_context()))
        assert set(findings) == {"minipkg.uncovered", "minipkg.lazy"}
        finding = findings["minipkg.lazy"]
        assert "imported by minipkg.cachepkg.core" in finding.message
        assert finding.path.endswith("core.py")
        assert finding.line == 8

    def test_covering_the_module_clears_the_finding(self):
        spec = FingerprintSpec(
            roots=MINI_SPEC.roots,
            covered=frozenset(
                MINI_SPEC.covered | {"minipkg.uncovered", "minipkg.lazy"}
            ),
            exempt=MINI_SPEC.exempt,
        )
        rule = FingerprintCoverageRule(spec=spec)
        assert list(rule.check_project(minipkg_context())) == []

    def test_module_under_root_missing_from_coverage_is_flagged(self):
        spec = FingerprintSpec(
            roots=MINI_SPEC.roots,
            covered=frozenset({"minipkg.cachepkg", "minipkg.helper"}),
            exempt=MINI_SPEC.exempt,
        )
        rule = FingerprintCoverageRule(spec=spec)
        flagged = {
            finding.message.split("'")[1]
            for finding in rule.check_project(minipkg_context())
        }
        assert "minipkg.cachepkg.core" in flagged


LAZY_SPEC = FingerprintSpec(
    roots=("lazypkg.simroot",),
    covered=frozenset(
        {
            "lazypkg",
            "lazypkg.simroot",
            "lazypkg.facade",
            "lazypkg.facade.covered",
        }
    ),
    exempt=(),
    declared_in="lazypkg/spec.py",
)


class TestS002LazyExports:
    def test_lazy_export_of_an_uncovered_module_is_flagged(self):
        rule = FingerprintCoverageRule(spec=LAZY_SPEC)
        findings = list(rule.check_project(fixture_context("lazypkg")))
        assert len(findings) == 1
        finding = findings[0]
        assert "'lazypkg.facade.hidden'" in finding.message
        assert "imported by lazypkg.facade" in finding.message
        # Anchored at the table entry that names the module.
        assert finding.path.endswith("__init__.py")
        assert finding.line == 11

    def test_covering_the_lazy_export_clears_the_finding(self):
        spec = FingerprintSpec(
            roots=LAZY_SPEC.roots,
            covered=LAZY_SPEC.covered | {"lazypkg.facade.hidden"},
            exempt=(),
        )
        rule = FingerprintCoverageRule(spec=spec)
        assert list(rule.check_project(fixture_context("lazypkg"))) == []


class TestS002Live:
    def test_default_spec_reads_the_exec_declaration(self):
        spec = default_fingerprint_spec()
        assert spec is not None
        assert spec.roots == ("repro.cache", "repro.encoding", "repro.cnfet")
        assert "repro.cache.cache" in spec.covered
        assert "repro.obs" in spec.exempt

    def test_real_tree_is_fully_covered(self):
        config = LintConfig(enabled_rules=frozenset({"S002"}))
        assert lint_paths([SRC], config) == []

    def test_dropping_a_package_from_the_fingerprint_turns_lint_red(
        self, monkeypatch
    ):
        """The acceptance scenario: shrink the fingerprint list while the
        module stays importable from repro.cache -> S002 fires."""
        from repro.exec import job

        trimmed = tuple(
            name for name in job.FINGERPRINT_PACKAGES if name != "encoding"
        )
        assert trimmed != job.FINGERPRINT_PACKAGES
        monkeypatch.setattr(job, "FINGERPRINT_PACKAGES", trimmed)
        config = LintConfig(enabled_rules=frozenset({"S002"}))
        findings = lint_paths([SRC], config)
        assert findings, "uncovered reachable modules must fail the gate"
        assert all(finding.rule_id == "S002" for finding in findings)
        flagged = " ".join(finding.message for finding in findings)
        assert "repro.encoding" in flagged
