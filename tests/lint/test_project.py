"""Pass-1 project model: module naming, symbols, imports, reachability."""

from pathlib import Path

from repro.lint.engine import parse_module
from repro.lint.findings import Finding
from repro.lint.project import (
    ImportEdge,
    ProjectIndex,
    matches_prefix,
    module_name_for,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


def build_index(root: Path) -> ProjectIndex:
    modules = []
    for path in sorted(root.rglob("*.py")):
        parsed = parse_module(path)
        assert not isinstance(parsed, Finding), parsed
        modules.append(parsed)
    return ProjectIndex.build(modules)


class TestModuleNaming:
    def test_nested_module(self):
        assert (
            module_name_for(SRC / "repro" / "cache" / "cache.py")
            == "repro.cache.cache"
        )

    def test_package_init_names_the_package(self):
        assert (
            module_name_for(SRC / "repro" / "lint" / "__init__.py")
            == "repro.lint"
        )

    def test_file_outside_any_package_names_itself(self, tmp_path):
        loose = tmp_path / "loose.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) == "loose"

    def test_fixture_minipkg_is_rooted_at_the_fixture_dir(self):
        assert (
            module_name_for(FIXTURES / "minipkg" / "cachepkg" / "core.py")
            == "minipkg.cachepkg.core"
        )


class TestSymbols:
    def test_top_level_symbols_collected(self):
        index = build_index(FIXTURES / "minipkg")
        symbols = index.symbols["minipkg.uncovered"]
        assert symbols.defines("twist")
        assert "twist" in symbols.functions
        assert not symbols.defines("missing")

    def test_package_flag(self):
        index = build_index(FIXTURES / "minipkg")
        assert index.symbols["minipkg"].is_package
        assert not index.symbols["minipkg.helper"].is_package


class TestImportGraph:
    def test_from_import_binds_the_submodule(self):
        index = build_index(FIXTURES / "minipkg")
        targets = {
            edge.target for edge in index.imports["minipkg.cachepkg.core"]
        }
        # ``from minipkg import helper`` resolves both the package and
        # the bound submodule.
        assert "minipkg.helper" in targets

    def test_function_nested_import_is_not_toplevel(self):
        index = build_index(FIXTURES / "minipkg")
        lazy_edges = [
            edge
            for edge in index.imports["minipkg.cachepkg.core"]
            if edge.target == "minipkg.lazy"
        ]
        assert lazy_edges and all(not edge.toplevel for edge in lazy_edges)

    def test_lazy_export_table_entries_are_lazy_edges(self):
        index = build_index(FIXTURES / "lazypkg")
        lazy = {
            (edge.target, edge.line)
            for edge in index.imports["lazypkg.facade"]
            if not edge.toplevel
        }
        assert lazy == {
            ("lazypkg.facade.covered", 10),
            ("lazypkg.facade.hidden", 11),
        }
        # A walk over module-level edges alone would miss the module.
        reached = index.reachable_from(["lazypkg.simroot"], toplevel_only=False)
        assert "lazypkg.facade.hidden" in reached
        assert "lazypkg.facade.hidden" not in index.reachable_from(
            ["lazypkg.simroot"]
        )

    def test_stdlib_imports_are_dropped(self, tmp_path):
        module = tmp_path / "only_stdlib.py"
        module.write_text("import json\nimport os.path\n")
        parsed = parse_module(module)
        index = ProjectIndex.build([parsed])
        assert index.imports["only_stdlib"] == []

    def test_relative_import_resolves_against_the_package(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "util.py").write_text("X = 1\n")
        (package / "sub" / "__init__.py").write_text("")
        (package / "sub" / "mod.py").write_text("from ..util import X\n")
        index = build_index(package)
        targets = {edge.target for edge in index.imports["pkg.sub.mod"]}
        assert targets == {"pkg.util"}


class TestReachability:
    def test_walk_reaches_eager_imports_only(self):
        index = build_index(FIXTURES / "minipkg")
        reached = index.reachable_from(
            ["minipkg.cachepkg"], stop_prefixes=("minipkg.exemptpkg",)
        )
        assert "minipkg.helper" in reached
        assert "minipkg.uncovered" in reached
        # Only imported inside a function body, never eagerly.
        assert "minipkg.lazy" not in reached

    def test_witness_edge_points_at_the_importing_line(self):
        index = build_index(FIXTURES / "minipkg")
        reached = index.reachable_from(["minipkg.cachepkg"])
        witness = reached["minipkg.uncovered"]
        assert isinstance(witness, ImportEdge)
        assert witness.importer == "minipkg.helper"
        assert witness.line == 3

    def test_stop_prefixes_report_but_do_not_traverse(self):
        index = build_index(FIXTURES / "minipkg")
        reached = index.reachable_from(
            ["minipkg.cachepkg"], stop_prefixes=("minipkg.exemptpkg",)
        )
        # The exempt module is reported as reached...
        assert "minipkg.exemptpkg.probes" in reached
        # ...but its own import of ``lazy`` is not followed.
        assert "minipkg.lazy" not in reached

    def test_without_stop_the_exempt_imports_leak_through(self):
        index = build_index(FIXTURES / "minipkg")
        # probes (exempt) imports lazy at top level; with no stop
        # prefixes the walk traverses it, proving the stop matters.
        reached = index.reachable_from(["minipkg.cachepkg"])
        assert "minipkg.lazy" in reached

    def test_members_of(self):
        index = build_index(FIXTURES / "minipkg")
        assert index.members_of("minipkg.cachepkg") == [
            "minipkg.cachepkg",
            "minipkg.cachepkg.core",
        ]


class TestMatchesPrefix:
    def test_exact_and_dotted_prefix(self):
        assert matches_prefix("repro.obs", ("repro.obs",))
        assert matches_prefix("repro.obs.trace", ("repro.obs",))
        assert not matches_prefix("repro.observer", ("repro.obs",))
