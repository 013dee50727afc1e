"""Import fences: a process loads only the modules its calls use.

Package namespaces resolve their exports lazily (``repro._lazy``), and
the exec engine imports the broker, telemetry and process-pool
machinery only when a run configures them.  Each fence runs its calls in
a fresh interpreter and lists the forbidden modules found in
``sys.modules`` afterwards; an eager import added anywhere on the path
shows up here by name.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages whose ``__init__`` resolves its exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.cache",
    "repro.cnfet",
    "repro.core",
    "repro.exec",
    "repro.harness",
    "repro.obs",
)

#: Exports a package serves itself rather than through its lazy table:
#: an eager constant.
OWN_EXPORTS = {"repro": {"__version__"}}

#: Stdlib machinery only the parallel and distributed paths need.
HEAVY_STDLIB = ("concurrent.futures", "multiprocessing", "socket")


def loaded_after(body: str, forbidden: tuple[str, ...]) -> list[str]:
    """Run ``body`` in a fresh interpreter; the forbidden modules it loaded.

    A forbidden name also matches its submodules (``repro.exec`` covers
    ``repro.exec.engine``).
    """
    script = textwrap.dedent(body) + textwrap.dedent(
        f"""
        import json, sys
        forbidden = {forbidden!r}
        print(json.dumps(sorted(
            name for name in sys.modules
            if any(name == f or name.startswith(f + ".") for f in forbidden)
        )))
        """
    )
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestFences:
    def test_simulate_loads_no_exec_harness_or_heavy_obs(self):
        loaded = loaded_after(
            """
            import repro.api
            from repro.core.config import CNTCacheConfig
            from repro.workloads.program import get_workload

            run = get_workload("crc32").build("tiny", seed=7)
            result = repro.api.simulate(workload=run, config=CNTCacheConfig())
            assert result.stats.accesses > 0
            """,
            (
                "repro.exec",
                "repro.harness.experiments",
                "repro.obs.bench",
                "repro.obs.manifest",
                "repro.obs.telemetry",
                "repro.obs.profile",
                "repro.obs.export",
                "subprocess",
                *HEAVY_STDLIB,
            ),
        )
        assert loaded == []

    def test_serial_suite_run_loads_no_broker_telemetry_or_pool(self, tmp_path):
        loaded = loaded_after(
            f"""
            from repro.api import make_engine
            from repro.harness import experiments

            experiments.workload_names = lambda: ["crc32"]
            ids = ["a5", "f3", "f8", "f11", "t1", "t5"]
            plans = experiments.EXPERIMENT_PLANS
            engine = make_engine(jobs=1, cache_dir={str(tmp_path)!r})
            engine.run_jobs(
                [
                    job
                    for experiment_id in ids
                    if experiment_id in plans
                    for job in plans[experiment_id]("tiny", 7).values()
                ]
            )
            for experiment_id in ids:
                experiments.run_experiment(
                    experiment_id, size="tiny", seed=7, engine=engine
                ).render()
            # Every job kind ran: workload, oracle, l2, audit, trace.
            assert engine.counters.executed >= 5
            """,
            (
                "repro.exec.broker",
                "repro.obs.bench",
                "repro.obs.manifest",
                "repro.obs.telemetry",
                *HEAVY_STDLIB,
            ),
        )
        assert loaded == []

    def test_cli_without_broker_loads_no_broker_or_telemetry(self):
        loaded = loaded_after(
            """
            import contextlib, io
            import repro.harness.cli

            with contextlib.redirect_stdout(io.StringIO()):
                assert repro.harness.cli.main(["t1"]) == 0
            """,
            ("repro.exec.broker", "repro.obs.telemetry", "socket"),
        )
        assert loaded == []

    def test_importing_the_facade_loads_no_subsystem(self):
        loaded = loaded_after(
            "import repro.api\n",
            ("repro.cache", "repro.core", "repro.exec", "repro.harness", "repro.obs"),
        )
        assert loaded == []


def typed_exports(package: str) -> dict[str, str]:
    """``name -> defining module`` from the package's TYPE_CHECKING block."""
    module = importlib.import_module(package)
    assert module.__file__ is not None
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    exports: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), ast.unparse(statement)
                for alias in statement.names:
                    exports[alias.asname or alias.name] = str(statement.module)
    return exports


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyNamespaces:
    def test_every_export_resolves(self, package):
        module = importlib.import_module(package)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in module.__all__:
                assert getattr(module, name) is not None, name

    def test_exports_are_the_typed_imports(self, package):
        """The runtime table and the type checker's view agree."""
        module = importlib.import_module(package)
        exports = typed_exports(package)
        assert set(exports) == set(module.__all__) - OWN_EXPORTS.get(package, set())
        for name, source in exports.items():
            assert getattr(module, name) is getattr(
                importlib.import_module(source), name
            ), name

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        assert listed == sorted(listed)
        assert set(module.__all__) - OWN_EXPORTS.get(package, set()) <= set(listed)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            module.no_such_export  # noqa: B018
