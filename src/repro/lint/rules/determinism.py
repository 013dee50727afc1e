"""D-rules: the determinism sanitizer.

The exec engine's content-addressed cache and the golden-trace oracle
are only sound if simulation semantics are a pure function of (job
config, seed, code fingerprint).  These rules statically ban the inputs
that break that contract — wall clocks, ambient randomness, environment
reads, unordered iteration feeding serialization, and bare float
accumulation of energy values.

Scoping (when ``LintConfig.scope_to_source`` is on):

* **D001/D004/D005** run over *simulation-semantics* modules — everything
  the exec code fingerprint covers, plus ``repro.exec`` itself and the
  trace snapshot path ``repro.obs.trace``.  Wall-clock reads are fine in
  a CLI progress banner; they are a cache-poisoning bug inside anything
  fingerprinted.
* **D002/D003** run over the whole ``repro`` source tree: ambient
  randomness and environment reads have no legitimate home anywhere in
  the package (the one exception, the fault-plan reader in
  ``repro.faults``, is allow-listed for D003 by name).
* **D005** additionally exempts ``repro/core/stats.py`` — that *is* the
  sanctioned accumulator (:class:`EnergyStats` uses compensated
  summation), mirroring rule R001's carve-out.

With ``scope_to_source`` off (the fixture test suite) every rule applies
to every file.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.dataflow import ScopeFlow, iter_scopes, unordered_kind
from repro.lint.findings import Finding
from repro.lint.project import matches_prefix, module_name_for
from repro.lint.rules.base import LintRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule

#: Module prefixes always inside the determinism scope, fingerprint or
#: not: the engine that *computes* fingerprints and the trace snapshot
#: serializer whose bytes land in cached result payloads.
_ALWAYS_IN_SCOPE = ("repro.exec", "repro.obs.trace")

#: Modules allowed to read the process environment (D003): the fault
#: plan is injected via env by design (docs/RESILIENCE.md).
_ENVIRON_ALLOWED = ("repro.faults",)

#: ``repro/core/stats.py`` suffix — the sanctioned float accumulator.
_STATS_SUFFIX = ("repro", "core", "stats.py")

_cached_fingerprint_names: frozenset[str] | None = None


def _fingerprinted_names() -> frozenset[str]:
    """Dotted names the exec code fingerprint covers (cached per process)."""
    global _cached_fingerprint_names
    if _cached_fingerprint_names is None:
        try:
            from repro.exec.job import fingerprint_module_names

            _cached_fingerprint_names = fingerprint_module_names()
        except ImportError:  # pragma: no cover - partial checkouts
            _cached_fingerprint_names = frozenset()
    return _cached_fingerprint_names


def _dotted_name(module: "ParsedModule", context: "LintContext") -> str:
    if context.project is not None:
        return context.project.name_of(module)
    return module_name_for(module.path)


def _in_simulation_scope(
    module: "ParsedModule", context: "LintContext"
) -> bool:
    if not context.config.scope_to_source:
        return True
    name = _dotted_name(module, context)
    if matches_prefix(name, _ALWAYS_IN_SCOPE):
        return True
    return name in _fingerprinted_names()


def _in_repro_scope(module: "ParsedModule", context: "LintContext") -> bool:
    if not context.config.scope_to_source:
        return True
    return "repro" in module.path.parts


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _scope_calls(scope_node: ast.AST) -> Iterator[ast.Call]:
    """Every call expression in a scope, not descending into nested ones."""
    stack = list(ast.iter_child_nodes(scope_node))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue  # separate scope (functions) / no flow info (classes)
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class WallClockRule(LintRule):
    """D001: no wall-clock reads inside simulation-semantics modules.

    ``time.time()`` / ``time.time_ns()`` and ``datetime.now()`` /
    ``utcnow()`` / ``today()`` read the host clock, so any value derived
    from them varies run-to-run and poisons cached results.  Duration
    clocks (``time.perf_counter``, ``time.monotonic``) are fine — they
    only ever feed *reporting*, never simulation state.

    Invariant: a cached result is a pure function of config, seed and
    code fingerprint, so it never holds a clock reading.  Fails without
    it: ``TestD001::test_fires_on_wall_clock_reads_only`` in
    ``tests/lint/test_determinism_rules.py``.
    """

    rule_id = "D001"
    summary = (
        "wall-clock read in a fingerprinted/exec module; derive values "
        "from config or the seed, use perf_counter for durations"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        if not _in_simulation_scope(module, context):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name is None:
                continue
            parts = name.split(".")
            wall = name in ("time.time", "time.time_ns") or (
                parts[-1] in ("now", "utcnow", "today")
                and any(p in ("datetime", "date") for p in parts[:-1])
            )
            if wall:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"wall-clock read {name}() in simulation-semantics "
                    "code; results must be a pure function of config and "
                    "seed (use time.perf_counter for durations)",
                )


class UnseededRandomRule(LintRule):
    """D002: randomness must flow from an explicit seed.

    The module-level ``random.*`` functions share hidden global state;
    ``random.Random()`` without arguments seeds from the OS, as do
    ``os.urandom``, ``secrets.*`` and ``uuid.uuid4``.  The sanctioned
    pattern is ``random.Random(seed)`` with the seed threaded from the
    workload/experiment config.

    Invariant: two runs with the same seed draw the same numbers.  Fails
    without it: ``TestD002::test_fires_on_every_entropy_source`` in
    ``tests/lint/test_determinism_rules.py``.
    """

    rule_id = "D002"
    summary = (
        "unseeded randomness (module-level random.*, random.Random(), "
        "os.urandom, secrets, uuid4); thread an explicit seed instead"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        if not _in_repro_scope(module, context):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name is None:
                continue
            message: str | None = None
            if name.startswith("random.") and name != "random.Random":
                message = (
                    f"{name}() uses the shared module-level RNG; "
                    "construct random.Random(seed) instead"
                )
            elif name in ("random.Random", "Random") and not (
                node.args or node.keywords
            ):
                message = (
                    "random.Random() without a seed draws entropy from "
                    "the OS; pass an explicit seed"
                )
            elif name == "os.urandom":
                message = "os.urandom() is unseedable OS entropy"
            elif name.startswith("secrets."):
                message = f"{name}() is unseedable OS entropy"
            elif name in ("uuid.uuid4", "uuid4"):
                message = (
                    f"{name}() is random; derive identifiers from the "
                    "job fingerprint instead"
                )
            if message is not None:
                yield self.finding(module.display_path, node.lineno, message)


class EnvironReadRule(LintRule):
    """D003: no ambient environment reads outside the fault layer.

    ``os.environ`` / ``os.getenv`` make behaviour depend on invisible
    process state two runs can disagree on.  Configuration enters this
    codebase through explicit config objects and CLI flags; the one
    sanctioned exception is the fault-plan channel in ``repro.faults``
    (env is the only way to reach spawned worker processes).

    Invariant: behaviour depends only on explicit config and flags.
    Fails without it: ``TestD003::test_fires_on_environ_and_getenv`` in
    ``tests/lint/test_determinism_rules.py``.
    """

    rule_id = "D003"
    summary = (
        "os.environ/os.getenv read outside repro.faults; pass "
        "configuration explicitly"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        if not _in_repro_scope(module, context):
            return
        if context.config.scope_to_source and matches_prefix(
            _dotted_name(module, context), _ENVIRON_ALLOWED
        ):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and dotted(node) == "os.environ"
            ):
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    "os.environ read; only repro.faults may consume the "
                    "environment (fault-plan channel) — pass config "
                    "explicitly",
                )
            elif (
                isinstance(node, ast.Call)
                and dotted(node.func) == "os.getenv"
            ):
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    "os.getenv read; pass configuration explicitly "
                    "instead of consulting the environment",
                )


#: Serialization sinks: dotted call name -> index of the payload arg.
_SERIAL_SINKS = {"json.dumps": 0, "json.dump": 0, "pickle.dumps": 0}

#: Hashing constructors (payload is the first positional arg).
_HASH_SINKS = frozenset(
    {
        "hashlib.md5",
        "hashlib.sha1",
        "hashlib.sha256",
        "hashlib.sha512",
        "hashlib.blake2b",
        "hashlib.blake2s",
    }
)


class UnorderedSerializationRule(LintRule):
    """D004: unordered collections must not feed serialization/hashing.

    A set iterates in hash order, which varies run-to-run under hash
    randomisation — ``json.dumps`` of anything set-derived produces
    different bytes on different runs, which poisons content-addressed
    caching.  Dicts iterate in insertion order (deterministic) but that
    order encodes construction history, so dicts feeding *hashing* must
    be canonicalised (``sort_keys=True`` / sorted items) first.

    Detection uses the reaching-definitions pass: a name is tainted if
    any definition that reaches the sink binds a set/dict literal,
    comprehension, builder call or set algebra — including loop
    variables bound by iterating a set.

    Invariant: serialized and hashed bytes are identical run to run.
    Fails without it:
    ``TestD004::test_fires_on_set_dict_and_loop_var_taint`` in
    ``tests/lint/test_determinism_rules.py``.
    """

    rule_id = "D004"
    summary = (
        "set/dict-derived value feeds json/pickle/hashlib; sort first "
        "(sorted(...), sort_keys=True)"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        if not _in_simulation_scope(module, context):
            return
        for scope_node, flow in iter_scopes(module.tree):
            yield from self._check_scope(module, scope_node, flow)

    def _check_scope(
        self, module: "ParsedModule", scope_node: ast.AST, flow: ScopeFlow
    ) -> Iterator[Finding]:
        for node in _scope_calls(scope_node):
            sink = dotted(node.func)
            if sink in _SERIAL_SINKS and node.args:
                payload = node.args[_SERIAL_SINKS[sink]]
                kind = self._taint(payload, flow)
                if kind == "set":
                    yield self.finding(
                        module.display_path,
                        node.lineno,
                        f"set-derived value feeds {sink}(); set iteration "
                        "order varies run-to-run — sort it first",
                    )
            elif sink in _HASH_SINKS and node.args:
                kind = self._taint(node.args[0], flow)
                if kind is not None:
                    yield self.finding(
                        module.display_path,
                        node.lineno,
                        f"{kind}-derived value feeds {sink}(); hash inputs "
                        "must be canonicalised (sorted / sort_keys=True)",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and node.args
                and self._hashlike(node.func.value, flow)
            ):
                kind = self._taint(node.args[0], flow)
                if kind is not None:
                    yield self.finding(
                        module.display_path,
                        node.lineno,
                        f"{kind}-derived value feeds a hash .update(); "
                        "canonicalise (sort) before hashing",
                    )

    @staticmethod
    def _taint(expr: ast.expr, flow: ScopeFlow) -> str | None:
        kind = unordered_kind(expr, flow)
        if kind is not None:
            return kind
        if isinstance(expr, ast.Name):
            for definition in flow.possible_values(expr.id, expr.lineno):
                if (
                    definition.kind == "for"
                    and definition.value is not None
                    and unordered_kind(definition.value, flow) == "set"
                ):
                    return "set"
        return None

    @staticmethod
    def _hashlike(expr: ast.expr, flow: ScopeFlow) -> bool:
        if isinstance(expr, ast.Call):
            return dotted(expr.func) in _HASH_SINKS
        if isinstance(expr, ast.Name):
            return any(
                definition.value is not None
                and isinstance(definition.value, ast.Call)
                and dotted(definition.value.func) in _HASH_SINKS
                for definition in flow.possible_values(expr.id, expr.lineno)
            )
        return False


class FloatAccumulationRule(LintRule):
    """D005: no bare float ``+=`` loops over femtojoule values.

    Naive left-to-right float accumulation makes the result depend on
    iteration order and loses low bits; ``math.fsum`` (or
    ``EnergyStats.add``, which compensates) is exact regardless of
    order.  Complements R001: R001 guards *attribute* stores
    (``stats.x_fj +=``), D005 guards local *name* accumulators inside
    loops (``total += stats.leakage_fj``).

    Invariant: an fJ total does not depend on iteration order.  Fails
    without it: ``TestD005::test_fires_on_fj_accumulators_in_loops`` in
    ``tests/lint/test_determinism_rules.py``.
    """

    rule_id = "D005"
    summary = (
        "bare float += of *_fj values inside a loop; use math.fsum or "
        "EnergyStats.add"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        if not _in_repro_scope(module, context):
            return
        if module.path.parts[-3:] == _STATS_SUFFIX:
            return
        for scope_node, flow in iter_scopes(module.tree):
            assert isinstance(
                scope_node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            for statement in scope_node.body:
                yield from self._check_statement(
                    module, statement, flow, in_loop=False
                )

    def _check_statement(
        self,
        module: "ParsedModule",
        node: ast.stmt,
        flow: ScopeFlow,
        *,
        in_loop: bool,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scope: visited separately by iter_scopes
        if (
            in_loop
            and isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Name)
            and self._touches_fj(node)
            and flow.numeric_literal_init(node.target.id, node.lineno)
            is not None
        ):
            yield self.finding(
                module.display_path,
                node.lineno,
                f"bare float accumulation '{node.target.id} += ...' over "
                "*_fj values inside a loop loses precision and depends on "
                "iteration order; rewrite with math.fsum(...) or "
                "EnergyStats.add",
            )
        loops = isinstance(node, (ast.For, ast.AsyncFor, ast.While))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from self._check_statement(
                    module, child, flow, in_loop=in_loop or loops
                )
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                for grandchild in child.body:
                    yield from self._check_statement(
                        module, grandchild, flow, in_loop=in_loop or loops
                    )

    @staticmethod
    def _touches_fj(node: ast.AugAssign) -> bool:
        target = node.target
        if isinstance(target, ast.Name) and target.id.endswith("_fj"):
            return True
        for child in ast.walk(node.value):
            if isinstance(child, ast.Attribute) and child.attr.endswith("_fj"):
                return True
            if isinstance(child, ast.Name) and child.id.endswith("_fj"):
                return True
        return False


__all__ = [
    "EnvironReadRule",
    "FloatAccumulationRule",
    "UnorderedSerializationRule",
    "UnseededRandomRule",
    "WallClockRule",
    "dotted",
]
