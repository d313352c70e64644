"""The reprolint rule set (RL001–RL006).

Each rule encodes one invariant the library's determinism and performance
story depends on (see ``docs/static-analysis.md`` for the catalogue and
DESIGN.md for the promises being enforced):

* RL001 — oracle dependencies (networkx/scipy/pandas) stay out of library
  code; they are cross-validation oracles for the test suite only.
* RL002 — all randomness flows through :mod:`repro.rng`: no ad-hoc
  generator construction, no global seeding, and raw ``rng`` parameters are
  normalised with ``ensure_rng``/``spawn_rngs`` before anything is drawn.
* RL003 — no iteration order leaks from hash containers into ordered
  results (set iteration, dict views fed to list builders, ``id``/``hash``
  sort keys).
* RL004 — array allocations in the SCC kernels and the coarsening core
  always pin an explicit ``dtype=`` (the int32/int64 discipline of the
  FW-BW kernel), and any SCC module selecting ``np.int32`` derives its
  overflow bound from ``np.iinfo(np.int32)`` (the size gate the batched
  union kernel depends on).
* RL005 — durations come from monotonic clocks (``perf_counter`` or obs
  spans), never ``time.time()``.
* RL006 — no bare ``except:`` and no silently swallowed ``except
  Exception: pass``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext, Violation

__all__ = ["Rule", "RULES", "default_rules", "rule_ids"]


class Rule:
    """Base class: subclasses set the id/title/rationale and ``check``."""

    rule_id = "RL000"
    title = ""
    rationale = ""

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def hit(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return ctx.violation(node, self.rule_id, message)


def _walk_no_nested_defs(nodes: "list[ast.AST]") -> Iterator[ast.AST]:
    """Walk nodes depth-first, yielding nested defs but not their bodies."""
    stack: list[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ForbiddenOracleImports(Rule):
    rule_id = "RL001"
    title = "forbidden oracle import"
    rationale = (
        "networkx/scipy/pandas are test-suite cross-validation oracles; "
        "library code paths must not depend on them (DESIGN.md)."
    )

    FORBIDDEN = ("networkx", "scipy", "pandas")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in self.FORBIDDEN:
                        yield self.hit(
                            ctx, node,
                            f"library code must not import oracle "
                            f"dependency '{top}' (tests-only)",
                        )
            elif isinstance(node, ast.ImportFrom):
                top = (node.module or "").split(".")[0]
                if node.level == 0 and top in self.FORBIDDEN:
                    yield self.hit(
                        ctx, node,
                        f"library code must not import oracle dependency "
                        f"'{top}' (tests-only)",
                    )


#: Generator methods that consume randomness.  Drawing via any of these on a
#: raw ``rng`` *parameter* means the int/None forms were never normalised.
DRAW_METHODS = frozenset({
    "random", "integers", "choice", "shuffle", "permutation", "permuted",
    "uniform", "normal", "standard_normal", "lognormal", "binomial",
    "poisson", "exponential", "geometric", "gamma", "beta", "dirichlet",
    "multinomial", "multivariate_normal", "bytes",
})

#: ``np.random.X`` attributes that are type/plumbing references, not draws.
_NP_RANDOM_TYPES = frozenset({
    "Generator", "BitGenerator", "SeedSequence", "PCG64", "Philox",
})


class RngDiscipline(Rule):
    rule_id = "RL002"
    title = "rng discipline"
    rationale = (
        "every stochastic entry point threads randomness through repro.rng "
        "(ensure_rng/spawn_rngs); ad-hoc generators and global seeding "
        "break run-to-run reproducibility."
    )

    def applies(self, ctx: FileContext) -> bool:
        # repro/rng.py is the one place allowed to build generators.
        return ctx.package_rel != "rng.py"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.hit(
                            ctx, node,
                            "stdlib 'random' is unseeded global state; use "
                            "repro.rng.ensure_rng instead",
                        )
                    elif alias.name.startswith("numpy.random"):
                        yield self.hit(
                            ctx, node,
                            "import numpy.random generators via "
                            "repro.rng, not directly",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "random" or module.startswith("random."):
                    yield self.hit(
                        ctx, node,
                        "stdlib 'random' is unseeded global state; use "
                        "repro.rng.ensure_rng instead",
                    )
                elif module.startswith("numpy.random"):
                    names = {alias.name for alias in node.names}
                    if not names <= _NP_RANDOM_TYPES:
                        yield self.hit(
                            ctx, node,
                            "import numpy.random generators via repro.rng, "
                            "not directly",
                        )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if dotted.startswith(prefix):
                        leaf = dotted[len(prefix):]
                        if "." not in leaf and leaf not in _NP_RANDOM_TYPES:
                            yield self.hit(
                                ctx, node,
                                f"'{dotted}' bypasses repro.rng; construct "
                                f"generators with ensure_rng/spawn_rngs",
                            )
                        break
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_raw_rng(ctx, node)

    def _check_raw_rng(
        self, ctx: FileContext, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Violation]:
        """Flag draws on a raw ``rng`` parameter before normalisation."""
        arg_names = {
            a.arg
            for a in (
                *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs
            )
        }
        if "rng" not in arg_names:
            return
        normalised = False
        draws: list[ast.Call] = []
        # Nested defs are excluded: ast.walk reaches them via the module
        # walk and each is checked against its own parameter list.
        for node in _walk_no_nested_defs(list(func.body)):
            if isinstance(node, ast.Call):
                callee = node.func
                name = (
                    callee.id if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute)
                    else None
                )
                if name in ("ensure_rng", "spawn_rngs"):
                    normalised = True
                elif (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "rng"
                    and callee.attr in DRAW_METHODS
                ):
                    draws.append(node)
        if not normalised:
            for call in draws:
                assert isinstance(call.func, ast.Attribute)
                yield self.hit(
                    ctx, call,
                    f"function '{func.name}' draws 'rng.{call.func.attr}()' "
                    f"from its raw 'rng' parameter; normalise with "
                    f"ensure_rng(rng) (or spawn_rngs) first",
                )


#: Callables whose output order mirrors input iteration order.
_ORDERED_BUILDERS = frozenset({"list", "tuple", "enumerate"})
_NP_ORDERED_BUILDERS = frozenset({"fromiter", "array", "asarray"})
#: Only ``.keys()`` is treated as a hazard: ``.values()``/``.items()``
#: iteration is insertion-ordered and pervasively used for deterministic
#: display/aggregation, while ``.keys()`` feeding an ordered result is the
#: tell-tale of code that actually wanted a canonical (sorted) key order.
_DICT_VIEWS = frozenset({"keys"})


class NondeterministicIteration(Rule):
    rule_id = "RL003"
    title = "nondeterministic iteration order"
    rationale = (
        "set iteration order is an implementation detail (and hash- "
        "randomised for strings); feeding it into ordered results makes "
        "output depend on the interpreter, not the seed.  Wrap in "
        "sorted(...) to fix."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._scope(ctx, ctx.tree, set())

    # -- helpers -----------------------------------------------------------

    def _is_set_expr(self, node: ast.AST, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and node.id in set_names:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _is_dict_view(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_VIEWS
            and not node.args
            and not node.keywords
        )

    def _hazard(self, node: ast.AST, set_names: set[str]) -> str | None:
        if self._is_set_expr(node, set_names):
            return "a set"
        if self._is_dict_view(node):
            return f"a dict .{node.func.attr}() view"  # type: ignore[attr-defined]
        return None

    def _scope(
        self, ctx: FileContext, scope: ast.AST, outer_sets: set[str]
    ) -> Iterator[Violation]:
        """Check one function (or module) body with local set-name tracking."""
        set_names = set(outer_sets)
        body = scope.body if hasattr(scope, "body") else []
        # First pass: which local names are definitely sets?  A name loses
        # the mark if it is ever re-bound to something non-set.
        for node in self._walk_scope(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if self._is_set_expr(node.value, set_names - {target.id}):
                            set_names.add(target.id)
                        else:
                            set_names.discard(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    if self._is_set_expr(node.value, set_names):
                        set_names.add(node.target.id)
                    else:
                        set_names.discard(node.target.id)
        # Second pass: iteration sites.
        for node in self._walk_scope(body):
            yield from self._check_node(ctx, node, set_names)
        # Recurse into nested scopes with the current knowledge.
        for node in self._walk_scope(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scope(ctx, node, set_names)

    def _walk_scope(self, body: list[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements without descending into nested function defs."""
        return _walk_no_nested_defs(list(body))

    def _check_node(
        self, ctx: FileContext, node: ast.AST, set_names: set[str]
    ) -> Iterator[Violation]:
        if isinstance(node, ast.For):
            what = self._hazard(node.iter, set_names)
            if what is not None:
                yield self.hit(
                    ctx, node,
                    f"iterating {what} in a for loop leaks hash order into "
                    f"execution order; iterate sorted(...) instead",
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for gen in node.generators:
                what = self._hazard(gen.iter, set_names)
                if what is not None:
                    yield self.hit(
                        ctx, node,
                        f"building an ordered sequence from {what} depends "
                        f"on hash order; iterate sorted(...) instead",
                    )
        elif isinstance(node, ast.Call):
            yield from self._check_call(ctx, node, set_names)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, set_names: set[str]
    ) -> Iterator[Violation]:
        func = node.func
        builder: str | None = None
        if isinstance(func, ast.Name) and func.id in _ORDERED_BUILDERS:
            builder = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and func.attr in _NP_ORDERED_BUILDERS
        ):
            builder = f"np.{func.attr}"
        if builder is not None and node.args:
            what = self._hazard(node.args[0], set_names)
            if what is not None:
                yield self.hit(
                    ctx, node,
                    f"{builder}(...) over {what} bakes hash order into an "
                    f"ordered result; wrap the iterable in sorted(...)",
                )
        # id()/hash()-keyed sorts: deterministic within a process at best.
        is_sort = (isinstance(func, ast.Name) and func.id == "sorted") or (
            isinstance(func, ast.Attribute) and func.attr == "sort"
        )
        if is_sort:
            for kw in node.keywords:
                if (
                    kw.arg == "key"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in ("id", "hash")
                ):
                    yield self.hit(
                        ctx, node,
                        f"sorting with key={kw.value.id} orders by memory "
                        f"address/hash, which varies between runs",
                    )


class DtypeDiscipline(Rule):
    rule_id = "RL004"
    title = "implicit array dtype"
    rationale = (
        "the SCC kernels and the coarsening core rely on exact int32/int64 "
        "layouts (docs/performance.md); allocations must pin dtype= "
        "explicitly so a refactor cannot silently widen or float-ify them."
    )

    SCOPES = ("scc/", "core/")
    #: The int32-gate sub-check applies to the SCC kernels only: that is
    #: where narrow indices buy bandwidth and where an ungated int32 can
    #: silently overflow on a large (or batched-union) domain.
    GATE_SCOPES = ("scc/",)
    ALLOCATORS = frozenset({"empty", "zeros", "ones", "full", "arange"})

    def applies(self, ctx: FileContext) -> bool:
        return ctx.package_rel.startswith(self.SCOPES)

    @staticmethod
    def _is_np_int32(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "int32"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        int32_uses: "list[ast.AST]" = []
        gated = False
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                if self._is_np_int32(node):
                    int32_uses.append(node)
                continue
            func = node.func
            if not (
                isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
            ):
                continue
            if func.attr == "iinfo" and any(
                self._is_np_int32(arg) for arg in node.args
            ):
                gated = True
            if func.attr in self.ALLOCATORS and not any(
                kw.arg == "dtype" for kw in node.keywords
            ):
                yield self.hit(
                    ctx, node,
                    f"np.{func.attr}(...) without an explicit dtype= in a "
                    f"kernel module; pin the dtype",
                )
        # int32 indices are a *size-gated* optimisation: any kernel module
        # that selects np.int32 must also derive its overflow bound from
        # np.iinfo(np.int32) (the fwbw discipline) — a hard-coded or
        # missing bound silently corrupts labels past 2**31 elements.
        if ctx.package_rel.startswith(self.GATE_SCOPES) and not gated:
            # iinfo(np.int32) arguments are themselves np.int32 attribute
            # nodes, but ``gated`` is False here, so none of these uses
            # came from the gate expression.
            for use in int32_uses[:1]:
                yield self.hit(
                    ctx, use,
                    "np.int32 selected without an np.iinfo(np.int32) size "
                    "gate in this module; derive the overflow bound before "
                    "narrowing indices",
                )


class WallClockHygiene(Rule):
    rule_id = "RL005"
    title = "wall clock used for durations"
    rationale = (
        "time.time() jumps with NTP/DST adjustments; measure durations "
        "with time.perf_counter() or a repro.obs span "
        "(docs/observability.md)."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _dotted(node.func) == "time.time":
                yield self.hit(
                    ctx, node,
                    "time.time() is not monotonic; use time.perf_counter() "
                    "or an obs span for durations",
                )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module == "time"
                and any(alias.name == "time" for alias in node.names)
            ):
                yield self.hit(
                    ctx, node,
                    "importing time.time invites wall-clock timing; import "
                    "perf_counter instead",
                )


class ExceptionSwallowing(Rule):
    rule_id = "RL006"
    title = "exception swallowing"
    rationale = (
        "bare except catches KeyboardInterrupt/SystemExit, and 'except "
        "Exception: pass' hides real failures from the caller and the obs "
        "layer; catch the narrowest type and handle or re-raise."
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.hit(
                    ctx, node,
                    "bare 'except:' also catches KeyboardInterrupt/"
                    "SystemExit; name the exception type",
                )
                continue
            names = []
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for t in types:
                if isinstance(t, ast.Name):
                    names.append(t.id)
            if any(n in self._BROAD for n in names) and all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is Ellipsis
                )
                for stmt in node.body
            ):
                yield self.hit(
                    ctx, node,
                    "'except Exception: pass' swallows failures silently; "
                    "handle, log, or re-raise",
                )


RULES: tuple[Rule, ...] = (
    ForbiddenOracleImports(),
    RngDiscipline(),
    NondeterministicIteration(),
    DtypeDiscipline(),
    WallClockHygiene(),
    ExceptionSwallowing(),
)


def default_rules() -> tuple[Rule, ...]:
    """The full registered rule set, in id order."""
    return RULES


def rule_ids() -> list[str]:
    return [rule.rule_id for rule in RULES]
