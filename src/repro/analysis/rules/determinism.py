"""Determinism rules: no hidden entropy in simulation code.

The reproduction's headline guarantee is bit-exact replay: the 96-cell
golden conformance matrix and the trace/churn planes all assert
bitwise-identical stats, and every random draw must come from a seeded,
counter-indexed :class:`repro.sim.rng.RngStreams` stream.  These rules
reject the ways entropy sneaks in: wall clocks, global RNG state,
unseeded generators, set/dict iteration order and ``id()``-based
ordering.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleContext, Rule, call_name, dotted_name
from repro.analysis.registry import register_rule

#: Packages whose code runs inside (or feeds values into) the
#: deterministic simulation: everything except the harness/CLI shell.
SIM_SCOPE = (
    "repro/core",
    "repro/baselines",
    "repro/compression",
    "repro/membership",
    "repro/protocols",
    "repro/scenarios",
    "repro/sim",
    "repro/net",
    "repro/graphs",
    "repro/ml",
)

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "date.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    name = "det-wall-clock"
    group = "determinism"
    summary = "no wall-clock reads in simulation code"
    rationale = (
        "simulated time is env.now; a wall-clock read makes results "
        "depend on host speed and breaks bit-exact replay"
    )
    scope = SIM_SCOPE

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        dotted = dotted_name(node.func)
        if dotted in _WALL_CLOCK:
            ctx.report(
                self,
                node,
                f"wall-clock read `{dotted}()` in simulation code; "
                "simulated time comes from `env.now`",
            )


#: numpy global-state functions (module-level `np.random.*` draws).
_NP_GLOBAL = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "get_state",
    "set_state",
    "binomial",
    "poisson",
    "exponential",
}

#: stdlib `random` module draws (any attribute call counts).
_STDLIB_RANDOM = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "normalvariate",
    "seed",
    "getrandbits",
    "betavariate",
    "expovariate",
}

_OS_ENTROPY = {"os.urandom", "uuid.uuid4", "secrets.token_bytes",
               "secrets.token_hex", "secrets.randbits"}


class GlobalRngRule(Rule):
    name = "det-global-rng"
    group = "determinism"
    summary = "no global RNG state (random.*, np.random.*, os.urandom)"
    rationale = (
        "global RNG draws are shared mutable state: any new draw "
        "perturbs every later one, so seeding cannot isolate "
        "components; use a named RngStreams stream"
    )
    scope = SIM_SCOPE

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if dotted in _OS_ENTROPY:
            ctx.report(
                self,
                node,
                f"`{dotted}()` draws OS entropy; every draw must come "
                "from a seeded RngStreams stream",
            )
            return
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _STDLIB_RANDOM:
            ctx.report(
                self,
                node,
                f"stdlib global RNG `{dotted}()`; use a named "
                "RngStreams stream instead",
            )
            return
        if (
            len(parts) >= 3
            and parts[-3] in ("np", "numpy")
            and parts[-2] == "random"
            and parts[-1] in _NP_GLOBAL
        ) or (
            len(parts) == 2
            and parts[0] in ("np", "numpy")
            and parts[1] in _NP_GLOBAL
            and parts[1] in ("seed", "get_state", "set_state")
        ):
            ctx.report(
                self,
                node,
                f"numpy global RNG state `{dotted}()`; use a "
                "Generator from a named RngStreams stream",
            )


_RNG_CONSTRUCTORS = {"default_rng", "PCG64", "SeedSequence", "Philox",
                     "MT19937", "SFC64"}


class UnseededRngRule(Rule):
    name = "det-unseeded-rng"
    group = "determinism"
    summary = "RNG constructors must be explicitly seeded"
    rationale = (
        "default_rng() with no seed pulls OS entropy, so two runs of "
        "the same spec diverge; derive the seed from RngStreams"
    )
    scope = None  # entropy is never OK, harness included

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = call_name(node)
        if name in _RNG_CONSTRUCTORS and not node.args and not node.keywords:
            ctx.report(
                self,
                node,
                f"unseeded `{name}()` pulls OS entropy; pass a seed "
                "derived from RngStreams",
            )


def _is_set_expr(node: ast.AST) -> bool:
    """Conservative: does this expression *syntactically* build a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            # Only when the receiver is itself visibly a set — method
            # names alone are too ambiguous (dict.keys has no overlap,
            # but user classes might).
            return _is_set_expr(func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _unwrapped_iter(node: ast.AST) -> ast.AST:
    """Peel order-preserving wrappers (enumerate/list/tuple/iter)."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("enumerate", "list", "tuple", "iter", "reversed")
        and node.args
    ):
        node = node.args[0]
    return node


class SetIterationRule(Rule):
    name = "det-set-iter"
    group = "determinism"
    summary = "no iteration over bare sets in simulation code"
    rationale = (
        "set iteration order depends on insertion history and hash "
        "seeds; feeding it into ordered operations (sends, reduces, "
        "event scheduling) silently varies across runs — sort first"
    )
    scope = SIM_SCOPE

    def _check(self, iter_node: ast.AST, anchor: ast.AST, ctx: ModuleContext):
        if _is_set_expr(_unwrapped_iter(iter_node)):
            ctx.report(
                self,
                anchor,
                "iterating a bare set: order is arbitrary and feeds "
                "ordered simulation state; wrap in `sorted(...)`",
            )

    def visit_For(self, node: ast.For, ctx: ModuleContext) -> None:
        self._check(node.iter, node, ctx)

    def visit_AsyncFor(self, node: ast.AsyncFor, ctx: ModuleContext) -> None:
        self._check(node.iter, node, ctx)

    def _check_comp(self, node, ctx: ModuleContext) -> None:
        for generator in node.generators:
            self._check(generator.iter, node, ctx)

    visit_ListComp = _check_comp
    visit_GeneratorExp = _check_comp
    visit_DictComp = _check_comp

    def visit_SetComp(self, node: ast.SetComp, ctx: ModuleContext) -> None:
        # Building a set *from* a set keeps the result unordered — the
        # hazard only materializes when order-sensitive code consumes
        # it, which the For/ListComp checks catch.
        pass


def _is_id_key(value: ast.AST) -> bool:
    if isinstance(value, ast.Name) and value.id == "id":
        return True
    if isinstance(value, ast.Lambda):
        body = value.body
        return (
            isinstance(body, ast.Call)
            and isinstance(body.func, ast.Name)
            and body.func.id == "id"
        )
    return False


class IdSortKeyRule(Rule):
    name = "det-id-key"
    group = "determinism"
    summary = "no id()-based sort keys"
    rationale = (
        "id() is a memory address: sorting by it produces a different "
        "order every process, defeating seeded reproducibility"
    )
    scope = None

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        for keyword in node.keywords:
            if keyword.arg == "key" and _is_id_key(keyword.value):
                ctx.report(
                    self,
                    node,
                    "`key=id` orders by memory address (different "
                    "every run); sort by a stable attribute instead",
                )


#: Selection/ordering primitives whose tie order is implementation-
#: defined (introselect pivots, unstable quicksort): fine for finding a
#: threshold, never OK as an ordering that reaches simulation state.
_UNSTABLE_ORDER = {"argpartition", "partition", "argsort"}


class PartitionOrderRule(Rule):
    name = "det-partition-order"
    group = "determinism"
    summary = "argpartition/argsort order must not reach sim state"
    rationale = (
        "np.argpartition and unstable argsort order ties by internal "
        "pivot choices — implementation-defined across numpy versions. "
        "An order that feeds simulation state (top-k wire indices, "
        "send schedules) must be re-derived deterministically, e.g. "
        "threshold + lowest-index tie-break; annotate compliant uses "
        "with `# repro: ignore[det-partition-order]` and say why"
    )
    scope = SIM_SCOPE

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if parts[0] in ("np", "numpy") and parts[-1] in _UNSTABLE_ORDER:
            if parts[-1] == "argsort" and any(
                keyword.arg == "kind"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value == "stable"
                for keyword in node.keywords
            ):
                return
            ctx.report(
                self,
                node,
                f"`{dotted}()` orders ties by implementation-defined "
                "pivots; re-derive the selection deterministically "
                "(threshold + lowest-index) or use kind='stable', and "
                "suppress with a justification if the order provably "
                "never escapes",
            )


class EnvReadRule(Rule):
    name = "det-env-read"
    group = "determinism"
    summary = "no environment-variable reads inside simulation code"
    rationale = (
        "env vars are invisible spec state: two hosts running the "
        "same ExperimentSpec must produce the same stats, so knobs "
        "belong on the spec (the harness shell may read env)"
    )
    scope = (
        "repro/core",
        "repro/baselines",
        "repro/membership",
        "repro/protocols",
        "repro/scenarios",
        "repro/sim",
        "repro/net",
        "repro/graphs",
    )

    def _report(self, node: ast.AST, ctx: ModuleContext, what: str) -> None:
        ctx.report(
            self,
            node,
            f"environment read `{what}` inside simulation code; pass "
            "configuration through the ExperimentSpec instead",
        )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        dotted = dotted_name(node.func)
        if dotted == "os.getenv":
            self._report(node, ctx, "os.getenv(...)")
        elif dotted == "os.environ.get":
            self._report(node, ctx, "os.environ.get(...)")

    def visit_Subscript(self, node: ast.Subscript, ctx: ModuleContext) -> None:
        if dotted_name(node.value) == "os.environ":
            self._report(node, ctx, "os.environ[...]")


register_rule(WallClockRule)
register_rule(GlobalRngRule)
register_rule(UnseededRngRule)
register_rule(SetIterationRule)
register_rule(IdSortKeyRule)
register_rule(PartitionOrderRule)
register_rule(EnvReadRule)
