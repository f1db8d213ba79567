"""The repo-specific lint rules (stable codes ``DL001`` .. ``DL006``).

Each rule machine-checks one determinism or aliasing contract that the
cross-engine guarantees (packed-vs-explicit bit-identity, fleet golden SHAs,
cross-process sampling determinism) depend on.  The catalog, with the
contract each rule protects, lives in ``docs/ARCHITECTURE.md``; a one-line
summary ships on every rule class and surfaces in ``dnn-life lint --list``.

Findings can be suppressed per line with ``# dnn-lint: disable=DL002`` (or
``disable=all``); intentional whole-module exemptions are declared in the
allowlists below, next to the rule they relax, so every exception to a
contract is visible in one place.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence

from repro.devtools.lint.provenance import ProvenanceTracker

#: The one module allowed to touch global RNG construction helpers freely:
#: it *is* the seeding funnel every other module must route through.
RNG_FUNNEL_MODULE = "repro/utils/rng.py"

#: ``numpy.random`` attributes that are constructors/seed types rather than
#: draws from the hidden global state; building a seeded generator is the
#: sanctioned pattern, calling the module-level samplers is not.
NP_RANDOM_ALLOWED: FrozenSet[str] = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: stdlib ``random`` attributes that do not draw from the global state.
STDLIB_RANDOM_ALLOWED: FrozenSet[str] = frozenset({"Random", "SystemRandom"})

#: Wall-clock call targets (resolved through the module's imports).
WALLCLOCK_CALLS: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Modules where ``==``/``!=`` between floats is the *point*: they implement
#: or verify bit-exact cross-engine contracts (exact-zero fast paths, the
#: unbiased-TRBG dispatch on a constructed bias of exactly 0.5).
FLOAT_EQUALITY_ALLOWED_MODULES: FrozenSet[str] = frozenset({
    # unbiased-TRBG dispatch on a constructed bias of exactly 0.5
    "repro/core/simulation.py",
    # exact-zero-side skipping in the retention model's failure probability
    "repro/scenario/operating_point.py",
    # reference-corner pinning: corners exactly at the reference voltage/
    # temperature must contribute a factor of exactly 1.0 so reference
    # scenarios stay byte-identical across releases
    "repro/aging/stress.py",
    # fused span composition: every coefficient/weight is an exact integer in
    # float64, and the zero/one fast-path dispatch must be exact to keep the
    # composed counts bit-identical to the iterative span walk
    "repro/core/span_compose.py",
})

#: ndarray methods that mutate the receiver in place.
INPLACE_METHODS: FrozenSet[str] = frozenset({
    "fill", "sort", "partition", "put", "itemset", "resize", "byteswap",
})


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a stable code plus a ``file:line:col`` location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The one-line ``file:line:col: CODE message`` diagnostic."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_payload(self) -> dict:
        """JSON-safe representation (the ``--format json`` schema entry)."""
        return {"code": self.code, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


class ModuleContext:
    """Everything a rule needs to check one parsed module."""

    def __init__(self, path: str, rel: str, tree: ast.Module,
                 source_lines: Sequence[str]):
        self.path = path
        #: posix path relative to the lint root (e.g. ``repro/utils/rng.py``)
        #: — the identity used by module allowlists.
        self.rel = rel
        self.tree = tree
        self.source_lines = source_lines
        self._tracker: Optional[ProvenanceTracker] = None

    @property
    def tracker(self) -> ProvenanceTracker:
        """The module's provenance tracker (built once, shared by rules)."""
        if self._tracker is None:
            self._tracker = ProvenanceTracker(self.tree)
        return self._tracker


class Rule:
    """Base lint rule; subclasses define ``code``/``name`` and ``check``."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(code=self.code, path=ctx.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), message=message)


class NoGlobalRngRule(Rule):
    """DL001: all randomness must flow through a passed-in ``Generator``.

    Module-level draws from ``numpy.random`` or stdlib ``random`` consume
    hidden global state, which breaks per-job seeding in sweep workers and
    cross-process sampling determinism.  Constructing seeded generators
    (``np.random.default_rng``, ``SeedSequence``, bit generators) is allowed
    everywhere; everything else is confined to ``utils/rng.py``.
    """

    code = "DL001"
    name = "no-global-rng"
    summary = ("module-level numpy.random/random draws are forbidden; pass a "
               "seeded Generator (see repro.utils.rng)")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel.endswith(RNG_FUNNEL_MODULE):
            return
        tracker = ctx.tracker
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = tracker.resolve_call_path(node.func)
            if path is None:
                continue
            if path.startswith("numpy.random."):
                fn = path[len("numpy.random."):]
                if "." not in fn and fn not in NP_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx, node,
                        f"call to global-state 'np.random.{fn}'; draw from a "
                        "passed-in np.random.Generator instead")
            elif path.startswith("random."):
                fn = path[len("random."):]
                if "." not in fn and fn not in STDLIB_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx, node,
                        f"call to global-state 'random.{fn}'; use a seeded "
                        "np.random.Generator from repro.utils.rng instead")


class NoWallclockSeedRule(Rule):
    """DL002: wall-clock time must never feed seeds or results.

    ``time.time()`` / ``datetime.now()`` make a run irreproducible the
    moment their value reaches a seed, a payload or a cache key.  Timing
    with ``time.perf_counter`` is fine (it measures, it does not seed);
    a deliberate metadata timestamp carries an inline suppression.
    """

    code = "DL002"
    name = "no-wallclock-seed"
    summary = ("time.time()/datetime.now() feed irreproducible values into "
               "seeds or results; use perf_counter for timing")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        tracker = ctx.tracker
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = tracker.resolve_call_path(node.func)
            if path in WALLCLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call '{path}()' makes the run irreproducible; "
                    "thread the value in explicitly or use time.perf_counter "
                    "for timing")


class NarrowDtypeReductionRule(Rule):
    """DL003: reductions over narrow unsigned bit tensors pick their dtype.

    ``uint8``/``uint16`` bit tensors are the packed engine's working set;
    summing them without an explicit ``dtype=`` leaves the accumulator width
    to numpy's platform default (32-bit on Windows), which is exactly the
    silent-overflow class the chunked ``block_axis_sum`` accumulator exists
    to avoid.
    """

    code = "DL003"
    name = "narrow-dtype-reduction"
    summary = ("summing a uint8/uint16 bit tensor without an explicit dtype= "
               "risks silent accumulator overflow")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        tracker = ctx.tracker
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            receiver: Optional[ast.expr] = None
            if tracker.resolve_call_path(node.func) == "numpy.sum":
                if node.args:
                    receiver = node.args[0]
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "sum":
                receiver = node.func.value
            if receiver is None:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            tags = tracker.tags(receiver)
            narrow = tags & {"uint8", "uint16"}
            if narrow:
                yield self.finding(
                    ctx, node,
                    f"sum over a {'/'.join(sorted(narrow))} tensor without an "
                    "explicit dtype=; declare the accumulator (e.g. "
                    "dtype=np.int64) or use block_axis_sum")


class CachedBufferMutationRule(Rule):
    """DL004: cached packed buffers are shared — never write through them.

    ``PackedBitTensor.bits`` / ``rows_ones()`` / ``rows_writes()`` /
    ``valid_mask()`` and ``CachedWeightStream.packed_bits()`` results are
    computed once and shared across policy evaluations and sweep jobs; an
    in-place op on them (or any alias) silently corrupts every later
    consumer.  The arrays are also frozen at runtime
    (``setflags(write=False)``), so anything this rule misses fails fast.
    """

    code = "DL004"
    name = "cached-buffer-mutation"
    summary = ("in-place writes to PackedBitTensor/CachedWeightStream cached "
               "buffers corrupt every sharer; work on a .copy()")

    def _is_cached(self, ctx: ModuleContext, node: ast.expr) -> bool:
        return "cached" in ctx.tracker.tags(node)

    def _mutation_root(self, target: ast.expr) -> Optional[ast.expr]:
        """The object a store-target writes through, if it is a view/element."""
        if isinstance(target, ast.Subscript):
            return target.value
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AugAssign):
                root = self._mutation_root(node.target)
                if root is None and isinstance(node.target, ast.Name):
                    root = node.target
                if root is not None and self._is_cached(ctx, root):
                    yield self.finding(
                        ctx, node,
                        "in-place operator mutates a cached packed buffer "
                        "shared across evaluations; reduce into a fresh array "
                        "or .copy() first")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    root = self._mutation_root(target)
                    if root is not None and self._is_cached(ctx, root):
                        yield self.finding(
                            ctx, target,
                            "slice/element assignment into a cached packed "
                            "buffer shared across evaluations; write to a "
                            ".copy() instead")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr == "setflags" and self._is_cached(ctx, func.value):
                        write = next((kw.value for kw in node.keywords
                                      if kw.arg == "write"), None)
                        if not (isinstance(write, ast.Constant)
                                and write.value is False):
                            yield self.finding(
                                ctx, node,
                                "re-enabling writes on a cached packed buffer "
                                "defeats the shared-tensor aliasing guard")
                    elif func.attr in INPLACE_METHODS \
                            and self._is_cached(ctx, func.value):
                        yield self.finding(
                            ctx, node,
                            f"in-place method '.{func.attr}()' mutates a cached "
                            "packed buffer shared across evaluations")
                for kw in node.keywords:
                    if kw.arg == "out" and self._is_cached(ctx, kw.value):
                        yield self.finding(
                            ctx, node,
                            "out= targets a cached packed buffer shared across "
                            "evaluations; allocate a fresh output array")


class UnorderedPayloadIterationRule(Rule):
    """DL005: payload bytes must not depend on set/dict iteration order.

    ``to_payload``/``from_payload`` methods define the bytes that golden
    SHAs, cache keys and cross-process transport hash; iterating a ``set``
    (or the keys of a dict whose insertion order is not locally literal)
    makes those bytes run-dependent.  Wrap the iterable in ``sorted()``.
    """

    code = "DL005"
    name = "unordered-payload-iteration"
    summary = ("to_payload/from_payload may not iterate sets or non-literal "
               "dict keys unsorted; payload bytes must be order-deterministic")

    PAYLOAD_METHODS = ("to_payload", "from_payload")

    def _iter_exprs(self, func: ast.AST) -> Iterator[ast.expr]:
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield generator.iter

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        tracker = ctx.tracker
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in self.PAYLOAD_METHODS:
                continue
            for iter_expr in self._iter_exprs(node):
                if isinstance(iter_expr, ast.Call) \
                        and isinstance(iter_expr.func, ast.Name) \
                        and iter_expr.func.id in ("sorted", "enumerate", "zip",
                                                  "range", "reversed"):
                    continue
                tags = tracker.tags(iter_expr)
                if "set" in tags:
                    yield self.finding(
                        ctx, iter_expr,
                        f"iteration over a set inside {node.name}() makes the "
                        "payload order run-dependent; wrap it in sorted()")
                elif "dict_keys" in tags and "dict_literal" not in tags:
                    yield self.finding(
                        ctx, iter_expr,
                        f"iteration over .keys() of a non-literal dict inside "
                        f"{node.name}(); wrap it in sorted() so the payload "
                        "bytes are order-deterministic")


class FloatEqualityRule(Rule):
    """DL006: ``==``/``!=`` between floats hides tolerance decisions.

    Outside the intentional bit-exactness modules
    (:data:`FLOAT_EQUALITY_ALLOWED_MODULES`), exact float comparison is
    almost always a latent bug: values that are equal on one engine/platform
    differ in the last ulp on another.  Compare against a tolerance, or move
    the comparison into an allowlisted bit-exactness module.
    """

    code = "DL006"
    name = "float-equality-in-src"
    summary = ("exact ==/!= between float expressions outside the allowlisted "
               "bit-exactness modules")

    def _is_float(self, ctx: ModuleContext, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        return "float" in ctx.tracker.tags(node)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if any(ctx.rel.endswith(allowed)
               for allowed in FLOAT_EQUALITY_ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if self._is_float(ctx, left) or self._is_float(ctx, right):
                    yield self.finding(
                        ctx, node,
                        "exact float equality; compare against a tolerance "
                        "(math.isclose / np.isclose) or move the comparison "
                        "into an allowlisted bit-exactness module")


#: Every shipped rule, in code order (the ``--list`` / docs ordering).
ALL_RULES: List[Rule] = [
    NoGlobalRngRule(),
    NoWallclockSeedRule(),
    NarrowDtypeReductionRule(),
    CachedBufferMutationRule(),
    UnorderedPayloadIterationRule(),
    FloatEqualityRule(),
]

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}
