"""Lightweight inferred-type / alias tracking for the lint rules.

The determinism and aliasing contracts this package enforces are about
*where a value came from*: a ``.sum()`` is only dangerous when the receiver
is a narrow unsigned bit tensor, a slice assignment is only a bug when the
target aliases a cached packed buffer.  Full type inference is neither
needed nor wanted (no third-party deps); what the rules need is provenance
— "this name was assigned from ``unpack_bits``", "this expression is a view
of ``PackedBitTensor.bits``" — which a single forward pass over each scope's
assignments recovers well enough.

The tracker attaches a *tag set* to expressions:

``uint8`` / ``uint16``
    the value is (a view of) a narrow unsigned array — ``unpack_bits``
    results, ``astype(np.uint8)``, ``np.zeros(..., dtype=np.uint8)``,
    ``PackedBitTensor.bits`` and slices thereof;
``cached``
    the value aliases a registered shared/cached buffer
    (:data:`CACHED_METHODS` / :data:`CACHED_ATTRS`) that must never be
    mutated; ``.copy()`` launders the tag, views/slices keep it;
``packed``
    the value is a :class:`~repro.accelerator.scheduler.PackedBitTensor`
    (so its registered attributes pick up ``cached``);
``float``
    the value is float-typed (float literals, ``float(...)``, true
    division, arithmetic with a float operand);
``set`` / ``dict_literal`` / ``dict_keys``
    iteration-order provenance for the payload-determinism rule.

Tags propagate through assignment (``x = packed.bits`` tags ``x``),
subscripts/views (a slice of a cached buffer is still cached) and selected
numpy calls (``np.asarray`` may return its argument unchanged, so it keeps
the alias tags).  The pass is per-scope and flow-insensitive: each
function's environment is the union of everything assigned to a name in
that function, which trades a little precision for a tracker that is a few
hundred lines and has no false negatives on the patterns the rules target.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set

#: Zero-argument methods whose results are cached on the receiver and shared
#: across policy evaluations / sweep jobs — mutating them corrupts every
#: later consumer in the process.
CACHED_METHODS: FrozenSet[str] = frozenset({
    "rows_ones", "rows_writes", "valid_mask",
})

#: Methods returning the shared :class:`PackedBitTensor` itself.
PACKED_METHODS: FrozenSet[str] = frozenset({"packed_bits", "_packed"})

#: Functions (by bare name) returning a shared packed stream.
PACKED_FACTORIES: FrozenSet[str] = frozenset({
    "build_workload_stream", "synthetic_weight_stream",
})

#: Classes whose instances are packed tensors (``self`` inside their methods
#: is tagged ``packed`` so internal aliasing is tracked too).
PACKED_CLASSES: FrozenSet[str] = frozenset({"PackedBitTensor"})

#: Attributes of a packed tensor that alias its long-lived internal arrays.
CACHED_ATTRS: FrozenSet[str] = frozenset({
    "bits", "regions", "valid_words", "word_offsets",
})

#: Narrow-dtype attribute map: ``packed.bits`` is a uint8 bit tensor.
_UINT8_ATTRS: FrozenSet[str] = frozenset({"bits"})

#: Functions (by bare name) whose result is a uint8 bit array.
_UINT8_FACTORIES: FrozenSet[str] = frozenset({"unpack_bits", "random_bits"})

#: numpy constructors that take a ``dtype=`` keyword.
_NP_ARRAY_BUILDERS: FrozenSet[str] = frozenset({
    "zeros", "ones", "empty", "full", "zeros_like", "ones_like",
    "empty_like", "full_like", "array",
})

#: numpy converters that may return their argument *unchanged* (an alias).
_NP_PASSTHROUGH: FrozenSet[str] = frozenset({
    "asarray", "ascontiguousarray", "asanyarray", "atleast_1d",
})

#: ndarray methods that return a view of the receiver (alias tags survive).
_VIEW_METHODS: FrozenSet[str] = frozenset({
    "reshape", "view", "ravel", "transpose", "swapaxes", "squeeze",
})

#: ndarray methods whose result is a fresh array (alias tags are laundered;
#: dtype tags survive where the dtype is preserved).
_FRESH_METHODS: FrozenSet[str] = frozenset({"copy"})


def _dtype_tag(node: Optional[ast.expr]) -> Optional[str]:
    """Map a ``dtype=`` argument expression to a narrow-dtype tag."""
    if node is None:
        return None
    if isinstance(node, ast.Attribute) and node.attr in ("uint8", "uint16"):
        return node.attr
    if isinstance(node, ast.Constant) and node.value in ("uint8", "uint16"):
        return str(node.value)
    return None


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


class Scope:
    """One lexical scope: its environment and (for methods) the owning class."""

    def __init__(self, node: ast.AST, parent: Optional["Scope"],
                 class_name: Optional[str] = None):
        self.node = node
        self.parent = parent
        self.class_name = class_name
        self.env: Dict[str, Set[str]] = {}

    def lookup(self, name: str) -> FrozenSet[str]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.env:
                return frozenset(scope.env[name])
            scope = scope.parent
        return frozenset()


class ProvenanceTracker:
    """Per-module provenance: scope environments plus an expression oracle.

    Build one per module, then call :meth:`tags` on any expression node of
    the module's tree.  ``import`` bindings are resolved through
    :meth:`resolve_call_path` so rules can match fully-qualified call
    targets (``numpy.random.seed``, ``time.time``) independently of local
    aliasing (``import numpy as np``, ``from time import time``).
    """

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.module_scope = Scope(tree, None)
        self._scope_of: Dict[int, Scope] = {}
        self.imports: Dict[str, str] = {}
        self._collect_imports(tree)
        self._walk_scope(tree, self.module_scope)

    # -- construction ---------------------------------------------------- #
    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    def _walk_scope(self, node: ast.AST, scope: Scope,
                    class_name: Optional[str] = None) -> None:
        """Register descendants with ``scope``, recursing into sub-scopes."""
        for child in ast.iter_child_nodes(node):
            self._scope_of[id(child)] = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = Scope(child, scope, class_name=class_name)
                self._scope_of[id(child)] = scope  # the def itself
                self._walk_scope(child, inner)
            elif isinstance(child, ast.Lambda):
                inner = Scope(child, scope, class_name=class_name)
                self._walk_scope(child, inner)
            elif isinstance(child, ast.ClassDef):
                self._walk_scope(child, scope, class_name=child.name)
            else:
                self._record_assignment(child, scope)
                self._walk_scope(child, scope, class_name=class_name)

    def _record_assignment(self, node: ast.AST, scope: Scope) -> None:
        if isinstance(node, ast.Assign):
            tags = self._infer(node.value, scope)
            if not tags:
                return
            for target in node.targets:
                if isinstance(target, ast.Name):
                    scope.env.setdefault(target.id, set()).update(tags)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                tags = self._infer(node.value, scope)
                if tags:
                    scope.env.setdefault(node.target.id, set()).update(tags)

    # -- queries ---------------------------------------------------------- #
    def scope_for(self, node: ast.AST) -> Scope:
        return self._scope_of.get(id(node), self.module_scope)

    def tags(self, node: ast.expr) -> FrozenSet[str]:
        """Provenance tags of an expression node (empty set when unknown)."""
        return frozenset(self._infer(node, self.scope_for(node)))

    def resolve_call_path(self, node: ast.expr) -> Optional[str]:
        """Resolve an attribute/name chain to a dotted module path.

        ``np.random.seed`` (under ``import numpy as np``) resolves to
        ``"numpy.random.seed"``; ``datetime.now`` (under ``from datetime
        import datetime``) resolves to ``"datetime.datetime.now"``.  Returns
        ``None`` when the chain's base is not an imported module binding.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.imports.get(current.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    # -- inference -------------------------------------------------------- #
    def _infer(self, node: ast.expr, scope: Scope) -> Set[str]:
        if isinstance(node, ast.Name):
            tags = set(scope.lookup(node.id))
            if node.id == "self" and scope.class_name in PACKED_CLASSES:
                tags.add("packed")
            return tags
        if isinstance(node, ast.Constant):
            return {"float"} if isinstance(node.value, float) else set()
        if isinstance(node, ast.Attribute):
            base = self._infer(node.value, scope)
            tags: Set[str] = set()
            if "packed" in base and node.attr in CACHED_ATTRS:
                tags.add("cached")
                if node.attr in _UINT8_ATTRS:
                    tags.add("uint8")
            if node.attr == "T":
                # transpose view: aliasing and dtype survive
                tags |= base & {"cached", "uint8", "uint16"}
            return tags
        if isinstance(node, ast.Subscript):
            # A slice/fancy-index of a cached or narrow array keeps both
            # properties (basic slices are views; advanced indexing copies,
            # but staying conservative here only costs an explicit .copy()).
            base = self._infer(node.value, scope)
            return base & {"cached", "uint8", "uint16", "packed", "float"}
        if isinstance(node, ast.Call):
            return self._infer_call(node, scope)
        if isinstance(node, ast.BinOp):
            left = self._infer(node.left, scope)
            right = self._infer(node.right, scope)
            if isinstance(node.op, ast.Div) or "float" in (left | right):
                return {"float"}
            return set()
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand, scope) & {"float", "uint8", "uint16"}
        if isinstance(node, ast.IfExp):
            return self._infer(node.body, scope) | self._infer(node.orelse, scope)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return {"set"}
        if isinstance(node, ast.Dict):
            return {"dict_literal"}
        if isinstance(node, ast.NamedExpr):
            return self._infer(node.value, scope)
        return set()

    def _infer_call(self, node: ast.Call, scope: Scope) -> Set[str]:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in _UINT8_FACTORIES:
                return {"uint8"}
            if name in PACKED_FACTORIES or name in PACKED_CLASSES:
                return {"packed"}
            if name == "float":
                return {"float"}
            if name in ("set", "frozenset"):
                return {"set"}
            if name == "dict":
                # dict(k=v, ...) has literal insertion order; dict(other)
                # inherits whatever order ``other`` carries.
                if not node.args:
                    return {"dict_literal"}
                return set()
            if name == "sorted":
                return set()
            return set()
        if isinstance(func, ast.Attribute):
            attr = func.attr
            receiver = self._infer(func.value, scope)
            if attr in CACHED_METHODS:
                return {"cached"}
            if attr in PACKED_METHODS:
                return {"packed"}
            if attr == "from_stream" and isinstance(func.value, ast.Name) \
                    and func.value.id in PACKED_CLASSES:
                return {"packed"}
            if attr == "keys":
                tags = {"dict_keys"}
                if "dict_literal" in receiver:
                    tags.add("dict_literal")
                return tags
            if attr == "astype":
                dtype = _dtype_tag(node.args[0] if node.args
                                   else _keyword(node, "dtype"))
                # astype(..., copy=False) may hand back the receiver itself,
                # so the aliasing tag survives unless the copy is forced.
                copy_kw = _keyword(node, "copy")
                forced_copy = not (isinstance(copy_kw, ast.Constant)
                                   and copy_kw.value is False)
                tags = set() if forced_copy else receiver & {"cached"}
                if dtype:
                    tags.add(dtype)
                return tags
            if attr in _VIEW_METHODS:
                return receiver & {"cached", "uint8", "uint16"}
            if attr in _FRESH_METHODS:
                return receiver & {"uint8", "uint16", "float"}
            # numpy module-level helpers
            path = self.resolve_call_path(func)
            if path and path.startswith("numpy."):
                short = path[len("numpy."):]
                if short in _NP_ARRAY_BUILDERS:
                    dtype = _dtype_tag(_keyword(node, "dtype"))
                    return {dtype} if dtype else set()
                if short in _NP_PASSTHROUGH:
                    dtype = _dtype_tag(_keyword(node, "dtype"))
                    arg_tags = (self._infer(node.args[0], scope)
                                if node.args else set())
                    tags = arg_tags & {"cached", "uint8", "uint16", "float"}
                    if dtype:
                        tags -= {"uint8", "uint16"}
                        tags.add(dtype)
                    return tags
            return set()
        return set()

