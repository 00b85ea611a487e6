"""Error taxonomy shared by every layer.

Each error exposes a stable ``code`` string (the class name unless overridden)
so CLI scripts can assert on failures without parsing messages.
"""

from __future__ import annotations


class ReconfigError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- corpus / typedef store ---------------------------------------------------

class MalformedTypeDef(ReconfigError):
    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class DuplicateTypeDef(ReconfigError):
    def __init__(self, name: str, version, path1, path2):
        super().__init__(f"duplicate typedef {name}@{version}: {path1} and {path2}")
        self.name = name
        self.version = version
        self.path1 = path1
        self.path2 = path2


class NotFound(ReconfigError):
    def __init__(self, name: str, version=None, chain=()):
        at = f"{name}@{version}" if version is not None else name
        via = f" (via {' -> '.join(chain)})" if chain else ""
        super().__init__(f"no typedef {at}{via}")
        self.name = name
        self.version = version
        self.chain = tuple(chain)


class AmbiguousVersion(ReconfigError):
    def __init__(self, name: str, versions, chain=()):
        vs = ", ".join(str(v) for v in versions)
        via = f" (via {' -> '.join(chain)})" if chain else ""
        super().__init__(f"{name} has several versions ({vs}); reference must pin one{via}")
        self.name = name
        self.versions = tuple(versions)
        self.chain = tuple(chain)


# --- module system ------------------------------------------------------------

class UnresolvableExport(ReconfigError):
    def __init__(self, name: str, version):
        super().__init__(f"export {name}@{version} not present in the module's source")
        self.name = name
        self.version = version


class ConflictingExports(ReconfigError):
    """A single module may define at most one version per type name."""

    def __init__(self, name: str, v1, v2):
        super().__init__(f"module would export {name} twice ({v1} and {v2})")
        self.name = name
        self.versions = (v1, v2)


class AmbiguousImport(ReconfigError):
    def __init__(self, name: str, version, candidates):
        ids = ", ".join(str(c) for c in candidates)
        super().__init__(f"{name}@{version} is exported by several modules: {ids}")
        self.name = name
        self.version = version
        self.candidates = tuple(candidates)


class NotImported(ReconfigError):
    def __init__(self, name: str):
        super().__init__(f"type {name} is not wired into this module")
        self.name = name


class InUse(ReconfigError):
    def __init__(self, module_id, dependents):
        ids = ", ".join(str(d) for d in dependents)
        super().__init__(f"module {module_id} is wired by live modules: {ids}")
        self.module_id = module_id
        self.dependents = tuple(dependents)


class UnknownModule(ReconfigError):
    def __init__(self, module_id):
        super().__init__(f"no live module {module_id}")
        self.module_id = module_id


# --- component model ----------------------------------------------------------

class ContentNotAClass(ReconfigError):
    def __init__(self, name: str):
        super().__init__(f"content {name} is not a class typedef")
        self.name = name


class SignatureNotInterface(ReconfigError):
    def __init__(self, name: str):
        super().__init__(f"port signature {name} is not an interface typedef")
        self.name = name


class MissingMethod(ReconfigError):
    def __init__(self, interface: str, method: str):
        super().__init__(f"content does not implement {interface}.{method}")
        self.interface = interface
        self.method = method


class EmptyComposite(ReconfigError):
    def __init__(self, name: str):
        super().__init__(f"composite {name} must have at least one child")
        self.name = name


class RoleError(ReconfigError):
    def __init__(self, detail: str):
        super().__init__(detail)


class TypeMismatch(ReconfigError):
    """Two ends resolve a type name to different defining modules."""

    def __init__(self, type_name: str, left_module, right_module, detail: str = ""):
        extra = f" ({detail})" if detail else ""
        super().__init__(
            f"type {type_name} is defined by {left_module} on one side "
            f"and {right_module} on the other{extra}"
        )
        self.type_name = type_name
        self.left_module = left_module
        self.right_module = right_module


class AlreadyBound(ReconfigError):
    def __init__(self, port: str):
        super().__init__(f"client port {port} is already bound")
        self.port = port


class UnknownBinding(ReconfigError):
    def __init__(self):
        super().__init__("binding is not live")


class DuplicatePort(ReconfigError):
    def __init__(self, component: str, port: str):
        super().__init__(f"{component} declares port {port} twice")


class NotAChild(ReconfigError):
    def __init__(self, child: str, composite: str):
        super().__init__(f"{child} is not a child of {composite}")


class CrossBindingExists(ReconfigError):
    def __init__(self, bindings):
        super().__init__(f"{len(bindings)} live binding(s) cross the composite boundary")
        self.bindings = tuple(bindings)


class ContainmentCycle(ReconfigError):
    def __init__(self, composite: str, child: str):
        super().__init__(f"adding {child} under {composite} would create a containment cycle")


class UnsupportedBindingKind(ReconfigError):
    def __init__(self, kind: str):
        super().__init__(f"binding kind {kind} is not supported (only primitive bindings exist)")
        self.kind = kind


# --- ADL ------------------------------------------------------------------

class AdlError(ReconfigError):
    """Base for ADL text errors; always carries a position."""

    def __init__(self, line: int, col: int, detail: str):
        super().__init__(f"{line}:{col}: {detail}")
        self.line = line
        self.col = col
        self.detail = detail


class ParseError(AdlError):
    def __init__(self, line: int, col: int, expected: str):
        super().__init__(line, col, f"expected {expected}")
        self.expected = expected


class UnknownElement(AdlError):
    def __init__(self, line: int, col: int, tag: str):
        super().__init__(line, col, f"unknown element <{tag}>")
        self.tag = tag


class UnknownAttribute(AdlError):
    def __init__(self, line: int, col: int, attr: str):
        super().__init__(line, col, f"unknown attribute {attr}")
        self.attr = attr


# --- factory / runtime ----------------------------------------------------

class VersionConflict(ReconfigError):
    def __init__(self, name: str, v1, v2, where: str = ""):
        at = f" in {where}" if where else ""
        super().__init__(f"{name} is required at both {v1} and {v2}{at}")
        self.name = name
        self.versions = (v1, v2)


class InstantiationError(ReconfigError):
    """Wraps a lower-level failure with the ADL location being built."""

    def __init__(self, location: str, cause: Exception):
        super().__init__(f"at {location}: {cause}")
        self.location = location
        self.cause = cause

    @property
    def code(self) -> str:
        return getattr(self.cause, "code", type(self.cause).__name__)


class UnknownComponent(ReconfigError):
    def __init__(self, name: str):
        super().__init__(f"no component named {name}")
        self.name = name


class DuplicateComponent(ReconfigError):
    def __init__(self, name: str):
        super().__init__(f"component {name} already exists")
        self.name = name


class UnknownPort(ReconfigError):
    def __init__(self, component: str, port: str | None = None):
        # Without ``port``, ``component`` is a whole spec that has no dot.
        super().__init__(f"port spec {component!r} is not component.port" if port is None
                         else f"component {component} has no port {port}")


class UnboundInterface(ReconfigError):
    def __init__(self, component: str, port: str):
        super().__init__(f"port {component}.{port} is not bound")


class UnknownMethod(ReconfigError):
    def __init__(self, signature: str, method: str):
        super().__init__(f"interface {signature} has no method {method}")


class ArityError(ReconfigError):
    def __init__(self, method: str, expected: int, got: int):
        super().__init__(f"{method} takes {expected} argument(s), got {got}")


class NotAPrimitive(ReconfigError):
    def __init__(self, name: str):
        super().__init__(f"component {name} is not a primitive")


class GranularityForbidsSwap(ReconfigError):
    def __init__(self, operation: str = "swap"):
        super().__init__(f"single-loader architectures do not support {operation}")


class ReconfigDuringCall(ReconfigError):
    def __init__(self):
        super().__init__("reconfiguration is forbidden while an invocation is in progress")


class CallDepthExceeded(ReconfigError):
    def __init__(self, depth: int):
        super().__init__(f"invocation exceeded the maximum traversal depth ({depth})")


class InvariantViolation(ReconfigError):
    """A state invariant failed to hold; the operation that broke it is refused."""


class ScriptError(ReconfigError):
    def __init__(self, line: int, detail: str):
        super().__init__(f"script line {line}: {detail}")
        self.line = line
