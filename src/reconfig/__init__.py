"""Versioned module loading, component architectures, and hot implementation swap."""

from .adl import (
    AdlBinding,
    AdlComponent,
    AdlDefinition,
    AdlInterface,
    Diagnostic,
    parse_adl,
    parse_component_fragment,
    render_adl,
    validate,
)
from .corpus import (
    CorpusStore,
    MethodSig,
    TypeDef,
    TypeKind,
    TypeRef,
    VersionTag,
    load_corpus,
    serialize_typedef,
    write_corpus,
)
from .errors import ReconfigError
from .factory import (
    ArchitectureInstance,
    Granularity,
    ModulePlan,
    instantiate,
    parse_granularity,
    plan_modules,
    render_plan,
)
from .model import (
    BindingRecord,
    ComponentInstance,
    ComponentKind,
    InterfacePort,
    PortSpec,
    Role,
    bind,
    check_binding,
    new_composite,
    new_primitive,
    unbind,
)
from .modules import (
    DefinedType,
    ModuleEvent,
    ModuleId,
    ModuleManager,
    replay_live_set,
    same_type,
)
from .runtime import (
    BenchReport,
    SwapRecord,
    TraceEvent,
    Value,
    add_component,
    bench_interception,
    invoke,
    rebind,
    remove_component,
    serialize_trace,
    swap_implementation,
)

__version__ = "0.1.0"
