"""What a build makes in bulk has a fixed layout: no instance carries a ``__dict__``.

The frozen records are slotted dataclasses and stay frozen, equal by value and
hashable; the component graph's ports, bindings and components and the
resource modules declare their ``__slots__``. ``AdlDefinition`` keeps its
``__dict__`` for its cached indexes; ``TraceEvent`` and ``Value`` are left as
they are.
"""

from __future__ import annotations

import dataclasses

import pytest

from reconfig import runtime
from reconfig.adl import AdlBinding, AdlComponent, AdlInterface, Diagnostic, parse_adl
from reconfig.corpus import MethodSig, TypeDef, TypeRef
from reconfig.factory import InfoPlan, ModulePlan, ResourcePlan
from reconfig.model import BindingRecord, ComponentInstance, InterfacePort, PortSpec
from reconfig.modules import DefinedType, ModuleEvent, ResourceModule
from reconfig.runtime import BenchReport, SwapRecord
from reconfig.script import Command, parse_script

from conftest import adl_path, build_architecture

RECORDS = (AdlInterface, AdlComponent, AdlBinding, Diagnostic, TypeRef, MethodSig, TypeDef,
           ResourcePlan, InfoPlan, ModulePlan, PortSpec, DefinedType, ModuleEvent, SwapRecord,
           BenchReport, Command)
GRAPH = (InterfacePort, BindingRecord, ComponentInstance, ResourceModule)


def _one_of_each() -> dict[type, object]:
    """One instance of each class above, each made the way a build, a swap, a bench or
    a script makes it."""
    arch, corpus, plan = build_architecture("hello_v1.fractal.xml", "hello_swap")
    definition = parse_adl(adl_path("hello_v1.fractal.xml").read_text(encoding="utf-8"))
    server = arch.component("server")
    made = [*plan.resources, *plan.infos, plan, *definition.interfaces, *definition.components,
            *definition.bindings, *corpus.entries(),
            *(ref for td in corpus.entries() for ref in td.references),
            *(m for td in corpus.entries() for m in td.methods),
            *arch.bindings, *server.interfaces, server,
            *arch.mgr.resource_modules(), server.content, *arch.mgr.events,
            PortSpec(server.interfaces[0].name, server.interfaces[0].role,
                     server.interfaces[0].signature),
            Diagnostic("ERROR", "E", "1:1", "message"),
            runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus),
            runtime.bench_interception(arch, 1),
            *parse_script("invoke HelloWorld.r run\nexpect-ok\n")]
    found = {}
    for obj in made:
        found.setdefault(type(obj), obj)
    return found


@pytest.fixture(scope="module")
def one_of_each():
    found = _one_of_each()
    assert found.keys() >= set(RECORDS + GRAPH), set(RECORDS + GRAPH) - found.keys()
    return found


@pytest.mark.parametrize("cls", RECORDS + GRAPH, ids=lambda cls: cls.__name__)
def test_each_bulk_class_declares_its_slots_and_its_instances_have_no_dict(cls, one_of_each):
    assert "__slots__" in vars(cls)
    assert not hasattr(one_of_each[cls], "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_each_slotted_record_stays_frozen_and_equal_by_value(cls, one_of_each):
    record = one_of_each[cls]
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, getattr(record, first))
    copy = dataclasses.replace(record)
    assert copy == record and copy is not record
    assert repr(copy) == repr(record)
    if cls is not InfoPlan and cls is not ModulePlan:  # they hold a dict, so never hash
        assert hash(copy) == hash(record)
