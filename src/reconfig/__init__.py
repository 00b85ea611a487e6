"""Versioned module loading, component architectures, and hot implementation swap.

The package root exports exactly the names README's "Library use" block
imports from it. Every other name comes from its own module: ``reconfig.adl``,
``corpus``, ``errors``, ``factory``, ``model``, ``modules``, ``runtime``,
``script`` and ``cli``.
"""

from .adl import parse_adl, validate
from .corpus import load_corpus
from .factory import Granularity, instantiate, plan_modules
from .modules import ModuleManager
