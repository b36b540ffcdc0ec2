"""The package's shape: the referee's imports and the public names.

The auditor is worth something only while it shares no code with the
engine, so ``analysis`` and ``trace`` may reach, through their own
imports and those of every package module they reach, none of the
engine's modules.  The imports are read from the source with ``ast``.
The package's ``__init__`` imports none of its modules, but a public
name read from it imports that name's home module at run time, so the
walk forbids the referee to import from ``__init__`` as well.  A fresh
interpreter then checks what importing the referee really loads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icosim
from icosim import analysis
from icosim.gas import GasSchedule

PACKAGE = Path(icosim.__file__).resolve().parent
ENGINE_SIDE = {"engine", "book", "pricing", "ledger", "gas", "agents", "scenario", "cli"}
FORBIDDEN = ENGINE_SIDE | {"__init__"}  # a name read from the root loads its home module


def _module(dotted: str) -> str | None:
    """A package module's short name (``__init__`` for the package), or None
    for anything outside the package."""
    parts = dotted.split(".")
    if parts[0] != "icosim":
        return None
    if len(parts) > 1 and (PACKAGE / f"{parts[1]}.py").exists():
        return parts[1]
    return "__init__"


def imported(source: str) -> set[str]:
    """The package modules ``source`` imports anywhere in it, by short name.
    ``from . import name`` imports the module ``name`` when there is one,
    and the package's ``__init__`` otherwise."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(_module(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:  # relative; the package has no subpackages
                base = f"icosim.{base}" if base else "icosim"
            for alias in node.names:
                found.add(_module(f"{base}.{alias.name}") if base == "icosim"
                          else _module(base))
    return found - {None}


def reachable(start: str, sources: dict[str, str] | None = None) -> set[str]:
    """Every package module reached from module ``start`` through imports,
    reading each module's source from ``sources`` or else from its file."""
    sources = sources or {}
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        source = sources.get(name) or (PACKAGE / f"{name}.py").read_text()
        for module in imported(source) - seen - {start}:
            seen.add(module)
            todo.append(module)
    return seen


class TestRefereeImports:
    @pytest.mark.parametrize("start", ["analysis", "trace"])
    def test_reaches_no_engine_module(self, start):
        assert reachable(start) & FORBIDDEN == set()

    def test_the_walk_sees_the_referee_imports(self):
        assert {"errors", "trace"} <= reachable("analysis")

    @pytest.mark.parametrize("line,flagged", [  # negative controls, appended to the referee
        ("from .gas import GasSchedule", {"gas", "ledger"}),  # the import the referee had
        ("from . import Sale", {"__init__"}),  # reading Sale from the root loads the engine
    ])
    def test_an_engine_import_is_flagged(self, line, flagged):
        source = (PACKAGE / "analysis.py").read_text() + f"\n{line}\n"
        assert reachable("analysis", {"analysis": source}) & FORBIDDEN == flagged

    @pytest.mark.parametrize("line,module", [
        ("from . import scenario as scenario_mod", "scenario"),
        ("from . import GasSchedule", "__init__"),
        ("import icosim.engine", "engine"),
        ("from icosim.book import HEAD", "book"),
        ("def late():\n    from .pricing import PriceCurve", "pricing"),
    ])
    def test_each_import_form_is_read(self, line, module):
        assert imported(line) == {module}

    @pytest.mark.parametrize("start,loaded", [
        ("analysis", {"icosim", "icosim.errors", "icosim.trace", "icosim.analysis"}),
        ("trace", {"icosim", "icosim.errors", "icosim.trace"}),
    ])
    def test_importing_the_referee_loads_no_engine_module(self, start, loaded):
        code = (f"import sys, icosim.{start}\n"
                "print(*(name for name in sys.modules if name.split('.')[0] == 'icosim'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                              timeout=60, check=True)
        assert set(done.stdout.split()) == loaded

    def test_default_block_limit_is_the_schedule_default(self):
        assert analysis.BLOCK_LIMIT == GasSchedule().block_limit
        assert analysis.SCENARIO_ECHOES["gas"]["block_limit"][1] == analysis.BLOCK_LIMIT
        assert analysis._Auditor().block_limit == analysis.BLOCK_LIMIT


PUBLIC_NAMES = [
    "Bid", "BidSpec", "BidStatus", "GasSchedule", "PriceCurve", "RefundLedger", "Sale",
    "SaleConfig", "ScenarioSpec", "SignalParams", "TableStep", "Trace", "UNIT",
    "ValuationTable", "__version__", "advantage_bound", "audit_trace", "bids_from_table",
    "breakeven_schedule", "breakeven_threshold", "committed_balance", "conservation_audit",
    "directional_bound", "manipulated_fraction", "min_granularity", "parse_scenario",
    "parse_scenario_file", "parse_trace", "pointer_move_capacity", "poke_capacity",
    "purchase_power", "run_scenario", "satisfaction_check", "signaling_advantage",
    "signaling_experiment", "table_from_bids", "truthful_fraction", "voluntary_refund",
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 38
    assert sorted(icosim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(icosim, name), name


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from icosim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(icosim.__all__)


def test_dir_lists_the_public_names():
    assert set(PUBLIC_NAMES) <= set(dir(icosim))


def test_other_names_are_missing():
    with pytest.raises(AttributeError, match="no_such_name"):
        icosim.no_such_name
