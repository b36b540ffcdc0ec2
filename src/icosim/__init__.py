"""Deterministic simulator for an interactive coin offering.

Capped bids with optional activation minimums, an inflation ramp with
voluntary-withdrawal penalties, and a gas-bounded bucketed order book
whose valuation pointer only moves forward.  See the README for the
scenario file format and CLI usage; the root imports none of its modules.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> home module, imported on first use ("module.attribute" if named otherwise)
_HOMES = {name: home for home, names in [
    ("engine", "Sale SaleConfig"),
    ("gas", "GasSchedule min_granularity pointer_move_capacity poke_capacity"),
    ("ledger", "UNIT Bid BidStatus RefundLedger conservation_audit"),
    ("pricing", "PriceCurve committed_balance purchase_power voluntary_refund"),
    ("scenario", "ScenarioSpec TableStep ValuationTable"),
    ("scenario.parse", "parse_scenario"), ("scenario.parse_file", "parse_scenario_file"),
    ("trace", "Trace parse_trace"),
    ("analysis", "audit_trace satisfaction_check"),
    ("agents", "BidSpec bids_from_table table_from_bids run_scenario SignalParams"
               " signaling_advantage truthful_fraction manipulated_fraction advantage_bound"
               " directional_bound breakeven_threshold breakeven_schedule signaling_experiment"),
] for name in names.split()}
__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _HOMES[name].partition(".")
    return getattr(import_module(f"{__name__}.{module}"), attr or name)


def __dir__():
    return sorted({*globals(), *_HOMES})
