"""Deterministic simulator for an interactive coin offering.

Capped bids with optional activation minimums, an inflation ramp with
voluntary-withdrawal penalties, and a gas-bounded bucketed order book
whose valuation pointer only moves forward.  See the README for the
scenario file format and CLI usage.
"""

from .agents import (
    BidSpec, SignalParams, advantage_bound, bids_from_table, breakeven_schedule,
    breakeven_threshold, directional_bound, manipulated_fraction, run_scenario,
    signaling_advantage, signaling_experiment, table_from_bids, truthful_fraction,
)
from .analysis import audit_trace, satisfaction_check
from .engine import Sale, SaleConfig
from .gas import GasSchedule, min_granularity, pointer_move_capacity, poke_capacity
from .ledger import UNIT, Bid, BidStatus, RefundLedger, conservation_audit
from .pricing import PriceCurve, committed_balance, purchase_power, voluntary_refund
from .scenario import ScenarioSpec, TableStep, ValuationTable
from .scenario import parse_file as parse_scenario_file
from .scenario import parse as parse_scenario
from .trace import Trace, parse_trace

__version__ = "0.1.0"

__all__ = [
    "Sale", "SaleConfig", "GasSchedule", "PriceCurve", "Bid",
    "BidStatus", "RefundLedger", "UNIT", "conservation_audit",
    "purchase_power", "voluntary_refund", "committed_balance",
    "pointer_move_capacity", "poke_capacity", "min_granularity",
    "SignalParams", "signaling_advantage", "truthful_fraction",
    "manipulated_fraction", "advantage_bound", "directional_bound",
    "breakeven_threshold", "breakeven_schedule", "satisfaction_check",
    "audit_trace", "ValuationTable", "TableStep", "BidSpec",
    "bids_from_table", "table_from_bids", "run_scenario",
    "signaling_experiment", "ScenarioSpec", "parse_scenario",
    "parse_scenario_file", "Trace", "parse_trace",
    "__version__",
]
