"""Take-rate optimization for two competing constant-product AMM pools.

The package answers one question in two independent ways: which fraction of
trading-fee revenue can a pool's protocol keep for itself before liquidity
providers and trade volume defect to a competitor?  ``analytical`` solves the
liquidity equilibrium in closed form; ``simulation`` replays a trade trace
with optimal routing, loyal traders and arbitrage; ``cpmm`` supplies the pool
mechanics both build on; ``data_io`` and ``cli`` wrap it all for scenario
files and the command line.
"""

from .analytical import (
    DegeneratePoolError,
    EquilibriumResult,
    IndeterminateEquilibriumError,
    ModelParams,
    equilibrium_curve,
    equilibrium_share,
    lp_roi,
    optimal_take_rate,
    pool_volumes,
    protocol_revenue,
    solve_equilibrium,
)
from .cpmm import (
    ArbTrade,
    PoolState,
    RouteSplit,
    arbitrage,
    execute_swap,
    optimal_split,
    quote,
)
from .data_io import (
    ConfigError,
    ScenarioConfig,
    SyntheticSpec,
    TraceFormatError,
    generate_trades,
    load_config,
    load_trades,
    resolve_trades,
    save_trades,
)
from .simulation import (
    SimOutcome,
    SweepCurve,
    Trace,
    TraceScaleError,
    assign_sticky,
    find_equilibrium,
    replay_trades,
    sweep_take_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ArbTrade",
    "ConfigError",
    "DegeneratePoolError",
    "EquilibriumResult",
    "IndeterminateEquilibriumError",
    "ModelParams",
    "PoolState",
    "RouteSplit",
    "ScenarioConfig",
    "SimOutcome",
    "SweepCurve",
    "SyntheticSpec",
    "Trace",
    "TraceFormatError",
    "TraceScaleError",
    "arbitrage",
    "assign_sticky",
    "equilibrium_curve",
    "equilibrium_share",
    "execute_swap",
    "find_equilibrium",
    "generate_trades",
    "load_config",
    "load_trades",
    "lp_roi",
    "optimal_split",
    "optimal_take_rate",
    "pool_volumes",
    "protocol_revenue",
    "quote",
    "replay_trades",
    "resolve_trades",
    "save_trades",
    "solve_equilibrium",
    "sweep_take_rate",
    "__version__",
]
