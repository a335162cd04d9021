"""Planning: the join tree and its Equation 3 view, Algorithm 1's
optimiser, the plans of existing systems, Algorithm 2's translation."""

from .tree import (CommMode, ExecutionPlan, JoinAlgorithm, PhysicalSetting,
                   PlanNode, configure_join)
from .optimiser import COST_STRATEGIES, Optimiser
from .plans import (benu_plan, bidirectional_path_plan, dfs_order,
                    emptyheaded_plan, graphflow_plan, greedy_order, rads_plan,
                    seed_plan, starjoin_plan, vertex_order_plan, wco_plan)
from .translate import order_chain, translate

__all__ = [
    "PlanNode",
    "CommMode",
    "ExecutionPlan",
    "JoinAlgorithm",
    "PhysicalSetting",
    "configure_join",
    "COST_STRATEGIES",
    "Optimiser",
    "benu_plan",
    "bidirectional_path_plan",
    "dfs_order",
    "greedy_order",
    "emptyheaded_plan",
    "graphflow_plan",
    "rads_plan",
    "seed_plan",
    "starjoin_plan",
    "vertex_order_plan",
    "wco_plan",
    "translate",
    "order_chain",
]
