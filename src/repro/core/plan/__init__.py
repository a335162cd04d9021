"""Planning: logical join trees, Equation 3 physical settings, Algorithm 1
optimiser, plug-in plans of existing systems, Algorithm 2 translation."""

from .logical import LogicalPlan, PlanNode
from .physical import (CommMode, ExecutionPlan, JoinAlgorithm, PhysicalNode,
                       PhysicalSetting, configure_join, configure_plan)
from .optimiser import COST_STRATEGIES, Optimiser, optimal_plan
from .plans import (benu_plan, bidirectional_path_plan, dfs_order,
                    emptyheaded_plan, graphflow_plan, greedy_order, rads_plan,
                    seed_plan, starjoin_plan, vertex_order_plan, wco_plan)
from .translate import order_chain, translate

__all__ = [
    "LogicalPlan",
    "PlanNode",
    "CommMode",
    "ExecutionPlan",
    "JoinAlgorithm",
    "PhysicalNode",
    "PhysicalSetting",
    "configure_join",
    "configure_plan",
    "COST_STRATEGIES",
    "Optimiser",
    "optimal_plan",
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
