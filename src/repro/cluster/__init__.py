"""Simulated distributed substrate: cost model, metrics, cluster, errors."""

from .cost import CostModel
from .errors import OutOfMemoryError, OvertimeError, PlanError, ReproError
from .metrics import Metrics, RunReport
from .cluster import Cluster

__all__ = [
    "CostModel",
    "OutOfMemoryError",
    "OvertimeError",
    "PlanError",
    "ReproError",
    "Metrics",
    "RunReport",
    "Cluster",
]
