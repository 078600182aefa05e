"""Synthetic workload generation."""
from .generator import RigidJobSpec, WorkloadParameters, generate_rigid_workload

__all__ = ["RigidJobSpec", "WorkloadParameters", "generate_rigid_workload"]
