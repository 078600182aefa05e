"""Cluster substrate: clusters of node IDs and the multi-cluster platform."""
from .cluster import Cluster
from .platform import Platform

__all__ = ["Cluster", "Platform"]
