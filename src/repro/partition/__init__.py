"""Vertex partitions and the meet operation (Appendix B)."""

from .partition import Partition, meet_all, meet_labels

__all__ = ["Partition", "meet_all", "meet_labels"]
