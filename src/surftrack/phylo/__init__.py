"""Phylogeny reconstruction, serialization, and summary metrics."""
