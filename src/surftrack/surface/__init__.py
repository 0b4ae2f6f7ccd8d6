"""Fixed-width lineage fingerprint surfaces."""
