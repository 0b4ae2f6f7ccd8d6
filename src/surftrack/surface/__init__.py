"""Fixed-width lineage fingerprint surfaces."""

from .annotation import RecordSet, SurfaceAnnotation, residency, surface_records
from .genome import (
    FITNESS,
    TAGGED,
    GenomeColumns,
    GenomeFields,
    GenomeLayout,
    pack_genome,
    pack_genomes,
    unpack_genome,
    unpack_genomes,
)
from .sites import (
    POLICIES,
    hanoi_value,
    hybrid_site,
    resident_rank,
    site,
    steady_site,
    tilted_site,
    validate_slot_count,
)

__all__ = [
    "FITNESS",
    "GenomeColumns",
    "GenomeFields",
    "GenomeLayout",
    "POLICIES",
    "RecordSet",
    "SurfaceAnnotation",
    "TAGGED",
    "hanoi_value",
    "hybrid_site",
    "pack_genome",
    "pack_genomes",
    "resident_rank",
    "residency",
    "site",
    "steady_site",
    "surface_records",
    "tilted_site",
    "unpack_genome",
    "unpack_genomes",
    "validate_slot_count",
]
