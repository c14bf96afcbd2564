"""Analysis passes over the merged semantic model."""

from passes.common import Index
from passes.wrap_safety import run_wrap_safety
from passes.serialization import run_serialization
from passes.determinism import run_determinism
from passes.concurrency import run_concurrency
from passes.structure import run_structure

#: check name -> pass entry point(index, scope) -> [Finding]
ALL_PASSES = {
    "wrap-safety": run_wrap_safety,
    "serialization": run_serialization,
    "determinism": run_determinism,
    "concurrency": run_concurrency,
    "structure": run_structure,
}

__all__ = ["Index", "ALL_PASSES"]
