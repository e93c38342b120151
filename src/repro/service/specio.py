"""Old import path of :mod:`repro.harness.specio`, kept as a re-export.

The spec codec describes an ExperimentSpec, not an HTTP concern, so
it lives in the harness; this module only keeps the repo benchmark's
import working and goes with ROADMAP item 5's benchmark change.
"""

from repro.harness.specio import (  # noqa: F401
    DEFAULTS,
    SpecError,
    canonical_json,
    canonical_spec,
    spec_from_dict,
    spec_hash,
)

__all__ = [
    "DEFAULTS",
    "SpecError",
    "canonical_json",
    "canonical_spec",
    "spec_from_dict",
    "spec_hash",
]
