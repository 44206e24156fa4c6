"""The scheme registry: every scheme name resolves here, and only here.

A scheme is registered under a short name (``"parallel"``,
``"distributed"``, ``"static"``, ``"diffusion"``, or anything a user adds)
together with a serializable :class:`SchemeSpec` describing its policy
composition; :func:`make_scheme` composes the spec's policies into the one
scheme class, :class:`ComposedScheme`.  Everything that
used to switch on scheme-name strings -- ``make_scheme``, the CLI
``--scheme`` choices, ``repro.quick_run``, the harness dispatchers and the
result cache's content address -- resolves through this module instead, so
registering a scheme once makes it reachable from run/compare/sweep/faults/
trace with zero harness changes.

>>> from repro.core.registry import SchemeSpec, register_scheme
>>> hybrid = SchemeSpec(name="dist-diffusion", weights="measured",
...                     decision="gain-cost", global_partition="proportional",
...                     local="diffusion")
>>> register_scheme(hybrid)                        # doctest: +SKIP
>>> run_sweep(cfg, schemes=("parallel", "dist-diffusion"))  # doctest: +SKIP

The spec -- not the bare name -- is what the result cache hashes
(:func:`scheme_cache_payload`), so re-registering a name with a different
composition can never serve stale cached results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple, Union

from .composed import ComposedScheme
from .policies import POLICY_REGISTRIES, build_policies

__all__ = [
    "SEQUENTIAL",
    "SchemeSpec",
    "register_scheme",
    "unregister_scheme",
    "available_schemes",
    "get_scheme_spec",
    "make_scheme",
    "scheme_cache_payload",
]

#: pseudo-scheme name for the one-processor ``E(1)`` reference run; it is
#: not a DLB scheme (nothing to balance on one processor) and therefore
#: never enters the registry, but the harness and cache accept it
SEQUENTIAL = "sequential"

_SPEC_FIELDS = ("name", "display", "weights", "decision", "global_partition",
                "local", "options")


@dataclass(frozen=True)
class SchemeSpec:
    """Serializable description of a scheme: a name plus one policy per axis.

    ``weights`` / ``decision`` / ``global_partition`` / ``local`` are short
    component names from :data:`~repro.core.policies.POLICY_REGISTRIES`;
    ``options`` carries constructor parameters routed to whichever policies
    accept them (e.g. ``{"sweeps": 2}`` for the diffusion local policy).
    ``display`` is the human-facing label (``RunResult.scheme``, obs span
    attributes); it defaults to the registry name.
    """

    name: str
    display: str = ""
    weights: str = "nominal"
    decision: str = "never"
    global_partition: str = "flat"
    local: str = "greedy"
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scheme name must be non-empty")
        # freeze a private copy so a caller's dict can't mutate the spec
        object.__setattr__(self, "options", dict(self.options))
        for axis in ("weights", "decision", "global_partition", "local"):
            name = getattr(self, axis)
            if name not in POLICY_REGISTRIES[axis]:
                known = ", ".join(sorted(POLICY_REGISTRIES[axis]))
                raise ValueError(
                    f"scheme {self.name!r}: unknown {axis} policy {name!r} "
                    f"(known: {known})"
                )

    @property
    def label(self) -> str:
        """Display label, falling back to the registry name."""
        return self.display or self.name

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the canonical serialization the cache hashes)."""
        return {
            "name": self.name,
            "display": self.display,
            "weights": self.weights,
            "decision": self.decision,
            "global_partition": self.global_partition,
            "local": self.local,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SchemeSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        unknown = set(payload) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(f"unknown SchemeSpec fields: {sorted(unknown)}")
        if "name" not in payload:
            raise ValueError("SchemeSpec payload must have a name")
        return cls(**dict(payload))


_REGISTRY: Dict[str, SchemeSpec] = {}


def register_scheme(spec: SchemeSpec, *, replace: bool = False) -> SchemeSpec:
    """Register ``spec`` under ``spec.name``; returns the spec for chaining.

    :func:`make_scheme` composes the spec's policies into a
    :class:`ComposedScheme`.  Re-registering a name raises unless
    ``replace=True`` (a silent overwrite would repoint every harness entry
    point at different behaviour).
    """
    if spec.name == SEQUENTIAL:
        raise ValueError(
            f"{SEQUENTIAL!r} is the reserved pseudo-scheme name"
        )
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"scheme {spec.name!r} is already registered "
            f"(pass replace=True to overwrite)"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scheme(name: str) -> None:
    """Remove a registered scheme (primarily for test cleanup)."""
    _REGISTRY.pop(name, None)


def available_schemes() -> Tuple[str, ...]:
    """Registered scheme names, sorted (the CLI ``--scheme`` vocabulary)."""
    return tuple(sorted(_REGISTRY))


def get_scheme_spec(name: str) -> SchemeSpec:
    """The spec registered under ``name``."""
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(available_schemes())
        raise ValueError(
            f"unknown scheme {name!r}; registered schemes: {known}"
        )
    return spec


def make_scheme(scheme: Union[str, SchemeSpec]) -> ComposedScheme:
    """Build a scheme instance from a registered name or an ad-hoc spec.

    Strings must be registered names (display labels such as
    ``"parallel DLB"`` are output only and raise :class:`ValueError`);
    a :class:`SchemeSpec` is composed as given, registered or not (e.g. a
    built-in with changed ``options``).
    """
    spec = scheme if isinstance(scheme, SchemeSpec) else get_scheme_spec(scheme)
    return ComposedScheme(spec, **build_policies(spec))


def scheme_cache_payload(scheme: str) -> Dict[str, Any]:
    """What the result cache hashes for a task's scheme.

    The full canonical spec rather than the bare name: two schemes
    registered under the same name with different policy compositions can
    never collide on a content address.  The ``sequential`` pseudo-scheme
    hashes a stable marker payload of its own.
    """
    if scheme == SEQUENTIAL:
        return {"pseudo": SEQUENTIAL}
    return get_scheme_spec(scheme).to_dict()


# ---------------------------------------------------------------------- #
# built-in schemes (docs/SCHEMES.md maps each to the paper)
# ---------------------------------------------------------------------- #

#: The baseline, *parallel DLB* (Lan, Taylor, Bryan; ICPP 2001).  Section
#: 2.3: "designed for efficient execution on homogeneous systems [...] the
#: workload of each group is evenly and equally distributed among the
#: processors" -- no groups, boundaries or network cost, so on a
#: distributed system it scatters child grids across the WAN (the Fig. 3
#: overhead the distributed scheme removes).  Nominal weights, LPT over
#: all processors, no global phase, group-oblivious greedy placement and
#: all-processor even rebalancing.
PARALLEL_SPEC = register_scheme(SchemeSpec(
    name="parallel",
    display="parallel DLB",
    weights="nominal",
    decision="never",
    global_partition="flat",
    local="greedy",
))

#: The paper's contribution, *distributed DLB* (Section 4, Fig. 4).  Local
#: phase: after each finer-level regrid each group rebalances its own grids
#: among its own processors, so children stay with their parents and no
#: remote parent-child traffic exists (4.1).  Global phase, once per
#: level-0 step: detect inter-group imbalance (Eqs. 2-3), probe the
#: inter-group network for (alpha, beta), and redistribute level-0 grids
#: proportionally to group capacity (Eq. 5) only when Gain (Eq. 4) >
#: gamma * Cost (Eq. 1) (4.4).  ``use_forecast`` smooths the probed link
#: parameters NWS-style (the Section 6 future-work item; off as in the
#: paper); ``initial_delta`` is the cost model's overhead prior before the
#: first redistribution is measured.
DISTRIBUTED_SPEC = register_scheme(SchemeSpec(
    name="distributed",
    display="distributed DLB",
    weights="measured",
    decision="gain-cost",
    global_partition="proportional",
    local="group",
    options={"initial_delta": 0.05, "use_forecast": False},
))

#: Static reference: distribute once, never rebalance.  Not in the paper's
#: comparison, but the lower bound every DLB paper implies; new grids stay
#: on their parent's processor, so all adaptation-induced imbalance
#: accumulates where the refining regions live (the ``value of DLB``
#: ablation).
STATIC_SPEC = register_scheme(SchemeSpec(
    name="static",
    display="static (no DLB)",
    weights="nominal",
    decision="never",
    global_partition="flat",
    local="sticky",
))

#: Diffusive DLB, the related-work family the paper positions itself
#: against (§1: Cybenko [7]; Elsasser et al.'s heterogeneous generalization
#: [9], which "does not address the heterogeneity and dynamicity of
#: networks").  First-order diffusion on the complete processor graph in
#: capacity-normalised load space, ``sweeps`` averaging steps per balancing
#: opportunity: the parallel scheme with the local policy swapped.
DIFFUSION_SPEC = register_scheme(SchemeSpec(
    name="diffusion",
    display="diffusion DLB",
    weights="nominal",
    decision="never",
    global_partition="flat",
    local="diffusion",
    options={"sweeps": 1},
))

#: Topology-aware, indivisibility-aware diffusion (Demirel & Sbalzarini,
#: "Balancing indivisible real-valued loads in arbitrary networks"):
#: neighbour sets from the system's NetworkTopology, transfers quantized to
#: whole grids with hysteresis so quantization residue cannot oscillate.
DIFFUSION_SOS_SPEC = register_scheme(SchemeSpec(
    name="diffusion:sos",
    display="second-order diffusion DLB",
    weights="nominal",
    decision="never",
    global_partition="flat",
    local="diffusion-sos",
    options={"sweeps": 2, "beta": 1.6, "hysteresis": 0.02},
))

DIFFUSION_DIMEX_SPEC = register_scheme(SchemeSpec(
    name="diffusion:dimex",
    display="dimension-exchange diffusion DLB",
    weights="nominal",
    decision="never",
    global_partition="flat",
    local="diffusion-dimex",
    options={"sweeps": 1, "hysteresis": 0.02},
))

#: Space-filling-curve DLB, the extreme-scale variant of the paper's scheme
#: (Schornbaum & Ruede's formulation of Eq. 5's split; see
#: ``repro.partition.sfc``).  Same gain/cost gate, but the global phase
#: re-cuts the level-0 curve across groups (only grids whose group changes
#: move) and the local phase re-cuts each group's curve-ordered grids into
#: weight-proportional processor segments.  The two specs differ only in
#: the curve: Morton (Z-order, cheapest keys) and Hilbert (Skilling
#: transform, strictly face-adjacent locality).
SFC_MORTON_SPEC = register_scheme(SchemeSpec(
    name="sfc:morton",
    display="SFC Morton DLB",
    weights="measured",
    decision="gain-cost",
    global_partition="sfc",
    local="sfc",
    options={"curve": "morton", "initial_delta": 0.05, "use_forecast": False},
))

SFC_HILBERT_SPEC = register_scheme(SchemeSpec(
    name="sfc:hilbert",
    display="SFC Hilbert DLB",
    weights="measured",
    decision="gain-cost",
    global_partition="sfc",
    local="sfc",
    options={"curve": "hilbert", "initial_delta": 0.05, "use_forecast": False},
))
