"""The scheme registry: every scheme name resolves here, and only here.

A scheme is registered under a short name (``"parallel"``,
``"distributed"``, ``"static"``, ``"diffusion"``, or anything a user adds)
together with a serializable :class:`SchemeSpec` describing its policy
composition and a factory building the scheme instance.  Everything that
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
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from .base import DLBScheme
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


SchemeFactory = Callable[[SchemeSpec], DLBScheme]


@dataclass(frozen=True)
class _Registration:
    spec: SchemeSpec
    factory: SchemeFactory


_REGISTRY: Dict[str, _Registration] = {}


def _ensure_builtins() -> None:
    """Import the built-in scheme modules so they self-register.

    Function-level imports: the scheme modules import this module at their
    top level, so eager imports here would be circular.
    """
    from . import (  # noqa: F401
        diffusion_dlb,
        distributed_dlb,
        parallel_dlb,
        sfc_dlb,
        static_dlb,
    )


def _build_composed(spec: SchemeSpec) -> DLBScheme:
    return ComposedScheme(spec, **build_policies(spec))


def register_scheme(
    spec: SchemeSpec,
    factory: Optional[SchemeFactory] = None,
    *,
    replace: bool = False,
) -> SchemeSpec:
    """Register ``spec`` under ``spec.name``; returns the spec for chaining.

    ``factory`` builds the scheme instance from the spec; the default
    composes the spec's policies into a plain :class:`ComposedScheme`.
    Re-registering a name raises unless ``replace=True`` (a silent
    overwrite would repoint every harness entry point at different
    behaviour).
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
    _REGISTRY[spec.name] = _Registration(
        spec, factory if factory is not None else _build_composed
    )
    return spec


def unregister_scheme(name: str) -> None:
    """Remove a registered scheme (primarily for test cleanup)."""
    _REGISTRY.pop(name, None)


def available_schemes() -> Tuple[str, ...]:
    """Registered scheme names, sorted (the CLI ``--scheme`` vocabulary)."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def _registration(name: str) -> _Registration:
    _ensure_builtins()
    reg = _REGISTRY.get(name)
    if reg is None:
        known = ", ".join(available_schemes())
        raise ValueError(
            f"unknown scheme {name!r}; registered schemes: {known}"
        )
    return reg


def get_scheme_spec(name: str) -> SchemeSpec:
    """The spec registered under ``name``."""
    return _registration(name).spec


def make_scheme(scheme: Union[str, SchemeSpec]) -> DLBScheme:
    """Build a scheme instance from a registered name or an ad-hoc spec.

    Strings must be registered names (display labels such as
    ``"parallel DLB"`` are output only and raise :class:`ValueError`);
    passing a :class:`SchemeSpec` composes it directly -- registered specs
    use their registered factory, unregistered ones compose generically.
    """
    if isinstance(scheme, SchemeSpec):
        _ensure_builtins()
        reg = _REGISTRY.get(scheme.name)
        if reg is not None and reg.spec == scheme:
            return reg.factory(reg.spec)
        return _build_composed(scheme)
    reg = _registration(scheme)
    return reg.factory(reg.spec)


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
