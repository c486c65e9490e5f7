"""The unified engine-spec API: one value naming the evaluation engine.

:class:`EngineSpec` gathers every engine knob — the mapper engine and the
two cost caches — into one frozen value object with a compact string
grammar, the ``--engine`` flag on ``repro search/sweep/profile/serve``::

    MAPPER[:key=value[,key=value...]]

    --engine graph-batched                      # the default engine
    --engine scalar                             # bit-for-bit reference loop
    --engine graph-batched:op_cache=off,region_cache=off

``MAPPER`` is ``scalar`` (the pure-Python reference loop) or
``graph-batched`` (one stacked NumPy candidate sweep per trial); the keys
are ``op_cache`` and ``region_cache`` (booleans:
``on/off/true/false/yes/no/1/0``).  The op store's path is not an engine
knob: it is ``--op-cache PATH``.  ``str()`` of a spec is canonical and
round-trips through :meth:`EngineSpec.parse`, omitting values that equal the
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["EngineSpec", "MAPPER_MODES", "DEFAULT_ENGINE"]

#: Mapper engines: the scalar reference and the graph-batched NumPy sweep.
MAPPER_MODES: Tuple[str, ...] = ("scalar", "graph-batched")

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _parse_bool(key: str, word: str) -> bool:
    lowered = word.strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(
        f"engine spec: {key} must be a boolean "
        f"(on/off/true/false/yes/no/1/0), got {word!r}"
    )


@dataclass(frozen=True)
class EngineSpec:
    """One immutable value describing the whole evaluation engine."""

    mapper: str = "graph-batched"
    op_cache: bool = True
    region_cache: bool = True

    def __post_init__(self) -> None:
        if self.mapper not in MAPPER_MODES:
            raise ValueError(
                f"unknown mapper {self.mapper!r} "
                f"(expected one of: {', '.join(MAPPER_MODES)})"
            )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "EngineSpec":
        """Parse the ``MAPPER[:key=value,...]`` grammar (see module doc)."""
        text = (text or "").strip()
        if not text:
            return cls()
        head, _, tail = text.partition(":")
        head = head.strip()
        if "=" in head:  # bare options, default mapper: "op_cache=off"
            tail = text
            head = ""
        values = {}
        if head:
            if head not in MAPPER_MODES:
                raise ValueError(
                    f"unknown mapper {head!r} in engine spec {text!r} "
                    f"(expected one of: {', '.join(MAPPER_MODES)})"
                )
            values["mapper"] = head
        if tail.strip():
            for item in tail.split(","):
                item = item.strip()
                if not item:
                    continue
                key, eq, value = item.partition("=")
                key = key.strip().replace("-", "_")
                if not eq:
                    raise ValueError(
                        f"engine spec option {item!r} is not key=value"
                    )
                if key not in ("op_cache", "region_cache"):
                    raise ValueError(
                        f"unknown engine spec option {key!r} "
                        "(expected op_cache / region_cache)"
                    )
                values[key] = _parse_bool(key, value)
        return cls(**values)

    def __str__(self) -> str:
        """Canonical compact form; round-trips through :meth:`parse`."""
        default = type(self)()
        options = []
        if self.op_cache != default.op_cache:
            options.append(f"op_cache={'on' if self.op_cache else 'off'}")
        if self.region_cache != default.region_cache:
            options.append(
                f"region_cache={'on' if self.region_cache else 'off'}"
            )
        if options:
            return f"{self.mapper}:{','.join(options)}"
        return self.mapper

    # ------------------------------------------------------------------
    def to_simulation_options(self, **extra):
        """Expand into a :class:`~repro.simulator.engine.SimulationOptions`.

        ``extra`` passes through any non-engine knobs (``fusion_solver``,
        ``op_cache_path``, ...).  The mapper choice maps onto the
        ``vectorized_mapper`` field.
        """
        from repro.simulator.engine import SimulationOptions

        return SimulationOptions(
            vectorized_mapper=self.mapper != "scalar",
            op_cache_enabled=self.op_cache,
            region_cache_enabled=self.region_cache,
            **extra,
        )

    @classmethod
    def from_simulation_options(cls, options) -> "EngineSpec":
        """Recover the spec a :class:`SimulationOptions` encodes.

        The inverse of :meth:`to_simulation_options` under the same default
        resolution the :class:`~repro.simulator.engine.Simulator` applies
        (``None`` follows ``mapper_options``, whose default is vectorized).
        """
        mapper_options = getattr(options, "mapper_options", None)
        vectorized = options.vectorized_mapper
        if vectorized is None:
            vectorized = mapper_options.vectorize if mapper_options else True
        return cls(
            mapper="graph-batched" if vectorized else "scalar",
            op_cache=bool(getattr(options, "op_cache_enabled", True)),
            region_cache=bool(getattr(options, "region_cache_enabled", True)),
        )


#: The session default: graph-batched NumPy with both caches on.
DEFAULT_ENGINE = EngineSpec()
