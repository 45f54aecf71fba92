"""StagePlan: registry, topological ordering, and failure isolation.

A :class:`StagePlan` is an immutable, validated execution order over a
set of stages.  Construction performs all graph checks up front:

- names must be unique and requires/provides must form a DAG;
- every ``requires`` token must be provided by some (earlier) stage in
  the plan, so a subset selection that would run against missing inputs
  is rejected before any message is analyzed;
- ordering is topological and *stable*: independent stages keep their
  registration order, which for the built-ins reproduces Figure 1's
  auth -> parse -> dynamic-html -> crawl -> classify -> spear -> enrich.

Execution (:meth:`StagePlan.run`) isolates failures per stage: an
exception marks the stage ``failed`` in ``record.stage_status`` and
withholds its ``provides``, degrading dependent stages to ``skipped``
instead of aborting the whole message.  Only
:class:`~repro.runner.retry.TransientFault` (flaky infrastructure, not
a pipeline bug) propagates, so the runner's retry/dead-letter machinery
still sees genuinely retryable faults — and its dead-letter list
shrinks to messages that cannot even enter the pipeline.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.core.stages.base import AnalysisContext, Stage, StageStatus
from repro.runner.retry import TransientFault


class StagePlanError(ValueError):
    """An invalid stage graph or stage selection."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Stage] = {}


def register_stage(stage: Stage) -> Stage:
    """Add a stage to the global registry (name must be unused)."""
    if stage.name in _REGISTRY:
        raise StagePlanError(f"stage {stage.name!r} is already registered")
    _REGISTRY[stage.name] = stage
    return stage


def registered_stages() -> tuple[Stage, ...]:
    """Every registered stage, in registration order."""
    return tuple(_REGISTRY.values())


def registered_stage_names() -> tuple[str, ...]:
    """Registered stage names, in registration order."""
    return tuple(_REGISTRY)


def get_stage(name: str) -> Stage:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY) or "<none>"
        raise StagePlanError(f"unknown stage {name!r} (known: {known})") from None


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
class StagePlan:
    """A validated, topologically ordered set of stages."""

    def __init__(self, stages: Sequence[Stage], all_stage_names: Iterable[str] | None = None):
        names = [stage.name for stage in stages]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise StagePlanError(f"duplicate stage name(s): {sorted(duplicates)}")
        self.stages: tuple[Stage, ...] = self._toposort(tuple(stages))
        #: The full universe of stage names for ``stage_status`` — a
        #: subset plan still reports unselected registry stages as
        #: ``skipped`` so records are self-describing.
        self.all_stage_names: tuple[str, ...] = tuple(
            all_stage_names if all_stage_names is not None else (s.name for s in self.stages)
        )
        self._validate_requires()

    # ------------------------------------------------------------------
    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def __contains__(self, name: str) -> bool:
        return any(stage.name == name for stage in self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    # ------------------------------------------------------------------
    @staticmethod
    def _toposort(stages: tuple[Stage, ...]) -> tuple[Stage, ...]:
        """Stable Kahn's algorithm over the provides->requires edges."""
        providers: dict[str, list[int]] = {}
        for position, stage in enumerate(stages):
            for token in stage.provides:
                providers.setdefault(token, []).append(position)
        # edges[i] = stages that must run before stage i.
        blockers: list[set[int]] = []
        for position, stage in enumerate(stages):
            before: set[int] = set()
            for token in stage.requires:
                before.update(p for p in providers.get(token, ()) if p != position)
            blockers.append(before)
        ordered: list[Stage] = []
        emitted: set[int] = set()
        while len(ordered) < len(stages):
            progressed = False
            for position, stage in enumerate(stages):
                if position in emitted or not blockers[position] <= emitted:
                    continue
                ordered.append(stage)
                emitted.add(position)
                progressed = True
            if not progressed:
                stuck = [stages[p].name for p in range(len(stages)) if p not in emitted]
                raise StagePlanError(f"stage dependency cycle involving: {stuck}")
        return tuple(ordered)

    def _validate_requires(self) -> None:
        available: set[str] = set()
        for stage in self.stages:
            missing = [token for token in stage.requires if token not in available]
            if missing:
                raise StagePlanError(
                    f"stage {stage.name!r} requires {missing} but no selected "
                    f"stage provides them; add the providing stage(s) to the plan"
                )
            available.update(stage.provides)

    # ------------------------------------------------------------------
    def run(self, ctx: AnalysisContext, profiler) -> float:
        """Execute the plan over one message with failure isolation.

        Times each executed stage into ``profiler`` (a
        :class:`~repro.runner.profile.StageProfiler`) and returns the
        summed per-stage wall-clock seconds, so the caller can attribute
        the remainder of the analysis to the ``unattributed`` bucket.
        """
        status = {name: StageStatus.SKIPPED for name in self.all_stage_names}
        ctx.record.stage_status = status
        attributed = 0.0
        available: set[str] = set()
        for stage in self.stages:
            if any(token not in available for token in stage.requires):
                continue  # upstream failed or was skipped: degrade
            started = time.perf_counter()
            try:
                stage.run(ctx)
            except TransientFault:
                # Infrastructure flakiness: let the runner retry the
                # whole message rather than baking a degraded record.
                raise
            except Exception as error:  # noqa: BLE001 - isolation boundary
                status[stage.name] = StageStatus.FAILED
                ctx.errors[stage.name] = error
                # Machine-readable reason, deterministic across backends
                # (exception type + message only, never a traceback).
                ctx.record.stage_errors[stage.name] = f"{type(error).__name__}: {error}"
            else:
                status[stage.name] = StageStatus.OK
                available.update(stage.provides)
            finally:
                elapsed = time.perf_counter() - started
                profiler.record(stage.name, elapsed)
                attributed += elapsed
        return attributed
