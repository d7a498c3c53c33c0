"""Engine-wide settings: the single validated configuration object.

Collects the knobs the paper's experimental setup mentions (statistics
target, planner limits, cost constants) — plus the engine's own knobs
(execution engine, plan cache, estimator strategy, feedback persistence) —
into one object so benchmarks, tests, ``connect()``, the threaded server and
the CLI all configure engines the same way.

Configuration precedence, everywhere a settings object is accepted:

1. an explicit keyword argument (``connect(plan_cache_size=8)``),
2. the provided settings object (``connect(settings=EngineSettings(...))``),
3. the field defaults below.

:meth:`EngineSettings.resolve` implements exactly that lowering;
:meth:`EngineSettings.replace` derives a validated copy with overrides.
Unknown keyword names raise :class:`~repro.errors.ConfigError` naming the
nearest valid field.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.plancache import DEFAULT_PLAN_CACHE_SIZE
from repro.errors import ConfigError
from repro.executor.executor import ExecutionEngine
from repro.optimizer.cost import CostParameters
from repro.optimizer.enumeration import PlannerConfig
from repro.optimizer.feedback import DEFAULT_FEEDBACK_CAPACITY

#: Estimator strategy names accepted by ``EngineSettings.estimator``; kept in
#: sync with :data:`repro.optimizer.estimators.STRATEGIES` (asserted by tests)
#: but spelled out here so validating settings never imports the optimizer.
ESTIMATOR_NAMES = ("feedback", "sampling", "stats", "upper-bound")


@dataclass
class EngineSettings:
    """Configuration for a :class:`~repro.engine.database.Database`.

    Attributes:
        statistics_target: MCV entries / histogram buckets per column
            (the paper maxes out PostgreSQL's ``default_statistics_target``;
            our ANALYZE is exact regardless, see ``repro.stats.analyze``).
        planner: join-enumeration limits.
        cost: cost model constants.
        auto_foreign_key_indexes: build hash indexes on primary and foreign
            keys at load time (the paper adds foreign-key indexes to make
            access-path selection harder).
        analyze_temp_tables: whether temporary tables created by the
            re-optimizer are ANALYZEd before re-planning (ablation knob).
        engine: operator implementation used to execute plans — the
            vectorized columnar engine (default) or the row-at-a-time
            reference oracle.  Charged work is engine-invariant; only
            wall-clock changes.  Accepts the enum or its string name.
        plan_cache_size: default LRU capacity of a connection's plan cache
            (0 disables caching; per-connection override on ``connect()``).
        adaptive: run re-optimization as operator-level adaptive execution
            (stage-wise execution with in-memory intermediate handover, see
            :mod:`repro.executor.adaptive`) instead of the paper's
            materialize-and-rewrite simulation.  Off by default so the
            paper-figure benchmarks keep reproducing the published accounting;
            per-connection override on ``connect()``.
        estimator: active cardinality-estimation strategy — one of
            :data:`ESTIMATOR_NAMES` (see :mod:`repro.optimizer.estimators`).
            The default ``"stats"`` reproduces the paper's PostgreSQL-style
            model bit-for-bit.
        feedback_capacity: LRU capacity of the database's persistent
            cardinality-feedback store (:mod:`repro.optimizer.feedback`).
        feedback_path: JSON file to warm the feedback store from at startup
            (``None`` = start cold; saving is explicit via
            ``FeedbackStore.save``).
        sample_rows: sampled rows ANALYZE keeps per table for the
            sampling estimator (0 disables sampling).
    """

    statistics_target: int = 100
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    cost: CostParameters = field(default_factory=CostParameters)
    auto_foreign_key_indexes: bool = True
    analyze_temp_tables: bool = True
    engine: ExecutionEngine = ExecutionEngine.VECTORIZED
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    adaptive: bool = False
    estimator: str = "stats"
    feedback_capacity: int = DEFAULT_FEEDBACK_CAPACITY
    feedback_path: Optional[str] = None
    sample_rows: int = 100

    def __post_init__(self) -> None:
        self.engine = ExecutionEngine.from_name(self.engine)
        _require(self.statistics_target >= 1, "statistics_target must be >= 1")
        _require(self.plan_cache_size >= 0, "plan_cache_size must be >= 0")
        _require(self.feedback_capacity >= 1, "feedback_capacity must be >= 1")
        _require(self.sample_rows >= 0, "sample_rows must be >= 0")
        if self.estimator not in ESTIMATOR_NAMES:
            raise ConfigError(
                f"unknown estimator {self.estimator!r}; "
                f"choose one of {list(ESTIMATOR_NAMES)}"
            )

    def replace(self, **overrides: object) -> "EngineSettings":
        """A validated copy with ``overrides`` applied.

        Unknown field names raise :class:`~repro.errors.ConfigError` naming
        the nearest valid field; values are re-validated by ``__post_init__``.
        """
        valid = {f.name for f in dataclasses.fields(self)}
        for key in overrides:
            if key not in valid:
                raise ConfigError(_unknown_setting_message(key, valid))
        return dataclasses.replace(self, **overrides)

    @classmethod
    def resolve(
        cls, settings: "Optional[EngineSettings]" = None, **overrides: object
    ) -> "EngineSettings":
        """Lower keyword overrides onto ``settings`` (or the defaults).

        This is the one precedence rule used by ``connect()``, the server
        and the CLI: an explicit (non-``None``) keyword beats the settings
        object, which beats the defaults.  ``None`` overrides mean "not
        specified" and are dropped — no settings field is ``None``-valued
        except ``feedback_path``, which callers set through a settings
        object when they genuinely mean "unset".
        """
        base = settings if settings is not None else cls()
        supplied = {k: v for k, v in overrides.items() if v is not None}
        return base.replace(**supplied)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _unknown_setting_message(key: str, valid: "set[str]") -> str:
    close = difflib.get_close_matches(key, sorted(valid), n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return f"unknown engine setting {key!r}{hint}"
