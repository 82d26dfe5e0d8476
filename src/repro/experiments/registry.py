"""Declarative experiment registry: the single front door to every study.

Each table/figure reproduction (and each extension study) is described by
an :class:`ExperimentSpec` — its CLI name, a human title, the ``run_*``
driver, the matching ``format_*`` renderer, and whether it consumes
:class:`~repro.experiments.common.ExperimentParams`.  The CLI
(``python -m repro run <name>`` / ``python -m repro list-experiments``)
and the benchmarks under ``benchmarks/`` resolve experiments here instead
of hard-coding driver functions.

Drivers accept an optional :class:`~repro.runner.Runner` so one engine
instance (and its result cache) is shared across an invocation::

    from repro.experiments.registry import get
    from repro.runner import Runner

    spec = get("fig7")
    result = spec.execute(params, runner=Runner(parallel=4))
    print(spec.format(result))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import ablation as _ablation
from . import bandwidth as _bandwidth
from . import cluster_scaling as _cluster_scaling
from . import energy as _energy
from . import fig1 as _fig1
from . import fig4 as _fig4
from . import fig5 as _fig5
from . import fig6 as _fig6
from . import fig7 as _fig7
from . import fig8 as _fig8
from . import fig9 as _fig9
from . import fig10 as _fig10
from . import fig11 as _fig11
from . import mlp as _mlp
from . import opt_bound as _opt_bound
from . import prefetch as _prefetch
from . import robustness as _robustness
from . import service_wire as _service_wire
from . import tables as _tables
from . import traffic as _traffic
from . import zoo as _zoo
from .common import ExperimentParams


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: how to run it and how to render it."""

    #: CLI name (``repro run <name>``)
    name: str
    #: one-line human description shown by ``repro list-experiments``
    title: str
    #: driver; called as ``run(params, runner=runner)`` when
    #: :attr:`needs_params` is true, else as ``run()``
    run: Callable
    #: renders the driver's result as the paper's text rows
    format: Callable[[object], str]
    #: whether the driver consumes :class:`ExperimentParams` and a runner
    needs_params: bool = True
    #: free-form grouping tag ("paper" or "extension")
    tags: tuple = ("paper",)
    #: optional enumerator: ``cells(params) -> list[Cell]`` for plan/preview;
    #: ``None`` when the experiment's cell set is internal to the driver
    cells: Optional[Callable] = field(default=None, compare=False)

    def execute(self, params: ExperimentParams | None = None, runner=None):
        """Run the experiment and return its raw result object."""
        if not self.needs_params:
            return self.run()
        if params is None:
            params = ExperimentParams.from_env()
        return self.run(params, runner=runner)


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add *spec* to the registry; duplicate names are a programming error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ExperimentSpec:
    """Look up an experiment by name; raise ``KeyError`` listing valid names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; valid names: {', '.join(names())}"
        ) from None


def names() -> tuple:
    """Registered experiment names, in registration (paper) order."""
    return tuple(_REGISTRY)


def all_specs() -> tuple:
    """Every registered :class:`ExperimentSpec`, in registration order."""
    return tuple(_REGISTRY.values())


def _study_cells(*specs, record_generations: bool = False) -> Callable:
    """Cell enumerator for drivers that are a plain SpeedupStudy sweep.

    Mirrors :class:`~repro.experiments.common.SpeedupStudy` exactly — the
    baseline cells first, then one batch of spec x workload cells, with the
    same per-cell flags — so a plan preview reports precisely the cells the
    driver will request (and their true cached/dirty state).
    """

    def _cells(params: ExperimentParams) -> list:
        from .common import BASELINE_SPEC

        refs = params.workload_refs()
        return [
            params.cell(spec, ref, record_generations=record_generations)
            for spec in [BASELINE_SPEC, *specs]
            for ref in refs
        ]

    return _cells


def _ablation_format(title: str) -> Callable:
    def _format(result: dict) -> str:
        return _ablation.format_ablation(result, title)

    return _format


def _register_all() -> None:
    paper = [
        ("fig1a", "Fig 1a: example mix hit ratios under three policies",
         _fig1.run_fig1a, _fig1.format_fig1a),
        ("fig1b", "Fig 1b: line generations and reuse in the example mix",
         _fig1.run_fig1b, _fig1.format_fig1b),
        ("fig4", "Fig 4: speedup vs data capacity and associativity",
         _fig4.run_fig4, _fig4.format_fig4),
        ("fig5", "Fig 5: reuse cache vs downsized conventional caches",
         _fig5.run_fig5, _fig5.format_fig5),
        ("fig6", "Fig 6: per-mix speedups of the selected configurations",
         _fig6.run_fig6, _fig6.format_fig6),
        ("fig7", "Fig 7: speedup and hit-ratio summary of the selected RCs",
         _fig7.run_fig7, _fig7.format_fig7),
        ("fig8", "Fig 8: RC vs conventional at equal data capacity",
         _fig8.run_fig8, _fig8.format_fig8),
        ("fig9", "Fig 9: RC vs NCID at matched geometry",
         _fig9.run_fig9, _fig9.format_fig9),
        ("fig10", "Fig 10: sensitivity to DRAM latency",
         _fig10.run_fig10, _fig10.format_fig10),
        ("fig11", "Fig 11: parallel (shared-data) workloads",
         _fig11.run_fig11, _fig11.format_fig11),
        ("bandwidth", "DRAM bandwidth sensitivity (channels sweep)",
         _bandwidth.run_bandwidth, _bandwidth.format_bandwidth),
    ]
    enumerators = {
        "fig6": _study_cells(*_fig6.SELECTED_SPECS),
        "fig7": _study_cells(*_fig7.FIG7_SPECS, record_generations=True),
    }
    for name, title, run, fmt in paper:
        register(ExperimentSpec(name, title, run, fmt, tags=("paper",),
                                cells=enumerators.get(name)))

    register(ExperimentSpec(
        "table2", "Table 2: hardware cost breakdown (analytical)",
        _tables.run_table2, _tables.format_table2,
        needs_params=False, tags=("paper",),
    ))
    register(ExperimentSpec(
        "table3", "Table 3: access latency vs conventional (CACTI surrogate)",
        _tables.run_table3, _tables.format_table3,
        needs_params=False, tags=("paper",),
    ))
    register(ExperimentSpec(
        "table5", "Table 5: baseline per-application MPKIs",
        _tables.run_table5, _tables.format_table5, tags=("paper",),
    ))
    register(ExperimentSpec(
        "table6", "Table 6: data-allocation selectivity of the reuse cache",
        _tables.run_table6, _tables.format_table6, tags=("paper",),
        cells=_study_cells(*_tables.TABLE6_SPECS),
    ))

    extensions = [
        ("zoo", "Replacement-policy zoo on conventional and reuse caches",
         _zoo.run_zoo, _zoo.format_zoo),
        ("energy", "Energy study: SLLC downsizing vs DRAM reload energy",
         _energy.run_energy_study, _energy.format_energy),
        ("traffic", "Memory traffic: the double-fetch cost of selectivity",
         _traffic.run_traffic, _traffic.format_traffic),
        ("opt", "Belady OPT bound vs measured hit ratios",
         _opt_bound.run_opt_bound, _opt_bound.format_opt_bound),
        ("prefetch", "Sequential prefetching: pollution vs tag-only fills",
         _prefetch.run_prefetch, _prefetch.format_prefetch),
        ("robustness", "Robustness of the RC win across cache scales",
         _robustness.run_robustness, _robustness.format_robustness),
        ("mlp", "Core-model sensitivity (in-order vs overlap cores)",
         _mlp.run_mlp, _mlp.format_mlp),
    ]
    for name, title, run, fmt in extensions:
        register(ExperimentSpec(name, title, run, fmt, tags=("extension",)))

    register(ExperimentSpec(
        "service-wire",
        "Serving-layer wire framing: v1 text vs v2 binary at matched "
        "batched workloads",
        _service_wire.run_service_wire,
        _service_wire.format_service_wire,
        tags=("extension", "service"),
    ))

    register(ExperimentSpec(
        "cluster-scaling",
        "Cluster scaling: aggregate hit capacity vs node count at equal "
        "per-node RAM",
        _cluster_scaling.run_cluster_scaling,
        _cluster_scaling.format_cluster_scaling,
        tags=("extension", "cluster"),
    ))

    ablations = [
        ("ablation-tag", "Ablation: RC tag-array replacement policy",
         _ablation.run_tag_policy_ablation,
         "Tag-policy ablation (RC-4/1)"),
        ("ablation-data", "Ablation: RC data-array replacement policy",
         _ablation.run_data_policy_ablation,
         "Data-policy ablation (RC-4/1)"),
        ("ablation-alloc", "Ablation: selective allocation vs allocate-on-miss",
         _ablation.run_allocation_ablation,
         "Allocation ablation (1 MB data)"),
        ("ablation-threshold", "Ablation: reuse-threshold sweep",
         _ablation.run_threshold_ablation,
         "Reuse-threshold ablation (RC-4/1)"),
    ]
    for name, title, run, table_title in ablations:
        register(ExperimentSpec(
            name, title, run, _ablation_format(table_title),
            tags=("extension", "ablation"),
        ))


_register_all()
