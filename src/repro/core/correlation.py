"""Construction of the correlation function f(.) (Section 5.1).

Equation 2 predicts hybrid-placement time as::

    T_hybrid = T_pm_only * (1 - r_dram) * f(PMCs, r_dram) + T_dram_only * r_dram

f(.) is a statistical model trained offline, once, on code samples:

1. each code region runs on PM-only and DRAM-only, then under 10 random
   data placements; solving Equation 2 for f gives the target value;
2. features are the region's performance counters collected with a *seed
   input* (deliberately different from the input that generated the
   placements) plus ``r_dram``;
3. six model families are compared on a 70/30 split (Table 3); the paper
   and this reproduction both select the Gradient Boosted Regressor;
4. hardware events are then reduced to the 8 most Gini-important ones via
   recursive elimination (Figure 7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.common import make_rng, seq_sum, spawn_rng
from repro.ml.kernels import forest_predict_grid
from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostedRegressor,
    KernelRidgeRegressor,
    KNeighborsRegressor,
    MLPRegressor,
    RandomForestRegressor,
    r2_score,
    recursive_importance_elimination,
    train_test_split,
)
from repro.sim.counters import PMC_EVENTS, collect_pmcs, pmc_vector
from repro.sim.machine import MachineModel
from repro.sim.memspec import HMConfig
from repro.tasks.task import Footprint

if False:  # import-cycle guard: codesamples lives in repro.apps
    from repro.apps.codesamples import CodeSample  # noqa: F401

__all__ = [
    "TrainingData",
    "placement_ratio",
    "generate_training_data",
    "solve_f_target",
    "CorrelationFunction",
    "ModelReport",
    "compare_models",
    "default_model_zoo",
]


def solve_f_target(
    t_hybrid: float, t_pm: float, t_dram: float, r_dram: float
) -> float:
    """Invert Equation 2 for the value of f(.) one measurement implies."""
    if not 0.0 <= r_dram < 1.0:
        raise ValueError("r_dram must be in [0, 1) to solve for f")
    if t_pm <= 0:
        raise ValueError("t_pm must be positive")
    return (t_hybrid - t_dram * r_dram) / (t_pm * (1.0 - r_dram))


@dataclass
class TrainingData:
    """Feature matrix / target vector for f(.) plus bookkeeping."""

    X: np.ndarray            # (n, len(events) + 1); last column is r_dram
    y: np.ndarray            # f targets
    events: tuple[str, ...]  # names of the PMC feature columns
    sample_names: tuple[str, ...]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.events + ("r_dram",)

    def restrict_events(self, events: Sequence[str]) -> "TrainingData":
        """Project onto a subset of PMC events (keeps r_dram)."""
        idx = [self.events.index(e) for e in events]
        cols = idx + [len(self.events)]
        return TrainingData(
            X=self.X[:, cols],
            y=self.y,
            events=tuple(events),
            sample_names=self.sample_names,
        )


def placement_ratio(footprint: Footprint, fractions: Mapping[str, float]) -> float:
    """The ``r_dram`` a training placement realises: per-object DRAM
    ``fractions`` weighted by each object's share of the accesses.  Summed
    per object, not per access like :meth:`Footprint.dram_ratio`; the
    trained model's bits depend on this order."""
    per_obj = footprint.accesses_by_object()
    total = sum(per_obj.values())
    return seq_sum(n * fractions[o] for o, n in per_obj.items()) / total


def generate_training_data(
    machine: MachineModel,
    hm: HMConfig,
    samples: Sequence["CodeSample"] | None = None,
    placements_per_sample: int = 10,
    seed_input_scale: float = 0.6,
    seed=0,
) -> TrainingData:
    """Run the paper's training-data generation procedure.

    For every code sample: measure endpoints, run ``placements_per_sample``
    random placements (measuring ``r_dram`` and ``T_hybrid``), solve for f,
    and pair each target with the PMC vector collected under the *seed*
    input.  The ``j``-th placements of all samples are priced together.
    """
    rng = make_rng(seed)
    if samples is None:
        from repro.apps.codesamples import generate_corpus

        samples = generate_corpus(seed=rng)
    samples = list(samples)
    fps = [sample.footprint(1.0) for sample in samples]
    # one merged placement per round needs every object in one sample only
    names = [o for fp in fps for o in fp.objects]
    if len(set(names)) != len(names):
        raise ValueError("training samples must not share object names")
    endpoints = machine.tier_endpoints(fps, hm)
    # features from the seed input, not the measured one
    seed_fps = [sample.footprint(seed_input_scale) for sample in samples]
    (seed_pm,) = machine.breakdowns(seed_fps, hm, [0.0])
    pmcs: list[np.ndarray] = []
    ratios: list[list[float]] = []
    rounds: list[dict[str, float]] = [{} for _ in range(placements_per_sample)]
    for fp, seed_fp, bd in zip(fps, seed_fps, seed_pm):
        counters = collect_pmcs(seed_fp, machine, hm, rng=rng, t_pm_only=bd.total_s)
        pmcs.append(pmc_vector(counters))
        ratios.append([])
        for merged in rounds:
            # Placements vary the DRAM ratio near-uniformly across the
            # region's objects (small per-object jitter).  This matches how
            # the model is queried at runtime: Algorithm 1 works in
            # per-task access ratios under its even-distribution
            # assumption, so f(PMCs, r) must answer "time at uniform ratio
            # r", not "time at an arbitrary per-object split" -- the latter
            # is not a function of the scalar r at all.
            base_r = float(rng.uniform(0.0, 0.97))
            fractions = {
                o: float(np.clip(base_r + rng.normal(0.0, 0.05), 0.0, 1.0))
                for o in fp.objects
            }
            ratios[-1].append(min(placement_ratio(fp, fractions), 0.99))
            merged.update(fractions)
    hybrid = machine.breakdowns(fps, hm, rounds)

    rows: list[np.ndarray] = []
    targets: list[float] = []
    for i, ((t_dram, t_pm), rs) in enumerate(zip(endpoints, ratios)):
        for r, priced in zip(rs, hybrid):
            rows.append(np.concatenate([pmcs[i], [r]]))
            targets.append(solve_f_target(priced[i].total_s, t_pm, t_dram, r))
    return TrainingData(
        X=np.vstack(rows),
        y=np.asarray(targets),
        events=PMC_EVENTS,
        sample_names=tuple(s.name for s in samples for _ in rounds),
    )


@dataclass(frozen=True)
class ModelReport:
    """One row of Table 3."""

    name: str
    params: str
    r2: float
    fit_seconds: float


def default_model_zoo(seed=0) -> dict[str, tuple[Callable[[], object], str]]:
    """The six statistical models of Table 3, with the paper's parameters."""
    rng = make_rng(seed)

    def rng_child():
        return spawn_rng(rng)

    return {
        "DTR": (
            lambda: DecisionTreeRegressor(max_depth=10),
            "criterion=sse, max_depth=10",
        ),
        "SVR": (
            lambda: KernelRidgeRegressor(alpha=0.3),
            "kernel='rbf' (kernel-ridge stand-in)",
        ),
        "KNR": (lambda: KNeighborsRegressor(n_neighbors=8), "n_neighbors=8"),
        "RFR": (
            lambda: RandomForestRegressor(
                n_estimators=20, max_depth=10, rng=rng_child()
            ),
            "n_estimators=20, max_depth=10",
        ),
        "GBR": (
            lambda: GradientBoostedRegressor(
                n_estimators=400,
                max_depth=6,
                learning_rate=0.06,
                min_samples_leaf=2,
                rng=rng_child(),
            ),
            "base_estimator='DTR'",
        ),
        "ANN": (
            lambda: MLPRegressor(
                hidden_layers=(200, 20), alpha=1e-6, epochs=150, rng=rng_child()
            ),
            "alpha=1e-6, hidden_layer=(200, 20)",
        ),
    }


def compare_models(
    data: TrainingData,
    test_fraction: float = 0.3,
    seed=0,
    zoo: Mapping[str, tuple[Callable[[], object], str]] | None = None,
) -> list[ModelReport]:
    """Table 3: train all six models, report R-squared on the held-out 30%."""
    zoo = zoo or default_model_zoo(seed=seed)
    Xtr, Xte, ytr, yte = train_test_split(data.X, data.y, test_fraction, rng=seed)
    reports = []
    for name, (factory, params) in zoo.items():
        model = factory()
        t0 = time.perf_counter()
        model.fit(Xtr, ytr)
        elapsed = time.perf_counter() - t0
        r2 = r2_score(yte, model.predict(Xte))
        reports.append(ModelReport(name=name, params=params, r2=r2, fit_seconds=elapsed))
    return reports


class CorrelationFunction:
    """The trained f(.): predicts the Equation 2 correction factor.

    ``events`` lists the PMC events the model consumes (after feature
    selection this is the paper's top-8 list); inputs at prediction time are
    an event dict plus ``r_dram``.
    """

    def __init__(self, model, events: Sequence[str]) -> None:
        self.model = model
        self.events = tuple(events)

    @classmethod
    def train(
        cls,
        data: TrainingData,
        events: Sequence[str] | None = None,
        seed=0,
    ) -> "CorrelationFunction":
        """Fit the selected model (GBR) on the full dataset."""
        if events is not None:
            data = data.restrict_events(events)
        model = GradientBoostedRegressor(
            n_estimators=300, max_depth=4, learning_rate=0.08, rng=make_rng(seed)
        )
        model.fit(data.X, data.y)
        return cls(model=model, events=data.events)

    def predict(self, pmcs: Mapping[str, float], r_dram: float) -> float:
        """f(PMCs, r_dram); clipped to a sane positive range."""
        if not 0.0 <= r_dram <= 1.0:
            raise ValueError("r_dram must be in [0, 1]")
        x = np.array([[pmcs[e] for e in self.events] + [r_dram]])
        return float(np.clip(self.model.predict(x)[0], 0.05, 5.0))

    def predict_batch(self, pmcs: Mapping[str, float], ratios) -> np.ndarray:
        """Vectorised f(.) over many ratios with the same counters.

        One grid-kernel call instead of a call per ratio: this is what
        keeps Algorithm 1's per-region planning cheap (the paper reports
        0.031 ms per prediction on its C implementation).
        """
        return self._grid([pmcs], ratios)[0]

    def predict_stacked(
        self, pmcs_seq: Sequence[Mapping[str, float]], ratios
    ) -> np.ndarray:
        """f(.) for many counter sets over one shared ratio grid.

        Returns shape ``(len(pmcs_seq), len(ratios))``.  The whole batch is
        one :func:`~repro.ml.kernels.forest_predict_grid` call: each tree
        node is compared once per task or once per ratio, never once per
        (task, ratio) pair.  This is the kernel behind the placement
        service's batched planning (one call per request batch instead of
        one per task).
        """
        return self._grid(pmcs_seq, ratios)

    def _grid(
        self, pmcs_seq: Sequence[Mapping[str, float]], ratios
    ) -> np.ndarray:
        ratios = np.asarray(ratios, dtype=np.float64)
        if ratios.ndim != 1:
            raise ValueError("ratios must be 1-D")
        if ((ratios < 0) | (ratios > 1)).any():
            raise ValueError("ratios must be within [0, 1]")
        base = np.array(
            [[pmcs[e] for e in self.events] for pmcs in pmcs_seq],
            dtype=np.float64,
        ).reshape(len(pmcs_seq), len(self.events))
        gbr = self.model
        f = forest_predict_grid(
            gbr.leaf_masks(), base, ratios, gbr.init_, gbr.learning_rate
        )
        return np.clip(f, 0.05, 5.0)

    # -- feature selection ---------------------------------------------
    @staticmethod
    def select_events(
        data: TrainingData,
        n_events: int = 8,
        seed=0,
    ) -> tuple[tuple[str, ...], list]:
        """Section 5.1's recursive Gini-importance elimination.

        Returns (selected events, full elimination trace for Figure 7).
        The r_dram column is structural and never eliminated.
        """
        Xtr, Xte, ytr, yte = train_test_split(data.X, data.y, 0.3, rng=seed)
        rng = make_rng(seed)

        def factory():
            return GradientBoostedRegressor(
                n_estimators=150, max_depth=4, learning_rate=0.1,
                rng=spawn_rng(rng),
            )

        names = list(data.feature_names)
        steps = recursive_importance_elimination(
            factory, Xtr, ytr, Xte, yte, names, min_features=2,
            score_fn=r2_score, protected=("r_dram",),
        )
        # walk the trace and pick the step with n_events PMC features
        selected: tuple[str, ...] | None = None
        for step in steps:
            pmc_feats = tuple(f for f in step.features if f != "r_dram")
            if len(pmc_feats) == n_events:
                selected = pmc_feats
                break
        if selected is None:
            selected = tuple(f for f in steps[-1].features if f != "r_dram")
        return selected, steps
