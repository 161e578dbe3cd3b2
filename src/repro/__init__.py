"""LoCEC reproduction: Local Community-based Edge Classification.

This package reproduces *LoCEC: Local Community-based Edge Classification in
Large Online Social Networks* (Song et al., ICDE 2020) as a self-contained
Python library:

* :mod:`repro.graph` — graph / feature / interaction substrate and the
  Girvan–Newman kernels of Phase I,
* :mod:`repro.ml` — from-scratch GBDT, logistic regression and CNN stack,
* :mod:`repro.core` — the three-phase LoCEC pipeline (the paper's contribution),
* :mod:`repro.baselines` — ProbWP, Economix, plain XGBoost, group-name rules,
* :mod:`repro.synthetic` — WeChat-like synthetic data generation,
* :mod:`repro.runtime` — the WeChat-scale cost model and scalability drivers,
* :mod:`repro.ads` — the social-advertising application,
* :mod:`repro.analysis` / :mod:`repro.experiments` — the paper's analyses,
  tables and figures.

Quickstart::

    from repro.synthetic import make_workload
    from repro.core import LoCEC, LoCECConfig

    workload = make_workload("small", seed=0)
    pipeline = LoCEC(LoCECConfig.locec_cnn())
    pipeline.fit(
        workload.dataset.graph,
        workload.dataset.features,
        workload.dataset.interactions,
        workload.train_edges,
    )
    print(pipeline.evaluate(workload.test_edges))
"""

from repro.core import LoCEC, LoCECConfig
from repro.types import InteractionDim, LabeledEdge, RelationType

__version__ = "1.0.0"

__all__ = [
    "LoCEC",
    "LoCECConfig",
    "RelationType",
    "InteractionDim",
    "LabeledEdge",
    "__version__",
]
