"""The estimator-backend registry.

Four estimator families behind one dispatch point:

* ``"mc"`` — naive Monte-Carlo simulation (Section 3.2): unbiased, slow,
  the ground-truth reference;
* ``"ris"`` — the reverse-reachable sketch estimator of Borgs et al. /
  Cohen et al.: one pre-drawn RR collection amortised over arbitrarily
  many queries, the family ``repro.serve`` grows shared pools for;
* ``"imm"`` — RIS with the IMM-style ``(eps, delta)`` sample-size rule of
  Tang et al.: you state the accuracy, the registry derives the budget;
* ``"sketch"`` — the bottom-k combined reachability oracle
  (:mod:`repro.sketch`): per-vertex sketches precomputed over the ``r``
  live-edge rounds, point queries in O(1), seed-set queries by sketch
  merge — the read path for high-QPS serving.

Every family lives in one registry: :func:`available_estimators` is the
single source of truth the CLI ``--estimator`` choices,
``ServiceConfig(estimator=...)`` validation, and every "unknown
estimator" error message draw from.  :func:`make_estimator`
constructs a protocol-conforming estimator
(:class:`repro.core.frameworks.InfluenceEstimator`);
:func:`estimate_with_report` runs it through the Framework translation
(Algorithm 3) and returns an :class:`EstimateResult` whose
:class:`~repro.analysis.bounds.GuaranteeReport` folds the family's
advertised accuracy into Theorem 6.1.

The registry factories call the estimator constructors directly, so
``make_estimator("mc", n_samples=n, rng=s)`` and
``MonteCarloEstimator(n, rng=s)`` build identical instances; the registry
adds the family-name dispatch and each family's advertised eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..analysis.bounds import GuaranteeReport, guarantee_report
from ..core.frameworks import InfluenceEstimator, estimate_on_coarse
from ..core.result import CoarsenResult
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..rng import RngLike, ensure_rng
from ..sketch import DEFAULT_SKETCH_K, SketchEstimator, sketch_eps

__all__ = [
    "EstimatorSpec",
    "EstimateResult",
    "available_estimators",
    "estimator_spec",
    "make_estimator",
    "estimate_with_report",
    "ESTIMATORS",
    "DEFAULT_ESTIMATOR",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """One registered estimator family and its capabilities.

    ``serveable`` marks families ``ServiceConfig(estimator=...)`` accepts
    (the service keeps each one's per-model read state, see
    :mod:`repro.serve.service`); ``models`` lists the diffusion models
    the family supports.
    """

    name: str
    summary: str
    serveable: bool = False
    models: "tuple[str, ...]" = ("ic",)


_REGISTRY: "dict[str, EstimatorSpec]" = {
    spec.name: spec
    for spec in (
        EstimatorSpec(
            "mc",
            "naive Monte-Carlo simulation (Section 3.2)",
            serveable=True,
        ),
        EstimatorSpec(
            "ris",
            "reverse-reachable sketch estimator (pooled default)",
            serveable=True,
            models=("ic", "lt"),
        ),
        EstimatorSpec(
            "imm",
            "RIS with the IMM (eps, delta) sample-size rule",
            models=("ic", "lt"),
        ),
        EstimatorSpec(
            "sketch",
            "bottom-k combined reachability oracle (O(1) point queries)",
            serveable=True,
        ),
    )
}


def available_estimators(serving: bool = False) -> "tuple[str, ...]":
    """Registered estimator names, in registration order.

    With ``serving=True`` only the families
    ``ServiceConfig(estimator=...)`` accepts are listed (``imm`` derives
    a static sample budget, which the pooled ``ris`` path already covers
    when served).
    """
    return tuple(
        name for name, spec in _REGISTRY.items()
        if not serving or spec.serveable
    )


def estimator_spec(estimator: str) -> EstimatorSpec:
    """The :class:`EstimatorSpec` for ``estimator``; raises on unknown names.

    The one validation point every dispatch surface shares — CLI, serve
    config, :func:`make_estimator` — so a misspelled family fails early
    and the error always lists the full, current menu.
    """
    try:
        return _REGISTRY[estimator]
    except KeyError:
        raise AlgorithmError(
            f"unknown estimator {estimator!r}; choose from "
            f"{available_estimators()}"
        ) from None


#: All registered families — what ``--estimator`` offers.  Derived from the
#: registry so CLI choices, error messages, and :func:`available_estimators`
#: can never drift apart.
ESTIMATORS = available_estimators()

#: Family used when callers don't choose one: the pooled RIS estimator,
#: the serving layer's default since PR 5.
DEFAULT_ESTIMATOR = "ris"


def imm_sample_size(eps: float, delta: float) -> int:
    """The IMM-style RR budget for a ``(1 +- eps)`` estimate w.p. ``1 - delta``.

    The standard multiplicative Chernoff budget ``(2 + 2/3 eps) *
    ln(2/delta) / eps^2`` (Tang et al., Lemma 3 instantiated for a fixed
    seed set).
    """
    if not 0 < eps < 1:
        raise AlgorithmError("eps must lie in (0, 1)")
    if not 0 < delta < 1:
        raise AlgorithmError("delta must lie in (0, 1)")
    return int(math.ceil(
        (2.0 + 2.0 * eps / 3.0) * math.log(2.0 / delta) / (eps * eps)
    ))


def _check_model(spec: EstimatorSpec, model: str) -> None:
    if model not in spec.models:
        raise AlgorithmError(
            f"estimator {spec.name!r} supports diffusion models "
            f"{spec.models}, not {model!r}"
        )


def _make_mc(model: str, rng: RngLike, *, n_samples: int = 10_000):
    from ..algorithms.monte_carlo import MonteCarloEstimator

    est = MonteCarloEstimator(n_samples, rng=rng)
    return est, min(1.0, 1.0 / math.sqrt(n_samples))


def _make_ris(model: str, rng: RngLike, *, n_samples: int = 20_000):
    from ..algorithms.ris_estimator import RISEstimator

    est = RISEstimator(n_samples, rng=rng, model=model)
    return est, min(1.0, 1.0 / math.sqrt(n_samples))


def _make_imm(model: str, rng: RngLike, *, eps: float = 0.1,
              delta: float = 0.01):
    from ..algorithms.ris_estimator import RISEstimator

    n_samples = imm_sample_size(eps, delta)
    est = RISEstimator(n_samples, rng=rng, model=model)
    return est, eps


def _make_sketch(model: str, rng: RngLike, *, r: int = 16,
                 k: int = DEFAULT_SKETCH_K, delta: float = 0.05):
    return SketchEstimator(r=r, k=k, rng=rng), sketch_eps(k, delta)


_FACTORIES = {
    "mc": _make_mc,
    "ris": _make_ris,
    "imm": _make_imm,
    "sketch": _make_sketch,
}


def _build(estimator: str, model: str, rng: RngLike, opts: dict):
    """Construct ``(estimator instance, advertised eps)`` for a family."""
    spec = estimator_spec(estimator)
    _check_model(spec, model)
    try:
        return _FACTORIES[estimator](model, rng, **opts)
    except TypeError as exc:
        raise AlgorithmError(
            f"bad options for estimator {estimator!r}: {exc}"
        ) from None


def make_estimator(estimator: str, model: str = "ic", *,
                   rng: RngLike = None, **opts) -> InfluenceEstimator:
    """Construct a protocol-conforming estimator of the named family.

    Parameters
    ----------
    estimator:
        A name from :func:`available_estimators`.
    model:
        Diffusion model (``"ic"`` / ``"lt"``; families validate support).
    rng:
        Seed or generator for the family's randomness.
    **opts:
        Family options: ``n_samples`` (mc, ris), ``eps`` / ``delta``
        (imm), ``r`` / ``k`` / ``delta`` (sketch).  Unknown options raise
        :class:`~repro.errors.AlgorithmError`.
    """
    est, _ = _build(estimator, model, rng, opts)
    return est


@dataclass
class EstimateResult:
    """One influence estimate with its provenance and guarantees.

    The common return shape of every estimator family: the value, the
    family (``backend``) that produced it, and — when estimated through
    :func:`estimate_with_report` — the Theorem 6.1 report with the
    family's advertised accuracy folded in.
    """

    value: float
    backend: str
    guarantee_report: "GuaranteeReport | None" = None
    extras: dict = field(default_factory=dict)


def estimate_with_report(
    graph: InfluenceGraph,
    result: CoarsenResult,
    seeds: np.ndarray,
    estimator: str = DEFAULT_ESTIMATOR,
    model: str = "ic",
    rng: RngLike = None,
    report: bool = True,
    reliability_samples: int = 2_000,
    **opts,
) -> EstimateResult:
    """Algorithm 3 with the full guarantee translation, any family.

    Runs the named estimator on the coarsened graph ``H`` (seed mapping
    through ``pi``), then instantiates Theorem 6.1 at the family's
    advertised accuracy — ``1/sqrt(n_samples)`` for the sampling
    families, the stated ``eps`` for ``imm``, the bottom-k Chebyshev
    envelope for ``sketch``.  Set ``report=False`` to skip the
    reliability estimation (the report is then ``None``).
    """
    rng = ensure_rng(rng)
    est, eps = _build(estimator, model, rng, opts)
    value = estimate_on_coarse(result, np.asarray(seeds, dtype=np.int64), est)
    guarantees = None
    if report:
        guarantees = guarantee_report(
            graph, result, estimation_eps=eps,
            n_samples=reliability_samples, rng=rng,
        )
    return EstimateResult(value=value, backend=estimator,
                          guarantee_report=guarantees,
                          extras={"advertised_eps": eps})
