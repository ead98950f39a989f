import numpy as np
import pytest

from reliakit import CorrMethod, PairedSample, ksg_mi, pipeline
from reliakit.estimators import clamped_gaussian_mi, correlation


def make_sample(x1, x2, measure_id="m"):
    return PairedSample(
        measure_id=measure_id,
        x1=np.asarray(x1, dtype=np.float64),
        x2=np.asarray(x2, dtype=np.float64),
    )


def gauss_pairs(rng, n, rho, measure_id="m"):
    """PairedSample drawn from a bivariate standard normal with correlation rho."""
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return make_sample(z1, rho * z1 + np.sqrt(1.0 - rho * rho) * z2, measure_id)


def nlr_delta(sample, k=4, method=CorrMethod.PEARSON):
    """The engine's point estimate of one sample: KSG MI minus the clamped
    Gaussian baseline; raises where either term is undefined."""
    return ksg_mi(sample, k) - clamped_gaussian_mi(correlation(sample, method))


@pytest.fixture
def forced_pool(monkeypatch):
    """Start a process pool for any workers > 1, however small the work,
    and record how many worker processes each pool started."""
    started = []

    class RecordingPool(pipeline.ProcessPoolExecutor):
        def __exit__(self, *exc):
            started.append(len(self._processes))
            return super().__exit__(*exc)

    monkeypatch.setattr(pipeline, "_POOL_MIN_WORK", 1)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    return started
