import numpy as np
import pytest

from reliakit import PairedSample, pipeline


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
