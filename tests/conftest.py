import pytest
from hypothesis import HealthCheck, settings

# One deterministic profile for the whole suite: generous deadlines for
# the linear-algebra properties and reproducible example generation.
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture()
def table1_series():
    from errorkit import dataset

    return dataset.load_series(dataset.bundled_path("table1.csv"))


@pytest.fixture()
def table2_series():
    from errorkit import dataset

    return dataset.load_series(dataset.bundled_path("table2.csv"))


@pytest.fixture()
def table3_rows():
    from errorkit import dataset

    return dataset.load_differential(dataset.bundled_path("table3.csv"))


@pytest.fixture()
def integer_ppm_samples(table1_series):
    """Whole-ppm relative error samples, the canonical cubic-fit input."""
    from errorkit import dataset

    samples = dataset.to_error_samples(table1_series, "mean-reference")
    condition, error = samples.columns
    return dataset.ErrorSamples(condition, [float(round(e)) for e in error.tolist()])
