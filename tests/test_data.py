import numpy as np
import pytest

from tvbounds import data
from tvbounds.data import LocationData, RegressionData, load_csv, location_stats, regression_stats
from tvbounds.errors import IngestionError, ParameterError


@pytest.mark.literal
def test_builtin_trees_girth(trees):
    j, y_bar, s = trees
    assert j == 31
    assert y_bar == pytest.approx(13.248387096774195, rel=1e-12)
    girth = np.array(data.TREES_GIRTH)
    assert s == pytest.approx(30 * girth.var(ddof=1), rel=1e-12)
    assert s == pytest.approx(295.4374193548, abs=1e-6)


def test_builtin_unknown_name():
    with pytest.raises(IngestionError):
        data.builtin_dataset("iris")


def test_location_stats_degenerate():
    assert location_stats(LocationData(np.full(5, 3.3)))[2] == 0.0
    j, y_bar, s = location_stats(LocationData(np.array([0.0, 1.0, 2.0])))
    assert (j, y_bar, s) == (3, 1.0, 2.0)


def test_location_stats_two_pass_matches_naive(rng):
    y = rng.normal(50.0, 2.0, size=200)
    _, y_bar, s = location_stats(LocationData(y))
    naive = float((y**2).sum() - y.size * y_bar**2)
    assert s == pytest.approx(naive, rel=1e-8)


def test_load_csv_location(tmp_path):
    p = tmp_path / "loc.csv"
    p.write_text("girth\n8.3\n8.6\n9.0\n", encoding="utf-8")
    ds = load_csv(p, "girth")
    assert isinstance(ds, LocationData)
    assert ds.y.size == 3


def test_load_csv_regression_two_rows(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("y,x1\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    ds = load_csv(p, "y", ["x1"], prior_lambda=1.0)
    assert isinstance(ds, RegressionData)
    assert ds.y.size == 2 and ds.x.shape == (2, 1)


def test_load_csv_text_cell_names_location(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,x1\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=r"row 3, column 'x1'"):
        load_csv(p, "y", ["x1"], prior_lambda=1.0)


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "cols.csv"
    p.write_text("a\n1.0\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="missing column"):
        load_csv(p, "y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(IngestionError):
        load_csv(tmp_path / "nope.csv", "y")


def test_load_csv_regression_needs_prior(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("y,x1\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    with pytest.raises(ParameterError, match="prior"):
        load_csv(p, "y", ["x1"])


def test_regression_stats_intercept_only(rng):
    y = rng.normal(2.0, 1.0, size=40)
    ds = RegressionData(y, np.ones((40, 1)), prior_lambda=1e-12)
    a, beta, c = regression_stats(ds)
    assert a[0, 0] == pytest.approx(40.0, rel=1e-9)
    assert beta[0] == pytest.approx(y.mean(), rel=1e-9)
    assert c == pytest.approx(((y - y.mean()) ** 2).sum(), rel=1e-6)


def test_regression_stats_orthonormal_design(rng):
    q, _ = np.linalg.qr(rng.standard_normal((30, 3)))
    y = rng.standard_normal(30)
    ds = RegressionData(y, q, prior_lambda=1e-12)
    _, _, c = regression_stats(ds)
    assert c == pytest.approx(float(y @ y - (q.T @ y) @ (q.T @ y)), rel=1e-6)


def test_regression_stats_shrinkage_monotone(rng):
    y = rng.standard_normal(25)
    x = rng.standard_normal((25, 2))
    prev = -1.0
    betas = []
    for lam in (0.01, 1.0, 100.0, 1e4, 1e6):
        ds = RegressionData(y, x, prior_lambda=lam)
        _, beta, c = regression_stats(ds)
        assert c >= prev
        prev = c
        betas.append(np.linalg.norm(beta))
    assert betas[-1] < 1e-4 * betas[0]  # beta_tilde -> 0 as lambda grows


def test_regression_residual_identity(rng):
    for _ in range(20):
        k, p = 30, 4
        y = rng.standard_normal(k)
        x = rng.standard_normal((k, p))
        lam = float(rng.uniform(0.1, 5.0))
        ds = RegressionData(y, x, prior_lambda=lam)
        _, beta, c = regression_stats(ds)
        direct = float(((y - x @ beta) ** 2).sum() + lam * (beta @ beta))
        assert c == pytest.approx(direct, rel=1e-8)


def test_regression_rank_deficient_raises():
    y = np.arange(6.0)
    x = np.column_stack([np.ones(6), np.ones(6)])
    with pytest.raises(ParameterError):
        regression_stats(RegressionData(y, x, prior_lambda=1e-14))


def test_data_validation():
    with pytest.raises(ParameterError):
        LocationData(np.array([1.0, 2.0]))  # J < 3
    with pytest.raises(ParameterError):
        RegressionData(np.arange(3.0), np.ones((3, 3)), 1.0)  # k <= p
    with pytest.raises(ParameterError):
        RegressionData(np.arange(4.0), np.ones((4, 1)), 0.0)  # bad prior
