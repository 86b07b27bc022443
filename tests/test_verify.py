import numpy as np
import pytest

from platevac import verify


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    def test_matches_numpy_rule(self, n):
        nodes, weights = verify._gauss_legendre(n)
        order = np.argsort(nodes)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(nodes[order], ref_nodes, rtol=0, atol=1e-15)
        # numpy's own weights lose ~1e-11 next to +-1 at n = 200
        np.testing.assert_allclose(weights[order], ref_weights, rtol=1e-10)

    @pytest.mark.parametrize("n", [5, 200])
    def test_exact_for_degree_2n_minus_1(self, n):
        nodes, weights = verify._gauss_legendre(n)
        for degree in (0, 2 * n - 2):
            assert np.dot(weights, nodes ** degree) == pytest.approx(
                2.0 / (degree + 1), rel=1e-13
            )
        assert abs(np.dot(weights, nodes ** (2 * n - 1))) < 1e-14
