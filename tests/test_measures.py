import math

import numpy as np
import pytest
from scipy import special

from genbound import (ConfigurationError, FiniteMeasure, JointMeasure,
                      MarkovKernel, conditional_divergence,
                      conditional_mutual_information, kl_divergence,
                      mutual_information)
from genbound.measures import logsumexp, rel_entr, unique_rows


def test_measure_rejects_bad_weights():
    with pytest.raises(ConfigurationError):
        FiniteMeasure([0.5, 0.6])
    with pytest.raises(ConfigurationError):
        FiniteMeasure([-0.2, 1.2])
    with pytest.raises(ConfigurationError):
        FiniteMeasure([])


def test_measure_normalizes_drift():
    m = FiniteMeasure([0.5 + 1e-10, 0.5])
    assert m.weights.sum() == 1.0


def per_row_clean(w):
    """One-vector validation, as kernels once ran it row by row."""
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    total = w.sum()
    assert abs(total - 1.0) <= 1e-9
    return w / total if total != 1.0 else w


def test_kernel_validates_its_rows_in_one_pass():
    gen = np.random.default_rng(5)
    for _ in range(2000):
        rows, cols = gen.integers(1, 20), gen.integers(1, 300)
        mat = gen.dirichlet(np.ones(cols), size=rows)
        off = gen.random((rows, cols)) < 0.05
        off[np.arange(rows), mat.argmax(axis=1)] = False
        mat[off] = 0.0
        mat /= mat.sum(axis=1, keepdims=True)
        mat *= 1.0 + gen.uniform(-5e-10, 5e-10, size=(rows, 1))  # drift to renormalize
        mat[off] = -1e-14  # LP round-off to clip
        if gen.random() < 0.2:
            mat = np.asfortranarray(mat)
        want = np.stack([per_row_clean(r) for r in mat])
        assert MarkovKernel(mat).matrix.tobytes() == want.tobytes()
        assert MarkovKernel(mat.tolist()).matrix.tobytes() == want.tobytes()


def test_kernel_errors_name_the_first_bad_row():
    good = [0.5, 0.5]
    for bad, words in (([np.nan, 1.0], "non-finite"), ([-0.1, 1.1], "negative"),
                       ([0.5, 0.6], "drifts")):
        with pytest.raises(ConfigurationError, match=rf"row 2: .*{words}"):
            MarkovKernel(np.array([good, good, bad, bad]))
    with pytest.raises(ConfigurationError):
        MarkovKernel(np.array([0.5, 0.5]))  # one vector is not a kernel


def test_point_mass_and_uniform():
    assert FiniteMeasure(np.eye(3)[1]).weights.tolist() == [0.0, 1.0, 0.0]
    assert np.allclose(FiniteMeasure.uniform(4).weights, 0.25)


def test_kl_identical_measures():
    m = FiniteMeasure([0.5, 0.5])
    assert kl_divergence(m, m) == 0.0


def test_kl_atom_vs_uniform():
    val = kl_divergence(FiniteMeasure([1.0, 0.0]), FiniteMeasure([0.5, 0.5]))
    assert abs(val - math.log(2.0)) < 1e-15


def test_kl_direct_summation():
    val = kl_divergence(FiniteMeasure([0.75, 0.25]), FiniteMeasure([0.5, 0.5]))
    expect = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert abs(val - expect) < 1e-15
    assert abs(val - 0.130812) < 1e-6


def test_kl_absolute_continuity_failure():
    val = kl_divergence(FiniteMeasure([0.5, 0.5]), FiniteMeasure([1.0, 0.0]))
    assert val == math.inf


def test_mi_product_joint_is_zero():
    j = JointMeasure(np.array([0.3, 0.7])[:, None]
                     * MarkovKernel.constant(FiniteMeasure([0.6, 0.4]), 2).matrix)
    assert abs(mutual_information(j)) < 1e-15


def test_mi_correlated_bit():
    j = JointMeasure([[0.5, 0.0], [0.0, 0.5]])
    assert abs(mutual_information(j) - math.log(2.0)) < 1e-15


def test_mi_binary_symmetric_channel():
    # uniform input, 0.1 flip probability: I = log 2 - H(0.1) in nats
    j = JointMeasure(np.array([0.5, 0.5])[:, None] * np.array([[0.9, 0.1], [0.1, 0.9]]))
    h = -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
    assert abs(mutual_information(j) - (math.log(2.0) - h)) < 1e-12
    assert abs(mutual_information(j) - 0.368064) < 1e-6


def test_conditional_divergence_equal_kernels():
    k = MarkovKernel([[0.2, 0.8], [0.7, 0.3]])
    assert conditional_divergence(k, k, FiniteMeasure([0.4, 0.6])) == 0.0


def test_conditional_divergence_single_row_base():
    p = MarkovKernel([[0.3, 0.7]])
    q = MarkovKernel([[0.5, 0.5]])
    val = conditional_divergence(p, q, FiniteMeasure([1.0]))
    assert abs(val - kl_divergence(FiniteMeasure([0.3, 0.7]),
                                   FiniteMeasure([0.5, 0.5]))) < 1e-15


def test_conditional_divergence_skips_null_rows():
    p = MarkovKernel([[1.0, 0.0], [0.5, 0.5]])
    q = MarkovKernel([[0.0, 1.0], [0.5, 0.5]])  # infinite KL on the dead row
    assert conditional_divergence(p, q, FiniteMeasure([0.0, 1.0])) == 0.0


def test_divergence_decomposition_random():
    # D(P_{Y|X} || Q | P_X) = I(X;Y) + D(P_Y || Q)
    gen = np.random.default_rng(3)
    for _ in range(50):
        nx, ny = int(gen.integers(1, 5)), int(gen.integers(2, 5))
        joint = JointMeasure(gen.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        q = FiniteMeasure(gen.dirichlet(np.ones(ny)))
        px = FiniteMeasure(joint.weights.sum(axis=1))
        rows = joint.weights / px.weights[:, None]
        lhs = conditional_divergence(MarkovKernel(rows),
                                     MarkovKernel.constant(q, nx), px)
        rhs = mutual_information(joint) + kl_divergence(FiniteMeasure(joint.weights.sum(axis=0)), q)
        assert abs(lhs - rhs) < 1e-9


def test_cmi_independent_given_z():
    # X and Y independent given Z: weights factor per slab
    gen = np.random.default_rng(4)
    pz = gen.dirichlet(np.ones(3))
    w = np.empty((2, 2, 3))
    for z in range(3):
        w[:, :, z] = pz[z] * np.outer(gen.dirichlet(np.ones(2)),
                                      gen.dirichlet(np.ones(2)))
    assert abs(conditional_mutual_information(w)) < 1e-14


def test_cmi_constant_z_reduces_to_mi():
    gen = np.random.default_rng(5)
    slab = gen.dirichlet(np.ones(6)).reshape(2, 3)
    w = slab[:, :, None]  # single z value
    assert abs(conditional_mutual_information(w)
               - mutual_information(JointMeasure(slab))) < 1e-14


def test_cmi_brute_force_triple_sum():
    gen = np.random.default_rng(6)
    w = gen.dirichlet(np.ones(8)).reshape(2, 2, 2)
    expect = 0.0
    pz = w.sum(axis=(0, 1))
    pxz = w.sum(axis=1)
    pyz = w.sum(axis=0)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                if w[x, y, z] > 0:
                    expect += w[x, y, z] * math.log(
                        w[x, y, z] * pz[z] / (pxz[x, z] * pyz[y, z]))
    assert abs(conditional_mutual_information(w) - expect) < 1e-12


def test_cmi_skips_null_slabs():
    gen = np.random.default_rng(7)
    w = gen.dirichlet(np.ones(12)).reshape(2, 2, 3)
    w[:, :, 1] = 0.0
    w /= w.sum()
    assert abs(conditional_mutual_information(w)
               - conditional_mutual_information(w[:, :, [0, 2]])) < 1e-15


def test_rel_entr_matches_scipy_on_every_branch():
    gen = np.random.default_rng(8)
    base = gen.dirichlet(np.ones(64))
    cases = {
        "near-1 ratio": (base, base * (1.0 + gen.uniform(-1e-7, 1e-7, 64))),
        "plain ratio": (base, gen.dirichlet(np.ones(64))),
        "subnormal ratio": (np.array([1e-300, 3e-301, 1e-300]), np.array([1e10, 1e12, 1e30])),
        "overflowing ratio": (np.array([1e300, 1e200]), np.array([1e-10, 1e-120])),
        "x = 0": (np.zeros(3), np.array([0.2, 0.0, 0.8])),
        "y = 0": (np.array([0.3, 0.7]), np.zeros(2)),
        "mixed zeros": (np.array([0.0, 0.5, 0.5, 0.0]), np.array([0.5, 0.0, 0.5, 0.0])),
        "2-d broadcast": (gen.dirichlet(np.ones(5), size=3), gen.dirichlet(np.ones(5))),
    }
    for name, (x, y) in cases.items():
        got, want = rel_entr(x, y), special.rel_entr(x, y)
        assert got.shape == want.shape, name
        assert np.array_equal(np.isinf(got), np.isinf(want)), name
        assert np.array_equal(got == 0.0, want == 0.0), name
        np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0, err_msg=name)


def test_logsumexp_matches_scipy():
    gen = np.random.default_rng(9)
    # Gibbs logits: a log prior with a null atom, minus beta * n * training risk
    prior = gen.dirichlet(np.ones(6))
    prior[2] = 0.0
    with np.errstate(divide="ignore"):
        logits = np.log(prior)[None, :] - 40.0 * gen.uniform(size=(30, 6))
    logits[4] = logits[4, 0]  # a row of ties but for the null atom
    logits[4, 2] = -np.inf
    got = logsumexp(logits, axis=1, keepdims=True)
    want = special.logsumexp(logits, axis=1, keepdims=True)
    assert got.shape == want.shape == (30, 1)
    np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)
    # weighted 1-d input: a zero weight drops its term, however large
    g = gen.uniform(0.0, 3.0, size=8) ** 2
    b = gen.dirichlet(np.ones(8))
    b[[1, 5]] = 0.0
    g[5] = 1e4
    got, want = logsumexp(g, b=b), special.logsumexp(g, b=b)
    assert np.ndim(got) == 0
    np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)


def per_object_kl(mu, nu):
    return float(rel_entr(mu.weights, nu.weights).sum())


def per_object_mi(joint):
    w = joint.weights
    return float(rel_entr(w, np.outer(w.sum(axis=1), w.sum(axis=0))).sum())


def per_object_conditional_divergence(p, q, base):
    live = base.weights > 0.0
    return float(base.weights[live] @ rel_entr(p.matrix[live], q.matrix[live]).sum(axis=1))


def per_object_cmi(w):
    w = np.asarray(w, dtype=float)
    w = w / w.sum()
    p_z = w.sum(axis=(0, 1))
    live = p_z > 0.0
    slabs = w[:, :, live] / p_z[live]
    indep = slabs.sum(axis=1)[:, None, :] * slabs.sum(axis=0)[None, :, :]
    return float(p_z[live] @ rel_entr(slabs, indep).sum(axis=(0, 1)))


def test_object_level_functionals_keep_their_bits():
    # each object-level functional is the one-row call of its array core; on the
    # inputs above, and on joints the size of bound_mi's, it returns the bits of
    # the per-object formula it replaced. (With nx * ny >= 8, I(X;Y|Z) may move in
    # the last bit: the old boolean-indexed slab copy summed in another order.)
    measures = [FiniteMeasure(w) for w in ([0.5, 0.5], [1.0, 0.0], [0.75, 0.25], [0.3, 0.7])]
    for mu in measures:
        for nu in measures:
            assert kl_divergence(mu, nu) == per_object_kl(mu, nu)
    joints = [JointMeasure([[0.1, 0.2], [0.3, 0.4]]), JointMeasure([[0.5, 0.0], [0.0, 0.5]]),
              JointMeasure(np.array([0.5, 0.5])[:, None] * np.array([[0.9, 0.1], [0.1, 0.9]]))]
    kernels = [(MarkovKernel([[0.2, 0.8], [0.7, 0.3]]), MarkovKernel([[0.2, 0.8], [0.7, 0.3]]),
                FiniteMeasure([0.4, 0.6])),
               (MarkovKernel([[1.0, 0.0], [0.5, 0.5]]), MarkovKernel([[0.0, 1.0], [0.5, 0.5]]),
                FiniteMeasure([0.0, 1.0]))]
    gen = np.random.default_rng(3)
    for _ in range(200):
        nx, ny = int(gen.integers(1, 16)), int(gen.integers(1, 9))
        joint = gen.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
        joint[gen.random((nx, ny)) < 0.2] = 0.0
        if joint.sum() == 0.0:
            continue
        joints.append(JointMeasure(joint / joint.sum()))
        base = gen.dirichlet(np.ones(nx))
        base[gen.random(nx) < 0.3] = 0.0
        if base.sum() > 0.0:
            kernels.append((MarkovKernel(gen.dirichlet(np.ones(ny), size=nx)),
                            MarkovKernel(gen.dirichlet(np.ones(ny), size=nx)),
                            FiniteMeasure(base / base.sum())))
    for shape in ((256, 81), (243, 125), (64, 256)):
        joints.append(JointMeasure(gen.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)))
    for joint in joints:
        assert mutual_information(joint) == per_object_mi(joint)
    for p, q, base in kernels:
        assert conditional_divergence(p, q, base) == per_object_conditional_divergence(p, q, base)
    cmi_inputs = [gen.dirichlet(np.ones(n)).reshape(shape) for n, shape in
                  ((8, (2, 2, 2)), (12, (2, 2, 3)), (6, (2, 3, 1)))]
    cmi_inputs[1][:, :, 1] = 0.0
    cmi_inputs[1] /= cmi_inputs[1].sum()
    for w in cmi_inputs:
        assert conditional_mutual_information(w) == per_object_cmi(w)


def test_unique_rows_matches_np_unique_on_axis_0():
    gen = np.random.default_rng(46)
    tables = [gen.normal(size=(20, 3)), gen.normal(size=(1, 4)), gen.normal(size=(7, 1)),
              np.zeros((5, 2)), gen.integers(-2, 3, size=(40, 3)).astype(float)]
    for _ in range(50):  # tied rows, in shuffled order
        k, dim = int(gen.integers(1, 30)), int(gen.integers(1, 5))
        base = gen.normal(size=(max(1, k // 3), dim))
        tables.append(base[gen.integers(0, len(base), size=k)])
    signed = np.round(gen.normal(size=(30, 2)), 0) * gen.choice([-1.0, 1.0], size=(30, 2))
    assert np.signbit(signed[signed == 0.0]).any()
    tables.append(signed + 0.0)  # keys normalize -0.0 to 0.0, as the geodesic atoms do
    for table in tables:
        rows, inverse = unique_rows(table)
        ref_rows, ref_inverse = np.unique(table, axis=0, return_inverse=True)
        assert rows.tobytes() == ref_rows.tobytes() and rows.shape == ref_rows.shape
        assert np.array_equal(inverse, ref_inverse.reshape(-1)) and inverse.ndim == 1
