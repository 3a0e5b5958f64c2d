import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darwinlab import branching
from darwinlab.branching import (
    BranchingState,
    decohered_system_entropy,
    gram_entropy,
    system_entropy,
    to_state_vector,
    two_branch_entropy,
)
from darwinlab.darwin import BranchingSource
from darwinlab.info import LN2
from darwinlab.qstate import subsystem_entropy
from darwinlab.spinmodels import CentralSpinParams, central_spin_branching, cnot_model
from helpers import BAD_ROWS, random_branching_state, random_ket


def two_branch(overlap_angle, n, p0=0.5, phases=(0.0, 0.0)):
    """Qubit conditionals with real overlap cos(overlap_angle) on every site."""
    c, s = np.cos(overlap_angle / 2), np.sin(overlap_angle / 2)
    e0 = np.array([c, s], dtype=complex)
    e1 = np.array([c, -s], dtype=complex)
    conds = [np.stack([e0, e1]) for _ in range(n)]
    return BranchingState(np.array([p0, 1 - p0]), np.array(phases), conds)


def row(sites):
    """One fragment as the sorted (1, m) np.intp row matrix."""
    return np.sort(np.asarray(sites, dtype=np.intp)).reshape(1, -1)


def mutual_info(b, sites):
    return BranchingSource(b).fragment_mutual_info_many(row(sites))[0]


def entropies(b, sites):
    """H_F and H_SF of one fragment."""
    h_f, h_sf = branching._entropies(b, row(sites))
    return h_f[0], h_sf[0]


def gram_of(b, sites):
    """The Gram kernel of one fragment, from its inside overlap product."""
    inside, _ = branching._products(b, row(sites))
    return branching._gram_kernel(b, inside[0])


def outside_product(b, sites):
    return branching._products(b, row(sites))[1][0]


def test_empty_fragment_gram_is_rank_one():
    # the overlap product over no site is all ones
    b = random_branching_state(np.random.default_rng(0), 5, 3)
    g = branching._gram_kernel(b, np.ones((3, 3)))
    lam = np.linalg.eigvalsh(g)
    assert np.isclose(lam[-1], 1.0, atol=1e-10)
    assert np.allclose(lam[:-1], 0.0, atol=1e-10)
    assert gram_entropy(g) == pytest.approx(0.0, abs=1e-9)


def test_perfect_records_give_diagonal_gram():
    b = two_branch(np.pi / 2, 4, p0=0.3)  # orthogonal conditionals
    g = gram_of(b, (1,))
    assert np.allclose(g, np.diag([0.3, 0.7]), atol=1e-12)


def test_include_system_collapses_to_branch_probs():
    # the orthonormal pointer states put a delta_jk into every overlap
    # product that includes the system
    b = random_branching_state(np.random.default_rng(1), 4, 3)
    inside, _ = branching._products(b, row((0, 2)))
    g = branching._gram_kernel(b, np.eye(3) * inside[0])
    assert np.allclose(g, np.diag(b.probs), atol=1e-12)


def test_two_branch_gram_eigenvalues_closed_form():
    p0 = 0.35
    angle = 0.9
    b = two_branch(angle, 1, p0=p0)
    g = gram_of(b, (0,))
    c = np.cos(angle)
    expect = np.array(
        [
            (1 - np.sqrt(1 - 4 * p0 * (1 - p0) * (1 - c ** 2))) / 2,
            (1 + np.sqrt(1 - 4 * p0 * (1 - p0) * (1 - c ** 2))) / 2,
        ]
    )
    assert np.allclose(np.linalg.eigvalsh(g), expect, atol=1e-12)


def test_global_state_is_pure():
    b = random_branching_state(np.random.default_rng(2), 6, 4)
    assert entropies(b, range(6))[1] == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(2, 4))
def test_fast_path_matches_dense(seed, k, n):
    rng = np.random.default_rng(seed)
    b = random_branching_state(rng, n, k)
    dense = to_state_vector(b)
    frag = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    env_keep = tuple(int(i) + 1 for i in frag)
    h_f, h_sf = entropies(b, frag)
    assert h_f == pytest.approx(subsystem_entropy(dense, env_keep), abs=1e-9)
    assert h_sf == pytest.approx(subsystem_entropy(dense, (0,) + env_keep), abs=1e-9)


@given(st.integers(0, 10 ** 6))
def test_mutual_info_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    n = 7
    b = random_branching_state(rng, n, 3)
    frag = rng.choice(n, size=3, replace=False)
    h_s = system_entropy(b)
    i_f = mutual_info(b, frag)
    i_c = mutual_info(b, np.setdiff1d(np.arange(n), frag))
    assert i_f + i_c == pytest.approx(2 * h_s, abs=1e-9)


@given(st.integers(0, 10 ** 6))
def test_mutual_info_monotone_in_fragment(seed):
    rng = np.random.default_rng(seed)
    n = 6
    b = random_branching_state(rng, n, 2)
    order = rng.permutation(n)
    last = 0.0
    for m in range(1, n + 1):
        cur = mutual_info(b, order[:m])
        assert cur >= last - 1e-9
        last = cur


def test_mutual_info_endpoints():
    b = random_branching_state(np.random.default_rng(3), 5, 3)
    assert mutual_info(b, ()) == pytest.approx(0.0, abs=1e-9)
    assert mutual_info(b, range(5)) == pytest.approx(2 * system_entropy(b), abs=1e-9)


def test_phases_cancel_in_all_entropies():
    rng = np.random.default_rng(4)
    base = random_branching_state(rng, 6, 3)
    shifted = BranchingState(
        base.probs.copy(), rng.uniform(0, 2 * np.pi, size=3), [t.copy() for t in base.conditionals]
    )
    for frag in ((0,), (1, 4), (0, 2, 3, 5)):
        assert entropies(base, frag)[0] == pytest.approx(entropies(shifted, frag)[0], abs=1e-12)
        assert mutual_info(base, frag) == pytest.approx(mutual_info(shifted, frag), abs=1e-12)


def test_zero_amplitude_branch_carries_nothing():
    rng = np.random.default_rng(5)
    k, n = 3, 4
    b3 = random_branching_state(rng, n, k, allow_zero=True)
    zero_idx = int(np.argmin(b3.probs))
    assert b3.probs[zero_idx] == 0.0
    # the same state with the dead branch dropped
    keep = [i for i in range(k) if i != zero_idx]
    b2 = BranchingState(
        b3.probs[keep], b3.phases[keep], [t[keep] for t in b3.conditionals]
    )
    for frag in ((0,), (1, 3)):
        assert entropies(b3, frag)[0] == pytest.approx(entropies(b2, frag)[0], abs=1e-10)
        assert mutual_info(b3, frag) == pytest.approx(mutual_info(b2, frag), abs=1e-10)


def test_two_branch_entropy_endpoints_and_monotonicity():
    assert two_branch_entropy(0.0) == pytest.approx(LN2, abs=1e-15)
    assert two_branch_entropy(1.0) == pytest.approx(0.0, abs=1e-15)
    gammas = np.linspace(0, 1, 101)
    vals = [two_branch_entropy(g) for g in gammas]
    assert np.all(np.diff(vals) < 1e-12)
    with pytest.raises(ValueError):
        two_branch_entropy(1.5)


def test_two_branch_entropy_matches_series():
    for gamma in (0.1, 0.5, 0.9):
        n = np.arange(1, 400)
        series = LN2 - np.sum(gamma ** n / (2 * n * (2 * n - 1)))
        assert two_branch_entropy(gamma) == pytest.approx(series, abs=1e-12)


def test_two_branch_entropy_matches_gram_eigenvalues():
    # eigenvalues of the decohered two-branch system are (1 +- sqrt(G))/2
    for gamma in (0.2, 0.7):
        lam = np.array([(1 - np.sqrt(gamma)) / 2, (1 + np.sqrt(gamma)) / 2])
        expect = -np.sum(lam * np.log(lam))
        assert two_branch_entropy(gamma) == pytest.approx(expect, abs=1e-12)


def test_equal_two_branch_mutual_info_closed_form():
    # per-site overlap c: fragment of size m has H = twoBranchEntropy(c^{2m})
    angle, n = 1.1, 8
    c = np.cos(angle)
    b = two_branch(angle, n)
    for m in (1, 3, 5):
        h_f = entropies(b, range(m))[0]
        assert h_f == pytest.approx(two_branch_entropy(c ** (2 * m)), abs=1e-9)
        i = mutual_info(b, range(m))
        expect = (
            two_branch_entropy(c ** (2 * n))
            + two_branch_entropy(c ** (2 * m))
            - two_branch_entropy(c ** (2 * (n - m)))
        )
        assert i == pytest.approx(expect, abs=1e-9)


def test_equal_two_branch_mutual_info_closed_form_large_n():
    # n = 10^4 is far past the dense oracle; c^(2n) = 1/4 keeps every term
    # of the closed form away from its endpoints
    n = 10 ** 4
    angle = np.arccos(0.25 ** (1 / (2 * n)))
    b = two_branch(angle, n)
    c = b._pair_overlaps(0)[0, 1].real  # the per-site overlap as the state holds it
    rng = np.random.default_rng(8)
    for m in (1, n // 3, n // 2, n - 1):
        frag = rng.choice(n, size=m, replace=False)
        expect = (
            two_branch_entropy(c ** (2 * n))
            + two_branch_entropy(c ** (2 * m))
            - two_branch_entropy(c ** (2 * (n - m)))
        )
        assert mutual_info(b, frag) == pytest.approx(expect, abs=1e-12)


@given(st.integers(0, 10 ** 6))
def test_decomposition_sums_to_mutual_info(seed):
    rng = np.random.default_rng(seed)
    n = 6
    b = random_branching_state(rng, n, 3)
    frag = rng.choice(n, size=2, replace=False)
    classical, quantum = BranchingSource(b).decompose(row(frag))
    assert classical[0] + quantum[0] == pytest.approx(mutual_info(b, frag), abs=1e-9)


def test_decomposition_endpoints():
    b = random_branching_state(np.random.default_rng(6), 5, 2)
    src = BranchingSource(b)
    (c0,), (q0,) = src.decompose(row(()))
    assert c0 == pytest.approx(0.0, abs=1e-12)
    assert q0 == pytest.approx(0.0, abs=1e-9)
    (c1,), (q1,) = src.decompose(row(range(5)))
    h_s = system_entropy(b)
    assert c1 == pytest.approx(h_s, abs=1e-9)  # H_E = H_S for the pure global state
    assert q1 == pytest.approx(h_s, abs=1e-9)


def test_surplus_decoherence_quantum_term_negligible():
    # strong records everywhere: the complement keeps the system decohered
    b = two_branch(np.pi / 2 * 0.9, 50)
    _, quantum = BranchingSource(b).decompose(row(range(20)))
    assert abs(quantum[0]) < 1e-6


def test_branch_cap_enforced():
    from darwinlab.numeric import CapExceeded

    with pytest.raises(CapExceeded):
        BranchingState(
            np.full(65, 1 / 65), np.zeros(65), [np.stack([random_ket(np.random.default_rng(0), 2)] * 65)]
        )


# every public route from a row matrix to a number checks its rows
ROW_ROUTES = {
    "mutual_info": lambda b, idx: BranchingSource(b).fragment_mutual_info_many(idx),
    "decohered": lambda b, idx: BranchingSource(b).decohered_system_entropy(idx),
    "decomposition": lambda b, idx: BranchingSource(b).decompose(idx),
}
# the private steps behind them read checked rows only: every public route
# refuses a bad row before any of them runs
KERNEL_STEPS = {
    "fragment": "_row_products",
    "fragment+system": "_phase_kernel",
    "gram": "_gram_kernel",
    "overlap_product": "_products",
}


@pytest.mark.parametrize("name", [*ROW_ROUTES, *KERNEL_STEPS])
@pytest.mark.parametrize("sites", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_bad_site_index_rejected(name, sites, monkeypatch):
    b = random_branching_state(np.random.default_rng(10), 8, 3)
    routes = [ROW_ROUTES[name]] if name in ROW_ROUTES else ROW_ROUTES.values()
    if name in KERNEL_STEPS:
        monkeypatch.setattr(branching, KERNEL_STEPS[name],
                            lambda *args: pytest.fail(f"{name} ran on a bad row"))
    for route in routes:
        with pytest.raises(ValueError):
            route(b, sites)


def test_system_entropy_solved_once_per_state(monkeypatch):
    # H_S is kept by the state's source; each fragment call is one stacked
    # solve per side
    calls = []
    solve = branching.gram_entropy

    def counted(g):
        calls.append(g.shape)
        return solve(g)

    monkeypatch.setattr(branching, "gram_entropy", counted)
    b = random_branching_state(np.random.default_rng(11), 6, 3)
    src = BranchingSource(b)
    src.fragment_mutual_info((0, 2))
    assert len(calls) == 3
    for sites in ((1,), (0, 2), (1, 3, 4, 5)):
        calls.clear()
        src.fragment_mutual_info(sites)
        assert len(calls) == 2
    calls.clear()
    h_s = src.system_entropy()
    assert calls == []
    assert h_s == system_entropy(b)


def test_uncached_overlaps_match_cached(monkeypatch):
    rng = np.random.default_rng(12)
    frags = [(0,), (1, 3), (0, 2, 4), (1, 2, 3, 4, 5)]
    cached = [random_branching_state(rng, 6, 3) for _ in range(3)]
    expect = [[mutual_info(b, f) for f in frags] for b in cached]
    monkeypatch.setattr(branching, "_OVERLAP_CACHE_LIMIT", 0)
    for b, want in zip(cached, expect):
        fresh = BranchingState(b.probs, b.phases, b.conditionals)
        assert [mutual_info(fresh, f) for f in frags] == want
        assert fresh._overlaps is None


def test_ragged_or_wrong_k_conditionals_rejected():
    rng = np.random.default_rng(13)
    probs, phases = np.array([0.5, 0.5]), np.zeros(2)
    mixed_d = [np.stack([random_ket(rng, 2)] * 2), np.stack([random_ket(rng, 3)] * 2)]
    with pytest.raises(ValueError):
        BranchingState(probs, phases, mixed_d)
    wrong_k = [np.stack([random_ket(rng, 2)] * 3) for _ in range(4)]
    with pytest.raises(ValueError):
        BranchingState(probs, phases, wrong_k)
    with pytest.raises(ValueError):
        BranchingState(probs, phases, np.stack(wrong_k))


def test_unnormalized_site_is_named():
    b = random_branching_state(np.random.default_rng(14), 6, 3)
    conds = b.conditionals.copy()
    conds[4, 1] *= 1.01
    with pytest.raises(ValueError, match="subsystem 4 not normalized"):
        BranchingState(b.probs, b.phases, conds)


def test_list_of_tables_becomes_one_array():
    b = random_branching_state(np.random.default_rng(15), 7, 3)
    assert isinstance(b.conditionals, np.ndarray) and b.conditionals.shape == (7, 3, 2)
    from_array = BranchingState(b.probs, b.phases, b.conditionals.copy())
    assert np.array_equal(from_array.conditionals, b.conditionals)


@pytest.mark.parametrize("k, d", [(2, 2), (3, 3), (16, 2)])
def test_overlap_table_matches_per_site_products(k, d, monkeypatch):
    b = random_branching_state(np.random.default_rng(16), 40, k, d=d)
    per_site = np.stack([t.conj() @ t.T for t in b.conditionals])
    everywhere = np.arange(b.n_env)
    assert np.array_equal(b._pair_overlaps(everywhere), per_site)
    monkeypatch.setattr(branching, "_OVERLAP_CACHE_LIMIT", 0)
    fresh = BranchingState(b.probs, b.phases, b.conditionals)
    sites = np.array([0, 3, 17, 39])
    assert np.array_equal(fresh._pair_overlaps(sites), per_site[sites])
    assert fresh._overlaps is None


# ---------------------------------------------------------------------------
# the complement product from log totals, against the literal product

EPS = np.finfo(float).eps


def literal_complement(b, frag):
    """The sequential product over every site outside frag."""
    o = b._pair_overlaps(np.arange(b.n_env))
    return np.prod(o[np.setdiff1d(np.arange(b.n_env), frag)], axis=0)


def literal_mutual_info(b, frag):
    h_sf = gram_entropy(branching._phase_kernel(b, literal_complement(b, frag)))
    return system_entropy(b) + entropies(b, frag)[0] - h_sf


def assert_within_rule(b, frag):
    """|fast - literal| <= 4 eps sum_l (1 + |log o_l|) |literal| entrywise,
    the sum over all sites; entries below 1e-300 count as zero."""
    o = b._pair_overlaps(np.arange(b.n_env))
    scale = EPS * np.sum(1.0 + np.abs(np.log(np.where(o == 0, 1.0, o))), axis=0)
    lit = literal_complement(b, frag)
    fast = outside_product(b, frag)
    assert np.all(np.abs(fast - lit) <= 4.0 * scale * np.abs(lit) + 1e-300)


def central_spin(n, t, seed):
    rng = np.random.default_rng(seed)
    return central_spin_branching(CentralSpinParams(rng.uniform(0.0, 1.0, n), t=t))


def sample_fragments(n, sizes, seed):
    rng = np.random.default_rng(seed)
    return [rng.choice(n, size=m, replace=False) for m in sizes]


def test_weak_decoherence_within_error_rule():
    b = central_spin(2000, 0.02, seed=20)
    for frag in sample_fragments(2000, (1, 7, 64, 500, 1000, 1999), seed=21):
        assert_within_rule(b, frag)
        assert mutual_info(b, frag) == pytest.approx(
            literal_mutual_info(b, frag), abs=1e-14)


def test_strong_decoherence_values_equal():
    b = central_spin(2000, 4.0, seed=22)
    for frag in sample_fragments(2000, (1, 7, 64, 500, 1000), seed=23):
        assert_within_rule(b, frag)
        assert mutual_info(b, frag) == literal_mutual_info(b, frag)


def test_orthogonal_records_give_exact_zeros():
    # c-not records with branch weights of exactly 1/2
    b = BranchingState([0.5, 0.5], [0.0, 0.0], np.tile(np.eye(2, dtype=complex), (300, 1, 1)))
    for frag in sample_fragments(300, (1, 2, 150, 299), seed=24):
        comp = outside_product(b, frag)
        assert comp[0, 1] == 0.0 and comp[1, 0] == 0.0
        assert np.array_equal(comp, literal_complement(b, frag))
        # the eigensolver leaves an ulp; the literal product gives the same bytes
        assert mutual_info(b, frag) == literal_mutual_info(b, frag)
        assert abs(mutual_info(b, frag) - LN2) <= EPS
    assert np.array_equal(outside_product(b, np.arange(300)), np.ones((2, 2)))
    cli_model = cnot_model(1 / np.sqrt(2), 1 / np.sqrt(2), 300)
    for frag in sample_fragments(300, (1, 150), seed=24):
        assert mutual_info(cli_model, frag) == literal_mutual_info(cli_model, frag)


def test_random_sixteen_branches_within_error_rule():
    b = random_branching_state(np.random.default_rng(25), 200, 16)
    for frag in sample_fragments(200, (1, 5, 50, 100, 199), seed=26):
        assert_within_rule(b, frag)
        assert mutual_info(b, frag) == pytest.approx(
            literal_mutual_info(b, frag), abs=1e-13)


def test_hundred_thousand_sites_within_error_rule():
    # per-site overlaps near 1, so the complement products stay away from 0
    b = central_spin(10 ** 5, 0.005, seed=27)
    for frag in sample_fragments(10 ** 5, (1, 3000, 50000), seed=28):
        assert_within_rule(b, frag)
        assert mutual_info(b, frag) == pytest.approx(
            literal_mutual_info(b, frag), abs=1e-12)


@pytest.mark.parametrize("k, n, t", [(2, 300, 0.05), (2, 300, 4.0), (16, 60, None)])
def test_many_rows_equal_single_calls(k, n, t, monkeypatch):
    b = central_spin(n, t, seed=29) if t else random_branching_state(np.random.default_rng(29), n, k)
    monkeypatch.setattr(branching, "_GATHER_LIMIT", 64)  # several chunks per call
    rng = np.random.default_rng(30)
    for m in (0, 1, 9, n // 2, n):
        idx = np.array([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(5)],
                       dtype=np.intp).reshape(5, m)
        src = BranchingSource(b)
        many = src.fragment_mutual_info_many(idx)
        assert many.tolist() == [src.fragment_mutual_info_many(r[None])[0] for r in idx]


def test_empty_fragment_leaves_the_system_entropy():
    # the source answers the empty fragment itself, on these weak records
    # too: it is pure and holds no records, so H_F, I and the decohered
    # entropy are exactly 0
    empty = np.zeros((3, 0), dtype=np.intp)
    for seed in range(4):
        src = BranchingSource(central_spin(500, 0.05, seed=seed))
        assert src.fragment_mutual_info_many(empty).tolist() == [0.0] * 3
        assert src.decohered_system_entropy(empty).tolist() == [0.0] * 3
        assert src.decompose(empty)[0].tolist() == [0.0] * 3


@pytest.mark.parametrize("idx", [np.array([[2, 1]]), np.array([[1, 1]]), np.array([[0, 8]]),
                                 np.array([[-1, 2]]), np.array([1, 2])],
                         ids=["unsorted", "repeat", "n", "negative", "flat"])
def test_many_rejects_bad_rows(idx):
    b = random_branching_state(np.random.default_rng(32), 8, 3)
    with pytest.raises(ValueError):
        BranchingSource(b).fragment_mutual_info_many(idx)


@pytest.mark.parametrize("n, t, k", [(2000, 0.02, 2), (2000, 4.0, 2), (200, None, 16)])
def test_decohered_entropy_equals_literal_products(n, t, k):
    # the one-fragment overlap-product route, kept here as the oracle
    b = central_spin(n, t, seed=34) if t else random_branching_state(np.random.default_rng(34), n, k)
    o = b._pair_overlaps(np.arange(n))
    rng = np.random.default_rng(35)
    for m in (1, 7, n // 2, n - 1, n):
        idx = np.array([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(6)],
                       dtype=np.intp)
        want = [gram_entropy(branching._phase_kernel(b, np.prod(o[r], axis=0))) for r in idx]
        assert decohered_system_entropy(b, idx).tolist() == want


@pytest.mark.parametrize("cache_limit", [2 ** 24, 0], ids=["cached", "uncached"])
def test_complement_of_everything_is_exactly_one(cache_limit, monkeypatch):
    # T adds the site chunks in order, so S_F over all sites equals T to the bit
    monkeypatch.setattr(branching, "_GATHER_LIMIT", 64)
    monkeypatch.setattr(branching, "_OVERLAP_CACHE_LIMIT", cache_limit)
    b = random_branching_state(np.random.default_rng(33), 150, 3)
    assert np.array_equal(outside_product(b, np.arange(150)), np.ones((3, 3)))
