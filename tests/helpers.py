"""Shared constructors for randomized test states, and the lane and fork
probes of the tests of numeric._forked_lanes and its callers."""
import contextlib
import os

import numpy as np
import pytest

from darwinlab import darwin, numeric
from darwinlab.branching import BranchingState
from darwinlab.qstate import HilbertShape, StateVector


def random_ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_state_vector(rng, dims) -> StateVector:
    shape = HilbertShape(tuple(dims))
    return StateVector(shape, random_ket(rng, shape.total_dim))


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_branching_state(rng, n_env, k, d=2, allow_zero=False) -> BranchingState:
    w = rng.random(k)
    if allow_zero and k > 1:
        w[rng.integers(k)] = 0.0
    probs = w / w.sum()
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    conds = [np.stack([random_ket(rng, d) for _ in range(k)]) for _ in range(n_env)]
    return BranchingState(probs, phases, conds)


def force_lanes(monkeypatch, lanes):
    """Keep numeric's one-thread BLAS scope but make its outermost entry
    yield `lanes`. A scope inside it yields one lane, as BLAS then reports
    one thread, in this process and in every forked lane."""
    real = numeric._one_blas_thread
    depth = []

    @contextlib.contextmanager
    def forced():
        with real():
            depth.append(None)
            try:
                yield lanes if len(depth) == 1 else 1
            finally:
                depth.pop()

    monkeypatch.setattr(numeric, "_one_blas_thread", forced)


def count_forks(monkeypatch):
    """A list that gains the pid of every child os.fork makes from now on."""
    forks = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at(monkeypatch, seed):
    """Make darwin.haar_random_source raise ValueError for one seed, in
    every lane."""
    real = darwin.haar_random_source

    def failing(n_env, s):
        if s == seed:
            raise ValueError(f"no state at seed {s}")
        return real(n_env, s)

    monkeypatch.setattr(darwin, "haar_random_source", failing)
