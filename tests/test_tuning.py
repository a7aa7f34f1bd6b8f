"""m/k tuner: Eq. (1) and (2), including the paper's own configuration."""

import pytest

from repro.common.errors import ConfigError
from repro.core.tuning import appended_sequences_bytes, tune_m_k

GB = 1 << 30


def test_eq1_appended_sequences_bytes():
    # S_{m,k} = D_m * (k-1) / t
    assert appended_sequences_bytes(1000, 1, 10) == 0.0
    assert appended_sequences_bytes(1000, 3, 10) == pytest.approx(200.0)
    with pytest.raises(ConfigError):
        appended_sequences_bytes(1000, 0, 10)


def test_everything_fits_gives_lsa_mode():
    sizes = {1: 100, 2: 200}
    m, k = tune_m_k(sizes, 2, memory_budget=10_000, fanout=10, max_k=5)
    assert m == 3  # beyond the deepest level: pure appends
    assert k == 1


def test_nothing_fits_gives_lsm_mode():
    sizes = {1: 100}
    m, k = tune_m_k(sizes, 1, memory_budget=0, fanout=10, max_k=5)
    # m=1 with the largest k whose appended sequences still fit (0 bytes
    # below L1); D_1*(k-1)/t must be <= 0 -> k=1.
    assert (m, k) == (1, 1)


def test_mixed_level_chosen_with_partial_fit():
    sizes = {1: 100, 2: 1000, 3: 10_000}
    # Budget covers L1+L2 but not L3 -> m=3; k from D_3*(k-1)/10 <= slack.
    m, k = tune_m_k(sizes, 3, memory_budget=1500, fanout=10, max_k=8)
    assert m == 3
    # slack = 1500 - 1100 = 400; 10000*(k-1)/10 <= 400 -> k <= 1.4 -> k=1
    assert k == 1
    m, k = tune_m_k(sizes, 3, memory_budget=4100, fanout=10, max_k=8)
    assert m == 3
    # slack = 3000 -> k-1 <= 3 -> k=4
    assert k == 4


def test_m_preferred_over_k():
    """§5.1.3: 'the largest m and k satisfying the inequality' -- m first."""
    sizes = {1: 100, 2: 1000}
    # Budget 1100 fits everything below L3 exactly -> m=3 (pure appends
    # through L2) even though a smaller m would allow a huge k.
    m, k = tune_m_k(sizes, 2, memory_budget=1100, fanout=10, max_k=8)
    assert m == 3


def test_paper_1tb_configuration():
    """§6.1/§5.1.3 at paper scale: 1 TB data, 64 GB RAM, M/2 budget.

    D1 ~ 640 MB, D2 ~ 6.4 GB, D3 ~ 64 GB, D4 ~ rest.  With a 32 GB budget
    the mixed level lands on L3 (as in Tables 3/4) and k ~ 4.
    """
    sizes = {1: int(0.64 * GB), 2: int(6.4 * GB), 3: 64 * GB, 4: 950 * GB}
    m, k = tune_m_k(sizes, 4, memory_budget=32 * GB, fanout=10, max_k=8)
    assert m == 3
    assert 3 <= k <= 5


def test_paper_100gb_configuration():
    """100 GB data, 16 GB RAM, M/2 = 8 GB budget -> m=3, k=1 (Table 3 uses
    fixed k = 1..3 as an ablation around this point)."""
    sizes = {1: int(0.64 * GB), 2: int(6.4 * GB), 3: 64 * GB, 4: 29 * GB}
    m, k = tune_m_k(sizes, 4, memory_budget=8 * GB, fanout=10, max_k=8)
    assert m == 3
    assert k == 1


def test_k_capped_by_k_max():
    sizes = {1: 10, 2: 100}
    m, k = tune_m_k(sizes, 2, memory_budget=95, fanout=10, max_k=3)
    assert m == 2
    assert k == 3


def test_empty_tree():
    assert tune_m_k({}, 0, memory_budget=100, fanout=10, max_k=5) == (1, 1)


def test_negative_budget_rejected():
    with pytest.raises(ConfigError):
        tune_m_k({1: 10}, 1, memory_budget=-1, fanout=10, max_k=5)
