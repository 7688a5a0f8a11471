import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipspectra import configspace
from sipspectra.configspace import (
    ConfigSpace,
    SpaceCapExceeded,
    enumerate_configs,
)
from sipspectra.graphs import complete, h_shape, path_graph, torus


def test_two_site_count():
    space = enumerate_configs(path_graph(2), 2)
    assert space.size == 3


def test_partition_on_path():
    space = enumerate_configs(path_graph(3), 2)
    omega = {space.config(i) for i in space.omega}
    delta = {space.config(i) for i in space.delta}
    assert omega == {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 1)}
    assert delta == {(1, 1, 0), (0, 1, 1)}


def test_h_shape_four_particle_singleton_sector():
    space = enumerate_configs(h_shape(), 4)
    four = space.omega_by_stacks[4]
    assert {space.config(i) for i in four} == {(1, 0, 1, 1, 0, 1)}


def test_stack_count():
    for g, occupation, stacks in ((path_graph(3), (3, 0, 0), 1),
                                  (path_graph(3), (1, 0, 1), 2),
                                  (h_shape(), (1, 0, 2, 1, 0, 1), 4)):
        space = enumerate_configs(g, sum(occupation))
        assert space.stack_counts[space.index_of(occupation)] == stacks


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=5))
@settings(max_examples=25, deadline=None)
def test_rank_round_trip(k, n):
    space = enumerate_configs(path_graph(n), k)
    ranks = space.rank_rows(space.occupations)
    assert np.array_equal(ranks, np.arange(space.size))
    for i in (0, space.size // 2, space.size - 1):
        assert space.index_of(space.config(i)) == i


@pytest.mark.parametrize("occupation", [(1, 1), (1, 1, 0, 0), (3, -1, 0), (1, 0, 0)])
def test_index_of_rejects_foreign_occupations(occupation):
    # wrong length, negative entry, wrong particle total: none is a state
    with pytest.raises(KeyError):
        enumerate_configs(path_graph(3), 2).index_of(occupation)


def test_partition_disjoint_and_exhaustive():
    for g, k in ((torus(4, 1), 3), (h_shape(), 4), (complete(3), 2)):
        space = enumerate_configs(g, k)
        assert set(space.omega) | set(space.delta) == set(range(space.size))
        assert not (set(space.omega) & set(space.delta))
        sector_union = set()
        for m, idx in space.omega_by_stacks.items():
            assert not (sector_union & set(idx))
            sector_union |= set(idx)
        assert sector_union == set(space.omega)


def test_complete_graph_has_no_spread_sectors():
    for k in (2, 3, 4):
        space = enumerate_configs(complete(4), k)
        assert set(space.omega_by_stacks) == {1}


def test_sector_emptiness_is_monotone():
    for g, k in ((path_graph(4), 4), (torus(6, 1), 4), (h_shape(), 5)):
        space = enumerate_configs(g, k)
        seen_empty = False
        for m in range(1, k + 1):
            empty = m not in space.omega_by_stacks
            if seen_empty:
                assert empty
            seen_empty = seen_empty or empty
        assert 1 in space.omega_by_stacks


def test_cap_is_deterministic():
    with pytest.raises(SpaceCapExceeded):
        enumerate_configs(torus(10, 2), 4, cap=10_000)


def test_lexicographic_order():
    space = enumerate_configs(path_graph(2), 2)
    assert [space.config(i) for i in range(3)] == [(0, 2), (1, 1), (2, 0)]


def test_graphs_with_equal_vertex_counts_share_read_only_tables():
    a, b = enumerate_configs(path_graph(4), 3), enumerate_configs(complete(4), 3)
    assert a.occupations is b.occupations
    assert a.up is b.up
    for table in (a.occupations, a.up):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_shared_addition_table_adds_one_particle():
    enumerate_configs(complete(5), 3).up  # the table another graph built
    space = enumerate_configs(path_graph(5), 3)
    lower = enumerate_configs(path_graph(5), 2).occupations
    for x in range(5):
        for i, row in enumerate(lower):
            raised = row.copy()
            raised[x] += 1
            assert space.up[x, i] == space.index_of(raised)


def test_addition_table_ranked_once_per_shape(monkeypatch):
    calls = []
    rank_rows = ConfigSpace.rank_rows

    def counting(self, occ):
        calls.append(self.k)
        return rank_rows(self, occ)

    monkeypatch.setattr(ConfigSpace, "rank_rows", counting)
    configspace._shape.cache_clear()
    for _ in range(3):
        for g in (path_graph(6), torus(6, 1), complete(6)):
            enumerate_configs(g, 3).up
    assert 0 < len(calls) <= 6
