"""Sink-free orientations, spanning trees, hard-core, and path analytics."""

import itertools
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    WordStream,
    grid_graph,
    petersen_graph,
    random_cubic_graph,
    run_digest,
    words_for,
)
from prsampling import graph_apps
from prsampling.errors import RoundCapError
from prsampling.graph_apps import (
    alpha,
    assignment_to_arrows,
    bad_vertices,
    corner_matrix,
    cycle_popping,
    disjoint_paths_experiment,
    disjoint_paths_graph,
    encode_hardcore,
    encode_sink_free,
    encode_spanning_tree,
    endpoint_matrix,
    hardcore_condition,
    hardcore_sample,
    is_arrow_tree,
    path_partition,
    ratio_bounds,
    sink_popping,
    spanning_tree_variables,
)
from prsampling.graphs import (
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
)
from prsampling.model import (
    enumerate_assignments,
    is_extremal,
    occurring_events,
)
from prsampling.rng import cumulative_table, derive_seed
from prsampling.sampler import SamplerConfig, extremal_prs, general_prs
from reference_helpers import res_vertices
from reference_popping import reference_hardcore_sample
from reference_popping import sink_popping as reference_sink_popping

F = Fraction


def cfg(seed, **kw):
    return SamplerConfig(seed=seed, record_log=kw.pop("record_log", True), **kw)


def brute_hardcore(k, lam):
    """Weights lam^|S| over independent subsets of a k-path, by enumeration."""
    lam = F(lam)
    out = {}
    for bits in itertools.product((0, 1), repeat=k):
        if any(a and b for a, b in zip(bits, bits[1:])):
            continue
        out[bits] = lam ** sum(bits)
    return out


class TestSinkPopping:
    def test_triangle_support_and_balance(self):
        n = 20_000
        counts = Counter(
            sink_popping(cycle_graph(3), cfg(derive_seed(1, i), record_log=False))[0]
            for i in range(n)
        )
        assert set(counts) == {(0, 1, 0), (1, 0, 1)}  # the two cyclic orientations
        assert abs(counts[(0, 1, 0)] / n - 0.5) < 0.015

    def test_output_never_has_a_sink(self):
        g = complete_graph(4)
        for i in range(100):
            orient, stats = sink_popping(g, cfg(derive_seed(2, i)))
            assert stats.halted
            for v in range(g.num_vertices):
                outgoing = any(
                    (v == u and orient[eid] == 0) or (v == w and orient[eid] == 1)
                    for eid in g.incident_edges[v]
                    for u, w in [g.edges[eid]]
                )
                assert outgoing, "vertex %d is a sink" % v

    def test_logged_sinks_are_independent(self):
        g = cycle_graph(5)
        for i in range(100):
            _, stats = sink_popping(g, cfg(derive_seed(3, i)))
            for sinks in stats.log:
                assert not any(
                    v in g.adjacency[u] for u in sinks for v in sinks
                ), "two adjacent sinks in one round"

    def test_tree_hits_round_cap(self):
        with pytest.raises(RoundCapError, match="sink-free"):
            sink_popping(path_graph(2), cfg(0, round_cap=100))

    def test_stats_accounting(self):
        _, stats = sink_popping(cycle_graph(4), cfg(11))
        assert stats.total_resamples == sum(stats.event_resamples)
        assert stats.rounds == len(stats.log) == len(stats.var_log)


class TestEncodeSinkFree:
    def test_c3_counts(self):
        inst = encode_sink_free(cycle_graph(3))
        assert inst.num_events == 3 and is_extremal(inst)
        valid = [
            a
            for a in enumerate_assignments(inst)
            if not occurring_events(inst, list(a))
        ]
        assert sorted(valid) == [(0, 1, 0), (1, 0, 1)]

    def test_c4_one_defect_ratio(self):
        inst = encode_sink_free(cycle_graph(4))
        assert is_extremal(inst)
        by_defects = Counter(
            len(occurring_events(inst, list(a))) for a in enumerate_assignments(inst)
        )
        assert by_defects[0] == 2 and by_defects[1] == 12
        bounds = ratio_bounds(cycle_graph(4))
        assert by_defects[1] / by_defects[0] <= bounds["sink_free"]["bound"] == 12

    def test_isolated_vertices_skipped(self):
        inst = encode_sink_free(make_graph(3, [(0, 1)]))
        assert inst.num_events == 2

    def test_matches_specialized_sampler(self):
        # extremal_prs re-tests every event each round, so it checks the
        # out-degree bookkeeping of sink_popping round by round. Isolated
        # vertices get no event, so event ids are mapped back to vertices.
        cases = [
            cycle_graph(4),
            complete_graph(4),
            random_cubic_graph(50, 50),
            random_cubic_graph(200, 200),
            # isolated vertices 0, 4 and 8 around two triangles
            make_graph(9, [(1, 2), (1, 3), (2, 3), (5, 6), (5, 7), (6, 7)]),
            # pendant vertices: a 5-cycle with a leaf on 0 and a path 2-6-7
            make_graph(8, [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (2, 6), (3, 4), (6, 7)]),
            # a 4-cycle with a pendant vertex and two isolated ones
            make_graph(7, [(1, 2), (1, 4), (2, 3), (3, 4), (4, 6)]),
        ]
        for g in cases:
            inst = encode_sink_free(g)
            vertex_of = [v for v in range(g.num_vertices) if g.incident_edges[v]]
            for i in range(60):
                seed = derive_seed(4, i)
                orient, st_s = sink_popping(g, cfg(seed))
                sigma, st_g = extremal_prs(inst, cfg(seed))
                assert tuple(sigma) == orient
                assert st_s.var_log == st_g.var_log
                assert st_s.log == [
                    tuple(vertex_of[k] for k in sinks) for sinks in st_g.log
                ]

    def test_tree_component_same_partial_run(self):
        # A triangle plus a path: the path has no sink-free orientation, so
        # both samplers stop at the cap after the same rounds.
        g = make_graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6)])
        inst = encode_sink_free(g)
        for i in range(10):
            seed = derive_seed(5, i)
            with pytest.raises(RoundCapError) as spec:
                sink_popping(g, cfg(seed, round_cap=25))
            with pytest.raises(RoundCapError) as gen:
                extremal_prs(inst, cfg(seed, round_cap=25))
            st_s, st_g = spec.value.stats, gen.value.stats
            assert st_s.rounds == st_g.rounds == 25
            assert st_s.var_log == st_g.var_log
            assert st_s.log == st_g.log  # no isolated vertex: ids agree


class TestSinkPoppingReference:
    """``sink_popping`` against the tail-array sampler in ``reference_popping``."""

    SEEDS = [derive_seed(6, i) for i in range(200)]

    @pytest.mark.parametrize(
        "g",
        [
            random_cubic_graph(60, 60),
            # isolated vertices 0, 4 and 8 around two triangles
            make_graph(9, [(1, 2), (1, 3), (2, 3), (5, 6), (5, 7), (6, 7)]),
            # K_{2,3} plus an isolated vertex: 2, 3 and 4 each have both
            # their edges redrawn when 0 and 1 are sinks together
            make_graph(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        ],
        ids=["cubic", "isolated", "k23"],
    )
    def test_same_sample_and_stats(self, g):
        for seed in self.SEEDS:
            assert sink_popping(g, cfg(seed)) == reference_sink_popping(g, cfg(seed))
        for seed in self.SEEDS[:20]:
            quiet = cfg(seed, record_log=False)
            assert sink_popping(g, quiet) == reference_sink_popping(g, quiet)

    def test_vertex_beside_two_sinks_covered(self):
        # Some round redraws both edges of a vertex (it lies between two
        # sinks), and the vertex is a sink of the next round: its out-degree
        # fell from 2 to 0 within one redraw.
        g = make_graph(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        hits = 0
        for seed in self.SEEDS:
            _, stats = reference_sink_popping(g, cfg(seed))
            for sinks, after in zip(stats.log, stats.log[1:]):
                hits += any(
                    v in after and sum(u in sinks for u in g.adjacency[v]) == 2
                    for v in range(g.num_vertices)
                )
        assert hits > 0

    def test_tree_component_same_partial_stats(self):
        g = make_graph(8, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6)])
        for seed in self.SEEDS:
            with pytest.raises(RoundCapError) as new:
                sink_popping(g, cfg(seed, round_cap=25))
            with pytest.raises(RoundCapError) as ref:
                reference_sink_popping(g, cfg(seed, round_cap=25))
            assert str(new.value) == str(ref.value)
            assert new.value.stats == ref.value.stats
            assert new.value.stats.rounds == 25


class _FixedUniforms(WordStream):
    """A stand-in generator that hands out the given variates in turn, each
    as the two 32-bit words ``random()`` builds it from, so ``random()``
    returns them one by one and ``getrandbits`` in bulk."""

    def __init__(self, values):
        grid = [u * 2 ** 53 for u in values]
        assert all(m == int(m) and 0 <= m < 2 ** 53 for m in grid), "random() never returns these"
        super().__init__(w for m in grid for w in words_for(int(m), 0))


def _fixed_uniforms(monkeypatch, values):
    monkeypatch.setattr(graph_apps, "make_rng", lambda seed: _FixedUniforms(values))


TOP = 1 - 2 ** -53  # the largest variate random() returns


def _threshold_cases(t):
    """0, the top variate and the variates at and beside t, in [0, 1)."""
    return sorted({u for u in (0.0, t - 2 ** -53, t, t + 2 ** -53, TOP) if u < 1})


class TestThresholdDraw:
    """``1 if u >= t else 0`` and the bulk draw are ``bisect_right((t,), u)``,
    at ``u == t`` too, in the initial draw and in a redraw."""

    @pytest.mark.parametrize("lam", [F(0), F(1, 10), F(1, 4), F(7)])
    def test_hardcore(self, lam, monkeypatch):
        (t,) = cumulative_table((1 / (1 + lam), lam / (1 + lam)))
        for u in _threshold_cases(t):
            want = bisect_right((t,), u)
            _fixed_uniforms(monkeypatch, [u])
            occupied, _ = hardcore_sample(make_graph(1, []), lam, cfg(0))
            assert len(occupied) == want
            if t < 1:
                # Both ends of the edge start occupied (t >= t); then vertex 0
                # redraws with u and vertex 1 with 0.0, which is below t > 0.
                _fixed_uniforms(monkeypatch, [t, t, u, 0.0])
                occupied, stats = hardcore_sample(path_graph(2), lam, cfg(0))
                assert stats.rounds == 1 and len(occupied) == want
        if t == 1:
            # lam = 0: no variate reaches t = 1.0, so even the top one leaves
            # both ends of the edge empty, and no round runs.
            _fixed_uniforms(monkeypatch, [TOP, TOP])
            occupied, stats = hardcore_sample(path_graph(2), lam, cfg(0))
            assert occupied == frozenset() and stats.rounds == 0

    def test_sink_popping(self, monkeypatch):
        (t,) = cumulative_table((F(1, 2), F(1, 2)))
        for u in _threshold_cases(t):
            o = bisect_right((t,), u)
            # Edge 0 of the triangle draws u, and the next two uniforms
            # complete the cyclic orientation that o starts; round cap 0
            # fails the run if the draw of u came out otherwise.
            rest = [0.75, 0.0] if o == 0 else [0.0, 0.75]
            _fixed_uniforms(monkeypatch, [u] + rest)
            orient, _ = sink_popping(cycle_graph(3), cfg(0, round_cap=0))
            assert orient == (o, 1 - o, o)
            # All edges start at 0, so vertex 2 is a sink; its edges 1 and 2
            # redraw with u and 0.0, and only o == 1 leaves no sink.
            _fixed_uniforms(monkeypatch, [0.0, 0.0, 0.0, u, 0.0])
            if o:
                assert sink_popping(cycle_graph(3), cfg(0, round_cap=1))[0] == (0, 1, 0)
            else:
                with pytest.raises(RoundCapError):
                    sink_popping(cycle_graph(3), cfg(0, round_cap=1))


class TestCyclePopping:
    def test_triangle_three_trees(self):
        g = cycle_graph(3)
        n = 10_000
        counts = Counter(
            cycle_popping(g, 0, cfg(derive_seed(5, i), record_log=False))[0]
            for i in range(n)
        )
        assert len(counts) == 3
        for arrows, c in counts.items():
            assert is_arrow_tree(g, 0, arrows)
            assert abs(c / n - 1 / 3) < 0.02

    def test_k4_sixteen_trees(self):
        g = complete_graph(4)
        seen = {
            cycle_popping(g, 0, cfg(derive_seed(6, i), record_log=False))[0]
            for i in range(4000)
        }
        assert len(seen) == 16  # Cayley: n**(n-2)
        assert all(is_arrow_tree(g, 0, a) for a in seen)

    def test_validation(self):
        with pytest.raises(ValueError, match="connected"):
            cycle_popping(make_graph(4, [(0, 1), (2, 3)]), 0, cfg(0))
        with pytest.raises(ValueError, match="root"):
            cycle_popping(cycle_graph(3), 5, cfg(0))

    def test_round_cap(self):
        # Cap 0 means even one popping round is forbidden; some seed needs one.
        g = complete_graph(4)
        hit = 0
        for i in range(30):
            try:
                cycle_popping(g, 0, cfg(derive_seed(7, i), round_cap=0))
            except RoundCapError as err:
                assert err.stats.rounds == 0
                hit += 1
        assert hit > 0


class TestIsArrowTree:
    def test_accepts_tree(self):
        assert is_arrow_tree(cycle_graph(3), 0, (-1, 0, 0))

    def test_rejects_cycle(self):
        assert not is_arrow_tree(cycle_graph(3), 0, (-1, 2, 1))

    def test_rejects_non_neighbor_arrow(self):
        assert not is_arrow_tree(path_graph(3), 0, (-1, 0, 0))

    def test_rejects_wrong_root_arrow(self):
        assert not is_arrow_tree(cycle_graph(3), 0, (1, 0, 0))

    def test_long_walks(self):
        # One walk of n - 1 vertices: linear, where a list membership test
        # on the walk would be quadratic.
        n = 20_000
        path = tuple(range(1, n)) + (-1,)
        assert is_arrow_tree(path_graph(n), n - 1, path)
        # The same long walk ending in the 2-cycle n-2 <-> n-1.
        arrows = (-1,) + tuple(range(2, n)) + (n - 2,)
        assert not is_arrow_tree(cycle_graph(n), 0, arrows)


class TestEncodeSpanningTree:
    def test_triangle_encoding(self):
        g = cycle_graph(3)
        inst = encode_spanning_tree(g, 0)
        assert spanning_tree_variables(g, 0) == (1, 2)
        assert inst.num_variables == 2 and inst.num_events == 1
        valid = [
            a
            for a in enumerate_assignments(inst)
            if not occurring_events(inst, list(a))
        ]
        assert len(valid) == 3
        for a in valid:
            assert is_arrow_tree(g, 0, assignment_to_arrows(g, 0, a))

    @pytest.mark.parametrize(
        "g,root,num_trees",
        [
            (cycle_graph(4), 0, 4),
            (complete_graph(4), 0, 16),
            (complete_graph(4), 2, 16),
        ],
    )
    def test_tree_counts(self, g, root, num_trees):
        inst = encode_spanning_tree(g, root)
        valid = sum(
            1
            for a in enumerate_assignments(inst)
            if not occurring_events(inst, list(a))
        )
        assert valid == num_trees

    def test_k4_one_defect_ratio(self):
        g = complete_graph(4)
        inst = encode_spanning_tree(g, 0)
        by_defects = Counter(
            len(occurring_events(inst, list(a))) for a in enumerate_assignments(inst)
        )
        # 3 non-root vertices cannot host two vertex-disjoint directed cycles.
        assert by_defects[0] == 16 and by_defects[1] == 11 and by_defects[2] == 0
        assert by_defects[1] / by_defects[0] <= ratio_bounds(g)["spanning_tree"]["bound"]

    def test_extremal(self):
        # Directed cycles through a shared vertex coincide, so dependent
        # cycle events are pairwise disjoint.
        assert is_extremal(encode_spanning_tree(complete_graph(4), 0))

    @pytest.mark.parametrize("root", [3, 5, -1])
    def test_rejects_out_of_range_root(self, root):
        g = path_graph(3)
        message = "root %d out of range" % root
        with pytest.raises(ValueError, match=message):
            encode_spanning_tree(g, root)
        with pytest.raises(ValueError, match=message):
            spanning_tree_variables(g, root)
        with pytest.raises(ValueError, match=message):
            assignment_to_arrows(g, root, (0, 0, 0))

    def test_matches_specialized_sampler(self):
        cases = [
            (complete_graph(4), 0),
            (cycle_graph(4), 1),
            (complete_graph(6), 0),
            (petersen_graph(), 7),
            (grid_graph(3, 3), 4),
        ]
        for g, root in cases:
            inst = encode_spanning_tree(g, root)
            vertex_of = spanning_tree_variables(g, root)
            for i in range(60):
                seed = derive_seed(8, i)
                arrows, st_s = cycle_popping(g, root, cfg(seed))
                sigma, st_g = general_prs(inst, cfg(seed))
                assert assignment_to_arrows(g, root, sigma) == arrows
                # One occurring event per directed cycle, so the round
                # accounting agrees too.
                assert st_s.rounds == st_g.rounds
                assert st_s.total_resamples == st_g.total_resamples
                assert st_s.variable_resamples == st_g.variable_resamples
                assert st_s.var_log == [
                    tuple(vertex_of[k] for k in redrawn) for redrawn in st_g.var_log
                ]

    def test_requires_connected(self):
        with pytest.raises(ValueError, match="connected"):
            encode_spanning_tree(make_graph(4, [(0, 1), (2, 3)]), 0)


# sha256 of (sample, stats.to_json(include_log=True)) for the runs in
# TestFrozenStream, recorded before the occurrence finders of sink_popping
# and cycle_popping became incremental; the hard-core cases (sample sorted,
# lam = 1/4) were recorded before its draws were inlined. Any change here
# changes the stream.
FROZEN_POPPING_DIGESTS = {
    ("hardcore", 200): [
        "7dce79284c03ccc17371af34dbbbbae7b09479eb688c8b45ffe0a0e3f2a8d5d4",
        "87de0fde235ad658ff86286c289f17a8e85ef487db7835948ef952cf847d78fc",
        "bc79aab328be2b4a0bd22d9bfad813c0af0622f7c21ca2a284eb85ab7a833143",
        "2e3b4223d3cb4304ad317b3f0d087defa0acc837eaee2dee75408e5b16c072bc",
        "fee286a9917293076ba736f6e73e0d8a619593dee3302c121f6d7b3ff4b8e36c",
        "ad0eac03e823666e4f982e5de0652f10d98312f0fe75a4dbcc7ed5e8ed928af9",
        "562c3cff17d70f6ad8f029a712c3a278f6c4c9d4a4851a224318984f44fae358",
        "3f37407583e8442a33b264c10e46ac02329b2a7fb881e81a30653fcb961a050e",
        "dce8903a0cbdba04e34bb65d17c9233d42d0a7ebdf28a8ac4afa78d6fc0d8870",
        "fd11aa691332ec430ae107a2fc03386c2dc5ffcd57d34630e5be1fd905384e59",
    ],
    ("hardcore", 2000): [
        "17417550fcfb01943848b6052437c98cf97f87841ac0a2c5cfa36d64281db92c",
        "e35598f807900e0a611058f9bc427250be55b1541990c24086b6c5f0147e72a6",
        "cd2b0c2537b194366ca130da0097698041b051807c918134ed8299256a80fe66",
        "814638607834584d9f2ff410598dd79ca8eb0a4f66ba7e0c0ac11a64be0534ac",
        "e37de331958697352dc747ef6f38eb256b7f94b81be9791ab0b8364656318f2e",
        "67c19ee5c207b663a2c43a200ee6e2e80030dc408221847bec041b4c27ddca49",
        "08e71ff76d60fc09124dd2948a0b5f745a0f3e08cd11c3bb51428651e6575a66",
        "81c333ab152ae0b9df86cb29c97202956f223b9779623973ff5593f86337ba3f",
        "49e9926e8eca14e0cc284fdffb195d28c2e8b5bec47d7f45e995bcbbfb09357f",
        "687fa377659abb328a4c3d8c0486475767946ea5dc5908569caa88b2852f3a55",
    ],
    ("sink", 200): [
        "cf866d6e17a3dd3329702b4cc2d22eb68164c4c545ad81801d276644aa4eaecc",
        "f491a465c34b0d58ba89ea282cb871c25ee652517ff5dac6e33825ea2c91e2c2",
        "1aee8088be28a766e5214f16539209befb47aaa9f0dc7c2ddacd1c4fbd7a6d72",
        "2ab5caa57defacc1f6d0e6d811fdfce94ab22c73834f9019796c9b05edffff1b",
        "42014285aa002d0a69cb774464709f899af95d2348001cc1c5b74dd902ff3e9f",
        "154c0dfefd0974fd2e85d2f19ab75cd4a605d72f4a88577ed68a7a9499cd543b",
        "755865e826ad8049cf1eb62f8e7cb0b4de3c099ea4b4a9b327b84562af1934dd",
        "1e6d4b0a7d264e5f76f0a30b4930e8afabd13ffdfac41710447fdfea42430f10",
        "6075960bca3db1de1d61f37078eb3d92df113bd829ab679df016e0e4339e30d4",
        "f6b56ed79638b89b7401844b4c38cb9ce7016a1b84092ec4927a6153459b568c",
    ],
    ("sink", 2000): [
        "ebf9cbdaa7f7e660a48ea650222d04980e1353386cb47f3ca81463b375ed8d7a",
        "eb193f2b7179f571c00812ce00bcb70d7bf7ff759e9ba3dad91b9f056900fb2f",
        "21855a5d8835d0901ae6cb8c693c8e78da9faa0403d06e263dbd64398377f8ff",
        "06b37606adbe54465e2a32876640b18865ae286fcba9c6b3579f38bb481dd59c",
        "fd17cff17f82aca2412458a0733db0d1457b8eeacfe6d15980d54385ec450f52",
        "2ab7583f2084552863b66c3a75f48e9b4c292e20024ceba040a00aaa542c7e05",
        "193737a3a5ece8c44971d39d6a33775b4ae6eb03cdd0c1360fffabef26bd3cba",
        "b6c2cd5c5246cbfa627e52b14cd78e18d6c6f83d6beae7fa00fba03baba44e28",
        "71935b06f152c76e58947447f457444b791995136d06d27920f5968bc3422d50",
        "61a8f89274f09ed6814535752107623722cb4c0b695a05b7a1a6a1968a5a3238",
    ],
    ("cycle", 200): [
        "04c20f33fc01d242b15765dd52c634f8db18e9279be33c67582d9def80c978cd",
        "4ea6f90b4c8d747b396763ebdc30ee1425502e697c2ca83f03e85b79be09f2a3",
        "2eddb6c2981873f9382416620ab0c72f3628b8082eee205b328e4ae65382b59b",
        "619364d81f31dd1c8f41d45d2f16b8e1e3e993fb552f71417a43e3a31c7408dc",
        "9eab778bf68cf0081699b8c5fb767d6efcf490f964116c6e044b5a781a4984fb",
        "35d9ce034b84f6a1481fad73d0547e4221dd630229e97608de15ac67d9cea4ab",
        "3895f9f734c8500c5dcdcf27b57b13f0a8ff1f345071d7d5f647045b84115fe7",
        "cd8003e936da01a9f3715cd52c4049fec56de91527b57a335186ab61feb6c776",
        "54b650a1cd2db1e187073f0d6ec46f886d0d0c98e1cc4e66d606e2bc82b15a0d",
        "bd75e100548e49da0e68a7274d70a2dfceabc5f105521d00de62a4c97cd69c6c",
    ],
    ("cycle", 2000): [
        "1c7fa9346713d6026fb23b3b31e658db0b1b155bb2c34f6428be7700d1935881",
        "29247caea43dcb0298a8a94ce320edf297107784b4e0e55147b0f710b05dabac",
        "50a2c36f98d1b4f38ca0dabef9df3a1dcfaf2a7c4e7ce89ea4a52d9fc38df9d5",
        "43422cff849b75f91f87ab6a4afb9a7a261cf59af0c65e60c20e6651b5b3a0a6",
        "1657ec2c1389cf0137ed95f400c1d9b70572026a34d58ca987301cda6104a7c8",
        "4dc2d455fa4521ad9e499bd2e2df25583f4e488d564cfdde8f8a1d9f5e1a16fc",
        "8c306e91c4f2cf656c23fecb5ca9e4496213692502a41455f099f31794c87860",
        "427da1ff16458f5a74d5d086101dcbb63993082e555099f81b5c029daf8f59dc",
        "c636c423edbd914c8d2f0bf7ad54eac1377a00869c14f66bbd8b1253c6248f77",
        "cc84d42c421326bbecde7a2c94abec92f016d2eacedf3fd511f9395fa7a4c7b7",
    ],
}


class TestFrozenStream:
    @pytest.mark.parametrize("sampler,n", sorted(FROZEN_POPPING_DIGESTS))
    def test_popping_stream_unchanged(self, sampler, n):
        digests = []
        for i in range(10):
            g = random_cubic_graph(n, derive_seed(n, i))
            config = cfg(derive_seed(41, i))
            if sampler == "sink":
                sample, stats = sink_popping(g, config)
            elif sampler == "hardcore":
                occupied, stats = hardcore_sample(g, F(1, 4), config)
                sample = sorted(occupied)
            else:
                sample, stats = cycle_popping(g, (7 * i) % n, config)
            digests.append(run_digest(sample, stats))
        assert digests == FROZEN_POPPING_DIGESTS[sampler, n]


class TestHardcoreSampler:
    def test_single_edge_exact_support(self):
        g = path_graph(2)
        n = 20_000
        counts = Counter(
            frozenset(hardcore_sample(g, 1, cfg(derive_seed(9, i), record_log=False))[0])
            for i in range(n)
        )
        assert set(counts) == {frozenset(), frozenset({0}), frozenset({1})}
        tv = 0.5 * sum(abs(c / n - 1 / 3) for c in counts.values())
        assert tv <= 0.02

    def test_weighted_single_vertex(self):
        g = make_graph(1, [])
        n = 30_000
        occupied = sum(
            bool(hardcore_sample(g, 2, cfg(derive_seed(10, i), record_log=False))[0])
            for i in range(n)
        )
        assert abs(occupied / n - 2 / 3) < 0.01

    def test_output_always_independent(self):
        g = complete_graph(4)
        for i in range(200):
            occ, stats = hardcore_sample(g, F(1, 2), cfg(derive_seed(11, i)))
            assert stats.halted
            assert not any(u in occ and v in occ for u, v in g.edges)

    def test_lam_validation(self):
        with pytest.raises(TypeError, match="float"):
            hardcore_sample(path_graph(2), 0.5, cfg(0))
        with pytest.raises(ValueError, match="nonnegative"):
            hardcore_sample(path_graph(2), F(-1, 2), cfg(0))
        for lam in (-1, "-1/2"):
            with pytest.raises(ValueError, match="lam must be nonnegative"):
                encode_hardcore(path_graph(2), lam)

    def test_matches_generic_sampler(self):
        cases = [
            (cycle_graph(5), 80),
            (random_cubic_graph(50, 51), 40),
            (random_cubic_graph(200, 201), 20),
            # isolated vertices 0, 3 and 7 beside a triangle and a path
            (make_graph(8, [(1, 2), (1, 4), (2, 4), (5, 6)]), 80),
        ]
        for g, draws in cases:
            inst = encode_hardcore(g, F(1, 2))
            for i in range(draws):
                seed = derive_seed(12, i)
                occ, st_s = hardcore_sample(g, F(1, 2), cfg(seed))
                sigma, st_g = general_prs(inst, cfg(seed))
                assert occ == {v for v, bit in enumerate(sigma) if bit}
                assert st_s.var_log == st_g.var_log


class TestHardcoreSamplerReference:
    """``hardcore_sample`` against the one-``random()``-per-vertex sampler in
    ``reference_popping``: the same sample and the same stats, logs included."""

    SEEDS = [derive_seed(14, i) for i in range(100)]

    def assert_same(self, g, lam, seeds):
        for seed in seeds:
            assert hardcore_sample(g, lam, cfg(seed)) == reference_hardcore_sample(g, lam, cfg(seed))
        for seed in seeds[:10]:
            quiet = cfg(seed, record_log=False)
            assert hardcore_sample(g, lam, quiet) == reference_hardcore_sample(g, lam, quiet)

    # Thresholds 10/11 and 4/5 split a byte of the bulk draw's lookup.
    @pytest.mark.parametrize("lam", [F(1, 10), F(1, 4)], ids=["1/10", "1/4"])
    @pytest.mark.parametrize("n,draws", [(200, 100), (2000, 20)])
    def test_cubic(self, n, draws, lam):
        self.assert_same(random_cubic_graph(n, derive_seed(15, n)), lam, self.SEEDS[:draws])

    # Thresholds 1/2 and 1/8 fall on byte boundaries; lam = 7 runs only on
    # graphs that finish in about a hundred rounds.
    @pytest.mark.parametrize(
        "g,lams",
        [
            (path_graph(6), (F(1), F(7))),
            (cycle_graph(5), (F(1), F(7))),
            (complete_graph(4), (F(1), F(7))),
            (grid_graph(3, 3), (F(1),)),
            (petersen_graph(), (F(1),)),
        ],
        ids=["P6", "C5", "K4", "grid", "petersen"],
    )
    def test_byte_boundary(self, g, lams):
        for lam in lams:
            self.assert_same(g, lam, self.SEEDS)

    @pytest.mark.parametrize(
        "g",
        [
            # isolated vertices 0, 3 and 7 beside a triangle and a path
            make_graph(8, [(1, 2), (1, 4), (2, 4), (5, 6)]),
            make_graph(0, []),
        ],
        ids=["isolated", "empty"],
    )
    def test_isolated_and_empty(self, g):
        for lam in (F(1, 4), F(1), F(7)):
            self.assert_same(g, lam, self.SEEDS)

    def test_round_cap_same_partial_stats(self):
        g = complete_graph(4)
        failed = 0
        for seed in self.SEEDS:
            try:
                want = reference_hardcore_sample(g, F(7), cfg(seed, round_cap=3))
            except RoundCapError as ref:
                with pytest.raises(RoundCapError) as new:
                    hardcore_sample(g, F(7), cfg(seed, round_cap=3))
                assert str(new.value) == str(ref)
                assert new.value.stats == ref.stats
                assert ref.stats.rounds == 3
                failed += 1
            else:
                assert hardcore_sample(g, F(7), cfg(seed, round_cap=3)) == want
        assert failed >= len(self.SEEDS) // 2


class TestBadAndResVertices:
    def test_path_examples(self):
        g = path_graph(3)
        assert bad_vertices(g, {0, 1}) == {0, 1}
        assert res_vertices(g, {0, 1}) == {0, 1, 2}
        assert bad_vertices(g, {0, 2}) == frozenset()
        assert res_vertices(g, {0, 2}) == frozenset()

    def test_fully_occupied_triangle(self):
        g = cycle_graph(3)
        assert bad_vertices(g, {0, 1, 2}) == {0, 1, 2}
        assert res_vertices(g, {0, 1, 2}) == {0, 1, 2}

    def test_matches_generic_resampling_set(self):
        from prsampling.sampler import select_resampling_set

        g = cycle_graph(4)
        inst = encode_hardcore(g, 1)
        for bits in itertools.product((0, 1), repeat=4):
            occupied = {v for v, b in enumerate(bits) if b}
            res = select_resampling_set(inst, list(bits))
            touched = sorted({v for j in res for v in inst.events[j].vbl})
            assert touched == sorted(res_vertices(g, occupied))


class TestEncodeHardcore:
    def test_p5_support_and_weights(self):
        inst = encode_hardcore(path_graph(5), 1)
        valid = [
            a
            for a in enumerate_assignments(inst)
            if not occurring_events(inst, list(a))
        ]
        assert len(valid) == 13  # path partition value I_5 at lam=1
        assert not is_extremal(inst)

    def test_event_probability(self):
        from prsampling.model import event_probability

        inst = encode_hardcore(path_graph(2), F(1, 10))
        assert event_probability(inst, inst.events[0]) == F(1, 121)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            encode_hardcore(path_graph(2), 0.1)


class TestHardcoreCondition:
    # Threshold is 1/(2*sqrt(e)*d - 1); at d=3 that is about 0.1125.
    def test_values(self):
        assert hardcore_condition(F(1, 10), 3) is True
        assert hardcore_condition(F(3, 25), 3) is False
        assert hardcore_condition(0, 7) is True
        assert hardcore_condition(F(2, 5), 1) is True
        assert hardcore_condition(F(11, 25), 1) is False

    def test_validation(self):
        with pytest.raises(TypeError):
            hardcore_condition(0.1, 3)
        with pytest.raises(ValueError):
            hardcore_condition(F(1, 10), 0)
        with pytest.raises(ValueError):
            hardcore_condition(F(-1, 10), 3)


class TestRatioBounds:
    def test_c4(self):
        r = ratio_bounds(cycle_graph(4))
        assert r["sink_free"] == {"bound": 12, "applicable": True}
        assert r["spanning_tree"] == {"bound": 16, "applicable": True}

    def test_tree_and_disconnected(self):
        r = ratio_bounds(path_graph(4))
        assert r["sink_free"]["applicable"] is False
        assert r["spanning_tree"]["applicable"] is True
        r2 = ratio_bounds(make_graph(4, [(0, 1), (2, 3)]))
        assert not r2["sink_free"]["applicable"]
        assert not r2["spanning_tree"]["applicable"]


class TestPathPartition:
    def test_fibonacci_at_lam_one(self):
        assert path_partition(5, 1) == [1, 2, 3, 5, 8, 13]

    def test_lam_zero(self):
        assert path_partition(6, 0) == [F(1)] * 7

    @pytest.mark.parametrize("lam", [F(1, 2), F(2), F(3, 7)])
    def test_matches_enumeration(self, lam):
        for k in range(0, 9):
            assert path_partition(k, lam)[k] == sum(brute_hardcore(k, lam).values())

    def test_p3_endpoint_pair_probability(self):
        # Both endpoints of a 3-path occupied at lam=2: weight 4 out of 11.
        lam = F(2)
        table = brute_hardcore(3, lam)
        total = sum(table.values())
        assert total == path_partition(3, lam)[3] == 11
        assert table[(1, 0, 1)] / total == F(4, 11)

    def test_validation(self):
        with pytest.raises(ValueError):
            path_partition(-1, 1)
        with pytest.raises(TypeError):
            path_partition(3, 0.5)


class TestEndpointMatrix:
    @pytest.mark.parametrize("lam", [F(1, 2), F(1), F(2)])
    def test_entries_sum_to_one(self, lam):
        for k in range(4, 13):
            w = endpoint_matrix(k, lam).w
            assert w[0][0] + 2 * w[0][1] + w[1][1] == 1
            assert w[0][1] == w[1][0]

    @pytest.mark.parametrize("lam", [F(1, 2), F(2)])
    def test_matches_enumeration(self, lam):
        for k in range(4, 11):
            table = brute_hardcore(k, lam)
            total = sum(table.values())
            joint = [[F(0), F(0)], [F(0), F(0)]]
            for bits, weight in table.items():
                joint[bits[0]][bits[-1]] += weight / total
            assert endpoint_matrix(k, lam).w == (
                (joint[0][0], joint[0][1]),
                (joint[1][0], joint[1][1]),
            )

    @pytest.mark.parametrize("lam", [F(1, 2), F(1), F(2)])
    def test_determinant_identity(self, lam):
        for k in range(4, 13):
            m = endpoint_matrix(k, lam)
            i_k = path_partition(k, lam)[k]
            assert m.det == (-1) ** (k - 1) * lam ** k / i_k ** 2

    def test_corner_matrix_determinants(self):
        for lam in (F(1, 2), F(1), F(2)):
            (a, b), (c, d) = corner_matrix(4, lam)
            assert a * d - b * c == -(lam ** 2)
            (a, b), (c, d) = corner_matrix(5, lam)
            assert a * d - b * c == lam ** 3

    def test_json_shape(self):
        j = endpoint_matrix(4, F(1, 2)).to_json()
        assert set(j) == {"k", "lam", "w", "det"}
        assert j["lam"] == "1/2"

    def test_needs_k_at_least_four(self):
        with pytest.raises(ValueError):
            endpoint_matrix(3, 1)
        with pytest.raises(ValueError):
            corner_matrix(3, 1)


class TestAlpha:
    def test_closed_forms(self):
        assert alpha(2) == pytest.approx(0.5)
        assert alpha(0) == 0.0
        assert alpha(6) == pytest.approx(2 / 3)

    def test_limits_and_monotonicity(self):
        assert alpha(10 ** 6) > 0.99
        xs = [alpha(F(k, 4)) for k in range(1, 40)]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            alpha(-1)

    @pytest.mark.parametrize("lam", [F(1, 2), F(1), F(2)])
    def test_det_ratio_recovers_alpha(self, lam):
        # |det W_k| = lam**k / I_k**2, so the 20-step ratio root converges
        # to lam/phi**2 = alpha(lam) with the constant factor cancelled.
        d20 = abs(float(endpoint_matrix(20, lam).det))
        d40 = abs(float(endpoint_matrix(40, lam).det))
        assert (d40 / d20) ** (1 / 20) == pytest.approx(alpha(lam), abs=1e-4)

    @pytest.mark.parametrize("lam", [F(1, 2), F(2)])
    def test_endpoint_marginal_converges(self, lam):
        w = endpoint_matrix(60, lam).w
        marginal = float(w[1][0] + w[1][1])
        assert marginal == pytest.approx(alpha(lam), abs=1e-9)


class TestDisjointPaths:
    def test_graph_shape(self):
        g = disjoint_paths_graph(12, 4)
        assert g.num_vertices == 12 and g.num_edges == 9
        assert g.num_components == 3
        with pytest.raises(ValueError):
            disjoint_paths_graph(10, 4)

    def test_experiment_report(self):
        rep = disjoint_paths_experiment(8, 4, 1, trials=60, base_seed=123)
        assert rep["n"] == 8 and rep["L"] == 4 and rep["trials"] == 60
        assert len(rep["rows"]) == 60
        freq = rep["endpoint_freq"]
        exact = rep["endpoint_exact"]
        assert abs(sum(map(sum, freq)) - 1.0) < 1e-9
        for a in range(2):
            for b in range(2):
                assert abs(freq[a][b] - exact[a][b]) < 0.12

    @pytest.mark.parametrize("n", [0, -8])
    def test_requires_n_at_least_l(self, n):
        # Both are multiples of L; n = 0 used to divide by zero paths.
        message = "need n >= L, got n=%d L=4" % n
        with pytest.raises(ValueError, match=message):
            disjoint_paths_graph(n, 4)
        with pytest.raises(ValueError, match=message):
            disjoint_paths_experiment(n, 4, 1, trials=3, base_seed=0)

    def test_requires_a_trial(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            disjoint_paths_experiment(8, 4, 1, trials=0, base_seed=1)

    def test_short_paths_skip_exact(self):
        rep = disjoint_paths_experiment(6, 2, 1, trials=5, base_seed=1)
        assert "endpoint_exact" not in rep
