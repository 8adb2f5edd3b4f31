"""Tests for the section 5/6 applications against plain-Python oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Computation
from repro.lib import Stream
from repro.lib.allreduce import allreduce, tree_allreduce
from repro.algorithms import (
    app_oracle,
    approximate_shortest_paths,
    asp_oracle,
    hashtag_component_app,
    k_exposure,
    logistic_oracle,
    logistic_regression,
    make_dataset,
    pagerank_edge,
    pagerank_oracle,
    pagerank_pregel,
    pagerank_vertex,
    scc_oracle,
    strongly_connected_components,
    wcc_oracle,
    weakly_connected_components,
    wordcount,
    wordcount_with_combiner,
)
from repro.algorithms.connectivity import MinLabelVertex
from repro.algorithms.shortest_paths import MultiSourceBfsVertex
from repro.core.timestamp import Timestamp
from repro.runtime import ClusterComputation
from repro.workloads import (
    Tweet,
    generate_corpus,
    power_law_graph,
    uniform_random_graph,
)


def run_one_epoch(build, records, cluster=False, **cluster_kwargs):
    comp = (
        ClusterComputation(
            num_processes=cluster_kwargs.pop("procs", 2),
            workers_per_process=cluster_kwargs.pop("workers", 2),
            **cluster_kwargs,
        )
        if cluster
        else Computation()
    )
    inp = comp.new_input()
    out = []
    build(Stream.from_input(inp)).subscribe(lambda t, recs: out.extend(recs))
    comp.build()
    inp.on_next(records)
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return out


edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40
)


class TestWordCount:
    @pytest.mark.parametrize("variant", [wordcount, wordcount_with_combiner])
    @pytest.mark.parametrize("cluster", [False, True])
    def test_counts(self, variant, cluster):
        lines = generate_corpus(50, words_per_line=6, vocabulary_size=30, seed=1)
        out = run_one_epoch(variant, lines, cluster=cluster)
        expected = Counter(word for line in lines for word in line.split())
        assert dict(out) == dict(expected)

    def test_combiner_reduces_exchange(self):
        lines = generate_corpus(300, words_per_line=8, vocabulary_size=20, seed=2)
        bytes_exchanged = {}
        for variant in (wordcount, wordcount_with_combiner):
            comp = ClusterComputation(num_processes=4, workers_per_process=2)
            inp = comp.new_input()
            variant(Stream.from_input(inp)).subscribe(lambda t, recs: None)
            comp.build()
            inp.on_next(lines)
            inp.on_completed()
            comp.run()
            bytes_exchanged[variant.__name__] = comp.network.stats.bytes("data")
        assert (
            bytes_exchanged["wordcount_with_combiner"]
            < bytes_exchanged["wordcount"] / 2
        )


class TestWCC:
    @given(edge_lists)
    @settings(max_examples=20, deadline=None)
    def test_matches_oracle(self, edges):
        out = run_one_epoch(weakly_connected_components, edges)
        assert dict(out) == wcc_oracle(edges)

    def test_cluster_matches_oracle(self):
        edges = uniform_random_graph(60, 100, seed=9)
        out = run_one_epoch(
            weakly_connected_components, edges, cluster=True, procs=3, workers=2
        )
        assert dict(out) == wcc_oracle(edges)

    def test_multiple_epochs_are_independent(self):
        comp = Computation()
        inp = comp.new_input()
        per_epoch = {}
        weakly_connected_components(Stream.from_input(inp)).subscribe(
            lambda t, recs: per_epoch.setdefault(t.epoch, []).extend(recs)
        )
        comp.build()
        inp.on_next([(1, 2)])
        inp.on_next([(2, 3)])
        inp.on_completed()
        comp.run()
        assert dict(per_epoch[0]) == {1: 1, 2: 1}
        assert dict(per_epoch[1]) == {2: 2, 3: 2}


class TestPageRank:
    GRAPH = power_law_graph(30, 3, seed=4)

    @pytest.mark.parametrize(
        "variant", [pagerank_vertex, pagerank_pregel, pagerank_edge]
    )
    @pytest.mark.parametrize("cluster", [False, True])
    def test_matches_oracle(self, variant, cluster):
        out = dict(
            run_one_epoch(
                lambda s: variant(s, iterations=6), self.GRAPH, cluster=cluster
            )
        )
        expected = pagerank_oracle(self.GRAPH, iterations=6)
        if variant is pagerank_edge:
            # The edge variant reports ranks for nodes with out-edges.
            expected = {
                node: rank
                for node, rank in expected.items()
                if any(src == node for src, _ in self.GRAPH)
            }
        for node, rank in expected.items():
            assert out[node] == pytest.approx(rank, abs=1e-12)

    def test_single_iteration(self):
        out = dict(
            run_one_epoch(lambda s: pagerank_vertex(s, iterations=1), [(0, 1)])
        )
        assert out == {0: 1.0, 1: 1.0}


class TestSCC:
    @given(edge_lists)
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle(self, edges):
        got = strongly_connected_components(Computation, edges)
        assert got == scc_oracle(edges)

    def test_cluster_matches_oracle(self):
        edges = uniform_random_graph(25, 50, seed=6)
        got = strongly_connected_components(
            lambda: ClusterComputation(2, 2), edges
        )
        assert got == scc_oracle(edges)

    def test_cycle_is_one_component(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        got = strongly_connected_components(Computation, edges)
        assert got == {0: 0, 1: 0, 2: 0, 3: 3}


class TestASP:
    @given(edge_lists)
    @settings(max_examples=15, deadline=None)
    def test_matches_bfs_oracle(self, edges):
        landmarks = sorted({edges[0][0], edges[-1][1]})
        out = dict(
            run_one_epoch(
                lambda s: approximate_shortest_paths(s, landmarks), edges
            )
        )
        assert out == asp_oracle(edges, landmarks)

    def test_cluster_matches_oracle(self):
        edges = uniform_random_graph(40, 60, seed=8)
        landmarks = [0, 3, 7]
        out = dict(
            run_one_epoch(
                lambda s: approximate_shortest_paths(s, landmarks),
                edges,
                cluster=True,
            )
        )
        assert out == asp_oracle(edges, landmarks)


class _Recorder:
    """A stand-in harness that records each ``send_by`` batch."""

    def __init__(self):
        self.sent = []

    def send(self, vertex, output_port, records, timestamp):
        self.sent.append((output_port, list(records)))


def drive_to_quiet(vertex, batches, rng):
    """Deliver ``batches`` on input 0 and every offer the vertex sends
    back on input 1, one pending batch at a time in random order, until
    nothing is pending.  Returns the ``(port, records)`` batches sent."""
    harness = vertex._harness = _Recorder()
    timestamp = Timestamp(0, (0,))
    pending = [(0, batch) for batch in batches]
    while pending:
        port, records = pending.pop(rng.randrange(len(pending)))
        seen = len(harness.sent)
        vertex.on_recv(port, records, timestamp)
        pending.extend((1, recs) for out, recs in harness.sent[seen:] if out == 0)
    return harness.sent


def random_batches(records, rng):
    records = list(records)
    rng.shuffle(records)
    cuts = sorted(rng.sample(range(1, len(records)), rng.randrange(len(records))))
    return [records[i:j] for i, j in zip([0] + cuts, cuts + [len(records)])]


class TestPropagationVertices:
    """One vertex driven by hand: each callback sends every destination
    (and reports every node) at most once, and the loop still reaches
    the oracle's fixed point under any batching and delivery order."""

    @given(edge_lists, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_min_label_offers_once_per_destination(self, edges, rng):
        arcs = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
        sent = drive_to_quiet(MinLabelVertex(), random_batches(arcs, rng), rng)
        labels = {}
        for port, records in sent:
            keys = [record[0] for record in records]
            assert len(keys) == len(set(keys)), (port, records)
            if port == 0:
                assert all(label < node for node, label in records), records
            else:
                for node, label in records:
                    labels[node] = min(label, labels.get(node, label))
        assert labels == wcc_oracle(edges)

    @given(
        edge_lists,
        st.lists(st.integers(0, 17), min_size=1, max_size=3, unique=True),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bfs_offers_once_per_destination_and_landmark(self, edges, landmarks, rng):
        records = [("edge", u, v) for u, v in edges] + [("edge", v, u) for u, v in edges]
        records += [("seed", landmark, landmark) for landmark in landmarks]
        sent = drive_to_quiet(MultiSourceBfsVertex(), random_batches(records, rng), rng)
        distances = {}
        for port, batch in sent:
            keys = [(node, landmark) for node, landmark, _ in batch]
            assert len(keys) == len(set(keys)), (port, batch)
            if port == 1:
                for key, distance in zip(keys, (record[2] for record in batch)):
                    distances[key] = min(distance, distances.get(key, distance))
        assert distances == asp_oracle(edges, landmarks)

    @pytest.mark.parametrize("proposal_first", [True, False])
    def test_min_label_ignores_port_order(self, proposal_first):
        # A node first met through a proposal still counts its own id.
        deliveries = [(1, [(5, 7)]), (0, [(5, 7), (5, 9)])]
        if not proposal_first:
            deliveries.reverse()
        vertex = MinLabelVertex()
        vertex._harness = _Recorder()
        for port, records in deliveries:
            vertex.on_recv(port, records, Timestamp(0, (0,)))
        assert vertex.state[0][1] == {5: 5}


class TestKExposure:
    def oracle(self, tweets, followers):
        exposures = set()
        for user, tag in tweets:
            for follower, followee in followers:
                if followee == user:
                    exposures.add((follower, tag))
        counts = Counter(tag for _, tag in exposures)
        return dict(counts)

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["#a", "#b"])), max_size=15),
        st.lists(st.tuples(st.integers(10, 15), st.integers(0, 5)), max_size=15),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_oracle(self, tweets, followers):
        comp = Computation()
        ti, fi = comp.new_input(), comp.new_input()
        out = {}
        k_exposure(Stream.from_input(ti), Stream.from_input(fi)).subscribe(
            lambda t, recs: out.update(dict(recs))
        )
        comp.build()
        ti.on_next(tweets)
        fi.on_next(followers)
        ti.on_completed()
        fi.on_completed()
        comp.run()
        assert out == self.oracle(tweets, followers)


class TestLogisticRegression:
    @pytest.mark.parametrize("reducer", [allreduce, tree_allreduce])
    def test_matches_single_machine_gd(self, reducer):
        X, y, _ = make_dataset(120, 8, seed=3)
        expected = logistic_oracle(X, y, iterations=4, learning_rate=0.4)
        comp = ClusterComputation(2, 2)
        inp = comp.new_input()
        weights = {}
        logistic_regression(
            Stream.from_input(inp), 8, iterations=4, learning_rate=0.4,
            reducer=reducer,
        ).subscribe(lambda t, recs: weights.update(dict(recs)))
        comp.build()
        inp.stage.outputs[0][0].partitioner = lambda rec: rec[0]
        total = comp.total_workers
        inp.on_next([(w, X[w::total], y[w::total], len(y)) for w in range(total)])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        for vec in weights.values():
            np.testing.assert_allclose(vec, expected, atol=1e-8)

    def test_training_reduces_loss(self):
        X, y, _ = make_dataset(400, 6, seed=11)
        w0 = logistic_oracle(X, y, iterations=0)
        w5 = logistic_oracle(X, y, iterations=25, learning_rate=0.5)

        def loss(w):
            z = X @ w
            return float(np.mean(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0) - y * z))

        assert loss(w5) < loss(w0)


class TestHashtagApp:
    T_EPOCHS = [
        [Tweet(1, (2,), ("#x",)), Tweet(3, (), ("#y",))],
        [Tweet(2, (3,), ("#x",)), Tweet(3, (), ("#y",))],
        [Tweet(5, (6,), ()), Tweet(6, (), ("#z", "#z"))],
    ]
    Q_EPOCHS = [[(2, "q0")], [(3, "q1")], [(5, "q2"), (1, "q3")]]

    def run_app(self, fresh, cluster=False):
        comp = (
            ClusterComputation(2, 2) if cluster else Computation()
        )
        ti, qi = comp.new_input(), comp.new_input()
        answers = []
        hashtag_component_app(
            Stream.from_input(ti),
            Stream.from_input(qi),
            lambda t, recs: answers.extend(recs),
            fresh=fresh,
        )
        comp.build()
        for te, qe in zip(self.T_EPOCHS, self.Q_EPOCHS):
            ti.on_next(te)
            qi.on_next(qe)
            comp.run()
        ti.on_completed()
        qi.on_completed()
        comp.run()
        assert comp.drained()
        return answers

    @pytest.mark.parametrize("cluster", [False, True])
    def test_fresh_matches_oracle(self, cluster):
        answers = self.run_app(fresh=True, cluster=cluster)
        assert sorted(answers) == sorted(app_oracle(self.T_EPOCHS, self.Q_EPOCHS))

    def test_fresh_sees_same_epoch_updates(self):
        answers = dict(
            (qid, tag) for qid, _user, tag in self.run_app(fresh=True)
        )
        # q1 asks for user 3 right when the 2-3 mention merges the
        # components; fresh mode must see the merged component's top tag.
        assert answers["q1"] in ("#x", "#y")

    def test_stale_returns_quickly_possibly_stale(self):
        answers = self.run_app(fresh=False)
        # Stale mode still answers every query (possibly with None).
        assert len(answers) == sum(len(q) for q in self.Q_EPOCHS)
