"""Reachability and difference traversal against brute-force oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitvouch.gitstore import (
    MemoryStore,
    ObjectId,
    ObjectNotFound,
    commit_difference,
    read_path_at_commit,
)
from gitvouch.gitstore.graph import ancestor_steps
from gitvouch.gitstore.objects import NotACommit

import fixtures


def is_ancestor(store, a: ObjectId, b: ObjectId) -> bool:
    """``a`` is ``b`` or reachable from it, by ``ancestor_steps``; a
    missing ``a`` raises."""
    store.read_object(a)
    return a == b or any(ancestor_steps(store, a, b))


def build_dag(parent_choices: list[list[int]]):
    """Node i gets parents from indices < i; returns (store, ids)."""
    store = MemoryStore()
    tree = store.add_tree_from_files({"f": b"x"})
    ids: list[ObjectId] = []
    for i, choices in enumerate(parent_choices):
        parents = [ids[j] for j in sorted(set(c % i for c in choices))] if i else []
        ids.append(store.add_commit(tree, parents, message=f"n{i}\n"))
    return store, ids


def brute_closure(parent_choices, node):
    closure = set()
    stack = [node]
    while stack:
        i = stack.pop()
        if i in closure:
            continue
        closure.add(i)
        if i:
            stack.extend(set(c % i for c in parent_choices[i]))
    return closure


dag_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=3),
    min_size=1,
    max_size=64,
)


@settings(max_examples=60, deadline=None)
@given(parent_choices=dag_strategy, data=st.data())
def test_is_ancestor_matches_brute_force(parent_choices, data):
    store, ids = build_dag(parent_choices)
    n = len(ids)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    expected = a in brute_closure(parent_choices, b)
    assert is_ancestor(store, ids[a], ids[b]) == expected


@settings(max_examples=60, deadline=None)
@given(parent_choices=dag_strategy, data=st.data())
def test_commit_difference_matches_brute_force(parent_choices, data):
    store, ids = build_dag(parent_choices)
    n = len(ids)
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    excluded = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=4))

    expected = brute_closure(parent_choices, target)
    for x in excluded:
        expected -= brute_closure(parent_choices, x)

    # On a stop set closed under parents, the walk equals "reachable
    # from no excluded id".
    stop = set().union(*(brute_closure(parent_choices, x) for x in excluded))
    result = commit_difference(store, ids[target], {ids[i] for i in stop})
    got = {c.id for c in result}
    assert got == {ids[i] for i in expected}

    # topological: every in-result parent precedes its child
    position = {c.id: i for i, c in enumerate(result)}
    for c in result:
        for parent in c.parents:
            if parent in position:
                assert position[parent] < position[c.id]


def brute_walk(parent_choices, node, stop):
    """Nodes reachable from ``node`` over paths that enter no stop node."""
    if node in stop:
        return set()
    reached = set()
    stack = [node]
    while stack:
        i = stack.pop()
        if i in reached:
            continue
        reached.add(i)
        if i:
            stack.extend(p for p in set(c % i for c in parent_choices[i]) if p not in stop)
    return reached


@settings(max_examples=60, deadline=None)
@given(parent_choices=dag_strategy, data=st.data())
def test_commit_difference_stops_at_arbitrary_stop_ids(parent_choices, data):
    store, ids = build_dag(parent_choices)
    n = len(ids)
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    stop = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=6))

    result = commit_difference(store, ids[target], {ids[i] for i in stop})
    assert {c.id for c in result} == {ids[i] for i in brute_walk(parent_choices, target, stop)}
    position = {c.id: i for i, c in enumerate(result)}
    for c in result:
        for parent in c.parents:
            if parent in position:
                assert position[parent] < position[c.id]


class TestCommitDifference:
    def test_fig4_from_intro(self):
        fig = fixtures.fig4()
        result = commit_difference(fig.store, fig.f, {fig.a})
        assert [c.id for c in result][-1] == fig.f
        assert {c.id for c in result} == {fig.b, fig.c, fig.d, fig.e, fig.f}

    def test_target_excluded_is_empty(self):
        fig = fixtures.fig4()
        assert commit_difference(fig.store, fig.f, {fig.f}) == []

    def test_exclude_both_merge_parents(self):
        fig = fixtures.fig4()
        result = commit_difference(fig.store, fig.f, {fig.d, fig.e})
        assert [c.id for c in result] == [fig.f]

    def test_absent_excluded_ids_are_ignored(self):
        fig = fixtures.fig4()
        ghost = ObjectId(b"\xaa" * 20)
        result = commit_difference(fig.store, fig.f, {fig.a, ghost})
        assert {c.id for c in result} == {fig.b, fig.c, fig.d, fig.e, fig.f}

    def test_missing_target_raises(self):
        fig = fixtures.fig4()
        with pytest.raises(ObjectNotFound):
            commit_difference(fig.store, ObjectId(b"\xbb" * 20), set())

    def test_walk_reads_nothing_behind_stop_ids(self):
        fig = fixtures.fig4()
        store = fixtures.CountingStore(fig.store)
        result = commit_difference(store, fig.f, {fig.d, fig.e})
        assert [c.id for c in result] == [fig.f]
        assert store.reads == 1
        frontier = {p for c in result for p in c.parents}
        assert frontier == {fig.d, fig.e}


class TestIsAncestor:
    def test_fig4_paper_cases(self):
        fig = fixtures.fig4()
        assert is_ancestor(fig.store, fig.a, fig.f) is True
        assert is_ancestor(fig.store, fig.d, fig.e) is False
        assert is_ancestor(fig.store, fig.f, fig.f) is True

    def test_missing_commit_raises(self):
        fig = fixtures.fig4()
        with pytest.raises(ObjectNotFound):
            is_ancestor(fig.store, ObjectId(b"\xcc" * 20), fig.f)


class TestReadPathAtCommit:
    def test_reads_authorization_file(self):
        fig = fixtures.fig4()
        data = read_path_at_commit(fig.store, fig.b, ".guix-authorizations")
        assert data is not None
        assert fig.alice.fingerprint.display().encode() in data
        assert fig.bob.fingerprint.display().encode() in data

    def test_missing_path_is_absent(self):
        fig = fixtures.fig4()
        assert read_path_at_commit(fig.store, fig.b, "no/such/file") is None

    def test_directory_path_is_absent(self):
        store = MemoryStore()
        cid = store.commit_files({"dir/file.txt": b"content"})
        assert read_path_at_commit(store, cid, "dir") is None
        assert read_path_at_commit(store, cid, "dir/file.txt") == b"content"
        assert read_path_at_commit(store, cid, "dir/file.txt/deeper") is None

    def test_non_commit_raises(self):
        store = MemoryStore()
        blob = store.add_blob(b"data")
        with pytest.raises(NotACommit):
            read_path_at_commit(store, blob, "f")


class TestRefs:
    def test_symref_chain_resolves(self):
        store = MemoryStore()
        cid = store.commit_files({"f": b"x"})
        store.set_ref("refs/heads/master", cid)
        store.set_ref("refs/heads/alias", "refs/heads/master")
        store.set_ref("HEAD", "refs/heads/alias")
        assert store.resolve_ref("HEAD") == cid

    def test_symref_loop_detected(self):
        from gitvouch.gitstore import SymrefLoop

        store = MemoryStore()
        for i in range(17):
            store.set_ref(f"refs/hop{i}", f"refs/hop{i + 1}")
        cid = store.commit_files({"f": b"x"})
        store.set_ref("refs/hop17", cid)
        with pytest.raises(SymrefLoop):
            store.resolve_ref("refs/hop0")

    def test_deep_but_allowed_chain(self):
        store = MemoryStore()
        cid = store.commit_files({"f": b"x"})
        store.set_ref("refs/hop15", cid)
        for i in range(15):
            store.set_ref(f"refs/hop{i}", f"refs/hop{i + 1}")
        assert store.resolve_ref("refs/hop0") == cid

    def test_missing_ref(self):
        store = MemoryStore()
        with pytest.raises(ObjectNotFound):
            store.resolve_ref("refs/heads/nope")

    def test_annotated_tag_peeled(self):
        store = MemoryStore()
        cid = store.commit_files({"f": b"x"})
        tag_payload = (
            b"object " + cid.hex.encode() + b"\ntype commit\ntag v1\n"
            b"tagger T <t@x> 0 +0000\n\nrelease\n"
        )
        tag = store.add_object("tag", tag_payload)
        store.set_ref("refs/tags/v1", tag)
        assert store.resolve_ref("refs/tags/v1") == cid
