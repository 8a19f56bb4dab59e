from perfbench.inputs import derive, multi_party_sets, op_rng, two_party_pair


def test_same_seed_same_inputs():
    first = two_party_pair(op_rng(7, "w", "run", 3), 1 << 32, 64, 0.3)
    second = two_party_pair(op_rng(7, "w", "run", 3), 1 << 32, 64, 0.3)
    assert first == second


def test_inputs_change_with_seed_and_index():
    base = two_party_pair(op_rng(7, "w", "run", 3), 1 << 32, 64, 0.3)
    assert two_party_pair(op_rng(8, "w", "run", 3), 1 << 32, 64, 0.3) != base
    assert two_party_pair(op_rng(7, "w", "run", 4), 1 << 32, 64, 0.3) != base
    assert derive(7, "a") != derive(8, "a")


def test_pair_shape():
    alice, bob = two_party_pair(op_rng(1, "shape"), 1 << 32, 100, 0.3)
    assert len(set(alice)) == len(set(bob)) == 100
    assert len(set(alice) & set(bob)) == 30


def test_multi_party_shape():
    sets = multi_party_sets(op_rng(1, "multi"), 5, 1 << 20, 40, 0.5)
    assert len(sets) == 5
    assert all(len(set(s)) == 40 for s in sets)
    common = frozenset.intersection(*(frozenset(s) for s in sets))
    assert len(common) == 20
    assert multi_party_sets(op_rng(1, "multi"), 5, 1 << 20, 40, 0.5) == sets
