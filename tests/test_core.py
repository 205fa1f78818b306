import dataclasses
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from nswlp import (
    Agent,
    Allocation,
    EmptyInstance,
    Instance,
    InvalidInstance,
    NegativeValue,
    OverlappingBundles,
    TooLarge,
    WeightSumError,
    as_fraction,
    check_ef1,
    log_nsw,
    make_instance,
    nsw,
    scale_values,
    validate,
)
from nswlp import core, jsonio
from nswlp.core import _augment, _exp_welfare
from conftest import ef1_by_quantifiers, free_counts, full_bfs_augment, transpose


def test_every_exported_name_resolves():
    import nswlp

    missing = [name for name in nswlp.__all__ if not hasattr(nswlp, name)]
    assert missing == []


def test_validate_minimal_instance():
    validate(make_instance(["1"], [[5]]))


def test_validate_weight_sum():
    with pytest.raises(WeightSumError):
        validate(make_instance(["1/2", "1/3"], [[1], [1]]))


def test_validate_negative_value():
    with pytest.raises(NegativeValue):
        validate(make_instance(["1"], [[-1]]))


def test_validate_negative_weight():
    with pytest.raises(NegativeValue):
        validate(make_instance(["-1", "2"], [[1], [1]]))


def test_validate_empty():
    with pytest.raises(EmptyInstance):
        validate(make_instance([], []))


def test_ragged_rows_cannot_be_constructed():
    with pytest.raises(InvalidInstance, match=r"^agent 1 has 1 values, expected 2$"):
        make_instance(["1/2", "1/2"], [[1, 2], [3]])
    with pytest.raises(InvalidInstance, match=r"^agent 0 has 1 values, expected 2$"):
        Instance(num_items=2, agents=(Agent(Fraction(1), (Fraction(1),)),))
    # The file's num_items is the one every row is checked against.
    with pytest.raises(InvalidInstance, match=r"^agent 0 has 2 values, expected 3$"):
        jsonio.instance_from_obj(
            {"num_items": 3, "agents": [{"weight": "1", "values": ["1", "2"]}]}
        )


def test_unnormalised_weights_cannot_be_constructed():
    half = Agent(Fraction(1, 2), (Fraction(1),))
    with pytest.raises(WeightSumError, match=r"^weights sum to 1/2, expected 1$"):
        Instance(num_items=1, agents=(half,))
    with pytest.raises(WeightSumError, match=r"^weights sum to 1/2, expected 1$"):
        make_instance(["1/2"], [[1]])
    # Frozen, and every copy is made again, so no change leaves it invalid.
    inst = make_instance(["1/2", "1/2"], [[1], [1]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.agents = (half,)
    with pytest.raises(WeightSumError, match=r"^weights sum to 1/2, expected 1$"):
        dataclasses.replace(inst, agents=(half,))


def test_log_nsw_single_agent():
    inst = make_instance(["1"], [[5]])
    assert log_nsw(inst, Allocation((0,))) == pytest.approx(math.log(5))


def test_log_nsw_geometric_mean():
    inst = make_instance(["1/2", "1/2"], [[4, 0], [0, 9]])
    lw = log_nsw(inst, Allocation((0, 1)))
    assert lw == pytest.approx(0.5 * math.log(4) + 0.5 * math.log(9))
    assert nsw(inst, Allocation((0, 1))) == pytest.approx(6.0)


def test_log_nsw_zero_weight_agent_is_ignored():
    inst = make_instance(["1", "0"], [[3, 0], [0, 7]])
    assert log_nsw(inst, Allocation((0, None))) == pytest.approx(math.log(3))


def test_log_nsw_worthless_bundle_is_minus_infinity():
    inst = make_instance(["1/2", "1/2"], [[2, 0], [0, 2]])
    assert log_nsw(inst, Allocation((0, None))) == -math.inf
    assert nsw(inst, Allocation((0, None))) == 0.0


def test_nsw_two_identical_items():
    inst = make_instance(["1/2", "1/2"], [[2, 2], [2, 2]])
    assert nsw(inst, Allocation((0, 1))) == pytest.approx(2.0)


def test_scale_values_divides_by_min_positive():
    inst = make_instance(["1"], [["0.5", "2", "0"]])
    scaled = scale_values(inst)
    assert scaled.agents[0].values == (Fraction(1), Fraction(4), Fraction(0))


def test_scale_values_non_integer_ratio():
    inst = make_instance(["1"], [[3, 7]])
    scaled = scale_values(inst)
    assert scaled.agents[0].values == (Fraction(1), Fraction(7, 3))


def test_scale_values_all_zero_row_unchanged():
    inst = make_instance(["1/2", "1/2"], [[0, 0], [1, 2]])
    scaled = scale_values(inst)
    assert scaled.agents[0].values == (Fraction(0), Fraction(0))


def test_log_nsw_permutation_equivariance():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        weights = [Fraction(1, n)] * n
        values = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        inst = make_instance(weights, values)
        owner = tuple(rng.randrange(n) for _ in range(m))
        perm_items = list(range(m))
        rng.shuffle(perm_items)
        perm_agents = list(range(n))
        rng.shuffle(perm_agents)
        values2 = [
            [values[perm_agents[i]][perm_items[j]] for j in range(m)]
            for i in range(n)
        ]
        weights2 = [weights[perm_agents[i]] for i in range(n)]
        inst2 = make_instance(weights2, values2)
        inv_agent = {perm_agents[i]: i for i in range(n)}
        owner2 = tuple(inv_agent[owner[perm_items[j]]] for j in range(m))
        a, b = log_nsw(inst, Allocation(owner)), log_nsw(inst2, Allocation(owner2))
        if a == -math.inf:
            assert b == -math.inf
        else:
            assert b == pytest.approx(a, abs=1e-12)


def test_exp_welfare_clamps_at_ln_dbl_max():
    ln_max = math.log(sys.float_info.max)
    assert _exp_welfare(-math.inf) == 0.0
    assert _exp_welfare(1.5) == math.exp(1.5)
    above = math.nextafter(ln_max, math.inf)
    assert _exp_welfare(above) == _exp_welfare(ln_max) == math.exp(ln_max)


def test_nsw_matches_exp_of_log():
    rng = random.Random(3)
    for _ in range(50):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        inst = make_instance(
            [Fraction(1, n)] * n,
            [[rng.randint(1, 9) for _ in range(m)] for _ in range(n)],
        )
        owner = tuple(rng.randrange(n) for _ in range(m))
        a = Allocation(owner)
        assert nsw(inst, a) == pytest.approx(math.exp(log_nsw(inst, a)), rel=1e-12)


# -- EF1 -------------------------------------------------------------------


def test_ef1_examples():
    assert check_ef1([3, 2, 1], [[0], [1, 2]]) is True
    assert check_ef1([1, 1, 1, 1], [[], [0, 1, 2, 3]]) is False
    assert check_ef1([5, 1, 1, 1], [[0], [1, 2, 3]]) is True


def test_ef1_overlap_rejected():
    with pytest.raises(OverlappingBundles):
        check_ef1([1, 1], [[0], [0, 1]])
    assert check_ef1([1, 1], [[0], [0, 1]], require_disjoint=False) is True


def test_ef1_matches_quantifier_oracle():
    rng = random.Random(8)
    for _ in range(300):
        m = rng.randint(1, 8)
        values = [rng.randint(0, 6) for _ in range(m)]
        k = rng.randint(1, 3)
        assign = [rng.randrange(k + 1) for _ in range(m)]  # k+1 = leave out
        bundles = [[j for j in range(m) if assign[j] == b] for b in range(k)]
        assert check_ef1(values, bundles) == ef1_by_quantifiers(values, bundles)


@st.composite
def wide_instances(draw):
    """Values k/q * 10^e with e in -12..12 and mixed denominators q, and an
    allocation that may leave items out."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    entry = st.builds(
        lambda k, q, e: Fraction(k, q) * Fraction(10) ** e,
        st.integers(0, 30), st.sampled_from([1, 3, 7, 10, 11, 13]), st.integers(-12, 12),
    )
    values = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    inst = make_instance([Fraction(w, sum(weights)) for w in weights], values)
    owner = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)), min_size=m, max_size=m))
    return inst, Allocation(tuple(owner))


def _fraction_log_nsw(inst, alloc):
    """log_nsw's formula on Fraction bundle sums."""
    sums = [Fraction(0)] * inst.num_agents
    for j, i in enumerate(alloc.owner):
        if i is not None:
            sums[i] += inst.agents[i].values[j]
    total = 0.0
    for agent, s in zip(inst.agents, sums):
        if agent.weight == 0:
            continue
        if s == 0:
            return -math.inf
        total += float(agent.weight) * math.log(float(s))
    return total


@given(wide_instances())
def test_int_values_are_the_values_exactly(case):
    inst, alloc = case
    for i, agent in enumerate(inst.agents):
        ints, d = agent.int_values
        assert [Fraction(k, d) for k in ints] == list(agent.values)
        bundle = [j for j, owner in enumerate(alloc.owner) if owner == i]
        assert inst.bundle_value(i, bundle) == sum((agent.values[j] for j in bundle), Fraction(0))
    assert log_nsw(inst, alloc) == _fraction_log_nsw(inst, alloc)


@st.composite
def rows_to_scale(draw):
    """A wide instance whose rows are each divided by their smallest
    positive value first, or not, so that some rows start at 1."""
    inst, _ = draw(wide_instances())
    rows = []
    for agent in inst.agents:
        low = min((v for v in agent.values if v > 0), default=None)
        scale = low is not None and draw(st.booleans())
        rows.append([v / low for v in agent.values] if scale else agent.values)
    return make_instance([agent.weight for agent in inst.agents], rows)


@given(rows_to_scale())
@example(make_instance(["1/2", "0", "1/2"], [[0, 0, 0], [3, 0, "3/2"], [1, 5, "7/2"]]))
def test_scale_values_on_int_rows_is_fraction_division(inst):
    scaled = scale_values(inst)
    assert scaled.num_items == inst.num_items
    for agent, got in zip(inst.agents, scaled.agents):
        low = min((v for v in agent.values if v > 0), default=None)
        if low is None or low == 1:
            assert got is agent  # kept as it is
        else:
            assert got.weight == agent.weight
            assert all(type(v) is Fraction for v in got.values)
            assert got.values == tuple(v / low for v in agent.values)


TINY = Fraction(1, 10**400)  # positive, and 0.0 as a double


@pytest.mark.parametrize(
    "weights, values, error, message",
    [
        (["1/2", "1/2"], [[1, 2], [3, "-1/3"]], NegativeValue,
         "value of agent 1 for item 1 is negative"),
        (["3/2", "-1/2"], [[1], [1]], NegativeValue, "agent 1 has negative weight"),
        # The negative weight is found before the sum, and before the
        # agent's own negative value.
        (["1/2", "-1/2"], [[1], [-1]], NegativeValue, "agent 1 has negative weight"),
        # The sum is reduced: 2/4, not 1/4 + 1/4.
        (["1/4", "1/4"], [[1], [1]], WeightSumError, "weights sum to 1/2, expected 1"),
        (["2/3", "2/3"], [[1], [1]], WeightSumError, "weights sum to 4/3, expected 1"),
        (["1", "1"], [[1], [1]], WeightSumError, "weights sum to 2, expected 1"),
        ([TINY, 1 - TINY], [[1], [1]], TooLarge,
         "weight of agent 0 leaves the double range: a positive weight must be "
         "a positive finite double"),
        (["1"], [[1, 10**400]], TooLarge,
         "values of agent 0 leave the double range: its smallest positive value, "
         "its total and their ratio must be positive finite doubles"),
        (["1"], [[TINY, 1]], TooLarge,
         "values of agent 0 leave the double range: its smallest positive value, "
         "its total and their ratio must be positive finite doubles"),
        # A ragged row is found before a negative value in it.
        (["1/2", "1/2"], [[1, 2], [-3]], InvalidInstance, "agent 1 has 1 values, expected 2"),
        ([], [], EmptyInstance, "instance has no agents"),
        (["1"], [[]], EmptyInstance, "instance has no items"),
    ],
)
def test_validate_failures_keep_class_and_message(weights, values, error, message):
    with pytest.raises(error) as info:
        make_instance(weights, values)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "i, items, why",
    [
        (0, [-1], "an agent or item index out of range"),  # would read item 1
        (0, [2], "an agent or item index out of range"),
        (0, [0, 0], "a repeated item"),  # would count item 0 twice
        (-1, [0], "an agent or item index out of range"),  # would read agent 0
        (1, [0], "an agent or item index out of range"),
    ],
)
def test_bundle_value_rejects_what_is_not_a_column(i, items, why):
    inst = make_instance(["1"], [[1, 2]])
    with pytest.raises(ValueError, match=rf"^column \({i}, \({items[0]},.*\) has {why}$"):
        inst.bundle_value(i, items)
    assert inst.bundle_value(0, [1, 0]) == 3


def test_int_values_are_read_only():
    agent = make_instance(["1"], [["1/2", "2/3"]]).agents[0]
    assert agent.int_values == ((3, 4), 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        agent.int_values = ((1, 1), 1)


# -- JSON ------------------------------------------------------------------


def test_instance_json_roundtrip():
    inst = make_instance(["1/3", "2/3"], [["0.25", "4"], ["1/7", "0"]])
    obj = jsonio.instance_to_obj(inst)
    assert obj["agents"][0]["weight"] == "1/3"
    assert obj["agents"][0]["values"] == ["1/4", "4"]
    back = jsonio.instance_from_obj(json.loads(json.dumps(obj)))
    assert back == inst


def test_instance_json_accepts_decimal_and_fraction_notation():
    obj = {
        "num_items": 2,
        "agents": [
            {"weight": "0.5", "values": ["1/2", "3"]},
            {"weight": "1/2", "values": ["0.125", "0"]},
        ],
    }
    inst = jsonio.instance_from_obj(obj)
    assert inst.agents[0].weight == Fraction(1, 2)
    assert inst.agents[1].values[0] == Fraction(1, 8)


def test_bare_json_numbers_read_as_their_literals(tmp_path):
    # The third value is not 0.1, though it parses to the same double.
    values = [["0.1", "2.5e-3", "0.1000000000000000055511151231257827"], ["1", "1e-300", "3"]]
    files = []
    for name, quote in (("bare", ""), ("quoted", '"')):
        rows = ", ".join(
            '{"weight": 0.5, "values": [%s]}' % ", ".join(quote + v + quote for v in row)
            for row in values
        )
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text('{"num_items": 3, "agents": [%s]}' % rows)
    bare, quoted = (jsonio.load_instance(str(f)) for f in files)
    assert bare == quoted
    assert bare.agents[0].values[:2] == (Fraction(1, 10), Fraction(1, 400))
    assert bare.agents[0].values[2] != Fraction(1, 10)


def test_decimal_exponent_beyond_the_guard():
    # Each would take minutes in Fraction, which builds 10**(10**8) first.
    with pytest.raises(ValueError, match=r"decimal exponent -100000000 is beyond \+-10,000"):
        as_fraction("1.5e-100000000")
    assert as_fraction(" -0.00e1_0000_0000 ") == 0
    assert as_fraction("1e10000") == 10**10000


def _outcome(parse, text):
    """What ``parse(text)`` returns, or the class and message it raises."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@given(st.from_regex(r"[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True)
       | st.text(alphabet="0123456789/ +-_.\u0663", max_size=12))
@example("1/0")
@example("00/0")
@example("1" * 4301)
@example("3/" + "1" * 4301)
def test_as_fraction_reads_a_literal_as_fraction_does(text):
    # Digit literals skip Fraction's parser; every string still gives its
    # value, or the class and message Fraction raises (int's digit limit too).
    assert _outcome(as_fraction, text) == _outcome(Fraction, text)


@pytest.mark.parametrize("text, parsed", [
    ("12", False), ("12/8", False), ("007/0010", False),
    (" 3", True), ("+3", True), ("-3", True), ("1_000", True), ("3.0", True),
    ("1e3", True), ("1 / 3", True), ("\u0663", True),  # an Arabic-Indic 3: isdigit, not ASCII
])
def test_only_ascii_digit_literals_skip_fractions_parser(monkeypatch, text, parsed):
    seen = []

    class Spy(Fraction):
        def __new__(cls, *args):
            seen.extend(a for a in args if isinstance(a, str))
            return Fraction(*args)

    monkeypatch.setattr(core, "Fraction", Spy)
    assert _outcome(as_fraction, text) == _outcome(Fraction, text)
    assert seen == ([text] if parsed else [])


def test_allocation_json_roundtrip():
    alloc = Allocation((1, None, 0))
    obj = jsonio.allocation_to_obj(alloc)
    assert obj == {"owner": [1, None, 0]}
    assert jsonio.allocation_from_obj(obj) == alloc


def test_malformed_instance_rejected():
    from nswlp import InvalidInstance

    with pytest.raises(InvalidInstance):
        jsonio.instance_from_obj({"num_items": 2, "agents": [{"weight": "1", "values": ["1"]}]})
    with pytest.raises(InvalidInstance):
        jsonio.instance_from_obj({"agents": []})
    with pytest.raises(InvalidInstance):
        jsonio.instance_from_obj({"num_items": 1, "agents": [{"weight": "x/y", "values": ["1"]}]})
    # Per-agent value multipliers would put the values in another value space.
    with pytest.raises(InvalidInstance, match="unknown field 'scales'"):
        jsonio.instance_from_obj(
            {"num_items": 1, "agents": [{"weight": "1", "values": ["1"]}], "scales": ["2"]}
        )


@st.composite
def augment_cases(draw):
    """A bipartite graph whose rows list their columns in any order, a
    partial matching on its edges and a free root row: (adj, col_of, row_of,
    root, as_dicts)."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    adj = [draw(st.permutations(sorted(draw(st.sets(st.integers(0, cols - 1))))))
           for _ in range(rows)]
    root = draw(st.integers(0, rows - 1))
    col_of, row_of = [-1] * rows, [-1] * cols
    for r in range(rows):
        if r == root:
            continue
        c = draw(st.sampled_from([-1] + [c for c in adj[r] if row_of[c] < 0]))
        if c >= 0:
            col_of[r], row_of[c] = c, r
    return adj, col_of, row_of, root, draw(st.booleans())


@given(augment_cases())
# Every column free: the root takes its first column.
@example(([[1, 2], [0, 2]], [-1, -1], [-1, -1, -1], 0, False))
@example(([[2, 1], [0, 2]], [-1, -1], [-1, -1, -1], 0, True))
# The path ends at the goal row's first free column, not its smallest.
@example(([[0], [0, 3, 1]], [-1, 0], [1, -1, -1, -1], 0, False))
# No path: the root's only column is held by a row with no other.
@example(([[0], [0]], [-1, 0], [1], 0, False))
# No path: the root has no columns at all.
@example(([[], [0]], [-1, 0], [1], 0, True))
# A path of three rows, found from dict adjacency.
@example(([[0, 1], [1, 2], [2, 3]], [-1, 1, 2], [-1, 1, 2, -1], 0, True))
def test_augment_matches_full_search(case):
    adj, col_of, row_of, root, as_dicts = case
    radj = transpose(adj, len(row_of))
    near = free_counts(adj, row_of)
    expected_col, expected_row, expected_moved = list(col_of), list(row_of), []
    expected = full_bfs_augment(adj, expected_col, expected_row, root, expected_moved)
    graph = [dict.fromkeys(cols, 1) for cols in adj] if as_dicts else adj
    moved = []
    found = _augment(graph, radj, near, col_of, row_of, root, moved)
    assert (found, moved, col_of, row_of) == (
        expected, expected_moved, expected_col, expected_row
    )
    assert near == free_counts(adj, row_of)
    assert radj == transpose(adj, len(row_of))
