"""Every integer argument of the library is an int, not a bool, a float or a
string: a value of another type is an InvalidInputError with one message,
"<who> needs an integer <name>, got <value>", never a result or a bare
TypeError.  Limits such as cex_cap, max_n and max_l are checked the same way,
by the library, before any sweep.  A value out of its range reads
"<who> needs <name> >= <low>" or "<who> needs <name> in [<low>, <high>]", and
every number a message quotes, however long, is shown by errors.echo.  A
sequence argument that is not iterable reads "<who> needs an iterable of
<name>, got <value>"."""

import pytest

import dimeq
from dimeq import (
    EpsilonVector,
    Generic,
    InvalidInputError,
    Lemma2Case,
    Partition,
    ResourceLimitError,
    Speh,
    theorems,
)
from dimeq import TrivialConstituent as T
from dimeq.errors import ECHO_LIMIT, echo

# (id, call, valid keyword arguments, who).  A tuple argument holds blocks:
# its first block is replaced, and the message names a "block".
INTEGER_ARGUMENTS = [
    ("verify_lemma1", dimeq.verify_lemma1, {"n": 4}, "verify_lemma1"),
    ("verify_lemma2", dimeq.verify_lemma2, {"n": 4}, "verify_lemma2"),
    ("verify_lemma2_reduction", dimeq.verify_lemma2_reduction, {"n": 4},
     "verify_lemma2_reduction"),
    ("verify_prop3", dimeq.verify_prop3, {"n": 4}, "verify_prop3"),
    ("verify_prop4", dimeq.verify_prop4, {"n": 4, "l": 3}, "verify_prop4"),
    ("verify_prop5", dimeq.verify_prop5, {"n": 4, "q": 2, "l": 3}, "verify_prop5"),
    ("verify_epsilon_orbit_claim", dimeq.verify_epsilon_orbit_claim,
     {"n": 4, "p": 2, "q": 2}, "verify_epsilon_orbit_claim"),
    ("lemma2_reduction_cases", dimeq.lemma2_reduction_cases, {"n": 4, "m1": 2},
     "lemma2_reduction_cases"),
    ("residual_bound", dimeq.residual_bound, {"n": 4, "m1s": (3,)}, "residual_bound"),
    ("check_corollary1", dimeq.check_corollary1, {"n": 4, "l": 2, "m1s": (3, 3)},
     "check_corollary1"),
    ("reduce_to_whittaker_form", dimeq.reduce_to_whittaker_form, {"n": 4},
     "reduce_to_whittaker_form"),
    ("enumerate_orbit_solutions", dimeq.enumerate_orbit_solutions, {"n": 4, "l": 2},
     "solution search"),
    ("dominance_floor", dimeq.dominance_floor, {"n": 4}, "dominance_floor"),
    ("enumerate_partitions", lambda **kw: list(dimeq.enumerate_partitions(**kw)),
     {"n": 4, "max_length": 2}, "enumerate_partitions"),
    ("minimal_eisenstein", dimeq.minimal_eisenstein, {"n": 4}, "minimal_eisenstein"),
    ("Generic", Generic, {"n": 4}, "Generic"),
    ("TrivialConstituent", T, {"n": 4}, "TrivialConstituent"),
    ("Speh", Speh, {"p": 2, "q": 2}, "Speh"),
    ("Eisenstein", lambda blocks: dimeq.Eisenstein(blocks, (Generic(3), T(1))),
     {"blocks": (3, 1)}, "Eisenstein"),
    ("IntegralSpec", lambda n: dimeq.IntegralSpec(n, (Generic(4),)), {"n": 4},
     "IntegralSpec"),
    ("Lemma2Case", Lemma2Case, {"a": 2, "p1": 1, "p2": 0}, "Lemma2Case"),
    ("EpsilonVector", lambda n: EpsilonVector(n, (1,) * 3), {"n": 4}, "EpsilonVector"),
    ("Partition.from_runs", lambda value, multiplicity: Partition.from_runs([(value, multiplicity)]),
     {"value": 2, "multiplicity": 1}, "Partition.from_runs"),
]

NOT_INTS = [(4.0, "4.0"), (True, "True"), ("4", "'4'")]


def _cases():
    for ident, call, valid, who in INTEGER_ARGUMENTS:
        for param, good in valid.items():
            blocks = isinstance(good, tuple)
            for bad, shown in NOT_INTS:
                args = {**valid, param: (bad,) + good[1:] if blocks else bad}
                message = f"{who} needs an integer {'block' if blocks else param}, got {shown}"
                yield pytest.param(call, args, message, id=f"{ident}-{param}-{shown}")


def _raised(build) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("call,args,message", _cases())
def test_every_integer_argument_is_type_checked(call, args, message):
    assert _raised(lambda: call(**args)) == (InvalidInputError, message)


@pytest.mark.parametrize(
    "build,message",
    [
        # each of these returned a result or ended in a bare TypeError
        (lambda: dimeq.verify_lemma2(6.0), "verify_lemma2 needs an integer n, got 6.0"),
        (lambda: dimeq.verify_prop3(6.0), "verify_prop3 needs an integer n, got 6.0"),
        (
            lambda: list(dimeq.enumerate_partitions(4.0)),
            "enumerate_partitions needs an integer n, got 4.0",
        ),
        (
            lambda: dimeq.Eisenstein((3.0, True, True), (Generic(3), T(1), T(1))),
            "Eisenstein needs an integer block, got 3.0",
        ),
        (
            lambda: dimeq.vanishing_verdict(dimeq.IntegralSpec(5.0, (Generic(5), Speh(5, 1)))),
            "IntegralSpec needs an integer n, got 5.0",
        ),
        (lambda: theorems.verification_sweep(max_n=3.5),
         "verification_sweep needs an integer max_n, got 3.5"),
        (lambda: dimeq.enumerate_orbit_solutions(4, 2, max_n="9"),
         "solution search needs an integer max_n, got '9'"),
        (lambda: dimeq.enumerate_orbit_solutions(4, 2, max_l=4.0),
         "solution search needs an integer max_l, got 4.0"),
        # a value of the right type below its bound is a range fault
        (lambda: dimeq.verify_lemma2(1), "verify_lemma2 needs n >= 2, got 1"),
        (lambda: theorems.verification_sweep(cex_cap=-1),
         "verification_sweep needs cex_cap >= 0, got -1"),
        # one too long for str() is named by its size
        (lambda: dimeq.verify_lemma2(-10**5000),
         "verify_lemma2 needs n >= 2, got a negative integer of 16610 bits"),
        (lambda: Generic(-10**5000), "Generic needs n >= 1, got a negative integer of 16610 bits"),
        (
            lambda: list(dimeq.enumerate_partitions(4, max_length=-1)),
            "enumerate_partitions needs max_length >= 0, got -1",
        ),
    ],
)
def test_named_cases(build, message):
    assert _raised(build) == (InvalidInputError, message)


@pytest.mark.parametrize(
    "build,message",
    [
        # each of these ended in a bare TypeError
        (lambda: dimeq.IntegralSpec(4, 5),
         "IntegralSpec needs an iterable of representations, got 5"),
        (lambda: dimeq.Eisenstein(5, ()), "Eisenstein needs an iterable of blocks, got 5"),
        (lambda: dimeq.Eisenstein((3, 1), 7),
         "Eisenstein needs an iterable of constituents, got 7"),
        (lambda: EpsilonVector(3, None), "EpsilonVector needs an iterable of bits, got None"),
        (lambda: Partition(5), "Partition needs an iterable of parts, got 5"),
        (lambda: Partition.from_runs(5), "Partition.from_runs needs an iterable of runs, got 5"),
        (lambda: dimeq.residual_bound(6, 5), "residual_bound needs an iterable of blocks, got 5"),
        (lambda: dimeq.check_corollary1(6, 3, 5),
         "check_corollary1 needs an iterable of blocks, got 5"),
    ],
)
def test_every_sequence_argument_is_iterable(build, message):
    assert _raised(build) == (InvalidInputError, message)


def test_a_type_error_while_iterating_is_not_renamed():
    # only iter() itself is checked: a fault inside the iteration surfaces as it is
    assert _raised(lambda: Partition(map(len, [1]))) == (
        TypeError, "object of type 'int' has no len()"
    )


# (id, call, the value at a bound, the value one past it, the message for that one)
BOUNDS = [
    ("m1-low", lambda m1: dimeq.lemma2_reduction_cases(6, m1), 2, 1,
     "lemma2_reduction_cases needs m1 in [2, 6], got 1"),
    ("m1-high", lambda m1: dimeq.lemma2_reduction_cases(6, m1), 6, 7,
     "lemma2_reduction_cases needs m1 in [2, 6], got 7"),
    ("block-low", lambda m: dimeq.residual_bound(5, (m,)), 1, 0,
     "residual_bound needs block in [1, 4], got 0"),
    ("block-high", lambda m: dimeq.residual_bound(5, (m,)), 4, 5,
     "residual_bound needs block in [1, 4], got 5"),
    ("corollary1-block", lambda m: dimeq.check_corollary1(5, 2, (4, m)), 4, 5,
     "check_corollary1 needs block in [1, 4], got 5"),
    ("Speh-p", lambda p: Speh(p, 2), 1, 0, "Speh needs p >= 1, got 0"),
    ("Speh-q", lambda q: Speh(2, q), 1, 0, "Speh needs q >= 1, got 0"),
    ("EpsilonVector-n", lambda n: EpsilonVector(n, (1,) * (n - 1)), 2, 1,
     "EpsilonVector needs n >= 2, got 1"),
    ("Lemma2Case-a", lambda a: Lemma2Case(a, 1, 0), 2, 1, "Lemma2Case needs a >= 2, got 1"),
    ("Lemma2Case-p1", lambda p1: Lemma2Case(2, p1, 0), 1, 0, "Lemma2Case needs p1 >= 1, got 0"),
    ("Lemma2Case-p2", lambda p2: Lemma2Case(2, 1, p2), 0, -1, "Lemma2Case needs p2 >= 0, got -1"),
    ("from_runs-value", lambda v: Partition.from_runs([(v, 1)]), 1, 0,
     "Partition.from_runs needs value >= 1, got 0"),
    ("from_runs-multiplicity", lambda m: Partition.from_runs([(1, m)]), 1, 0,
     "Partition.from_runs needs multiplicity >= 1, got 0"),
    ("prop5-q", lambda q: dimeq.verify_prop5(4, q, 3), 1, 0, "verify_prop5 needs q >= 1, got 0"),
    ("epsilon-orbit-p", lambda p: dimeq.verify_epsilon_orbit_claim(2 * p, p, 2), 2, 1,
     "verify_epsilon_orbit_claim needs p >= 2, got 1"),
    ("epsilon-orbit-q", lambda q: dimeq.verify_epsilon_orbit_claim(2 * q, 2, q), 1, 0,
     "verify_epsilon_orbit_claim needs q >= 1, got 0"),
    ("sweep-max_n", lambda max_n: theorems.verification_sweep(max_n=max_n), 2, 1,
     "verification_sweep needs max_n >= 2, got 1"),
    ("solve-max_n", lambda max_n: dimeq.enumerate_orbit_solutions(2, 1, max_n=max_n), 2, 1,
     "solution search needs max_n >= 2, got 1"),
    ("solve-max_l", lambda max_l: dimeq.enumerate_orbit_solutions(2, 1, max_l=max_l), 1, 0,
     "solution search needs max_l >= 1, got 0"),
]


@pytest.mark.parametrize(
    "call,at,past,message", [pytest.param(*row[1:], id=row[0]) for row in BOUNDS]
)
def test_each_bound_accepts_its_end_and_refuses_one_past(call, at, past, message):
    call(at)
    assert _raised(lambda: call(past)) == (InvalidInputError, message)


HUGE = 10**5000  # 16610 bits, past CPython's 4,300-digit limit on str()
NEG = "a negative integer of 16610 bits"


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: dimeq.lemma2_reduction_cases(4, -HUGE), InvalidInputError,
         f"lemma2_reduction_cases needs m1 in [2, 4], got {NEG}"),
        (lambda: dimeq.verify_prop5(4 * HUGE, -HUGE, 3), InvalidInputError,
         f"verify_prop5 needs q >= 1, got {NEG}"),
        (lambda: dimeq.verify_epsilon_orbit_claim(4, -HUGE, 2), InvalidInputError,
         f"verify_epsilon_orbit_claim needs p >= 2, got {NEG}"),
        (lambda: dimeq.residual_bound(4, (-HUGE,)), InvalidInputError,
         f"residual_bound needs block in [1, 3], got {NEG}"),
        (lambda: Speh(-HUGE, 2), InvalidInputError, f"Speh needs p >= 1, got {NEG}"),
        (lambda: dimeq.Eisenstein((-HUGE, 1), (Generic(1), Generic(1))), InvalidInputError,
         f"blocks must be positive, got [{NEG}, 1]"),
        (lambda: theorems.verification_sweep(max_n=-HUGE), InvalidInputError,
         f"verification_sweep needs max_n >= 2, got {NEG}"),
        (lambda: dimeq.verify_prop5(4 * HUGE, 3, 3), InvalidInputError,
         "q must divide n with quotient >= 2, got n=an integer of 16612 bits, q=3"),
        (lambda: dimeq.verify_epsilon_orbit_claim(4 * HUGE, 2, 3), InvalidInputError,
         "need n == p*q, got n=an integer of 16612 bits, p=2, q=3"),
        (lambda: dimeq.check_corollary1(4, HUGE, (3, 3)), InvalidInputError,
         "check_corollary1 needs one block per representation, got l=an integer of 16610 bits "
         "and 2 blocks"),
        (lambda: EpsilonVector(HUGE, ()), InvalidInputError,
         "EpsilonVector needs n - 1 bits, got n=an integer of 16610 bits and 0 bits"),
        (lambda: EpsilonVector(-HUGE, ()), InvalidInputError,
         f"EpsilonVector needs n >= 2, got {NEG}"),
        (lambda: Lemma2Case(-HUGE, 1, 0), InvalidInputError, f"Lemma2Case needs a >= 2, got {NEG}"),
        (lambda: dimeq.IntegralSpec(HUGE, (Generic(3),)), InvalidInputError,
         "representation 0 has rank 3, expected an integer of 16610 bits"),
        (lambda: dimeq.lemma2_I(Partition([HUGE]), Partition([2, 1])), InvalidInputError,
         "lemma2_I needs partitions of the same n, got an integer of 16610 bits and 3"),
        (lambda: Partition([HUGE]).compare(Partition([2, 1])), InvalidInputError,
         "cannot compare partitions of different integers: an integer of 16610 bits vs 3"),
        (lambda: Partition.from_runs([(2, 1), (HUGE, 1)]), InvalidInputError,
         "run values must be strictly decreasing, got 2 then an integer of 16610 bits"),
        (lambda: dimeq.rep_from_json({"kind": "speh", "p": 2, "q": 2}, expected_rank=HUGE),
         InvalidInputError,
         "representation has rank 4, expected an integer of 16610 bits: "
         "{'kind': 'speh', 'p': 2, 'q': 2}"),
        (lambda: dimeq.enumerate_orbit_solutions(HUGE, 2), ResourceLimitError,
         "solution search n=an integer of 16610 bits, l=2 exceeds bounds max_n=12, max_l=4"),
        # a bound computed from a long int is shown the same way
        (lambda: dimeq.lemma2_reduction_cases(HUGE, 1), InvalidInputError,
         "lemma2_reduction_cases needs m1 in [2, an integer of 16610 bits], got 1"),
        (lambda: dimeq.residual_bound(HUGE, (0,)), InvalidInputError,
         "residual_bound needs block in [1, an integer of 16610 bits], got 0"),
        (lambda: dimeq.Eisenstein((HUGE, 1), (Generic(3), Generic(1))), InvalidInputError,
         "constituent of rank 3 attached to block of size an integer of 16610 bits"),
        (lambda: dimeq.IntegralSpec(HUGE, (T(HUGE),)), InvalidInputError,
         "representation 0 is one-dimensional (orbit (1^an integer of 16610 bits)); "
         "one-dimensional representations are excluded at top level"),
    ],
)
def test_an_int_too_long_to_print_is_named_by_its_size(build, error, message):
    # each of these once ended in CPython's bare ValueError from str()
    assert _raised(build) == (error, message)


def test_echo_names_a_long_int_inside_a_list():
    assert echo([-HUGE, 1]) == f"[{NEG}, 1]"
    assert echo((HUGE,)) == "(an integer of 16610 bits,)"
    assert echo(10**45) == "100000000000000000...0000000000000000000"


def test_echo_cuts_at_its_limit():
    text = echo({"a": "x" * 100, "b": "y" * 100, "c": "z" * 100})
    assert len(text) == ECHO_LIMIT == 200
    assert text.startswith("{'a': 'xxx") and text.endswith("zzz...")


@pytest.fixture
def sweeps_refused(monkeypatch):
    """theorems' sweep entry points, each replaced by one that raises."""

    def refused(*args, **kwargs):
        raise AssertionError("swept")

    for name in ("enumerate_partitions", "_pair_sweep", "_block_sweep", "_partition_counts"):
        monkeypatch.setattr(theorems, name, refused)


@pytest.mark.parametrize("name", list(theorems.VERIFIERS))
def test_every_verifier_checks_cex_cap_before_its_sweep(sweeps_refused, name):
    v = theorems.VERIFIERS[name]
    args = next(iter(v.cases(v.n_range[0])))
    who = v.func.__name__
    with pytest.raises(AssertionError, match="swept"):
        v.func(*args, cex_cap=0)  # a valid cap reaches the refused sweep
    for bad, message in [(4.0, "an integer cex_cap, got 4.0"),
                         (True, "an integer cex_cap, got True"),
                         ("4", "an integer cex_cap, got '4'"),
                         (-1, "cex_cap >= 0, got -1")]:
        assert _raised(lambda: v.func(*args, cex_cap=bad)) == (
            InvalidInputError, f"{who} needs {message}"
        )


def test_a_good_sequence_argument_is_read_once():
    # a tuple is kept as it is; any other iterable is iterated once, by tuple()
    reps = (Generic(4), Speh(2, 2))
    assert dimeq.IntegralSpec(4, reps).representations is reps

    class Parts:
        iterated = 0

        def __iter__(self):
            Parts.iterated += 1
            return iter((3, 1))

    assert Partition(Parts()).parts == (3, 1) and Parts.iterated == 1
