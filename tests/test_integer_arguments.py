"""Every integer argument of the library is an int, not a bool, a float or a
string: a value of another type is an InvalidInputError with one message,
"<who> needs an integer <name>, got <value>", never a result or a bare
TypeError.  Limits such as cex_cap, max_n and max_l are checked the same way,
by the library, before any sweep."""

import pytest

import dimeq
from dimeq import Generic, InvalidInputError, Speh, theorems
from dimeq import TrivialConstituent as T

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


@pytest.fixture
def sweeps_refused(monkeypatch):
    """theorems' sweep entry points, each replaced by one that raises."""

    def refused(*args, **kwargs):
        raise AssertionError("swept")

    for name in ("enumerate_partitions", "_pair_sweep", "_block_sweep"):
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
