"""The record classes against their old ``dataclasses`` definitions.

``old_records`` keeps every public record as ``@dataclass`` defined it.
For sample values built on both sides, the ``model._Record`` classes must
construct, compare, hash, print, refuse assignment, pickle and copy as
the old ones did.
"""
from __future__ import annotations

import copy
import dataclasses
import pickle

import old_records
import pytest

from gdlog import (
    analysis,
    chase,
    distributions,
    enumeration,
    model,
    parser,
    ppdl,
    translate,
)
from gdlog.analysis import Edge, Position
from gdlog.distributions import Registry
from gdlog.model import GdlogError

MODULES = (analysis, chase, distributions, enumeration, model, parser, ppdl, translate)
NEW = {
    name: cls
    for module in MODULES
    for name, cls in vars(module).items()
    if isinstance(cls, type) and model._Record in cls.__mro__[1:]
}
OLD = {name: getattr(old_records, name) for name in NEW}
DISTS = ("Flip",)  # stands in for a registry, whose repr shows its address


def samples(r: dict) -> dict:
    """Positional arguments of sample records, built from the classes in ``r``."""
    x = r["Variable"]("x")
    flip = r["DeltaTerm"]("Flip", (0.5,))
    head = r["Atom"]("R", (x, flip))
    body = r["Atom"]("S", (x, "a", 1.0))
    rule = r["Rule"](head, (body,))
    fact = r["Fact"]("S", ("a", 1.0))
    distrel = r["DistRelation"]("R", 2, "Flip", 2, 1)
    erule = r["ExistentialRule"]("existential", head, (body,), distrel, "y0")
    fd = r["FunctionalDependency"]("R__Flip__2", (1, 3), 2)
    outcome = r["Outcome"](frozenset({fact}), -0.5, "leaf")
    pos = Position("R", 1)
    d = distributions
    return {
        "Variable": [("x",), ("y",), ("x",)],
        "DeltaTerm": [("Flip", (0.5,)), ("Poisson", (x,)), ("Flip", (0.5,))],
        "Atom": [("R", (x, flip)), ("R", (x, 1.0)), ("S", ())],
        "Rule": [(head, (body,)), (body, (body, body))],
        "Constraint": [((body,), None), ((body,), head)],
        "Fact": [("S", ("a", 1.0)), ("S", ("a", 2.0)), ("T", ()), ("S", ("a", 1))],
        "Program": [  # the first two differ only in the uncompared dists
            ({"S": 3}, {"R": 2}, [rule], [], DISTS),
            ({"S": 3}, {"R": 2}, [rule], [], None),
            ({"S": 3}, {}, [], []),
        ],
        "Diagnostic": [("rule", 0, "empty body"), ("program", None, "empty body")],
        "ValidationReport": [((),), ((r["Diagnostic"]("rule", 1, "x"),),)],
        "SourceSpan": [("f.gdl", 1, 2), ("<string>", 3, 4)],
        "DistRelation": [("R", 2, "Flip", 2, 1), ("R", 1, "Poisson", 3, 1)],
        "FunctionalDependency": [("R__Flip__2", (1, 3), 2), ("T", (), 1)],
        "ExistentialRule": [
            ("existential", head, (body,), distrel, "y0"),
            ("copied", body, (body,)),
            ("copied", body, (body,), None, None),
        ],
        "ExistentialProgram": [
            ({"S": 3}, {"R": 2}, [distrel], [erule], [fd], None),
            ({"S": 3}, {}, [], [], [], DISTS),
        ],
        "Firing": [(0, (("x", "a"),)), (1, ()), (0, (("x", "a"),))],
        "Rejection": [("missing forced fact",), ("budget",)],
        "Outcome": [(frozenset({fact}), -0.5, "leaf"), (frozenset(), 0.0, "budget")],
        "DistributionSpec": [  # the first two differ only in uncompared fields
            ("Flip", 1, True, d._flip_pmf, d._flip_support, d._flip_check),
            ("Flip", 1, True, d._geo_pmf, d._naturals, d._geo_check),
            ("Geo", 1, False, d._geo_pmf, d._naturals, d._geo_check),
        ],
        "EnumerationPolicy": [(), (0.1,), (0.0, 10, 0.5, "random", 3)],
        "OutcomeDistribution": [(((outcome, 0.5),), 0.5, 0.5), ((), 0.0, 1.0)],
        "ConstraintReport": [(True, ()), (False, ((0, {"x": "a"}),))],
        "PosteriorEstimate": [
            (fact, 0.5, 0.1, 10, 5, 0, 7),
            (fact, None, None, 0, 0, 0, 1),
        ],
        "DependencyGraph": [
            (frozenset(), frozenset(), frozenset()),
            (frozenset({pos}), frozenset({(pos, pos)}), frozenset()),
        ],
        "WeakAcyclicityResult": [(True, None), (False, (Edge(pos, pos, True),))],
    }


OLD_SAMPLES, NEW_SAMPLES = samples(OLD), samples(NEW)


def pairs(name):
    """(old record, new record) for each sample of class ``name``."""
    return [
        (OLD[name](*a), NEW[name](*b))
        for a, b in zip(OLD_SAMPLES[name], NEW_SAMPLES[name])
    ]


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e)


def test_every_record_has_samples_and_an_old_form():
    assert len(NEW) == 24
    assert sorted(NEW_SAMPLES) == sorted(NEW)
    for name, cls in NEW.items():
        fields = dataclasses.fields(OLD[name])
        assert cls._fields == tuple(f.name for f in fields), name
        assert cls.__match_args__ == OLD[name].__match_args__, name


@pytest.mark.parametrize("name", sorted(NEW))
def test_construction_matches(name):
    old_cls, new_cls = OLD[name], NEW[name]
    names = new_cls._fields
    required = [
        f.name for f in dataclasses.fields(old_cls) if f.default is dataclasses.MISSING
    ]
    for old_args, new_args in zip(OLD_SAMPLES[name], NEW_SAMPLES[name]):
        new = new_cls(*new_args)
        assert repr(new) == repr(old_cls(*old_args))
        # by keyword, and positional then keyword
        kw = dict(zip(names, new_args))
        assert new_cls(**kw) == new and repr(new_cls(**kw)) == repr(new)
        if new_args:
            rest = dict(list(kw.items())[1:])
            assert repr(new_cls(new_args[0], **rest)) == repr(new)
        # defaults fill what is left out, in both forms
        short = new_args[: len(required)]
        assert repr(new_cls(*short)) == repr(old_cls(*old_args[: len(required)]))
        # a surplus, unknown, missing or repeated argument is a TypeError
        surplus = len(names) + 1 - len(new_args)
        bad_calls = [lambda a: ((*a, *[0] * surplus), {}), lambda a: (a, {"nope": 0})]
        if required:
            bad_calls.append(lambda a: (a[: len(required) - 1], {}))
            bad_calls.append(lambda a: (a[:1], {names[0]: a[0]}))
        for bad in bad_calls:
            for cls, args in ((old_cls, old_args), (new_cls, new_args)):
                args, kwargs = bad(args)
                with pytest.raises(TypeError):
                    cls(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(NEW))
def test_equality_hash_and_repr_match(name):
    records = pairs(name)
    for old, new in records:
        assert repr(new) == repr(old)
        assert outcome(hash, new) == outcome(hash, old)
        assert new != old and not new == old  # different classes never compare equal
        assert new != 0 and (new == 0) is False
        for old2, new2 in records:
            assert (new == new2) == (old == old2)
            assert (new != new2) == (old != old2)


@pytest.mark.parametrize("name", sorted(NEW))
def test_assignment_and_deletion_raise(name):
    for old, new in pairs(name):
        for attr in (*new._fields, "nope"):
            with pytest.raises(AttributeError):
                setattr(new, attr, 1)
            with pytest.raises(AttributeError):
                delattr(new, attr)
            if name != "ExistentialProgram":
                with pytest.raises(AttributeError):
                    setattr(old, attr, 1)
        assert repr(new) == repr(old)  # unchanged by the attempts


def test_existential_program_is_frozen_where_the_dataclass_was_not():
    old, new = pairs("ExistentialProgram")[0]
    old.dists = Registry.standard()
    assert outcome(hash, old) is TypeError and outcome(hash, new) is TypeError
    with pytest.raises(AttributeError):
        new.dists = Registry.standard()


@pytest.mark.parametrize("name", sorted(NEW))
def test_pickle_and_copy_round_trips(name):
    for old, new in pairs(name):
        copies = [copy.copy(new), copy.deepcopy(new)]
        copies += [pickle.loads(pickle.dumps(new, p)) for p in range(6)]
        for c in copies:
            assert type(c) is type(new)
            assert c == new and repr(c) == repr(new)
            assert outcome(hash, c) == outcome(hash, new)
            with pytest.raises(AttributeError):
                setattr(c, new._fields[0], 1)
        old_copy = pickle.loads(pickle.dumps(old))
        assert old_copy == old and repr(old_copy) == repr(old)


@pytest.mark.parametrize("name", sorted(NEW))
def test_asdict_and_replace_match(name):
    for old, new in pairs(name):
        shallow = {f.name: getattr(old, f.name) for f in dataclasses.fields(old)}
        assert list(new._asdict()) == list(shallow)
        assert repr(new._asdict()) == repr(shallow)
        first = new._fields[0]
        changed = new._replace(**{first: getattr(new, first)})
        assert changed == new and changed is not new
        assert repr(new._replace()) == repr(dataclasses.replace(old))
        with pytest.raises(TypeError):
            new._replace(nope=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mass_epsilon": 1.0}, "mass_epsilon must be in"),
        ({"mass_epsilon": -0.1}, "mass_epsilon must be in"),
        ({"node_budget": 0}, "node_budget must be >= 1"),
        ({"support_mass_target": 0.0}, "support_mass_target must be in"),
        ({"support_mass_target": 1.5}, "support_mass_target must be in"),
    ],
)
def test_enumeration_policy_checks_match(kwargs, message):
    for cls in (OLD["EnumerationPolicy"], NEW["EnumerationPolicy"]):
        with pytest.raises(GdlogError, match=message):
            cls(**kwargs)
        with pytest.raises(GdlogError, match=message):
            cls(*{**NEW["EnumerationPolicy"]._defaults, **kwargs}.values())
    with pytest.raises(GdlogError, match=message):
        NEW["EnumerationPolicy"]()._replace(**kwargs)
    with pytest.raises(GdlogError, match=message):
        dataclasses.replace(OLD["EnumerationPolicy"](), **kwargs)


@pytest.mark.parametrize("name", ["Rejection", "WeakAcyclicityResult"])
def test_truth_values_match(name):
    for old, new in pairs(name):
        assert bool(new) is bool(old)
