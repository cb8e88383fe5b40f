import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from fpc.construct import ConstructionConfig, ConstructionReport
from fpc.core import AuditRow, Code, OwnCounts, Verdict, Witness, own_subsequence_audit
from fpc.extremal import PositionFamily, bounds_report, emc_value
from fpc.packing import (
    Candidate,
    DegreeDiagnostics,
    SparsifierConfig,
    TransversalPacking,
    pattern_images,
    rs_packing,
)

SMALL = ((1, 2), (2, 1), (3, 3))


def _report(code_size):
    return ConstructionReport(
        ConstructionConfig(2, 4, 13, seed=7),
        bounds_report(2, 4, 13),
        2197,
        2000,
        code_size,
        Fraction(code_size, 169),
        Verdict(True),
        "",
        {"families": 0.5},
    )


# name: (field, make, other, bads). `field` is one of the record's fields;
# make() builds a fresh record equal to every other one it builds; other()
# builds an unequal one of the same class; each of bads must raise
# ValueError.
RECORDS = {
    "Code": (
        "q",
        lambda: Code(3, 2, SMALL),
        lambda: Code(3, 2, SMALL[:2]),
        (lambda: Code(3, 2, SMALL * 2),),
    ),
    "Witness": ("word", lambda: Witness((1, 2), SMALL[1:]), lambda: Witness((1, 2), SMALL), ()),
    "Verdict": (
        "ok",
        lambda: Verdict(False, Witness((1, 2), SMALL[1:])),
        lambda: Verdict(True),
        (),
    ),
    "OwnCounts": ("own_t_count", lambda: OwnCounts(3, 1), lambda: OwnCounts(3, 0), ()),
    "AuditRow": (
        "word",
        lambda: AuditRow((1, 2), 3, 0, True, True),
        lambda: AuditRow((1, 2), 2, 0, True, False),
        (),
    ),
    "AuditResult": (
        "t",
        lambda: own_subsequence_audit(Code(3, 2, SMALL), 2),
        lambda: own_subsequence_audit(Code(3, 2, SMALL[:2]), 2),
        (),
    ),
    "PositionFamily": (
        "l",
        lambda: PositionFamily(4, 2, frozenset({0b0011, 0b1100})),
        lambda: PositionFamily(4, 2, frozenset({0b0011})),
        (lambda: PositionFamily(4, 2, frozenset({0b0111})),),
    ),
    "EmcValue": ("value", lambda: emc_value(6, 2, 2), lambda: emc_value(6, 2, 1), ()),
    "BoundsReport": ("c", lambda: bounds_report(2, 4, 13), lambda: bounds_report(2, 4, 17), ()),
    "ConstructionConfig": (
        "c",
        lambda: ConstructionConfig(2, 4, 13, seed=7),
        lambda: ConstructionConfig(2, 4, 13, seed=8),
        (lambda: ConstructionConfig(2, 4, 13, eta=2.0),),
    ),
    "ConstructionReport": ("config", lambda: _report(40), lambda: _report(41), ()),
    "TransversalPacking": ("words", lambda: rs_packing(4, 1, 5), None, ()),
    "SparsifierConfig": (
        "eta",
        lambda: SparsifierConfig(0.05, 7),
        lambda: SparsifierConfig(0.05, 8),
        (lambda: SparsifierConfig(1.5, 7),),
    ),
    "Candidate": (
        "transversal",
        lambda: Candidate((1, 2, 3, 4), frozenset({0b0011})),
        lambda: Candidate((1, 2, 3, 4), frozenset({0b0101})),
        (),
    ),
    "DegreeDiagnostics": (
        "dP_max",
        lambda: DegreeDiagnostics(2, 1, 0.5, 1.0, 1.25, 3, 1),
        lambda: DegreeDiagnostics(2, 1, 0.5, 1.0, 1.25, 3, 0),
        (),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    field, make, other, bads = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    if isinstance(a, TransversalPacking):
        # Packings compare by identity, and still cache their tuples.
        assert a == a and a != b and len({a, b}) == 2
        assert a.transversals is a.transversals
    else:
        assert a == b and not a != b and a != other()
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
        if isinstance(a, ConstructionReport):
            with pytest.raises(TypeError):
                hash(a)  # its timings dict is unhashable
        else:
            assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    if isinstance(a, (Code, PositionFamily)):
        # len() is their size, so they must not iterate over their fields.
        assert len(a) == len(b) > 0
        with pytest.raises(TypeError):
            iter(a)
    if isinstance(a, PositionFamily):
        # An equal family is a cache hit, not a second enumeration.
        pattern_images(a)
        before = pattern_images.cache_info()
        assert pattern_images(b) is pattern_images(a)
        after = pattern_images.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    for bad in bads:
        with pytest.raises(ValueError):
            bad()


REQUIRED = inspect.Parameter.empty


@pytest.mark.parametrize(
    "cls,defaults",
    [
        (
            ConstructionConfig,
            dict(c=REQUIRED, l=REQUIRED, q=REQUIRED, eta=0.05, seed=0, verify=True),
        ),
        (SparsifierConfig, dict(eta=REQUIRED, seed=REQUIRED)),
    ],
)
def test_config_signature_lists_fields(cls, defaults):
    # help() and editors show a config's parameters, in field order.
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls.__slots__ == tuple(defaults)
    assert {name: p.default for name, p in params.items()} == defaults
    assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_record_repr_lists_fields_in_order():
    # A derived value such as ConstructionConfig.packing is not a field.
    assert repr(ConstructionConfig(2, 4, 13, seed=7)) == (
        "ConstructionConfig(c=2, l=4, q=13, eta=0.05, seed=7, verify=True)"
    )
    assert repr(SparsifierConfig(0.05, 7)) == "SparsifierConfig(eta=0.05, seed=7)"
    assert repr(Code(3, 2, SMALL[:1])) == "Code(q=3, l=2, words=((1, 2),))"
