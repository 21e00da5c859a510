"""Value semantics of pdneg's immutable classes: repr, equality, hashing and
refused assignment, as a frozen dataclass would give them."""

from __future__ import annotations

import copy
import pickle
from types import MappingProxyType

import pytest

from pdneg import (
    IDENTITY,
    ROOT_SUM,
    UNIFORM,
    YAGER,
    CheckReport,
    Distribution,
    EntropyReport,
    Generator,
    IterationTrace,
    Linear,
    LinearityVerdict,
    Mixture,
    NegatorDescriptor,
    Tsallis,
    Violation,
)
from pdneg.analysis import Audit

MIX = Mixture(((0.3, Linear(0.2)), (0.7, YAGER)))


@pytest.mark.parametrize("value,text", [
    (Distribution((0.5, 0.5)), "Distribution(values=(0.5, 0.5))"),
    (Distribution([1, 0]), "Distribution(values=(1.0, 0.0))"),
    (EntropyReport(0.5, 0.75), "EntropyReport(input_entropy=0.5, output_entropy=0.75, delta=0.25)"),
    (IDENTITY, "Identity()"),
    (ROOT_SUM, "RootSum()"),
    (UNIFORM, "Uniform()"),
    (YAGER, "Yager()"),
    (Tsallis(2), "Tsallis(k=2.0)"),
    (Linear(0.3), "Linear(alpha=0.3)"),
    (Generator(abs, "abs"), "Generator(fn=<built-in function abs>, label='abs', claims_pd_independent=False)"),
    (MIX, "Mixture(components=((0.3, Linear(alpha=0.2)), (0.7, Yager())))"),
    (Violation((1, 2), expected=0.25, actual=0.5),
     "Violation(location=(1, 2), expected=0.25, actual=0.5, magnitude=0.25)"),
    (CheckReport("fixed-point", [Violation(1, 0.5, 0.0)], 11, 0.0, notes=["a note"]),
     "CheckReport(check_name='fixed-point', violations=(Violation(location=1, expected=0.5, actual=0.0, "
     "magnitude=0.5),), grid_size=11, tolerance=0.0, seed=None, notes=('a note',))"),
    (LinearityVerdict(True, 0.0, 0.0), "LinearityVerdict(is_linear=True, alpha_estimate=0.0, max_residual=0.0)"),
    (IterationTrace((Distribution((1, 0)),)),
     "IterationTrace(steps=(Distribution(values=(1.0, 0.0)),), distances_to_uniform=(0.5,), entropies=(0.0,))"),
    (Audit(MappingProxyType({"linearity": LinearityVerdict(False, None, 1.0)})),
     "Audit(results=mappingproxy({'linearity': LinearityVerdict(is_linear=False, alpha_estimate=None, "
     "max_residual=1.0)}))"),
])
def test_repr_names_the_class_and_its_fields(value, text):
    assert repr(value) == text


def test_equal_fields_make_equal_values_with_equal_hashes():
    assert Tsallis(2) == Tsallis(2.0)
    assert hash(Tsallis(2)) == hash(Tsallis(2.0))
    assert Mixture([(0.3, Linear(0.2)), (0.7, YAGER)]) == MIX
    assert hash(Mixture([(0.3, Linear(0.2)), (0.7, YAGER)])) == hash(MIX)
    assert Violation((1, 2), 0.5, 0.25) == Violation((1, 2), expected=0.5, actual=0.25)


def test_only_values_of_the_same_class_compare_equal():
    assert YAGER != UNIFORM
    assert Linear(0.0) != YAGER
    assert Distribution((0.5, 0.5)) != (0.5, 0.5)
    assert Tsallis(2) != Tsallis(3)


@pytest.mark.parametrize("value,field", [
    (Distribution((0.5, 0.5)), "values"), (Tsallis(2), "k"), (YAGER, "claims_negator"),
    (MIX, "components"), (Violation(0.5, 0.5, 0.5), "magnitude"),
])
def test_assignment_and_deletion_are_refused(value, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 1)
    with pytest.raises(AttributeError, match=f"field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1


@pytest.mark.parametrize("value", [Distribution((0.5, 0.5)), Tsallis(2), YAGER, MIX, Violation((1, 2), 0.5, 0.25)])
def test_copies_and_pickles_are_equal_values(value):
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value
        assert repr(copied) == repr(value)
        assert vars(copied) == vars(value)


def test_a_mixtures_depth_is_not_shown_or_compared():
    nested = Mixture(((1.0, Mixture(((1.0, YAGER),))),))
    flat = Mixture(((1.0, YAGER),))
    assert (nested.depth, flat.depth) == (2, 1)
    assert "depth" not in repr(nested)
    assert hash(nested) == hash((nested.components,))


def test_a_descriptor_subclass_may_set_attributes():
    class Counting(NegatorDescriptor):
        def __init__(self):
            self.calls = 0

    counting = Counting()
    counting.calls += 1
    assert counting.calls == 1
