"""The contract of the frozen value types: each is a tuple of its fields
made by ``combicore.value_type``, and keeps the value semantics of a
frozen dataclass."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from abpscalc import abps
from abpscalc.abps import build_inertial, inertial_triple, mu, packets
from abpscalc.combicore import (
    Bipartition,
    DLabel,
    Partition,
    SignedPermutation,
    value_type,
)
from abpscalc.extquot import (
    ONE,
    RecognizedSubgroup,
    SymbolicCoordinate,
    SymbolicTorusPoint,
    full_torus,
    geometric_eq,
    hyperoctahedral_action,
    point,
    spectral_eq,
    strata,
)
from abpscalc.langlands import (
    DEFAULT_CATALOGUE,
    PadicGroup,
    WFLine,
    centralizer_restriction,
    component_groups,
    cuspidal_support,
    enhancements,
    line,
    parameter,
)
from abpscalc.springer import (
    GroupFactor,
    Sp,
    component_group,
    cuspidal_triples,
    relative_weyl_group,
    unipotent_classes,
)


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in x._fields)


def _samples():
    """One value of each value type, and for the ordered ones a greater
    value of the same type."""
    B1 = hyperoctahedral_action(1)
    G = PadicGroup("Sp", 4)
    phi = parameter((line("zeta"), 3), line("zeta"), line("1"))
    data, chars = enhancements(G, phi)
    md = mu(G, inertial_triple(G, (line("zeta"),) * 2, parameter(line("1"))))
    u, u2 = sorted(unipotent_classes(Sp(4))[:2], key=fields)
    A = component_group(Sp(4), unipotent_classes(Sp(4))[-1])
    tri, tri2 = cuspidal_triples(Sp(4))[:2]
    z = SymbolicCoordinate(Fraction(1, 3), 1, (("z", 1),))
    return {
        "Partition": (Partition((2, 1)), Partition((3,))),
        "Bipartition": (Bipartition(Partition((1,)), Partition((1,))),
                        Bipartition(Partition((2,)), Partition())),
        "DLabel": (DLabel(Partition((1,)), Partition((1,)), True),
                   DLabel(Partition((1,)), Partition((2,)))),
        "SignedPermutation": (SignedPermutation((1, 2), (1, -1)),
                              SignedPermutation((2, 1), (1, 1))),
        "SymbolicCoordinate": (z, None),
        "SymbolicTorusPoint": (point(1, "z"), None),
        "TorusCoset": (full_torus(2), None),
        "RecognizedSubgroup": (RecognizedSubgroup(2, (("B", (0, 1)),)), None),
        "Stratum": (strata(B1)[-1], None),
        "EQPoint": (spectral_eq(B1)[-1], None),
        "GeoEQFamily": (geometric_eq(B1)[-1], None),
        "GroupFactor": (GroupFactor("GL", 2), GroupFactor("Sp", 2)),
        "ComplexGroup": (Sp(2), Sp(4)),
        "UnipotentClass": (u, u2),
        "ComponentGroup": (A, None),
        "SignCharacter": (A.characters()[-1], None),
        "CuspidalTriple": (tri, tri2),
        "RelativeWeylGroup": (relative_weyl_group(tri), None),
        "CharacterClass": (DEFAULT_CATALOGUE["zeta"], None),
        "WFLine": (line("zeta", z), None),
        "PadicGroup": (G, None),
        "FormalParameter": (phi, None),
        "EnhancedParameter": (md.entries[0].enhanced, None),
        "IsotypicFactor": (data.factors[0], None),
        "CentralizerData": (data, None),
        "ComponentGroups": (component_groups(G, phi), None),
        "CuspidalSupportResult": (cuspidal_support(G, phi, chars[-1]), None),
        "InertialTriple": (md.inertial.triple, None),
        "InertialData": (build_inertial(G, md.inertial.triple), None),
        "MuEntry": (md.entries[-1], None),
        "MuData": (md, None),
        "Packet": (packets(md)[0], None),
    }


SAMPLES = _samples()
# the types whose hash is their own, not that of the tuple of their fields
OWN_HASH = {"SymbolicCoordinate", "WFLine", "FormalParameter"}
# the fields that no argument sets and that ``repr`` leaves out
HIDDEN = {"WFLine": ("name",)}
# the types whose repr is their own: a stabilizer lists its elements
OWN_REPR = {"RecognizedSubgroup": "RecognizedSubgroup(elements={0.elements!r}, pieces={0.pieces!r})"}
# the types that multiply with ``*``
MULTIPLYING = {"SignedPermutation", "SymbolicCoordinate"}
NAMES = sorted(SAMPLES)


def test_every_value_type_has_a_case():
    # 4 in combicore, 7 in extquot, 7 in springer, 9 in langlands, 5 in abps
    assert len(SAMPLES) == 32
    assert all(type(x).__name__ == name for name, (x, _) in SAMPLES.items())


@pytest.mark.parametrize("name", NAMES)
class TestContract:
    def test_equal_to_its_copies(self, name):
        x = SAMPLES[name][0]
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and not y != x and hash(y) == hash(x)
            assert fields(y) == fields(x)

    def test_unequal_to_its_fields_and_to_a_twin_class(self, name):
        x = SAMPLES[name][0]
        plain = fields(x)
        # another class of the same name and fields
        twin = tuple.__new__(value_type(name, " ".join(x._fields)), plain)
        for other in (plain, twin):
            assert x != other and other != x
            assert not x == other and not other == x

    def test_hash(self, name):
        x = SAMPLES[name][0]
        if name not in OWN_HASH:
            assert hash(x) == hash(fields(x))

    def test_frozen(self, name):
        x = SAMPLES[name][0]
        for attr in x._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, attr, None)
            with pytest.raises(AttributeError):
                delattr(x, attr)

    def test_repr(self, name):
        x = SAMPLES[name][0]
        if name in OWN_REPR:
            assert repr(x) == OWN_REPR[name].format(x)
            return
        shown = [f for f in x._fields if f not in HIDDEN.get(name, ())]
        assert repr(x) == f"{name}(" + ", ".join(f"{f}={getattr(x, f)!r}" for f in shown) + ")"

    def test_order(self, name):
        x, greater = SAMPLES[name]
        if greater is None:
            if name != "WFLine":  # the one unordered type with its own order
                with pytest.raises(TypeError):
                    x < copy.copy(x)
            return
        assert fields(x) < fields(greater)
        assert x < greater and x <= greater and greater > x and greater >= x
        assert not greater < x and x <= copy.copy(x) and not x < copy.copy(x)

    def test_tuple_operators_refused(self, name):
        x = SAMPLES[name][0]
        for op in (lambda: x + x, lambda: 2 * x, lambda: x < fields(x), lambda: fields(x) < x):
            with pytest.raises(TypeError):
                op()
        if name not in MULTIPLYING:
            with pytest.raises(TypeError):
                x * 2

    def test_no_namedtuple_helper_bypasses_the_class(self, name):
        # _make skips __new__, _asdict iterates the class
        # (Partition((2, 1))._asdict() gave {'parts': 2})
        x = SAMPLES[name][0]
        for helper in ("_make", "_asdict"):
            assert not hasattr(x, helper)


def test_unit_coordinate_refuses_tuple_arithmetic():
    with pytest.raises(TypeError):
        ONE + ONE
    with pytest.raises(TypeError):
        2 * ONE


def test_replace_normalises_again():
    assert Partition((2, 1))._replace(parts=(1, 3)) == Partition((3, 1))
    d = DLabel(Partition((1,)), Partition((1,)))
    assert d._replace(alpha=Partition((2,))) == DLabel(Partition((1,)), Partition((2,)))
    with pytest.raises(ValueError):
        d._replace(alpha=Partition((2,)), primed=True)
    zeta = line("zeta")
    twisted = zeta._replace(twist=SymbolicCoordinate(Fraction(1, 2)))
    assert twisted == zeta.twisted(SymbolicCoordinate(Fraction(1, 2))) and twisted.name == "zeta*xi"
    with pytest.raises(TypeError):
        zeta._replace(name="eta")


def test_partition_is_a_sequence_of_its_parts():
    p = Partition((1, 2, 1))
    assert len(p) == 3 and list(p) == [2, 1, 1] and p[0] == 2 and p[-1] == 1
    assert 2 in p and 3 not in p and (2, 1, 1) not in p
    assert Partition() == Partition(()) and not Partition()


def test_torus_point_keeps_no_instance_dict():
    assert not hasattr(SymbolicTorusPoint((ONE,)), "__dict__")
    assert not hasattr(Partition((1,)), "__dict__")


def test_importing_the_cli_generates_no_dataclass():
    # the value types are made without dataclasses or inspect, whose
    # import and method generation once dominated a fresh process
    src = os.path.dirname(os.path.dirname(abps.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, abpscalc.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
