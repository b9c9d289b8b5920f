"""Value semantics of the library's records, on instances of every record
class taken from Y(8,3) and Y(19,7)."""

import pickle
from itertools import combinations

import pytest

from cqsdef.chains import ZeroChain, enumerate_K
from cqsdef.cqs import CqsModel, cqs_new
from cqsdef.fibers import SingularityList, general_fiber
from cqsdef.geometry3 import Cone3
from cqsdef.lattice import Cone2
from cqsdef.minkowski import Decomposition, Segment, enum_decompositions, segment
from cqsdef.resolutions import (
    Fan3,
    FanDecomposition,
    MaxCone3,
    PieceDecomposition,
    PResolutionFan,
    TauCone,
    canonical_model,
    fan_decomposition,
    p_resolution_fan,
)
from cqsdef.totalspace import (
    Deformation,
    Equation,
    GeneratorRelations,
    Poly,
    VersalMap,
    all_deformations,
    components_of,
    deformation_equations,
    generator_relations,
    versal_map,
)

# Each record class with its fields, in order.
FIELDS = {
    CqsModel: ("n", "q", "e", "a_chain", "w", "sigma"),
    Cone2: ("ray1", "ray2"),
    ZeroChain: ("k", "alpha"),
    Segment: ("h", "ends", "m0", "w", "w_next"),
    Decomposition: ("kind", "h", "p", "d", "ends0", "ends1"),
    Cone3: ("generators", "dual_rays", "spans"),
    Deformation: ("model", "decomp"),
    GeneratorRelations: ("v", "v_tilde", "relations"),
    Equation: ("form", "i", "a", "m", "p", "d"),
    VersalMap: ("s", "t"),
    Poly: ("coeffs",),
    SingularityList: ("origin", "off_origin", "raw"),
    TauCone: ("i", "ray_right", "ray_left", "alpha", "roof_len"),
    PResolutionFan: ("k", "rays", "cones"),
    PieceDecomposition: ("i", "ends0", "ends1", "degenerate"),
    FanDecomposition: ("k", "decomp", "pieces"),
    MaxCone3: ("tau_index", "cone", "canonical", "rdp_or_smooth"),
    Fan3: ("support", "cones"),
}

# At most this many instances of a class are compared pairwise.
PAIRWISE = 25


def _instances(n, q):
    """Instances of every record class from Y(n,q), read off one model."""
    m = cqs_new(n, q)
    found = [m, m.sigma, *enumerate_K(m), *enum_decompositions(m)]
    found += [segment(m, h) for h in m.interior_indices()]
    for k in enumerate_K(m):
        fan = p_resolution_fan(m, k)
        found += [fan, *fan.cones]
    for defo in all_deformations(m):
        vm = versal_map(defo)
        found += [defo, defo.sigma_prime, generator_relations(defo), vm]
        found += [*vm.s.values(), *vm.t.values()]
        found += [general_fiber(defo), *deformation_equations(defo)]
        fd = fan_decomposition(m, components_of(defo.model, defo.decomp)[0], defo.decomp)
        fan3 = canonical_model(defo)[1]
        found += [fd, *fd.pieces, fan3, *fan3.cones]
    return found


@pytest.fixture(scope="module")
def samples():
    by_class = {}
    for obj in _instances(8, 3) + _instances(19, 7):
        by_class.setdefault(type(obj), []).append(obj)
    assert set(by_class) == set(FIELDS)
    return by_class


def test_equality_holds_exactly_for_equal_fields(samples):
    for cls, objs in samples.items():
        for obj in objs:
            assert cls(*obj) == obj and cls(**dict(zip(FIELDS[cls], obj))) == obj
        for a, b in combinations(objs[:PAIRWISE], 2):
            assert (a == b) is (tuple(a) == tuple(b)) and (a != b) is not (a == b), cls
        obj = objs[0]
        for i in range(len(FIELDS[cls])):
            changed = tuple(obj[:i]) + (object(),) + tuple(obj[i + 1 :])
            assert tuple.__new__(cls, changed) != obj


def test_a_record_equals_no_tuple_and_no_other_class(samples):
    for cls, objs in samples.items():
        obj = objs[0]
        assert obj != tuple(obj) and tuple(obj) != obj
        assert not obj == tuple(obj) and not tuple(obj) == obj
        for other in FIELDS:
            if other is not cls:
                twin = tuple.__new__(other, tuple(obj))
                assert obj != twin and twin != obj and not obj == twin


def test_hash_agrees_with_equality(samples):
    for cls, objs in samples.items():
        if cls is VersalMap:
            # its fields are dicts, so it has no hash
            with pytest.raises(TypeError):
                hash(objs[0])
            continue
        for obj in objs:
            assert hash(cls(*obj)) == hash(obj)
        for a, b in combinations(objs[:PAIRWISE], 2):
            if a == b:
                assert hash(a) == hash(b)


def test_index_and_count_are_the_tuple_methods(samples):
    for objs in samples.values():
        for obj in objs:
            assert obj.index(obj[0]) == 0 and obj.count(obj[0]) >= 1


def test_fields_cannot_be_assigned(samples):
    for cls, objs in samples.items():
        obj = objs[0]
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.unknown = 1


def test_repr_names_the_fields(samples):
    for cls, objs in samples.items():
        for obj in objs[:PAIRWISE]:
            shown = ", ".join(f"{name}={getattr(obj, name)!r}" for name in FIELDS[cls])
            assert repr(obj) == f"{cls.__name__}({shown})"
    m = cqs_new(8, 3)
    assert repr(m.sigma) == "Cone2(ray1=(1, 0), ray2=(-3, 8))"
    assert repr(enumerate_K(m)[0]) == "ZeroChain(k=(1, 2, 1), alpha=(0, 1, 1, 1, 0))"
    assert repr(Equation(form="binomial", i=2, a=3)) == (
        "Equation(form='binomial', i=2, a=3, m=0, p=1, d=0)"
    )


def test_records_survive_pickling(samples):
    for objs in samples.values():
        for obj in objs[:PAIRWISE]:
            assert pickle.loads(pickle.dumps(obj)) == obj


def test_cqs_model_equality_ignores_its_memo():
    used, fresh = cqs_new(19, 7), cqs_new(19, 7)
    all_deformations(used)
    assert used._memo and not fresh._memo
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    rebuilt = CqsModel(*used)
    assert rebuilt == used and rebuilt._memo == {}
