import pytest

from cqsdef import fibers
from cqsdef.cqs import cqs_new
from cqsdef.fibers import general_fiber, is_smoothing
from cqsdef.report import scan_row
from cqsdef.totalspace import all_deformations
from conftest import iter_models, run_optimized


def fiber_table(model):
    out = {}
    for df in all_deformations(model):
        fib = general_fiber(df)
        out[df.label] = (fib.origin, sorted(fib.off_origin))
    return out


def test_golden_fibers(y83):
    table = fiber_table(y83)
    assert table["pi_{3,2}^1"] == ((), [])  # smooth fiber
    assert table["pi_{3,1}^2"] == ((), [((2,), 1)])  # one A_1 off the origin
    assert table["pibar_{3}^1"] == ((2, 2), [])  # (2,1) off-origin blows down
    assert table["pibar_{3}^2"] == ((), [((2, 2), 1)])
    assert table["pi_{2,1}^1"] == ((2, 2), [])  # (1,3,2) blown down
    assert table["pi_{4,1}^1"] == ((2, 2), [])  # (2,3,1) blown down
    assert table["pi_{3,1}^1"] == ((2, 2, 2), [])


def test_golden_raw_chains(y83):
    for df in all_deformations(y83):
        if df.label == "pi_{2,1}^1":
            raw = general_fiber(df).raw
            assert ((1, 3, 2), 1, "origin") in raw
        if df.label == "pibar_{3}^1":
            raw = general_fiber(df).raw
            assert ((2, 2), 1, "origin") in raw and ((2, 1), 1, "off-origin") in raw


def test_smoothing_golden(y83):
    flags = {df.label: is_smoothing(df) for df in all_deformations(y83)}
    assert flags == {
        "pi_{2,1}^1": False,
        "pi_{3,1}^1": False,
        "pi_{3,1}^2": False,
        "pi_{3,2}^1": True,
        "pibar_{3}^1": False,
        "pibar_{3}^2": False,
        "pi_{4,1}^1": False,
    }


def test_smoothing_necessary_conditions():
    """A smooth general fiber forces the expected parameters (checked
    inside is_smoothing, which raises otherwise)."""
    for m in iter_models(35):
        for df in all_deformations(m):
            if is_smoothing(df):
                if df.kind == "D":
                    assert df.d == 1 and df.p == m.a(df.h) - 1
                else:
                    assert m.a(df.h) == 2 and df.d == 1


def test_a0_dropped():
    for m in iter_models(15):
        for df in all_deformations(m):
            if df.kind == "D" and df.d == 1:
                fib = general_fiber(df)
                assert all(ch != (1,) for ch, _ in fib.off_origin)
                assert ((1,), df.p, "off-origin") in fib.raw


def test_fiber_json(y83):
    for df in all_deformations(y83):
        js = general_fiber(df).to_json()
        assert set(js) == {"origin", "off_origin"}
        js_verbose = general_fiber(df).to_json(verbose=True)
        assert "raw_chains" in js_verbose


def _count_blow_downs(monkeypatch) -> list:
    """Wrap fibers.blow_down; the returned list collects its arguments."""
    calls = []
    blow_down = fibers.blow_down

    def counted(chain):
        calls.append(chain)
        return blow_down(chain)

    monkeypatch.setattr(fibers, "blow_down", counted)
    return calls


def _raw_chains(model) -> set:
    return {ch for df in all_deformations(model) for ch, _, _ in general_fiber(df).raw}


def test_scan_row_blows_each_chain_of_a_model_down_once(monkeypatch):
    calls = _count_blow_downs(monkeypatch)
    rows = 0
    for model in iter_models(31, 28):
        del calls[:]
        assert "error" not in scan_row(model.n, model.q)
        made = list(calls)
        assert len(made) == len(set(made)), (model.n, model.q)
        assert set(made) == _raw_chains(model), (model.n, model.q)
        rows += 1
    assert rows == 74


def test_a_new_model_starts_with_an_empty_memo(monkeypatch):
    calls = _count_blow_downs(monkeypatch)
    first = cqs_new(29, 8)
    chains = _raw_chains(first)
    assert len(calls) == len(chains)
    second = cqs_new(29, 8)
    assert not [key for key in second._memo if key[0] == "blow_down"]
    del calls[:]
    assert _raw_chains(second) == chains
    assert len(calls) == len(chains)


def test_invalid_chain_raises_on_every_call(monkeypatch):
    """The chain (1,) is shared by the D deformations with d = 1 of Y(8,3).
    After the first of them keeps its normal form on the model, the
    others read it from there and must fail the check all the same."""
    sharing = [
        df.label
        for df in all_deformations(cqs_new(8, 3))
        if (1,) in {ch for ch, _, _ in general_fiber(df).raw}
    ]
    assert len(sharing) == 4
    blow_down = fibers.blow_down
    monkeypatch.setattr(
        fibers, "blow_down", lambda chain: None if chain == (1,) else blow_down(chain)
    )
    model = cqs_new(8, 3)
    failed = []
    for df in all_deformations(model):
        if df.label in sharing:
            with pytest.raises(RuntimeError, match=r"fiber chain \(1,\) .* blew down below 1"):
                general_fiber(df)
            assert model._memo[("blow_down", (1,))] is None
            failed.append(df.label)
    assert failed == sharing


def test_smoothing_pattern_check_survives_optimize():
    """With every chain blowing down to a smooth point, the four deformations of
    Y(8,3) at h = 3 other than pi_{3,2}^1 break the smoothing pattern, on
    their first call and again on a second call that reads every chain
    from the memo."""
    code = (
        "import sys\n"
        "from cqsdef import fibers\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.totalspace import all_deformations\n"
        "fibers.blow_down = lambda chain: ()\n"
        "for df in all_deformations(cqs_new(8, 3)):\n"
        "    for _ in range(2):\n"
        "        try:\n"
        "            fibers.general_fiber(df)\n"
        "        except RuntimeError as exc:\n"
        "            print(sys.flags.optimize, exc)\n"
    )
    lines = run_optimized("-c", code).stdout.decode().splitlines()
    assert lines == [
        f"1 {label} is a smoothing outside the expected pattern"
        for label in ("pi_{3,1}^1", "pi_{3,1}^2", "pibar_{3}^1", "pibar_{3}^2")
        for _ in range(2)
    ]
