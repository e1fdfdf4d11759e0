"""The report's one-line JSON, held to the indented form of the same report,
and the entries of a serialized morphism.

``VerificationReport.to_json`` is ``json.dumps(sort_keys=True,
default=_plain)``: json's C encoder on one line.  These tests hold it to
``json.dumps(indent=2, sort_keys=True, default=_plain)``, which json writes
with its pure-Python encoder, on every pinned command line and on witnesses
built to reach each branch of json's type dispatch: the two must carry the
same keys, key order and values, and refuse the same inputs.
"""
import enum
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from sccckit import BOOLEAN, COMPLEX, NONNEG, UNIT, ZERO, Gen, Morphism, Oplus, cli
from sccckit.morphisms import dagger
from sccckit.objects import format_object
from sccckit.models import ModelHandle
from sccckit.report import CheckResult, VerificationReport, _plain, serialize_morphism
from sccckit.semirings import corrupted_complex
from sccckit.suites import run_suite
from test_report_digests import ARGVS


def _indented(r: VerificationReport) -> str:
    return json.dumps(r.to_dict(), indent=2, sort_keys=True, default=_plain) + "\n"


def _same_content(out: str, r: VerificationReport) -> None:
    """``out`` is one line holding the keys, key order and values of ``r``'s
    indented form; only whitespace differs."""
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.dumps(json.loads(out)) == json.dumps(json.loads(_indented(r)))


def _report(*witnesses) -> VerificationReport:
    results = [CheckResult(f"check-{i}", "a law", "pass", w)
               for i, w in enumerate(witnesses)]
    return VerificationReport(suite="s", model="m", seed=3, tolerance=1e-9,
                              trials=2, results=results)


@pytest.mark.parametrize("argv", ARGVS)
def test_to_json_is_json_dumps_on_every_pinned_command_line(monkeypatch, capsys, argv):
    reports = []
    emit = cli._emit

    def capture(report, path):
        reports.append(report)
        return emit(report, path)

    monkeypatch.setattr(cli, "_emit", capture)
    assert cli.main(argv.split()) == 0
    (r,) = reports
    out = capsys.readouterr().out
    assert out == r.to_json()
    _same_content(out, r)
    # no report holds a non-string key, so json.tool's re-indent is the old bytes
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == _indented(r)


class Level(enum.IntEnum):
    LOW = 1


class Shouting(str):
    def __str__(self):
        return self.upper()


class Rounded(float):
    def __repr__(self):
        return "rounded"


WITNESSES = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
               2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 0.1,
               1e16, 1e-7, 123456789012345680.0, -2.5],
    "ints": [0, -1, 2 ** 64 + 1, -(2 ** 100), 10 ** 40],
    "bools-next-to-ints": [True, 1, False, 0, 1.0, 0.0, None],
    "strings": ["", "plain", "naïve ☃ \U0001d11e", 'say "hi"',
                "back\\slash", "\x00\x01\n\r\t\x1f\x7f", "\ud800", "/<>&'"],
    "empties": {"list": [], "dict": {}, "tuple": (), "nested": [[], {}, [()]]},
    "tuples": ((1, (2.5, ())), [(), ("a", None)]),
    "deep": {"a": {"b": {"c": [[{"d": [1, [2, [3]]]}]]}}},
    "int-keys": {10: "ten", 2: "two", -3: "minus three", 2 ** 70: "big"},
    "number-keys": {0.5: "half", 2: "two", True: "one", -1.5: "neg",
                    float("inf"): "inf", False: "zero"},
    "none-key": {None: 1},
    "nan-key": {float("nan"): [1]},
    "subclasses": {"enum": Level.LOW, "str": Shouting("quiet"),
                   "float": Rounded(0.25), Shouting("key"): Level.LOW,
                   "enum-list": [Level.LOW, Rounded(-0.0)]},
    "numpy": {"bool": np.bool_(True), "false": np.bool_(False),
              "int": np.int64(-5), "uint": np.uint64(2 ** 64 - 1),
              "float": np.float64("nan"), "float32": np.float32(1.1),
              "half": np.float16(-0.0),
              "complex": np.complex128(1 - 2j), "complex64": np.complex64(-0.0 + 3j),
              "array": np.array([[1.5, -0.0], [np.inf, np.nan]]),
              "ints": np.arange(3), "bools": np.array([True, False]),
              "empty": np.zeros((0, 2)), "zero-d": np.array(7.5),
              "list-of-numpy": [np.float64(2.0), np.int8(3), np.bool_(False)],
              "complex-array": np.array([1j, -0.0 + np.nan * 1j])},
    "complex": {"python": 1j, "negative": complex(-2.5, -0.0),
                "non-finite": complex(np.inf, np.nan), "list": [1 + 2j, 3.0]},
    "numpy-keys": {np.float64(1.5): "a", 2.5: "b", np.float64("nan"): "c"},
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_to_json_is_json_dumps_on_hand_built_witnesses(name):
    r = _report(WITNESSES[name], None, {"kept": WITNESSES[name]})
    _same_content(r.to_json(), r)


def test_to_json_is_json_dumps_on_every_hand_built_witness_at_once():
    r = _report(WITNESSES, *WITNESSES.values())
    _same_content(r.to_json(), r)


@pytest.mark.parametrize("witness", [
    {(1, 2): "tuple key"},                     # a key json cannot convert
    {1: "a", "b": 2},                          # keys sorted cannot compare
    {"set": {1, 2}},                           # a value neither json nor _plain takes
    {"array": np.array([b"x"])},               # _plain's list still holds bytes
    {"object": object()},
])
def test_to_json_refuses_what_json_dumps_refuses(witness):
    r = _report(witness)
    with pytest.raises(TypeError) as want:
        _indented(r)
    with pytest.raises(TypeError) as got:
        r.to_json()
    assert str(got.value) == str(want.value)


# -- serialize_morphism -------------------------------------------------------

def _per_entry(f) -> dict:
    """serialize_morphism as one float() per numpy scalar entry."""
    flat = np.asarray(f.array, dtype=np.complex128).ravel(order="C")
    return {"dom": format_object(f.dom), "cod": format_object(f.cod),
            "entries": [[float(z.real), float(z.imag)] for z in flat]}


def _bits(d: dict) -> tuple:
    return (d["dom"], d["cod"],
            [[(type(x), struct.pack("<d", x)) for x in pair] for pair in d["entries"]])


_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-308,
            1e308, 0.1, -3.5]


def _morphisms():
    a, b = Gen("A", 2), Gen("B", 3)
    z = np.empty(6, dtype=np.complex128)
    z.real, z.imag = _SPECIAL[:6], _SPECIAL[4:]
    yield "complex", Morphism(a, b, z.reshape(3, 2), COMPLEX)
    yield "complex-signed-nan", Morphism(UNIT, Oplus(UNIT, UNIT),
                                         np.array([[complex(-np.nan, -0.0)],
                                                   [complex(0.0, -np.nan)]]), COMPLEX)
    yield "float64", Morphism(a, b, np.array(_SPECIAL[:6]).reshape(3, 2), NONNEG)
    yield "bool", Morphism(a, b, np.array([[1, 0], [0, 1], [1, 1]], bool), BOOLEAN)
    yield "f-ordered", dagger(Morphism(a, b, z.reshape(3, 2), COMPLEX))
    yield "empty", Morphism(ZERO, b, np.zeros((3, 0)), COMPLEX)
    grid = (np.arange(24) - 11.5).reshape(4, 6) * (1 + 0.25j)
    for name, arr in (("strided", grid[::2, ::3]), ("fortran", np.asfortranarray(grid)),
                      ("reversed", grid[::-1, ::-1]), ("float-view", grid.real[1:, ::2]),
                      ("bool-view", (grid.real > 0)[::3, 1::2])):
        yield name, SimpleNamespace(dom=Gen("D", arr.shape[1]),
                                    cod=Gen("C", arr.shape[0]), array=arr)


@pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in _morphisms()])
def test_serialize_morphism_matches_the_per_entry_form_bit_for_bit(f):
    assert _bits(serialize_morphism(f)) == _bits(_per_entry(f))


def test_a_failing_report_with_a_complex_witness_prints_its_json(capsys):
    r = run_suite("sccc", ModelHandle("broken", corrupted_complex()), trials=10,
                  seed=9, max_dim=2)
    assert cli._emit(r, "-") == 1
    out = capsys.readouterr().out
    assert out == r.to_json()
    _same_content(out, r)
    failed = {row["check_name"]: row["witness"] for row in json.loads(out)["results"]
              if row["status"] == "fail"}
    for name, key in (("norm-scalar-positive", "value"),
                      ("born-probability-loop", "probability")):
        want = next(x.witness[key] for x in r.results if x.check_name == name)
        assert isinstance(want, complex)
        assert failed[name][key] == [want.real, want.imag]
