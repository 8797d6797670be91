"""Bounded fuzz of every input boundary. The CLI runs in process on
malformed flag values, library JSON and stimulus JSON: it exits 0, 1, 2 or
3, no exception leaves it, and an exit-2 message names the field at fault.
No CLI command reads netlist JSON, so ``from_json`` is fuzzed through the
Python API: it raises NetlistError or loads. Every special value meets
every number field once; Hypothesis draws the rest. The numeric parameters
of the Python API meet the special values once each, and name themselves
when they refuse one."""

import contextlib
import copy
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvadder.cli import main
from mvadder.engine import (Stimulus, StimulusError, measure_delay, settle_matrix, simulate,
                            worst_case_stimulus)
from mvadder.gates import (CellLibrary, LibraryError, TransistorInventory, eval_primitive,
                           load_library, propagation_delay, switching_energy)
from mvadder.levels import (MAX_DIGITS, DigitVector, DomainError, bfa_oracle, binary_full,
                            cpa_oracle, qfa_oracle)
from mvadder.netlist import (Circuit, NetlistError, build_cpa, build_qfa, from_json, to_json,
                             validate)
from mvadder.report import AdderConfig, compare, cpa_scaling
from mvadder.timing import sta
from mvadder.verify import adder_mismatches, cpa_is_exhaustive, verify_cpa
from circuit_edits import edited

# flag values: non-finite, huge, tiny, negative, zero, fractional, wrongly typed, empty
BAD_TEXT = ["nan", "inf", "-inf", "1e400", "1e300", "1e-300", "-1", "0", "-0.5", "0.5", "2.5",
            "abc", "", " ", "0x10", "[]", "None", "1,5"]

# (argv, the names an exit-2 message may give, whether any text is cheap to run): the
# value is appended or fills "{}". An integer flag is never given a huge valid integer.
FLAG_RUNS = [
    (["sta", "--cell", "qfa2", "--from", "A", "--to", "Sum", "--vdd"], ("--vdd",), True),
    (["sta", "--cell", "qfa2", "--from", "A", "--to", "Sum", "--cl"], ("--cl", "gate delay"), True),
    (["sta", "--cell", "qfa2", "--to", "Sum", "--from"], ("--from", "port"), True),
    (["sta", "--cell", "qfa2", "--from", "A", "--to"], ("--to", "port"), True),
    (["verify", "--cell", "cpa", "--vectors", "4", "--digits"], ("--digits",), False),
    (["verify", "--cell", "cpa", "--digits", "3", "--vectors"], ("--vectors",), False),
    (["verify", "--cell", "cpa", "--digits", "3", "--vectors", "4", "--base"], ("--base",), True),
    (["compare", "--configs", "qfa2@0.9", "--threads"], ("--threads",), False),
    (["compare", "--configs", "qfa2@0.9", "--cl"], ("--cl", "gate delay", "at cl "), True),
    (["compare", "--configs"], ("--configs", "config"), True),
    (["compare", "--configs", "qfa2@{}"], ("supply", "config"), True),
    (["--seed", "{}", "verify", "--cell", "cpa", "--digits", "3", "--vectors", "4"], ("--seed",),
     True),
]

# JSON values for library, stimulus and netlist fields
SPECIAL = [math.nan, math.inf, -math.inf, 1e300, 1e-300, -1, 0, 0.5, 2.5, 19.5, 10 ** 400,
           -10 ** 400, 10 ** 30, "fast", "", None, True, False, [], {}, [1, 2], {"a": 1}]
JUNK = st.one_of(st.sampled_from(SPECIAL), st.integers(-10, 10),
                 st.floats(allow_nan=True, allow_infinity=True))
INVENTORIES = st.lists(st.lists(JUNK | st.sampled_from(["N", "P", "Q", 19, 13, 7]), max_size=4),
                       max_size=2)
LIB_NUMBERS = ["input_cap_per_pin_f", "drive_resistance_ohm", "intrinsic_delay_s",
               "threshold_voltage_v"]
LIB_KINDS = ["inv", "mux4", "det1", "succ2", "nosuch"]
STIMULUS = {"initial": {"A": 2, "B": 1, "Cin": 0}, "events": [[50.0, "Cin", 1]],
            "duration_ps": 200.0}
# (path to a number in STIMULUS, the names an exit-2 message may give for it)
STIMULUS_NUMBERS = [(("initial", "A"), ("initial",)), (("events", 0, 0), ("events[0]",)),
                    (("events", 0, 2), ("events[0]",)), (("duration_ps",), ("duration_ps",))]


def _run(argv):
    """(exit code, stderr) of the CLI on ``argv``, in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, err.getvalue()


def _check(argv, names):
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert any(name in err for name in names), (argv, err)


def _flag_argv(argv, value):
    if "{}" in " ".join(argv):
        return [a.replace("{}", value) for a in argv]
    return [*argv, value]


def _library_argv(path, doc):
    path.write_text(json.dumps(doc))  # writes NaN and Infinity as JSON literals
    return ["--lib", str(path), "sta", "--cell", "qfa2", "--from", "A", "--to", "Sum"]


def _stimulus_argv(path, doc):
    path.write_text(json.dumps(doc))
    return ["sim", "--cell", "qfa2", "--stimulus", str(path)]


def _set(doc, path, value):
    for k in path[:-1]:
        doc = doc[k]
    doc[path[-1]] = value


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_every_number_field_survives_every_special_value(scratch):
    for argv, names, _ in FLAG_RUNS:
        for value in BAD_TEXT:
            _check(_flag_argv(argv, value), names)
    for key in LIB_NUMBERS:
        for value in SPECIAL:
            _check(_library_argv(scratch / "lib.json", {"inv": {key: value}}), (key, "gate delay"))
    for path, names in STIMULUS_NUMBERS:
        for value in SPECIAL:
            stim = copy.deepcopy(STIMULUS)
            _set(stim, path, value)
            _check(_stimulus_argv(scratch / "stim.json", stim), names)


# the values every numeric parameter of the Python API meets, by label
API_VALUES = {"True": True, "False": False, "'1'": "1", "None": None, "nan": math.nan,
              "inf": math.inf, "-inf": -math.inf, "2**63": 2 ** 63, "1.5": 1.5,
              "int64(2)": np.int64(2)}
WHOLE = {"int64(2)"}  # what a whole parameter takes of them, when 2 is in its range
REAL = {"int64(2)", "2**63", "1.5"}  # what a real parameter > 0 takes


def _api_runs(tmp_path):
    """(parameter, call of one value, error class, what its message names, the
    labels of the values it accepts, the labels it is not given). A count
    that sizes the work it asks for has an upper bound, so it refuses 2**63
    before it builds anything."""
    qfa2 = build_qfa("qfa2", 0.9)
    no_cout = edited(qfa2, ports={n: p for n, p in qfa2.ports.items() if n != "Cout"})
    cpa2, cpa3 = build_cpa(qfa2, 2), build_cpa(qfa2, 3)  # exhaustive; random rows
    trace = simulate(qfa2, worst_case_stimulus("input_to_carry", "qfa2"))  # A steps 6 times
    nand = CellLibrary.default().make_primitive("nand", 0.9, binary_full(0.9))
    zeros, digit = {"A": 0, "B": 0, "Cin": 0}, DigitVector(4, (0,))
    others = set(API_VALUES) - WHOLE

    def bounded(param, name, top, call):
        """int64(2) alone, shifted to ``top``, the largest value that ``call``
        takes for ``name``, and to the smallest it refuses. The accepted value
        builds nothing large: it runs into a later refusal, or into none."""
        return [(f"{param} at its bound", lambda v: call(top - 2 + v), DomainError, name, WHOLE,
                 others),
                (f"{param} past its bound", lambda v: call(top - 1 + v), DomainError,
                 fr"^{re.escape(name)} must be <= {top}, got {top + 1}$", set(), others)]

    def stimulus(initial=zeros, events=(), duration_ps=100.0):
        """The stimulus through the Python API and through its JSON form."""
        simulate(qfa2, Stimulus(initial, events, duration_ps))
        simulate(qfa2, Stimulus.from_json({"initial": initial, "events": events,
                                           "duration_ps": duration_ps}))

    def library(overrides):
        path = tmp_path / "lib.json"
        path.write_text(json.dumps({"inv": overrides}, default=int))  # int64 as a JSON int
        load_library(path)

    return [
        ("build_cpa n_digits", lambda v: build_cpa(qfa2, v), DomainError, "n_digits", WHOLE, ()),
        *bounded("build_cpa n_digits", "n_digits", MAX_DIGITS,
                 lambda n: pytest.raises(NetlistError, build_cpa, no_cout, n)),  # no Cout port
        ("verify_cpa n_digits", lambda v: verify_cpa(cpa2, v), DomainError, "digit", WHOLE, ()),
        ("verify_cpa vectors", lambda v: verify_cpa(cpa2, 2, vectors=v), DomainError, "vectors",
         WHOLE, ()),
        ("verify_cpa seed", lambda v: verify_cpa(cpa3, 3, vectors=2, seed=v), DomainError, "seed",
         {*WHOLE, "2**63"}, ()),
        ("adder_mismatches vectors", lambda v: adder_mismatches(qfa2, vectors=v), DomainError,
         "vectors", WHOLE, ()),
        # 2**27 matrix entries of 2n + 1 columns; both adders are exhaustive, so the
        # accepted value draws nothing
        *bounded("adder_mismatches vectors", "vectors", 2 ** 27 // 3,
                 lambda n: adder_mismatches(qfa2, vectors=n)),
        *bounded("verify_cpa vectors", "vectors", 2 ** 27 // 5,
                 lambda n: verify_cpa(cpa2, 2, vectors=n)),
        ("adder_mismatches seed", lambda v: adder_mismatches(cpa3, vectors=2, seed=v),
         DomainError, "seed", {*WHOLE, "2**63"}, ()),
        ("measure_delay src_event_index", lambda v: measure_delay(trace, "A", v, "Cout"),
         DomainError, "index", WHOLE, ()),
        ("worst_case_stimulus step_ps",
         lambda v: worst_case_stimulus("carry_to_carry", "qfa2", step_ps=v), DomainError,
         "step_ps", REAL, ()),
        ("compare threads", lambda v: compare([AdderConfig("qfa2", 0.9)], threads=v),
         DomainError, "threads", {*WHOLE, "2**63"}, ()),  # a pool starts a thread per config
        ("DigitVector radix", lambda v: DigitVector(v, (1,)), DomainError, "radix", WHOLE, ()),
        ("DigitVector digit", lambda v: DigitVector(4, (v,)), DomainError, "digit", WHOLE, ()),
        ("DigitVector digits", lambda v: DigitVector(4, v), DomainError, "^digits", set(), ()),
        ("from_int value", lambda v: DigitVector.from_int(v, 4, 2), DomainError,
         "value|does not fit", WHOLE, ()),
        ("from_int radix", lambda v: DigitVector.from_int(1, v, 2), DomainError, "radix", WHOLE,
         ()),
        ("from_int n_digits", lambda v: DigitVector.from_int(1, 4, v), DomainError, "n_digits",
         WHOLE, ()),
        *bounded("from_int n_digits", "n_digits", MAX_DIGITS,
                 lambda n: DigitVector.from_int(0, 4, n)),  # 2**14 zeros
        ("cpa_is_exhaustive radix", lambda v: cpa_is_exhaustive(v, 2), DomainError, "radix",
         WHOLE, ()),
        *bounded("cpa_is_exhaustive radix", "radix", 4, lambda r: cpa_is_exhaustive(r, 2)),
        ("cpa_is_exhaustive n_digits", lambda v: cpa_is_exhaustive(4, v), DomainError,
         "n_digits", WHOLE, ()),
        *bounded("cpa_is_exhaustive n_digits", "n_digits", MAX_DIGITS,
                 lambda n: cpa_is_exhaustive(4, n)),
        ("cpa_oracle a", lambda v: cpa_oracle(v, digit, 0), DomainError, "^a must", set(), ()),
        ("cpa_oracle b", lambda v: cpa_oracle(digit, v, 0), DomainError, "^b must", set(), ()),
        *[(f"{name} {operand}", lambda v, oracle=oracle, k=k: oracle(*(v if i == k else 0
                                                                      for i in range(3))),
           DomainError, operand, WHOLE if name == "qfa_oracle" and k < 2 else set(), ())
          for name, oracle in (("qfa_oracle", qfa_oracle), ("bfa_oracle", bfa_oracle))
          for k, operand in enumerate(("a", "b", "cin"))],
        ("stimulus level", lambda v: stimulus(initial={**zeros, "A": v}), StimulusError,
         "^initial: A: ", WHOLE, ()),
        ("stimulus events", lambda v: stimulus(events=v), StimulusError, "^events", set(), ()),
        ("stimulus time", lambda v: stimulus(events=[[v, "Cin", 1]]), StimulusError,
         r"^events\[0\]: time", {"int64(2)", "1.5"}, ()),
        ("stimulus duration_ps", lambda v: stimulus(duration_ps=v), StimulusError,
         "^duration_ps", {"int64(2)", "1.5"}, ()),
        ("Stimulus.to_json level", lambda v: Stimulus({**zeros, "A": v}).to_json(),
         StimulusError, "^initial: A: ", {"int64(2)", "2**63"}, ()),
        ("sta sources", lambda v: sta(qfa2, v, ("Cout",)), DomainError, "^sources", set(), ()),
        ("sta sinks", lambda v: sta(qfa2, ("Cin",), v), DomainError, "^sinks", set(), ()),
        ("cpa_scaling n_list", lambda v: cpa_scaling(AdderConfig("qfa2", 0.9), v), DomainError,
         "^n_list", set(), ()),
        # a binary kind chains two cells per size, so 1.5 makes a whole number of cells
        ("cpa_scaling n_list entry", lambda v: cpa_scaling(AdderConfig("bfa2x2", 0.9), [v]),
         DomainError, r"^n_list\[0\]", WHOLE, ()),
        # a negative supply fails the cell's build, after the sizes are read
        *[row for kind, top in (("qfa2", MAX_DIGITS), ("bfa2x2", MAX_DIGITS // 2))
          for row in bounded(f"cpa_scaling {kind} n_list entry", "n_list[0]", top,
                             lambda n, kind=kind: pytest.raises(
                                 NetlistError, cpa_scaling, AdderConfig(kind, -1.0), [n]))],
        ("compare configs", compare, DomainError, "^configs", set(), ()),
        ("settle_matrix in_ports", lambda v: settle_matrix(qfa2, v, [[0, 0, 0]]), DomainError,
         "^in_ports", set(), ()),
        ("settle_matrix out_ports",
         lambda v: settle_matrix(qfa2, ("A", "B", "Cin"), [[0, 0, 0]], v), DomainError,
         "^out_ports", set(), {"None"}),  # None asks for every output port
        ("eval_primitive input", lambda v: eval_primitive("succ1", [v]), DomainError,
         r"inputs\[0\]", WHOLE, ()),
        ("ElectricalParams drive_resistance_ref",
         lambda v: replace(nand.params, drive_resistance_ref=v), DomainError,
         "drive_resistance_ref", REAL, ()),
        ("propagation_delay load_cap", lambda v: propagation_delay(nand, v), DomainError,
         "^load_cap", REAL, ()),
        ("switching_energy node_cap", lambda v: switching_energy(v, 0.0, 0.9), DomainError,
         "^node_cap", REAL, ()),
        ("library drive_resistance_ohm", lambda v: library({"drive_resistance_ohm": v}),
         LibraryError, "drive_resistance_ohm", REAL, ()),
        ("library inventory count", lambda v: library({"inventory": [["N", 19, v]]}),
         LibraryError, "inventory", {*WHOLE, "2**63"}, ()),
        ("TransistorInventory chirality", lambda v: TransistorInventory((("N", v, 1),)),
         LibraryError, "^chirality", {*WHOLE, "2**63"}, ()),
        ("TransistorInventory count", lambda v: TransistorInventory((("N", 19, v),)),
         LibraryError, "^count", {*WHOLE, "2**63"}, ()),
        ("TransistorInventory entries", TransistorInventory, LibraryError, "^entries", set(),
         ()),
    ]


def test_every_api_number_names_itself_or_is_taken(tmp_path):
    """Bools, strings, None, non-finite and fractional values are refused by
    the boundary's own error class, naming the parameter; a numpy integer is
    taken wherever an int is."""
    for param, call, error, names, accepts, skips in _api_runs(tmp_path):
        for label, value in API_VALUES.items():
            if label in skips:
                continue
            if label in accepts:
                call(value)
                continue
            with pytest.raises(error) as exc:
                call(value)
            assert re.search(names, str(exc.value)), (param, label, str(exc.value))


@settings(deadline=None, max_examples=40)
@given(run=st.sampled_from(FLAG_RUNS), data=st.data())
def test_the_cli_names_a_bad_flag_value(run, data):
    argv, names, any_text = run
    values = st.sampled_from(BAD_TEXT)
    if any_text:
        values |= st.text(alphabet="0123456789.+-eEinfa@,x ", max_size=8)
    _check(_flag_argv(argv, data.draw(values)), names)


@settings(deadline=None, max_examples=50)
@given(kind=st.sampled_from(LIB_KINDS), key=st.sampled_from([*LIB_NUMBERS, "inventory", "bogus"]),
       value=JUNK | INVENTORIES, top=st.sampled_from([None, None, None, [], 3, "inv"]))
def test_the_cli_names_a_bad_library_field(scratch, kind, key, value, top):
    doc = {kind: {key: value}} if top is None else top
    names = (("library file",) if top is not None else
             (kind, key, "device type", "chirality", "count", "gate delay"))
    _check(_library_argv(scratch / "lib.json", doc), names)


def _stimulus_edits():
    """(edit of a stimulus dict, the names an exit-2 message may give for it)"""
    field = st.sampled_from(["initial", "events", "duration_ps"])
    set_top = st.tuples(field, JUNK).map(lambda fv: (lambda s: s.__setitem__(*fv), (fv[0],)))
    drop = field.map(lambda f: (lambda s: s.pop(f), (f,)))
    level = st.tuples(st.sampled_from(["A", "B", "Cin", "Z"]), JUNK).map(
        lambda pv: (lambda s: s["initial"].__setitem__(*pv), ("initial",)))
    event = st.tuples(st.integers(0, 3), JUNK | st.sampled_from(["A", "Z"])).map(
        lambda kv: (lambda s: s["events"][0].__setitem__(kv[0], kv[1])
                    if kv[0] < 3 else s["events"][0].pop(), ("events[0]",)))
    whole = JUNK.map(lambda v: (lambda s: (s.clear(), s.update(value=v)), ("initial",)))
    return st.one_of(set_top, drop, level, event, whole)


@settings(deadline=None, max_examples=50)
@given(edit=_stimulus_edits(), as_list=st.booleans())
def test_the_cli_names_a_bad_stimulus_field(scratch, edit, as_list):
    mutate, names = edit
    stim = copy.deepcopy(STIMULUS)
    mutate(stim)
    if "value" in stim:  # the whole document replaced
        stim = [stim["value"]] if as_list else stim["value"]
    _check(_stimulus_argv(scratch / "stim.json", stim), names)


def _paths(v, at=()):
    """Every path to a value inside ``v``."""
    yield at
    items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
    for k, x in items:
        yield from _paths(x, at + (k,))


_DUMP = json.loads(json.dumps(to_json(build_qfa("qfa2", 0.9))))
_DUMP_PATHS = [p for p in _paths(_DUMP) if p]
# each number field of one net, inv_cout's primitive and every encoding
_NUMBER_PATHS = [p for p in _DUMP_PATHS
                 if p[:2] in (("nets", 0), ("primitives", _DUMP["instances"][12]["primitive"]))
                 and p[-1] in ("external_load", "supply_voltage", "input_cap_per_pin",
                               "drive_resistance_ref", "intrinsic_delay", "threshold_voltage")
                 or p[0] == "encodings" and "level_voltages" in p[:-1]]
NET_IDS = [n["id"] for n in _DUMP["nets"]]


def _loads_or_names(data):
    try:
        c = from_json(data)
    except NetlistError:
        return
    assert isinstance(c, Circuit)
    assert isinstance(validate(c), list)


def test_from_json_takes_every_special_value_in_every_number_field():
    assert len(_NUMBER_PATHS) > 10
    for path in _NUMBER_PATHS:
        for value in SPECIAL:
            data = copy.deepcopy(_DUMP)
            _set(data, path, value)
            _loads_or_names(data)


@settings(deadline=None, max_examples=100)
@given(edits=st.lists(st.tuples(st.sampled_from(_DUMP_PATHS),
                                st.sampled_from(["set", "drop", "append"]),
                                JUNK | st.sampled_from(NET_IDS) | INVENTORIES),
                      min_size=1, max_size=3))
def test_from_json_raises_netlist_error_or_loads(edits):
    data = copy.deepcopy(_DUMP)
    for path, op, value in edits:
        parent = data
        try:
            for k in path[:-1]:
                parent = parent[k]
            if op == "set":
                parent[path[-1]] = value
            elif op == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]].append(value)
        except (KeyError, IndexError, TypeError, AttributeError):
            continue  # an earlier edit removed or replaced what this one names
    _loads_or_names(data)
