import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chiralis.cli import run
from chiralis.exactnum import qi
from chiralis.sampling import rand_scalar
from chiralis.serialize import (
    bc_state_from_json,
    bc_state_to_json,
    current_state_from_json,
    current_state_to_json,
    state_from_json,
    state_to_json,
)
from chiralis.states import SymState, monomial_state


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRoundTrips:
    def test_boson_state(self):
        rng = random.Random(1)
        s = monomial_state(
            [("pole", qi(0, 1), 2), ("poly", 3)], rand_scalar(rng)
        ) + monomial_state([("pole", qi(2), 4)], rand_scalar(rng))
        assert state_from_json(state_to_json(s), SymState) == s

    def test_current_state(self):
        from chiralis.current import pbw_normalize, sl2_algebra

        s = pbw_normalize(sl2_algebra(), ((0, qi(0), 1), (2, qi(1), 2)))
        assert current_state_from_json(current_state_to_json(s)) == s

    def test_bc_state(self):
        from chiralis.fermion import bc_apply, bc_vacuum

        s = bc_apply("b_e", qi(1), bc_apply("c_e", qi(2), bc_vacuum()))
        assert bc_state_from_json(bc_state_to_json(s)) == s


class TestCommands:
    def test_npoint_boson_text(self, capsys):
        code = run(["--format", "text", "npoint", "--theory", "boson", "--points", "0,2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1/4"

    def test_npoint_fermion(self, capsys):
        code, payload = run_json(capsys, ["npoint", "--theory", "fermion", "--points", "0,1"])
        assert code == 0
        assert payload["value"] == "-1"
        assert payload["passed"]

    def test_npoint_current(self, capsys):
        code, payload = run_json(
            capsys,
            ["npoint", "--theory", "current", "--algebra", "sl2",
             "--components", "e,f,h", "--points", "0,1,2"],
        )
        assert code == 0
        assert payload["value"] == "-1"

    def test_modes_virasoro(self, capsys):
        code, payload = run_json(capsys, ["modes", "--algebra", "virasoro", "--bracket", "2,-2"])
        assert code == 0
        assert payload["operator"] == "4*L_0"
        assert payload["central"] == "1/2"

    @pytest.mark.parametrize("l, m, central, operator", [
        (2, -2, "1/2", "4*L_0"), (5, -5, "10", "10*L_0"), (-4, 4, "-5", "-8*L_0"),
        (2, 3, "0", "-1*L_5"), (-5, 1, "0", "-6*L_-4"), (0, 0, "0", "0*L_0"),
    ])
    def test_modes_virasoro_output_is_pinned(self, capsys, l, m, central, operator):
        # the exact bytes printed before the bracket table moved to exponent tuples
        assert run(["modes", "--algebra", "virasoro", f"--bracket={l},{m}"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "algebra": "virasoro",\n  "bracket": [\n'
            f'    {l},\n    {m}\n  ],\n  "central": "{central}",\n'
            '  "command": "modes",\n  "identity": "virasoro-bracket-central",\n'
            f'  "operator": "{operator}"\n}}\n'
        )

    @pytest.mark.parametrize("comps, l, m, central, operator", [
        ("e,f", 1, -1, "1", "(1)*j[h]_0"), ("h,h", 2, -2, "4", "0"), ("e,f", 0, 0, "0", "(1)*j[h]_0"),
        ("e,e", 1, -1, "0", "0"), ("f,e", -2, 2, "-2", "(-1)*j[h]_0"), ("h,e", 1, 0, "0", "(2)*j[e]_1"),
    ])
    def test_modes_current_output_is_pinned(self, capsys, comps, l, m, central, operator):
        # the exact bytes printed before the affine table moved to exponent tuples
        a, b = comps.split(",")
        argv = ["modes", "--algebra", "current-sl2", "--components", comps, f"--bracket={l},{m}"]
        assert run(argv) == 0
        assert capsys.readouterr().out == (
            '{\n  "algebra": "current-sl2",\n  "bracket": [\n'
            f'    {l},\n    {m}\n  ],\n  "central": "{central}",\n'
            '  "command": "modes",\n  "components": [\n'
            f'    "{a}",\n    "{b}"\n  ],\n  "identity": "loop-bracket-central",\n'
            f'  "operator": "{operator}"\n}}\n'
        )

    def test_modes_heisenberg(self, capsys):
        code, payload = run_json(capsys, ["modes", "--algebra", "heisenberg", "--bracket", "1,-1"])
        assert code == 0
        assert payload["central"] == "1"

    def test_axioms(self, capsys):
        code, payload = run_json(
            capsys, ["axioms", "--structure", "comm", "--seed", "7", "--degree", "2", "--samples", "3"]
        )
        assert code == 0
        assert payload["passed"]

    def test_gram(self, capsys):
        code, payload = run_json(capsys, ["gram", "--points", "1/3,1/2*i", "--degree", "1"])
        assert code == 0
        assert payload["hermitian"] and payload["positive"]

    def test_commute_check(self, capsys):
        code, payload = run_json(
            capsys, ["commute-check", "--theory", "boson", "--seed", "3", "--samples", "5"]
        )
        assert code == 0
        assert payload["passed"]

    @pytest.mark.parametrize("theory", ["fermion", "lattice"])
    def test_commute_check_failure_keeps_witness(self, capsys, monkeypatch, theory):
        from chiralis import fermion, lattice

        if theory == "fermion":
            psi = fermion.psi_apply
            monkeypatch.setattr(fermion, "psi_apply", lambda z, s: psi(z, s) + s)
        else:
            monkeypatch.setattr(lattice.LatticeState, "__eq__", lambda a, b: False)
        code, payload = run_json(
            capsys, ["commute-check", "--theory", theory, "--seed", "3", "--samples", "2"]
        )
        assert code == 1 and not payload["passed"]
        failed = [c for c in payload["checks"] if not c["passed"]]
        assert failed and all(c["witness"] for c in failed)
        if theory == "fermion":
            assert state_from_json(failed[0]["witness"], fermion.ExtState).degree() == 1
        else:
            assert set(failed[0]["witness"]) == {"section", "lambda", "vacuum"}

    def test_ope_vacuum(self, capsys):
        code, payload = run_json(
            capsys, ["ope", "--fields", "T,T", "--point", "1", "--on-vacuum"]
        )
        assert code == 0
        assert payload["orders"]["-4"] == [{"monomial": [], "coeff": "1/2"}]

    def test_lattice_script(self, tmp_path, capsys):
        script = tmp_path / "ops.json"
        script.write_text(
            json.dumps(
                {
                    "section": [["1", 1]],
                    "ops": [
                        {"op": "vertex", "z": "3", "lam": 1},
                        {"op": "epsilon", "z": "0"},
                    ],
                }
            )
        )
        code, payload = run_json(capsys, ["lattice", "--N", "1", "--script", str(script)])
        assert code == 0
        assert payload["du_ledger_passed"]
        assert all(entry["passed"] for entry in payload["sign_table"])

    def test_pair(self, tmp_path, capsys):
        f = tmp_path / "pair.json"
        f.write_text(
            json.dumps(
                {
                    "dual": [{"monomial": ["poly:0"], "coeff": "1"}],
                    "state": [{"monomial": ["pole:0:2"], "coeff": "-1"}],
                }
            )
        )
        code, payload = run_json(capsys, ["pair", "--theory", "boson", "--file", str(f)])
        assert code == 0
        assert payload["value"] == "-1"

    @pytest.mark.parametrize("dual, state, value", [
        # degree one
        ([("0-1/2*i", [(1, "1/2", 1)]), ("2", [(2, "1/3-1/5*i", 2)])],
         [("3/4", [(0, "1/4+1/2*i", 2)]), ("1", [(1, "-1/3", 1)])],
         "9981792/1500625+1135908/214375*i"),
        # c~ = 0
        ([("1/3", [(1, "0", 1)]), ("1", [(2, "0", 2)])],
         [("5", []), ("1", [(0, "1/3", 1)]), ("2-1*i", [(1, "0+1/2*i", 3)])],
         "2/3"),
        # degree two
        ([("-36/13+24/13*i", [(0, "0-1/3*i", 1)]), ("1", [(0, "0-1/3*i", 1), (1, "1/2", 1)]),
          ("36/13-24/13*i", [(0, "1/2", 1)])],
         [("1/2", [(0, "0+1/5*i", 1)]), ("1", [(1, "0", 2), (2, "1/4", 1)]), ("-32", [(2, "0", 1)]),
          ("-8", [(2, "0", 2)]), ("32", [(2, "1/4", 1)])],
         "1260368/147175+515376/147175*i"),
    ])
    def test_pair_current_output_is_pinned(self, tmp_path, capsys, dual, state, value):
        # the exact bytes printed while the pairing still differentiated over Q(i)(t)
        def terms(entries):
            return [{"word": [list(g) for g in word], "coeff": c} for c, word in entries]

        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"dual": terms(dual), "state": terms(state)}))
        assert run(["pair", "--theory", "current", "--algebra", "sl2", "--file", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{\n  "algebra": "sl2",\n  "command": "pair",\n  "passed": true,\n'
            f'  "theory": "current",\n  "value": "{value}"\n}}\n'
        )

    def test_replay(self, tmp_path, capsys):
        script = tmp_path / "replay.json"
        script.write_text(
            json.dumps({"ops": [{"op": "e", "z": "0"}, {"op": "mode", "l": 1}]})
        )
        code, payload = run_json(capsys, ["replay", "--script", str(script)])
        assert code == 0
        assert payload["state"] == [{"monomial": [], "coeff": "1"}]


class TestConfigErrors:
    def test_repeated_points(self, capsys):
        assert run(["npoint", "--theory", "boson", "--points", "1,1"]) == 2

    def test_bad_field_names(self, capsys):
        assert run(["ope", "--fields", "x,y"]) == 2

    def test_bad_bracket(self, capsys):
        assert run(["modes", "--algebra", "virasoro", "--bracket", "two"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_components(self, capsys):
        assert run(["npoint", "--theory", "current", "--points", "0,1"]) == 2

    @pytest.mark.parametrize("argv, data", [
        ("gram --points @{file}", [1, 2]),
        ("gram --points @{file}", ["1/2", "x"]),
        ("npoint --theory boson --points @{file}", [1, 2]),
        ("npoint --theory boson --points @{file}", ["1/2", "x"]),
        ("ope --fields b,b --point x", None),
        ("lattice --N 0 --script {file}", {"section": [], "ops": []}),
        ("commute-check --theory lattice --N 0", None),
        ("modes --algebra current-sl2 --bracket 1,1 --components e,q", None),
        ("axioms --structure comm --degree -1", None),
        # each of these would check nothing and report a pass
        ("axioms --structure comm --samples 0", None),
        ("commute-check --theory boson --samples -1", None),
        ("gram --points 1/3 --degree -1", None),
    ])
    def test_malformed_arguments(self, tmp_path, capsys, argv, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert run(argv.format(file=path).split()) == 2
        assert "configuration error" in capsys.readouterr().err


def _replay_scripts(scalars, orders, junk):
    """Replay scripts whose leaves come from ``scalars``/``orders``, any node
    possibly replaced by ``junk``."""
    atoms = st.one_of(st.builds("pole:{}:{}".format, scalars, orders),
                      st.builds("poly:{}".format, orders.map(lambda k: k - 1)), junk)
    ints = st.one_of(st.integers(-3, 3), junk)
    entry = st.fixed_dictionaries({"monomial": st.lists(atoms, max_size=2), "coeff": scalars})
    phi = st.fixed_dictionaries({"num": st.lists(scalars, min_size=1, max_size=3)},
                                optional={"den": st.lists(scalars, min_size=1, max_size=3)})
    step = st.one_of(
        st.fixed_dictionaries({"op": st.sampled_from(["e", "i", "b", "T"]), "z": scalars}),
        st.fixed_dictionaries({"op": st.just("mode"), "l": ints}),
        st.fixed_dictionaries({"op": st.just("energy-mode"), "n": ints}),
        st.fixed_dictionaries({"op": st.just("testfn"), "phi": st.one_of(phi, junk)},
                              optional={"site": st.one_of(st.just("inf"), scalars)}),
        junk,
    )
    return st.one_of(
        st.fixed_dictionaries({}, optional={"state": st.one_of(st.lists(entry, max_size=2), junk),
                                            "ops": st.lists(step, max_size=3)}),
        junk,
    )


VALID_SCALARS = ["0", "1", "-1/2", "1/2+1/3*i", "i", "3"]
JUNK = st.one_of(
    st.none(), st.integers(-3, 3), st.sampled_from(["x", "", "pole:1", "poly:x", "zeta:1"]),
    st.lists(st.integers(0, 2), max_size=2),
    st.sampled_from([{"terms": []}, {"op": "b"}, {"op": "zeta"}, {"num": []},
                     {"num": ["1"], "den": ["0"]}, {"num": ["1"], "den": ["-2", "0", "1"]}]),
)
WELL_FORMED = _replay_scripts(st.sampled_from(VALID_SCALARS), st.integers(1, 3), st.nothing())
MALFORMED = _replay_scripts(st.sampled_from(VALID_SCALARS + ["x", "1/0", "", "1/2+"]),
                            st.integers(-1, 3), JUNK)


class TestReplayExitCodes:
    @pytest.mark.parametrize("script", [
        {"ops": [{"op": "b"}]},
        {"state": {"terms": []}},
        {"state": [{"monomial": ["pole:0:0"], "coeff": "1"}]},
        {"ops": [{"op": "testfn", "phi": {"num": ["1"], "den": ["-2", "0", "1"]}}]},
        {"ops": [{"op": "testfn", "phi": {"num": ["1"], "den": ["-2", "0", "1"]}, "site": "inf"}]},
    ])
    def test_malformed_input_is_a_configuration_error(self, tmp_path, capsys, script):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(script))
        assert run(["replay", "--script", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(script=st.one_of(WELL_FORMED, MALFORMED))
    def test_fuzzed_scripts_exit_0_or_2(self, tmp_path, capsys, script):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(script))
        assert run(["replay", "--script", str(path)]) in (0, 2)
        capsys.readouterr()


class TestPairLatticeExitCodes:
    @pytest.mark.parametrize("theory, data", [
        ("boson", {"dual": [], "stat": []}),
        ("boson", {"dual": [{"monomial": ["pole:0:0"], "coeff": "1"}], "state": []}),
        ("boson", [1, 2]),
        ("current", {"dual": []}),
        ("current", {"dual": [{"word": "x"}], "state": []}),
    ])
    def test_malformed_pair_file(self, tmp_path, capsys, theory, data):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(data))
        assert run(["pair", "--theory", theory, "--file", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("script", [
        {"ops": [{"op": "epsilon"}]},
        {"ops": [{"op": "vertex", "z": "1"}]},
        {"ops": [{"op": "flat_plus", "z": "1", "lam": "one"}]},
        {"ops": [{"z": "0"}]},
        {"section": [["x", 1]]},
        {"section": [["1"]]},
        [],
        # a contraction at a pole of a function factor is outside the domain
        {"section": [], "ops": [{"op": "epsilon", "z": "3"}, {"op": "iota", "z": "3"}]},
        {"section": [], "ops": [{"op": "epsilon", "z": "3"}, {"op": "j", "z": "3"}]},
    ])
    def test_malformed_lattice_script(self, tmp_path, capsys, script):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps(script))
        assert run(["lattice", "--N", "1", "--script", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, script, message", [
        ("lattice", {"ops": [{"op": "nope", "z": "1"}]}, "unknown lattice op 'nope'"),
        ("replay", {"ops": [{"op": "nope"}]}, "unknown replay op 'nope'"),
        ("replay", {"ops": [{"op": "mode", "l": 0}]}, "oscillator modes are nonzero"),
    ])
    def test_own_errors_pass_through_unwrapped(self, tmp_path, capsys, command, script, message):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps(script))
        argv = [command, "--script", str(path)] + (["--N", "1"] if command == "lattice" else [])
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "malformed" not in err


class TestDeterminism:
    def test_reports_byte_stable(self, capsys):
        argv = ["axioms", "--structure", "comm", "--seed", "13", "--samples", "3"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CHIRALIS_SEED", "21")
        code, payload = run_json(
            capsys, ["axioms", "--structure", "comm", "--seed", "4", "--samples", "2"]
        )
        assert payload["seed"] == 21
