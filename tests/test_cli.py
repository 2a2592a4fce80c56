"""CLI tests: config validation, subcommand wiring, reports, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oscillint.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_NON_OSCILLATORY,
    EXIT_OSCILLATORY,
    EXIT_RAN,
    ConfigError,
    Report,
    build_parser,
    config_from_dict,
    load_config,
    main,
    run,
    to_jsonable,
    write_report,
)
from oscillint.criteria import NON_OSCILLATORY, OSCILLATORY

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# (shipped config, subcommand, exit code)
SHIPPED_RUNS = [
    ("forced_harmonic", "analyze", EXIT_OSCILLATORY),
    ("forced_harmonic", "oracle", EXIT_OSCILLATORY),
    ("forced_harmonic", "wong", EXIT_OSCILLATORY),
    ("bursty_coupling", "analyze", EXIT_OSCILLATORY),
    ("bursty_coupling", "oracle", EXIT_OSCILLATORY),
    ("decaying_forcing", "analyze", EXIT_NON_OSCILLATORY),
    ("decaying_forcing", "oracle", EXIT_NON_OSCILLATORY),
    ("decaying_forcing", "wong", EXIT_INCONCLUSIVE),
    ("harmonic_riccati", "riccati", EXIT_RAN),
    ("riccati_comparison", "compare", EXIT_RAN),
]


def forced_harmonic_doc(**overrides):
    doc = {"equation": {"a": "1", "b": "0", "c": "1", "d": "sin(t)"},
           "horizon": 8.0 * math.pi}
    doc.update(overrides)
    return doc


def decaying_doc(**overrides):
    doc = {"system": {"q": "1", "r": "1", "g": "-exp(-t)"},
           "horizon": 30.0,
           "tolerances": {"escape_magnitude": 1e15}}
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestConfigLoading:
    def test_equation_config_valid(self, tmp_path):
        config = load_config(write_doc(tmp_path, forced_harmonic_doc()))
        assert config.equation is not None
        assert config.system is None
        assert config.grid_nodes == 2048
        sys_spec = config.working_system()
        assert sys_spec.is_forced()

    def test_both_inputs_rejected(self):
        doc = forced_harmonic_doc(system={"q": "1"})
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(doc)

    def test_neither_input_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({"horizon": 1.0})

    def test_bad_expression_names_field_and_position(self):
        doc = {"system": {"q": "1 + + t"}, "horizon": 1.0}
        with pytest.raises(ConfigError, match=r"system\.q.*offset"):
            config_from_dict(doc)

    def test_negative_q_loads_fine(self):
        config = config_from_dict({"system": {"q": "-1"}, "horizon": 5.0})
        report = run("analyze", config)
        assert report.verdict.outcome == "inconclusive"

    def test_missing_horizon(self):
        with pytest.raises(ConfigError, match="horizon"):
            config_from_dict({"system": {"q": "1"}})

    def test_horizon_before_t0(self):
        with pytest.raises(ConfigError, match="exceed t0"):
            config_from_dict({"system": {"q": "1"}, "t0": 2.0, "horizon": 1.0})

    def test_small_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid_nodes"):
            config_from_dict(forced_harmonic_doc(grid_nodes=32))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field 'qq'"):
            config_from_dict({"system": {"qq": "1"}, "horizon": 1.0})
        with pytest.raises(ConfigError, match="unknown field 'horizons'"):
            config_from_dict({"system": {"q": "1"}, "horizons": 1.0})

    def test_invalid_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"horizon": 1.0,,}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1 column"):
            load_config(path)

    def test_defaults_echoed(self):
        config = config_from_dict(forced_harmonic_doc())
        echo = config.effective
        assert echo["grid_nodes"] == 2048
        assert echo["tolerances"]["rel_tol"] == 1e-8
        assert echo["oracle"]["seed"] == 1729
        assert "points" not in echo["scan"]
        assert echo["lambda"]["points"] == 41
        assert echo["periodic"] is None

    def test_explicit_lambda_values(self):
        config = config_from_dict(decaying_doc(**{"lambda": {"values": [0.0, 1.0]}}))
        assert config.lambda_values == (0.0, 1.0)

    def test_compare_defaults_echoed(self):
        config = load_config(CONFIG_DIR / "riccati_comparison.json")
        echo = config.effective["compare"]
        assert list(echo) == ["problem1", "problem2", "span", "y2_start",
                              "gamma", "eta_offset", "squared_variant"]
        assert (echo["gamma"], echo["eta_offset"], echo["squared_variant"]) == (
            None, 1.0, False)
        assert config.compare_squared_variant is False

    @pytest.mark.parametrize("change, message", [
        ({"span": None}, "compare.span: required"),
        ({"span": [0.0]}, "compare.span: expected [lo, hi]"),
        ({"span": [0.0, "1"]}, "compare.span[1]: expected a number"),
        ({"span": [1.0, 0.0]},
         "compare.span: must be a finite increasing pair"),
        ({"extra": 1}, "compare: unknown field 'extra'"),
        ({"problem1": {"f": "1", "g": "0", "h": "1/2", "k": "1"}},
         "compare.problem1: unknown field 'k'"),
        ({"problem1": {"f": "1", "h": "1/2"}}, "compare.problem1.g: required"),
        ({"problem1": None}, "compare.problem1: required"),
        ({"problem2": [1]}, "compare.problem2: expected an object"),
        ({"problem1": {"f": "1", "g": "0", "h": "1 + + t"}},
         "compare.problem1.h: unexpected token '+' at offset 4"),
        ({"gamma": -1.0},
         "compare: gamma must lie between y2_start and eta1 at the start"),
        ({"problem1": {"f": "-1", "g": "0", "h": "1/2"}},
         "compare: quadratic coefficient of problem 1 must be nonnegative"),
        ({"squared_variant": 1}, "compare.squared_variant: expected true or false"),
        ({"span": [0.0, math.inf]}, "compare.span[1]: expected a finite number"),
    ])
    def test_compare_section_errors(self, change, message):
        doc = json.loads((CONFIG_DIR / "riccati_comparison.json").read_text(
            encoding="utf-8"))
        for key, value in change.items():
            if value is None:  # None drops the key
                del doc["compare"][key]
            else:
                doc["compare"][key] = value
        with pytest.raises(ConfigError) as caught:
            config_from_dict(doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize("path, literal", [
        ("grid_nodes", "1e400"),
        ("grid_nodes", "NaN"),
        ("oracle.seed", "1e400"),
        ("oracle.size", "-Infinity"),
        ("lambda.points", "1e400"),
        ("horizon", "1e400"),
        ("horizon", "NaN"),
        pytest.param("horizon", "1" + "0" * 400, id="horizon-integer_beyond_float_range"),
        ("tolerances.rel_tol", "Infinity"),
        ("riccati.y0", "NaN"),
    ])
    def test_non_finite_number_rejected(self, path, literal):
        doc = {"system": {"q": "1", "r": "-1", "g": "sin(t)"}, "horizon": 10}
        *sections, key = path.split(".")
        target = doc
        for name in sections:
            target = target.setdefault(name, {})
        target[key] = json.loads(literal)
        with pytest.raises(ConfigError) as caught:
            config_from_dict(doc)
        assert str(caught.value) == f"{path}: expected a finite number"

    @pytest.mark.parametrize("path, value, message", [
        ("grid_nodes", 16385, "grid_nodes: must be at most 16384"),
        ("grid_nodes", 1e15, "grid_nodes: must be at most 16384"),
        ("lambda.points", 513, "lambda.points: must be at most 512"),
        ("lambda.values", [0.0] * 513, "lambda.values: must hold at most 512 values"),
        ("oracle.size", 1025, "oracle.size: must be at most 1024"),
    ])
    def test_oversized_setting_rejected(self, path, value, message):
        doc = {"system": {"q": "1", "r": "-1", "g": "sin(t)"}, "horizon": 10}
        *sections, key = path.split(".")
        target = doc
        for name in sections:
            target = target.setdefault(name, {})
        target[key] = value
        with pytest.raises(ConfigError) as caught:
            config_from_dict(doc)
        assert str(caught.value) == message

    def test_largest_sizes_accepted(self):
        config = config_from_dict(decaying_doc(
            grid_nodes=16384, oracle={"size": 1024},
            **{"lambda": {"points": 512, "values": [0.5] * 512}}))
        assert (config.grid_nodes, config.oracle_size, config.lambda_points,
                len(config.lambda_values)) == (16384, 1024, 512, 512)

    @pytest.mark.parametrize("values, index", [
        ([-5.0], 0), ([60.0], 0), ([1.0, 8.0 * math.pi], 1), ([0.0, -1e-9], 1),
    ])
    def test_scan_value_outside_horizon_rejected(self, values, index):
        with pytest.raises(ConfigError) as caught:
            config_from_dict(forced_harmonic_doc(scan={"values": values}))
        assert str(caught.value) == f"scan.values[{index}]: must lie in [t0, horizon)"

    def test_null_problem_block_rejected(self):
        with pytest.raises(ConfigError) as caught:
            config_from_dict({"system": None, "horizon": 1.0})
        assert str(caught.value) == "system: expected an object"

    def test_null_compare_section_skipped(self):
        config = config_from_dict(decaying_doc(compare=None))
        assert config.compare is None
        assert "compare" not in config.effective


class TestSubcommands:
    def test_analyze_oscillatory(self):
        config = config_from_dict(forced_harmonic_doc())
        report = run("analyze", config)
        assert report.verdict.outcome == OSCILLATORY
        assert report.exit_code() == EXIT_OSCILLATORY
        witnesses = report.verdict.evidence["witnesses"]
        _, first = witnesses[0]
        expected = (math.pi, 2 * math.pi, 2 * math.pi, 3 * math.pi)
        got = (first.s1, first.t1, first.s2, first.t2)
        assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-6
        assert report.details["oracle_agrees"] is True

    def test_analyze_nonoscillatory_lambda_witness(self):
        config = config_from_dict(decaying_doc())
        report = run("analyze", config)
        assert report.verdict.outcome == NON_OSCILLATORY
        assert report.exit_code() == EXIT_NON_OSCILLATORY
        assert report.verdict.evidence["lambda_witness"] == pytest.approx(
            1.0, abs=1e-6)
        assert report.empirical.outcome == "nonoscillatory_observed"

    def test_analyze_inconclusive(self):
        config = config_from_dict({"system": {"q": "cos(t)", "r": "-1"},
                                   "horizon": 20.0})
        report = run("analyze", config)
        assert report.exit_code() == EXIT_INCONCLUSIVE

    def test_analyze_uses_lambda_points(self):
        doc = json.loads((CONFIG_DIR / "forced_harmonic.json").read_text(encoding="utf-8"))
        doc["lambda"] = {"points": 5}
        report = run("analyze", config_from_dict(doc))
        assert report.verdict.outcome == OSCILLATORY
        assert report.verdict.evidence["lambda_grid_size"] == 5

    def test_oracle_only(self):
        config = config_from_dict(forced_harmonic_doc())
        report = run("oracle", config)
        assert report.verdict is None
        assert report.empirical.outcome == "oscillatory_observed"
        assert report.exit_code() == EXIT_OSCILLATORY

    def test_reduce_prints_companion(self):
        config = config_from_dict(forced_harmonic_doc())
        report = run("reduce", config)
        assert report.details["system"] == {
            "p": "0", "q": "1", "r": "-1", "s": "0", "f": "0", "g": "sin(t)"}
        assert report.exit_code() == EXIT_RAN

    def test_reduce_requires_equation(self):
        config = config_from_dict(decaying_doc())
        with pytest.raises(ConfigError, match="equation"):
            run("reduce", config)

    def test_wong_oscillatory(self):
        config = config_from_dict(forced_harmonic_doc())
        report = run("wong", config)
        assert report.verdict.outcome == OSCILLATORY
        assert report.exit_code() == EXIT_OSCILLATORY

    def test_riccati_homogeneous(self):
        config = config_from_dict({"system": {"q": "1", "r": "-1"},
                                   "horizon": 1.2})
        report = run("riccati", config)
        assert report.details["blew_up"] is False
        assert report.details["end_reason"] == "horizon"
        # y = psi/phi for cos/-sin start (1, 0): y = -tan t
        assert report.details["final_value"] == pytest.approx(
            -math.tan(1.2), abs=1e-7)

    def test_riccati_blowup_reported(self):
        config = config_from_dict({"system": {"q": "1", "r": "-1"},
                                   "horizon": 3.0})
        report = run("riccati", config)
        assert report.details["blew_up"] is True
        assert report.details["end_reason"] == "escape_magnitude"
        assert report.details["escape_time"] == pytest.approx(
            math.pi / 2, abs=1e-3)

    def test_riccati_field_failure_is_no_blowup(self):
        # the square root's argument is negative on a band about 0.004 wide
        # that falls between probe nodes; the stages fail there and the step
        # collapses, which is no blow-up
        config = config_from_dict({"system": {
            "q": "1", "r": "-sqrt(1 - 2*exp(-(((t-0.8818359375)/0.002)^8)))"},
            "horizon": 3})
        details = run("riccati", config).details
        assert details["blew_up"] is False and details["escape_time"] is None
        assert details["end_reason"] == "field_failure"
        assert details["end_time"] == pytest.approx(0.880, abs=1e-3)

    def test_riccati_rejects_forced(self):
        config = config_from_dict(forced_harmonic_doc())
        with pytest.raises(ConfigError, match="unforced"):
            run("riccati", config)

    def test_compare_certificate_and_validation(self):
        config = config_from_dict({
            "system": {"q": "1", "r": "-1"}, "horizon": 3.0,
            "compare": {
                "problem1": {"f": "1", "g": "0", "h": "1/2"},
                "problem2": {"f": "1", "g": "0", "h": "1"},
                "span": [0.0, 1.0], "y2_start": 0.0}})
        report = run("compare", config)
        assert report.certificate.holds is True
        assert report.validation.passed is True
        assert report.details["agreement"] is True
        assert report.exit_code() == EXIT_RAN

    def test_compare_solves_equation_two_once(self, monkeypatch):
        from oscillint import riccati
        config = load_config(CONFIG_DIR / "riccati_comparison.json")
        expected = run("compare", config).render_json()
        solved = []
        solve = riccati.solve_riccati

        def counted(prob, y0, tol):
            solved.append(prob)
            return solve(prob, y0, tol)
        monkeypatch.setattr(riccati, "solve_riccati", counted)
        report = run("compare", config)
        assert solved == [config.compare.problem2, config.compare.problem1]
        assert report.validation.y2 is report.certificate.y2
        assert report.render_json() == expected

    def test_compare_squared_variant_flag(self):
        doc = {
            "system": {"q": "1", "r": "-1"}, "horizon": 3.0,
            "compare": {
                "problem1": {"f": "1", "g": "0", "h": "1"},
                "problem2": {"f": "3", "g": "0", "h": "1"},
                "span": [0.0, 0.5], "y2_start": 0.0}}
        plain = run("compare", config_from_dict(doc))
        doc["compare"]["squared_variant"] = True
        squared = run("compare", config_from_dict(doc))
        assert squared.certificate.squared_variant is True
        assert plain.certificate.squared_variant is False

    def test_squared_variant_compare_reruns_from_echo(self, tmp_path):
        doc = json.loads((CONFIG_DIR / "riccati_comparison.json").read_text(
            encoding="utf-8"))
        doc["compare"]["squared_variant"] = True
        report = run("compare", config_from_dict(doc))
        assert report.to_dict()["certificate"]["squared_variant"] is True
        echo = report.provenance["config"]
        assert echo["compare"]["squared_variant"] is True
        replay_path = write_doc(tmp_path, echo, name="replay.json")
        replay = run("compare", load_config(replay_path))
        assert replay.render_json() == report.render_json()

    def test_compare_requires_section(self):
        config = config_from_dict(decaying_doc())
        with pytest.raises(ConfigError, match="compare"):
            run("compare", config)

    def test_sweep_landscape(self):
        config = config_from_dict(decaying_doc())
        report = run("sweep", config)
        interval = report.details["feasible_interval"]
        assert interval[0] == pytest.approx(1.0, abs=1e-6)
        rows = report.details["rows"]
        assert rows, "sweep produced no rows"
        for row in rows:
            inside = (row["lam"] >= interval[0] - 1e-9
                      and row["lam"] <= interval[1] + 1e-9)
            assert row["feasible"] == inside, row

    def test_unknown_subcommand(self):
        config = config_from_dict(decaying_doc())
        with pytest.raises(ConfigError, match="subcommand"):
            run("frobnicate", config)


class TestMainEntry:
    def test_exit_codes_match_reports(self, tmp_path, capsys):
        path = write_doc(tmp_path, forced_harmonic_doc())
        code = main(["analyze", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OSCILLATORY
        assert "outcome: oscillatory" in out

    def test_error_exit_and_message(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"system": {"q": "1 +"}, "horizon": 1.0})
        code = main(["analyze", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "system.q" in err

    def test_non_finite_number_exits_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"system": {"q": "1", "r": "-1", "g": "sin(t)"}, '
                        '"horizon": 10, "grid_nodes": 1e400}', encoding="utf-8")
        code = main(["analyze", "--config", str(path)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == \
            "oscillint: error: grid_nodes: expected a finite number\n"

    def test_oversized_grid_exits_with_one_line(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"system": {"q": "1", "r": "-1", "g": "sin(t)"},
                                    "horizon": 10, "grid_nodes": 1e15})
        code = main(["analyze", "--config", str(path)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == \
            "oscillint: error: grid_nodes: must be at most 16384\n"

    @pytest.mark.parametrize("subcommand", ["analyze", "wong"])
    @pytest.mark.parametrize("value", [-5.0, 60.0])
    def test_scan_value_outside_horizon_exits_with_one_line(self, tmp_path, capsys,
                                                            subcommand, value):
        path = write_doc(tmp_path, {"equation": {"c": "1", "d": "sin(t)"},
                                    "horizon": 50.27, "scan": {"values": [value]}})
        code = main([subcommand, "--config", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == \
            "oscillint: error: scan.values[0]: must lie in [t0, horizon)\n"

    @pytest.mark.parametrize("problem, key, text, message", [
        ("problem1", "h", "1/t", "division by zero at t=0.0 in '1 / t'"),
        ("problem1", "f", "exp(1000*t)",
         "exp outside real domain at t=0.7109375 in 'exp(1000 * t)'"),
        ("problem2", "h", "log(t - 0.5)",
         "log of non-positive argument at t=0.0 in 'log(t - 0.5)'"),
    ])
    def test_compare_coefficient_not_evaluable_exits_with_one_line(
            self, tmp_path, capsys, problem, key, text, message):
        doc = json.loads((CONFIG_DIR / "riccati_comparison.json").read_text(
            encoding="utf-8"))
        assert doc["compare"]["span"] == [0.0, 1.0]
        doc["compare"][problem][key] = text
        code = main(["compare", "--config", str(write_doc(tmp_path, doc))])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == f"oscillint: error: compare.{problem}.{key}: {message}\n"

    def test_compare_coefficient_failing_between_probe_points_is_named(self, tmp_path,
                                                                       capsys):
        # h is undefined on (0.2999, 0.3001), which no probe point of the load hits
        doc = json.loads((CONFIG_DIR / "riccati_comparison.json").read_text(
            encoding="utf-8"))
        doc["compare"]["problem1"]["h"] = "sqrt(abs(t - 0.3) - 0.0001)"
        code = main(["compare", "--config", str(write_doc(tmp_path, doc))])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == ("oscillint: error: compare.problem1.h: math domain "
                                "error at t=0.29995114802149486\n")

    @pytest.mark.parametrize("q, message", [
        ("sin(" * 200 + "t" + ")" * 200,
         "expression nests deeper than 400 parser levels at offset 320"),
        (" + ".join(["1"] + ["0"] * 1199), "expression deeper than 400 levels at offset 1598"),
    ], ids=["nested_calls", "long_sum"])
    def test_deep_expression_exits_with_one_line(self, tmp_path, capsys, q, message):
        path = write_doc(tmp_path, {"system": {"q": q, "r": "-1"}, "horizon": 10})
        code = main(["analyze", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == f"oscillint: error: system.q: {message}\n"

    def test_long_sum_within_the_bound_runs(self, tmp_path, capsys):
        q = " + ".join(["1"] + ["0"] * 299)
        path = write_doc(tmp_path, {"system": {"q": q, "r": "-1"}, "horizon": 10})
        assert main(["analyze", "--config", str(path)]) == EXIT_INCONCLUSIVE

    def test_missing_file(self, tmp_path, capsys):
        code = main(["analyze", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [[], ["--horizon", "5"],
                                          ["--periodic", "2"]])
    def test_non_object_config_rejected(self, tmp_path, capsys, override):
        path = write_doc(tmp_path, [1, 2])
        code = main(["analyze", "--config", str(path), *override])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "oscillint: error: config: expected an object\n"

    def test_solve_that_stops_early_is_inconclusive(self, tmp_path, capsys):
        # the angle solve collapses at t = 3.3; the tail [5, 10] it never
        # reached must not count as free of zeros
        path = write_doc(tmp_path, {"system": {"q": "1", "r": "-1/(t-3.3)^2"},
                                    "horizon": 10})
        code = main(["analyze", "--config", str(path)])
        assert code == EXIT_INCONCLUSIVE
        out = capsys.readouterr().out
        assert "outcome: inconclusive" in out
        assert "the angle solve stopped at t = 3.3" in out

    def test_horizon_override_echoed(self, tmp_path, capsys):
        path = write_doc(tmp_path, decaying_doc())
        out_file = tmp_path / "report.txt"
        code = main(["analyze", "--config", str(path),
                     "--horizon", "20.0", "--out", str(out_file)])
        assert code == EXIT_NON_OSCILLATORY
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["provenance"]["config"]["horizon"] == 20.0
        assert doc["verdict"]["horizon"] == [0.0, 20.0]

    def test_readme_synopsis_names_every_option(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        synopsis = readme.split("## Command line", 1)[1].split("```", 2)[1]
        usage = build_parser().format_usage()
        option = r"--[a-z][a-z-]*"
        assert set(re.findall(option, synopsis)) == set(re.findall(option, usage))

    def test_dump_traces(self, tmp_path):
        path = write_doc(tmp_path, forced_harmonic_doc(
            oracle={"size": 4, "seed": 5}))
        traces = tmp_path / "traces"
        code = main(["oracle", "--config", str(path),
                     "--dump-traces", str(traces)])
        assert code == EXIT_OSCILLATORY
        files = sorted(p.name for p in traces.iterdir())
        assert files == [f"member_{i:02d}.csv" for i in range(4)]
        header = (traces / "member_00.csv").read_text().splitlines()[0]
        assert header == "t,phi,psi"

    @pytest.mark.parametrize("out", ["run.txt", "run.json", "./sub/../run.json"])
    def test_out_over_the_config_is_refused(self, tmp_path, capsys, monkeypatch, out):
        # run.txt would put its JSON sibling on run.json, run.json the text report
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        path = write_doc(tmp_path, forced_harmonic_doc(), name="run.json")
        before = path.read_bytes()
        code = main(["analyze", "--config", "run.json", "--out", out])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"--out {out} " in captured.err
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "sub"]


class TestReports:
    def test_sibling_files_written_atomically(self, tmp_path):
        config = config_from_dict(decaying_doc())
        report = run("sweep", config)
        text_path, json_path = write_report(report, tmp_path / "report.txt")
        assert text_path.exists() and json_path.exists()
        assert json_path.name == "report.json"
        assert not list(tmp_path.glob("*.tmp"))
        doc = json.loads(json_path.read_text())
        assert doc["subcommand"] == "sweep"

    def test_text_and_json_carry_same_facts(self):
        config = config_from_dict(forced_harmonic_doc())
        report = run("analyze", config)
        text = report.render_text()
        doc = report.to_dict()

        def scalars(obj):
            if isinstance(obj, dict):
                for v in obj.values():
                    yield from scalars(v)
            elif isinstance(obj, list):
                for v in obj:
                    yield from scalars(v)
            else:
                yield obj
        for value in scalars(doc):
            if isinstance(value, bool):
                token = "true" if value else "false"
            elif value is None:
                token = "null"
            elif isinstance(value, float):
                token = repr(value)
            else:
                token = str(value)
            if token:
                assert token in text, token

    def test_idempotent_rerun_from_echo(self, tmp_path):
        config = config_from_dict(decaying_doc())
        report = run("analyze", config)
        echo = report.provenance["config"]
        replay_path = write_doc(tmp_path, echo, name="replay.json")
        replay = run("analyze", load_config(replay_path))
        assert replay.render_json() == report.render_json()

    @pytest.mark.parametrize("name, subcommand, _", SHIPPED_RUNS)
    def test_idempotent_rerun_of_shipped_config(self, tmp_path, name,
                                                subcommand, _):
        report = run(subcommand, load_config(CONFIG_DIR / f"{name}.json"))
        replay_path = write_doc(tmp_path, report.provenance["config"],
                                name="replay.json")
        replay = run(subcommand, load_config(replay_path))
        assert replay.render_json() == report.render_json()

    def test_readme_configuration_block_is_its_own_echo(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration", 1)[1]
        block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert config_from_dict(block).effective == block

    def test_infinities_serialized_as_strings(self):
        assert to_jsonable(float("inf")) == "inf"
        assert to_jsonable(float("-inf")) == "-inf"
        assert to_jsonable((1.0, None, True)) == [1.0, None, True]

    def test_exit_code_without_verdict(self):
        assert Report("sweep").exit_code() == EXIT_RAN


@pytest.mark.parametrize("name, subcommand, expected", SHIPPED_RUNS)
def test_shipped_config_exit_codes(name, subcommand, expected, capsys):
    code = main([subcommand, "--config", str(CONFIG_DIR / f"{name}.json")])
    capsys.readouterr()
    assert code == expected


def run_python(args, cwd):
    """Run a fresh interpreter that imports oscillint from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_module_entry_point(tmp_path):
    # python -m oscillint runs the command line without runpy's warning
    # that `python -m oscillint.cli` prints (the package imports cli)
    done = run_python(["-m", "oscillint", "analyze", "--config",
                       str(CONFIG_DIR / "forced_harmonic.json")], tmp_path)
    assert done.returncode == 10
    assert done.stderr == ""
    assert "oscillatory" in done.stdout


def test_library_runs_without_scipy(tmp_path):
    # in a fresh interpreter: import the CLI, run analyze on a shipped
    # config, and find no scipy module loaded
    code = ("import sys\n"
            "import oscillint.cli as cli\n"
            f"code = cli.main(['analyze', '--config', {str(CONFIG_DIR / 'forced_harmonic.json')!r}])\n"
            "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
            "print(code, loaded, file=sys.stderr)\n"
            "sys.exit(0 if code == 10 and not loaded else 1)\n")
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr


def _wide_compare_span():
    doc = json.loads((CONFIG_DIR / "riccati_comparison.json").read_text(encoding="utf-8"))
    doc["compare"]["span"] = [-1e308, 1e308]
    return doc


@pytest.mark.parametrize("subcommand, doc, message", [
    # exp of the integral of p = 10 overflows on [0, 100]
    *((sub, {"system": {"p": "10", "q": "1", "r": "-1", "g": "sin(t)"}, "horizon": 100},
       "growth factor overflows on the grid; shorten the horizon")
      for sub in ("analyze", "sweep")),
    # ... and with p = -10 it underflows, to 0 near t = 74.5 (0 / 0 with
    # f = 0) and below the least double before that (1 / growth with f = 1)
    *((sub, {"system": {"p": "-10", "q": "1", "r": "-1", "g": "sin(t)", **forcing},
             "horizon": 100},
       "growth factor underflows on the grid; shorten the horizon")
      for forcing in ({}, {"f": "1"}) for sub in ("analyze", "sweep")),
    # growth = exp(-10 t) stays in range on [0, 5], but f / growth passes
    # the largest double near t = 1.9
    *((sub, {"system": {"p": "-10", "q": "1", "r": "-1", "g": "sin(t)", "f": "1e300"},
             "horizon": 5},
       "forcing f over the growth factor overflows on the grid; shorten the horizon")
      for sub in ("analyze", "sweep")),
    # each bound is finite, their distance is not
    *((sub, {"system": {"q": "1", "r": "-1", "g": "sin(t)"}, "t0": -1e308, "horizon": 1e308},
       "horizon: horizon - t0 must be finite")
      for sub in ("analyze", "sweep")),
    ("compare", _wide_compare_span(), "compare.span: hi - lo must be finite"),
    # f = 1e300 makes the certificate weight exp(integral of f (eta1 + eta2))
    # pass the largest double at once
    ("compare", {"system": {"q": "1", "r": "-1"}, "horizon": 1,
                 "compare": {"problem1": {"f": "1e300", "g": "0", "h": "1"},
                             "problem2": {"f": "1e300", "g": "0", "h": "2"},
                             "span": [0, 1], "y2_start": 0}},
     "certificate weight exp(integral of f (eta1 + eta2) + g of problem1) "
     "overflows at t=4.8852e-19"),
], ids=["growth_analyze", "growth_sweep", "shrink_analyze", "shrink_sweep",
        "shrink_forced_analyze", "shrink_forced_sweep", "forcing_analyze", "forcing_sweep",
        "horizon_analyze", "horizon_sweep",
        "compare_span", "compare_weight"])
def test_overflowing_input_exits_with_one_line(tmp_path, subcommand, doc, message):
    # in a fresh interpreter, so that a numpy warning would reach stderr
    path = write_doc(tmp_path, doc)
    done = run_python(["-m", "oscillint", subcommand, "--config", str(path)], tmp_path)
    assert done.returncode == EXIT_ERROR and done.stdout == ""
    assert done.stderr == f"oscillint: error: {message}\n"


@pytest.mark.parametrize("subcommand, expected", [("analyze", EXIT_OSCILLATORY),
                                                  ("oracle", EXIT_NON_OSCILLATORY)])
def test_refused_oracle_chunk_prints_no_warning(tmp_path, subcommand, expected):
    # d = 1e308 sin(t) makes the oracle's first chunk solve non-finite; the
    # chunk is refused without a numpy warning reaching stderr (a fresh
    # interpreter shows one), and the exit codes stay as they were
    path = write_doc(tmp_path, {"equation": {"a": "1", "c": "1", "d": "1e308*sin(t)"},
                                "horizon": 30})
    done = run_python(["-m", "oscillint", subcommand, "--config", str(path)], tmp_path)
    assert done.returncode == expected
    assert done.stderr == ""
