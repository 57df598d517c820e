import copy
import gc
import hashlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicectx import (
    PossibilisticModel,
    ProbabilisticModel,
    SUPPORT_EPSILON,
    Scenario,
    And,
    Not,
    NotContradictory,
    Or,
    TimeBudgetExceeded,
    TooLarge,
    bell_scenario,
    bell_violation,
    classify,
    gen_random_model,
    hardy_distribution,
    hardy_table,
    luce_raiffa,
    parse_formula,
    parse_model,
    parse_propositions,
    pr_box,
    pr_box_distribution,
    serialize_model,
    support_propositions,
    support_reduction,
    uniform_over_support,
    validate_model,
)
from choicectx import catalog, cli, contextuality, core, errors, proplang
from choicectx.cli import RunConfig, build_parser, main, parse_args, run
from choicectx.contextuality import Kind
from choicectx.core import TABLE_ROWS_LIMIT
from choicectx.proplang import MAX_NESTING

NAN_DOCUMENT = (
    '{"variables": ["a"], "contexts": [["a"]], "probabilistic": '
    '[{"context": ["a"], "distribution": [{"assignment": {"a": 1}, "p": NaN}]}]}'
)


@pytest.fixture
def hardy_file(tmp_path):
    path = tmp_path / "hardy.json"
    path.write_text(serialize_model(hardy_table()))
    return str(path)


@pytest.fixture
def pr_dist_file(tmp_path):
    path = tmp_path / "pr.json"
    path.write_text(serialize_model(pr_box_distribution()))
    return str(path)


@pytest.fixture
def pr_props_file(tmp_path):
    path = tmp_path / "pr.props"
    lines = [p.to_text() for p in support_propositions(pr_box())]
    path.write_text("# support formulas\n" + "\n".join(lines) + "\n")
    return str(path)


class TestParseArgs:
    def test_classify(self):
        config = parse_args(["classify", "m.json", "--strict", "--machine"])
        assert config.command == "classify"
        assert config.model_path == "m.json"
        assert config.strict and config.machine
        assert config.bound == 24
        assert config.budget is None

    def test_bell(self):
        config = parse_args(
            ["bell", "m.json", "--props", "p.txt", "--bound", "12", "--budget", "1.5"]
        )
        assert config.command == "bell"
        assert config.props_path == "p.txt"
        assert config.bound == 12
        assert config.budget == 1.5

    def test_gen(self):
        config = parse_args(
            ["gen", "--vars", "5", "--contexts", "3", "--density", "0.4",
             "--seed", "9", "--closed"]
        )
        assert config.command == "gen"
        assert (config.n_variables, config.n_contexts) == (5, 3)
        assert config.density == 0.4
        assert config.seed == 9
        assert config.closed

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args([])
        assert err.value.code == 2

    def test_calls_share_no_state(self):
        parse_args(["bell", "m.json", "--props", "f", "--bound", "3", "--budget", "2"])
        config = parse_args(["classify", "m.json"])
        assert config.props_path is None
        assert config.bound == 24
        assert config.budget is None

    @staticmethod
    def outcome(call, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = call(argv)
            except SystemExit as exc:
                code = exc.code
        return out.getvalue(), err.getvalue(), code

    @pytest.mark.parametrize("argv", [["--help"], ["bell", "--help"], ["bell"]])
    def test_help_and_errors_match_a_fresh_parser(self, argv):
        # one parser serves every call, and build_parser() still builds anew
        assert build_parser() is not build_parser()
        fresh = self.outcome(lambda argv: build_parser().parse_args(argv), argv)
        assert fresh[2] == (0 if "--help" in argv else 2)
        assert fresh[0] or fresh[1]
        for _ in range(3):
            assert self.outcome(main, argv) == fresh


class TestClassifyCommand:
    def test_human_output(self, hardy_file, capsys):
        rc = run(RunConfig(command="classify", model_path=hardy_file))
        out = capsys.readouterr().out
        assert rc == 0
        assert "kind: Contextual" in out
        assert "sections: 5" in out
        assert "witness: context={a,b}, event={}" in out

    def test_machine_output(self, hardy_file, capsys):
        rc = run(RunConfig(command="classify", model_path=hardy_file, machine=True))
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc == {
            "kind": "Contextual",
            "witness_event": {"context": ["a", "b"], "event": []},
            "section_count": 5,
        }

    def test_strict_flags_contextual(self, hardy_file):
        assert run(RunConfig(command="classify", model_path=hardy_file, strict=True)) == 1

    def test_strict_passes_noncontextual(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(serialize_model(gen_random_model(3, 2, 1.0, seed=1)))
        rc = run(RunConfig(command="classify", model_path=str(path), strict=True))
        assert rc == 0

    def test_probabilistic_input_reduces(self, pr_dist_file, capsys):
        rc = run(RunConfig(command="classify", model_path=pr_dist_file))
        assert rc == 0
        assert "StronglyContextual" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, capsys):
        rc = run(RunConfig(command="classify", model_path="no/such/file.json"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        rc = run(RunConfig(command="classify", model_path=str(path)))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_budget_expiry_exits_3(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(serialize_model(gen_random_model(12, 1, 1.0, seed=0)))
        rc = run(
            RunConfig(command="classify", model_path=str(path), budget=0.0)
        )
        out = capsys.readouterr().out
        assert rc == 3
        assert "inconclusive" in out

    def test_budget_expiry_machine(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(serialize_model(gen_random_model(12, 1, 1.0, seed=0)))
        rc = run(
            RunConfig(
                command="classify", model_path=str(path), budget=0.0, machine=True
            )
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert doc["inconclusive"] is True
        assert "partial_section_count" in doc

    @pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
    def test_budget_expiry_report_bytes(self, tmp_path, capsys, machine):
        path = tmp_path / "wide.json"
        path.write_text(serialize_model(gen_random_model(12, 1, 1.0, seed=0)))
        config = RunConfig(
            command="classify", model_path=str(path), budget=0.0, machine=machine
        )
        assert run(config) == 3
        expected = (
            '{\n  "inconclusive": true,\n  "reason": "time budget exceeded",\n'
            '  "partial_section_count": 0\n}\n'
            if machine
            else "inconclusive: time budget exceeded (0 sections found before expiry)\n"
        )
        assert capsys.readouterr().out == expected


    @pytest.mark.parametrize("budget", ["-1", "nan"])
    def test_bad_budget_is_input_error(self, hardy_file, budget, capsys):
        rc = main(["classify", "--budget", budget, hardy_file])
        assert rc == 2
        assert "--budget" in capsys.readouterr().err


class TestNonFiniteProbability:
    @pytest.mark.parametrize("command", ["classify", "axioms", "bell"])
    def test_nan_is_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(NAN_DOCUMENT)
        props = tmp_path / "nan.props"
        props.write_text("a\n!a\n")
        rc = run(
            RunConfig(command=command, model_path=str(path), props_path=str(props))
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "non-finite probability" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["classify", "bell"])
    @pytest.mark.parametrize(
        "p, message",
        [
            ((-0.5, 1.5), "probabilistic[0].distribution[0].p: negative probability -0.5"),
            ((0.5, 0.6), "probabilistic[0].distribution: probabilities sum to 1.1, not 1"),
        ],
        ids=["negative", "off-total"],
    )
    def test_invalid_distribution_is_input_error(
        self, command, p, message, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["a"],
                    "contexts": [["a"]],
                    "probabilistic": [
                        {
                            "context": ["a"],
                            "distribution": [
                                {"assignment": {"a": 0}, "p": p[0]},
                                {"assignment": {"a": 1}, "p": p[1]},
                            ],
                        }
                    ],
                }
            )
        )
        props = tmp_path / "a.props"
        props.write_text("a\n")
        argv = [command, str(path)] + (["--props", str(props)] if command == "bell" else [])
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["classify", "axioms"])
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                NAN_DOCUMENT.replace("NaN", "1" + "0" * 400),
                "probabilistic[0].distribution[0].p: non-finite probability",
            ),
            (NAN_DOCUMENT.replace("NaN", "1e999"), "distribution[0].p: non-finite"),
            ("[" * 200_000, "document nests too deeply"),
        ],
        ids=["big-int", "overflow", "deep-nesting"],
    )
    def test_unreadable_document_exits_2(self, command, text, message, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", command, str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert proc.stdout == ""


class TestAxiomsCommand:
    def test_human_output(self, tmp_path, capsys):
        path = tmp_path / "lr.json"
        path.write_text(serialize_model(luce_raiffa()))
        rc = run(RunConfig(command="axioms", model_path=str(path)))
        out = capsys.readouterr().out
        assert rc == 0
        assert "weak_axiom: Fails" in out
        assert "witness: context_a={Salmon,Steak}" in out
        assert "intersection_closed: Holds" in out

    def test_machine_schema(self, hardy_file, capsys):
        rc = run(RunConfig(command="axioms", model_path=hardy_file, machine=True))
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert sorted(doc) == [
            "choice_structure",
            "intersection_closed",
            "no_signalling",
            "overlap_property",
            "weak_axiom",
        ]
        assert doc["weak_axiom"]["status"] == "Holds"

    def test_strict_flags_warp_failure(self, tmp_path):
        path = tmp_path / "lr.json"
        path.write_text(serialize_model(luce_raiffa()))
        assert run(RunConfig(command="axioms", model_path=str(path), strict=True)) == 1

    def test_strict_passes_hardy(self, hardy_file):
        # hardy is contextual but satisfies both axioms; axioms is not classify
        assert run(RunConfig(command="axioms", model_path=hardy_file, strict=True)) == 0


# sha256 of the stdout of `axioms`, `axioms --machine`, `audit` and
# `audit --machine` on each possibilistic catalog model: the order, wording
# and witnesses of both reports, byte for byte
CATALOG_STDOUT = {
    "double_headed_coin": (
        "d6f169754f5485f590a1b8de0c07a249e96c28d549404ce4c8272fbbe18bb693",
        "751bcc0a378478a1b12e05729e954b308a454d0b975066d4b1819a98d61fb467",
        "4352f6133546f9ab9aa6692883897ed949393f863e93836f3cc35db4d2d3eee4",
        "d23aec50e05998755545cd5b91295da56ed20ba46e115acdda331eda13ce6ed0",
    ),
    "hardy_table": (
        "b0609becf42c30dbb6d2ad3c7842debb21597679cc851f31c32021719092e886",
        "b6456d0a3f6d5f51325e7d1eba58a3c14de29a297f7299b648d8c9b8f02db98d",
        "b785881ace426c7f9147da3c7705455b3d91a0313cf6b576dd3e884a7fe2715f",
        "614e165f7eb1c6cf23a2ea3bcbe8a330ae35bd4d322ff665518e643d2005b1b8",
    ),
    "hardy_relabeled": (
        "b0609becf42c30dbb6d2ad3c7842debb21597679cc851f31c32021719092e886",
        "b6456d0a3f6d5f51325e7d1eba58a3c14de29a297f7299b648d8c9b8f02db98d",
        "b785881ace426c7f9147da3c7705455b3d91a0313cf6b576dd3e884a7fe2715f",
        "4f19925b1081998bee879bafa7fb41df4ee73fdf0a851a71e1402bb03e3457db",
    ),
    "pr_box": (
        "d6f169754f5485f590a1b8de0c07a249e96c28d549404ce4c8272fbbe18bb693",
        "751bcc0a378478a1b12e05729e954b308a454d0b975066d4b1819a98d61fb467",
        "dee1140f50eac97cdf4b9b8ac4b23f6c5fd73e9e2b39d2fa357d4a564ad29cb9",
        "02443400f456198d4b55e0883cfb65096adc6ba5f344a8247220a71109d121c9",
    ),
    "luce_raiffa": (
        "c77ea64ec3187091724f316d7a2651126fedceb20e0ee5dfc6b305b299d5f67e",
        "25a8f2d8a401ae7726632be09a17d64ca3089a58e82e587a04df7a4571ac52cf",
        "24939eafe24ea882b9c9c6724e3df4e232b9a69dca92c35951975522f914c438",
        "8db7d09db58286dcf68d400b1c6a396ec0156b3e79f1fb8b80a720ef84391105",
    ),
    "warp_noncontextual": (
        "7e1f705ac5a85970c0069edb0c2439a2e9580884688cfac671c59294d67263bb",
        "cd14b7a178422f19f19cba8b14c8720b36ceb2133aa5abae1629709168e29921",
        "b9f2ae68609342b8ae6b456ba3245cf0b69fb1714a4e22c798304ecaecfda089",
        "822b30e0103fba97d260fe8f054fb3587a2e85d8820e2456cfae04c9af3d2b52",
    ),
    "warp_contextual": (
        "e97c1e52085631649c1a3a05c9236bd95ac6f835516104b702a7c41a42d2a754",
        "e0eb97550fcf33808de1f024be11b7f58fb341c2339914b1cfcacd3fa5fd086f",
        "48c55cd860defae2ce5646511efb9b2810541cca731c94774830303d2cf8bd55",
        "77855364cda7b917aec8020559e0d02f8669245b6c663161c4f688b18b7cfc03",
    ),
    "warp_signalling": (
        "2c705dcc02e70056e8bc27df8c0a9c5c9d029c274732d97b8a504b140a4e7da7",
        "fe964071394ccf4a65a71e2d7e7eff1478b47a1f33ee698df12c97bdd32ee6f0",
        "d82d90ac3e31aab9606ad986d98f73d2972c1b54ff2a81db0ce791c0efc60e7e",
        "f8b2b47bc26ff934c0daef5f07cc043560ad88ea388e3e772edd72f47dad2cd9",
    ),
}


class TestCatalogReports:
    @pytest.mark.parametrize("name", CATALOG_STDOUT)
    def test_stdout_bytes_are_frozen(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_model(getattr(catalog, name)()))
        digests = []
        for argv in (["axioms"], ["axioms", "--machine"], ["audit"], ["audit", "--machine"]):
            assert main([*argv, str(path)]) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert tuple(digests) == CATALOG_STDOUT[name]


class TestAuditCommand:
    def test_human_output(self, hardy_file, capsys):
        rc = run(RunConfig(command="audit", model_path=hardy_file))
        out = capsys.readouterr().out
        assert rc == 0
        assert "region: weak axiom holds; no-signalling; contextual" in out
        assert "theorems:" in out
        assert "warp-failure-implies-contextual" in out

    def test_machine_schema(self, hardy_file, capsys):
        rc = run(RunConfig(command="audit", model_path=hardy_file, machine=True))
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert sorted(doc) == [
            "choice_structure",
            "classification",
            "intersection_closed",
            "no_signalling",
            "overlap_property",
            "theorems",
            "weak_axiom",
        ]
        assert [entry["id"] for entry in doc["theorems"]] == [
            "warp-failure-implies-contextual",
            "no-signalling-implies-warp",
            "warp-and-overlap-imply-no-signalling",
            "warp-strictly-weaker-than-no-signalling",
        ]

    def test_strict_flags_contextual(self, hardy_file):
        assert run(RunConfig(command="audit", model_path=hardy_file, strict=True)) == 1


class TestBellCommand:
    def test_violation_output(self, pr_dist_file, pr_props_file, capsys):
        rc = run(
            RunConfig(
                command="bell", model_path=pr_dist_file, props_path=pr_props_file
            )
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "formulas: 4" in out
        assert "violation: 1.0" in out

    def test_machine_output(self, pr_dist_file, pr_props_file, capsys):
        rc = run(
            RunConfig(
                command="bell",
                model_path=pr_dist_file,
                props_path=pr_props_file,
                machine=True,
            )
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc == {"formulas": 4, "violation": 1.0}

    def test_strict_flags_violation(self, pr_dist_file, pr_props_file):
        rc = run(
            RunConfig(
                command="bell",
                model_path=pr_dist_file,
                props_path=pr_props_file,
                strict=True,
            )
        )
        assert rc == 1

    def test_possibilistic_input_rejected(self, hardy_file, pr_props_file, capsys):
        rc = run(
            RunConfig(
                command="bell", model_path=hardy_file, props_path=pr_props_file
            )
        )
        assert rc == 2
        assert "probabilistic" in capsys.readouterr().err

    def test_satisfiable_family_rejected(self, tmp_path, capsys):
        dist = tmp_path / "hardy_dist.json"
        from choicectx import hardy_distribution

        dist.write_text(serialize_model(hardy_distribution()))
        props = tmp_path / "hardy.props"
        lines = [p.to_text() for p in support_propositions(hardy_table())]
        props.write_text("\n".join(lines) + "\n")
        rc = run(
            RunConfig(
                command="bell", model_path=str(dist), props_path=str(props)
            )
        )
        assert rc == 2
        assert "satisfiable" in capsys.readouterr().err

    @pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["human", "machine"])
    def test_budget_zero_exits_3(self, pr_dist_file, pr_props_file, machine, capsys):
        args = ["bell", pr_dist_file, "--props", pr_props_file, "--budget", "0"]
        rc = main(args + machine)
        out = capsys.readouterr().out
        assert rc == 3
        if machine:
            assert json.loads(out)["inconclusive"] is True
        else:
            assert out.startswith("inconclusive: time budget exceeded")

    @pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
    def test_budget_expiry_report_claims_no_sections(
        self, pr_dist_file, pr_props_file, machine, capsys
    ):
        # the Bell route counts no sections, so its report gives no count
        config = RunConfig(
            command="bell",
            model_path=pr_dist_file,
            props_path=pr_props_file,
            budget=0.0,
            machine=machine,
        )
        assert run(config) == 3
        expected = (
            '{\n  "inconclusive": true,\n  "reason": "time budget exceeded",\n'
            '  "partial_section_count": null\n}\n'
            if machine
            else "inconclusive: time budget exceeded\n"
        )
        assert capsys.readouterr().out == expected

    def test_empty_family_budget_zero_exits_3(self, pr_dist_file, tmp_path, capsys):
        # no formula to compile: the section search reads the clock first
        props = tmp_path / "empty.props"
        props.write_text("# nothing here\n")
        assert main(["bell", pr_dist_file, "--props", str(props), "--budget", "0"]) == 3
        assert capsys.readouterr().out == "inconclusive: time budget exceeded\n"

    def test_byte_order_mark_is_ignored(self, pr_dist_file, pr_props_file, tmp_path, capsys):
        props = tmp_path / "bom.props"
        props.write_bytes(b"\xef\xbb\xbf" + Path(pr_props_file).read_bytes())
        rc = main(["bell", "--machine", pr_dist_file, "--props", str(props)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"formulas": 4, "violation": 1.0}

    def test_model_byte_order_mark_is_ignored(
        self, pr_dist_file, pr_props_file, tmp_path, capsys
    ):
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(pr_dist_file).read_bytes())
        for argv in (["classify"], ["bell", "--props", pr_props_file]):
            outputs = []
            for path in (pr_dist_file, str(bom)):
                assert main([*argv, path]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1]
            assert outputs[0].out and not outputs[0].err

    def test_formula_error_is_input_error(self, pr_dist_file, tmp_path, capsys):
        props = tmp_path / "bad.props"
        props.write_text("a &\n")
        rc = run(
            RunConfig(
                command="bell", model_path=pr_dist_file, props_path=str(props)
            )
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


# the CHSH formulas over the Bell scenario: no global assignment satisfies
# all four, so a non-contextual model gives them at most 3 in all
CHSH = ["a & b | !a & !b", "a & b' | !a & !b'", "a' & b | !a' & !b", "a' & !b' | !a' & b'"]


def chsh_count(g):
    """How many of the CHSH formulas the global assignment ``g`` satisfies."""
    return (g["a"] == g["b"]) + (g["a"] == g["b'"]) + (g["a'"] == g["b"]) + (g["a'"] != g["b'"])


# the 8 global assignments that satisfy 3 of the 4
LOCAL_CHSH = [
    g
    for g in (dict(zip(["a", "a'", "b", "b'"], bits)) for bits in product((0, 1), repeat=4))
    if chsh_count(g) == 3
]


def local_chsh_mixture(weights):
    """The context marginals, summed in float, of the mixture of
    ``LOCAL_CHSH`` with ``weights``: a non-contextual model whose exact
    CHSH excess is 0."""
    scale = math.fsum(weights)
    scenario = bell_scenario()
    distributions = {}
    for context in scenario.cover:
        p = dict.fromkeys(product((0, 1), repeat=2), 0.0)
        for g, w in zip(LOCAL_CHSH, weights):
            p[tuple(g[v] for v in context)] += w / scale
        distributions[context] = [(dict(zip(context, row)), q) for row, q in p.items()]
    return ProbabilisticModel.make(scenario, distributions)


@pytest.fixture(scope="module")
def chsh_props(tmp_path_factory):
    path = tmp_path_factory.mktemp("chsh") / "chsh.props"
    path.write_text("\n".join(CHSH) + "\n")
    return path


class TestBellMargin:
    """``--strict`` counts an excess as a violation only past
    N * SUPPORT_EPSILON, the error each context's accepted total admits."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8).filter(any))
    # a mixture whose marginals, read back, once gave an excess of 4.4e-16
    @example(
        [0.9346421662649822, 0.5521910708222612, 0.9098574658614854, 0.47715640081037314,
         0.42682078707669624, 0.5886823143731551, 0.3173104658366761, 0.14939761605954083]
    )
    def test_local_chsh_mixtures_pass_strict(self, chsh_props, weights):
        path = chsh_props.with_name("local.json")
        path.write_text(serialize_model(local_chsh_mixture(weights)))
        out = io.StringIO()
        with redirect_stdout(out):
            rc = main(["bell", "--strict", "--machine", str(path), "--props", str(chsh_props)])
        assert rc == 0, out.getvalue()
        assert abs(json.loads(out.getvalue())["violation"]) <= 4 * SUPPORT_EPSILON

    def test_hardy_model_fails_strict(self, tmp_path, capsys):
        # Hardy's paradox: the first formula's event extends to no section
        path = tmp_path / "hardy.json"
        path.write_text(serialize_model(hardy_distribution()))
        props = tmp_path / "hardy.props"
        props.write_text("!a & !b\na | b'\na' | b\n!a' | !b'\n")
        assert main(["bell", "--strict", str(path), "--props", str(props)]) == 1
        assert capsys.readouterr() == ("formulas: 4\nviolation: 0.25\n", "")

    def test_pr_box_fails_strict(self, pr_dist_file, chsh_props, capsys):
        assert main(["bell", "--strict", pr_dist_file, "--props", str(chsh_props)]) == 1
        assert capsys.readouterr() == ("formulas: 4\nviolation: 1.0\n", "")


class TestGenCommand:
    def test_deterministic_bytes(self, capsys):
        config = RunConfig(
            command="gen", n_variables=6, n_contexts=4, density=0.5, seed=11
        )
        assert run(config) == 0
        first = capsys.readouterr().out
        assert run(config) == 0
        assert capsys.readouterr().out == first

    def test_output_is_a_valid_model(self, capsys):
        run(RunConfig(command="gen", n_variables=5, n_contexts=3, density=0.3, seed=2))
        model = parse_model(capsys.readouterr().out)
        assert validate_model(model).holds

    def test_closed_flag(self, capsys):
        from choicectx import intersection_closed

        run(
            RunConfig(
                command="gen",
                n_variables=6,
                n_contexts=4,
                density=0.5,
                seed=3,
                closed=True,
            )
        )
        model = parse_model(capsys.readouterr().out)
        assert intersection_closed(model.scenario).holds

    def test_bad_density_is_input_error(self, capsys):
        rc = run(
            RunConfig(
                command="gen", n_variables=3, n_contexts=2, density=1.5, seed=0
            )
        )
        assert rc == 2
        assert "density" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                "--vars 6 --contexts 4 --density 0.5 --seed 1",
                "8e5815242a8f47793a19b217c8f26e92802858a890a2a3b9031c8ebda9633d71",
            ),
            (
                "--vars 9 --contexts 5 --density 0.4 --seed 7 --closed",
                "df7f7ee3d1c32eff5fdc482542d8197a701e4fc513927ab7dc8da4ca01224c34",
            ),
            (
                "--vars 8 --contexts 3 --density 0 --seed 2",
                "2e755aaf770d8a3625b2abf278042877fccb02219732fef5e9b258af47a0fc32",
            ),
            (
                "--vars 8 --contexts 3 --density 1 --seed 3",
                "e35f5ce6d5b61f6ac5496bbb56fffbfb834b6d64fca5404deb873ebb1dac5273",
            ),
            (
                # contexts of 2 and 14 variables: the wide one is drawn as
                # 2^14 rows, decoded in blocks of 2^10
                "--vars 16 --contexts 1 --density 0.3 --seed 45",
                "e28c93f6a2183cf42165221e1482ddd03c5ed545bffea9e698761c15c147b4ec",
            ),
            (
                "--vars 12 --contexts 6 --density 0.6 --seed 1003",
                "d8484e9e85330e95eb0d5dfc82809b4651f2e00ac8cde5d63561d1c040ff8d2b",
            ),
            (
                # the size of the benchmark's docs-io gen documents (475 KB)
                "--vars 18 --contexts 11 --density 0.6 --seed 1",
                "e2eefe6ce62df184bc325bb1a3e3c725d1b418ca2aa2b1146e9f6dddea333b5d",
            ),
        ],
    )
    def test_output_bytes_are_frozen(self, capsys, args, digest):
        # digests of the stdout of ``choicectx gen`` with these arguments, as
        # recorded before events were stored as codes
        assert main(["gen", *args.split()]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_table_mass_is_bounded_before_drawing(self):
        # contexts of 6, 14, 20 and 24 variables: 2^24 + 2^20 + ... rows
        with pytest.raises(TooLarge, match="17,842,240 outcomes"):
            gen_random_model(40, 3, 0.5, seed=1)

    def test_oversized_gen_exits_2_in_bounded_memory(self):
        # unbounded, this cover used to draw tables until memory ran out
        limit = 2 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", "gen", "--vars", "40",
             "--contexts", "3", "--density", "0.5", "--seed", "1"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "over the limit of 1,048,576" in proc.stderr

    def test_closure_is_refused_once_it_passes_the_limit(self):
        # the 120 drawn contexts fit; their meets push the tables past the limit
        gen_random_model(22, 120, 0.0, seed=1)
        with pytest.raises(TooLarge, match="over the limit of 1,048,576") as info:
            gen_random_model(22, 120, 0.0, seed=1, intersection_closed=True)
        assert int(str(info.value).split()[0].replace(",", "")) > 121

    def test_oversized_closed_gen_exits_2_in_bounded_time(self):
        # the closure once ran for a minute before this cover was refused
        limit = 2 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", "gen", "--vars", "40",
             "--contexts", "36", "--density", "0.5", "--seed", "1", "--closed"],
            capture_output=True,
            text=True,
            timeout=20,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "over the limit of 1,048,576" in proc.stderr

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    @pytest.mark.parametrize(
        "n, k, digest",
        [
            (2, 10, "3b934a25ee85318ed9037d9760c5f4325226c700044079ad9205fb6da90993be"),
            (3, 50, "4f7c8557131e67a8a4ff445231771ba515414a66bb37e549aceb865b4599f2ec"),
            (4, 200, "e0fdfe910e3a23ba7ed8599cb458b55cf103c910f2a29954730aff3ee7999342"),
            (3, 20000, "63f251aed0fd5a5ab6e81157360faa45c2717e2a6a58196996f9afbcd328c0eb"),
        ],
    )
    def test_saturated_cover_bytes_are_frozen(self, capsys, n, k, closed, digest):
        # every nonempty subset is drawn well before the k-th context, so
        # the draws skipped after that must leave the tables' draws as
        # they were; digests recorded when every futile draw was made
        args = ["--vars", str(n), "--contexts", str(k), "--density", "0.5", "--seed", "1"]
        assert main(["gen", *args, *(["--closed"] if closed else [])]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @staticmethod
    def _gen_capped(*args, timeout):
        limit = 1 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run(
            [sys.executable, "-m", "choicectx", "gen", *args,
             "--density", "0.5", "--seed", "1"],
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=cap_memory,
        )

    def test_too_many_variables_exit_2_before_naming_them(self):
        # building 10^8 names once ended in a MemoryError traceback
        proc = self._gen_capped("--vars", "100000000", "--contexts", "1", timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "100,000,000 variables have at least 200,000,000 outcomes" in proc.stderr

    def test_counts_too_long_to_print_are_powers_of_two(self):
        # 2^15017 + 2^14983 outcomes: their decimal form once passed the
        # interpreter's 4,300-digit limit and ended in a ValueError
        with pytest.raises(TooLarge) as info:
            gen_random_model(30000, 1, 0.5, seed=1)
        assert str(info.value) == (
            "2 contexts of up to 15,017 variables have over 2^15017 outcomes "
            "to draw, over the limit of 1,048,576"
        )
        proc = self._gen_capped("--vars", "30000", "--contexts", "1", timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "have over 2^15017 outcomes to draw" in proc.stderr

    def test_context_counts_are_separated(self):
        with pytest.raises(TooLarge) as info:
            gen_random_model(20, 200000, 0.5, seed=1)
        assert str(info.value) == (
            "1,024 contexts of up to 17 variables have 3,528,352 outcomes "
            "to draw, over the limit of 1,048,576"
        )

    def test_variable_count_refusal_matches_the_row_limit(self):
        # one variable more than half the limit needs two rows more than it
        with pytest.raises(TooLarge, match="524,289 variables have at least 1,048,578"):
            gen_random_model((TABLE_ROWS_LIMIT >> 1) + 1, 1, 0.5, seed=1)

    def test_many_contexts_over_few_variables_end_quickly(self):
        # after the 7 nonempty subsets, each context once made 64 futile draws
        proc = self._gen_capped("--vars", "3", "--contexts", "1000000", timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert len(parse_model(proc.stdout).scenario.cover) == 7


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(serialize_model(hardy_table()))
        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", "classify", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "kind: Contextual" in proc.stdout

    def test_import_leaves_cli_and_numpy_out(self):
        code = (
            "import sys, choicectx; "
            "print('choicectx.cli' in sys.modules, 'numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_import_loads_no_submodule(self):
        code = (
            "import sys, choicectx; "
            "print(sorted(m for m in sys.modules if m.startswith('choicectx.')), "
            "'numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "False"]

    @pytest.mark.parametrize(
        "module, loaded",
        [
            # the formula parser compiles formulas with no probabilistic model
            ("proplang", ["choicectx.core", "choicectx.errors", "choicectx.proplang"]),
            # reading a probabilistic model loads no formula parser
            ("probabilistic", ["choicectx.core", "choicectx.errors", "choicectx.probabilistic"]),
        ],
    )
    def test_submodule_loads_only_its_imports(self, module, loaded):
        code = (
            f"import json, sys, choicectx.{module}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('choicectx.'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == loaded

    @pytest.mark.parametrize(
        "command, own, absent",
        [
            ("bell", "proplang", ["axioms", "contextuality", "catalog"]),
            ("classify", "contextuality", ["proplang", "axioms", "catalog"]),
            ("gen", "catalog", ["proplang", "axioms", "contextuality"]),
            ("axioms", "axioms", ["contextuality", "proplang", "catalog"]),
        ],
    )
    def test_subcommand_loads_only_its_modules(
        self, command, own, absent, pr_dist_file, pr_props_file
    ):
        args = {
            "bell": ["bell", pr_dist_file, "--props", pr_props_file],
            "classify": ["classify", pr_dist_file],
            "axioms": ["axioms", pr_dist_file],
            "gen": ["gen", "--vars", "4", "--contexts", "2", "--density", "0.5", "--seed", "1"],
        }[command]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "choicectx", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        # "import time: <self> | <cumulative> | <indented module name>"
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"choicectx.cli", f"choicectx.{own}"} <= loaded
        assert loaded.isdisjoint(f"choicectx.{name}" for name in absent)

    def test_namespace(self):
        # in a fresh interpreter, so that no other test has imported a name
        code = """if True:
            import importlib, json, sys, choicectx
            listed = sorted(set(dir(choicectx)) & set(choicectx.__all__))
            # a submodule is an attribute as the eager imports once made it
            assert choicectx.proplang is sys.modules["choicectx.proplang"]
            star = {}
            exec("from choicectx import *", star)
            del star["__builtins__"]
            homes = {}
            for name in choicectx.__all__:
                home = importlib.import_module("choicectx." + choicectx._HOME[name])
                value = getattr(choicectx, name)
                assert value is getattr(home, name) is star[name], name
                if getattr(value, "__module__", "").startswith("choicectx."):
                    assert value.__module__ == home.__name__, name
            try:
                choicectx.no_such_name
            except AttributeError as exc:
                unknown = str(exc)
            print(json.dumps([choicectx.__all__, listed, sorted(star), unknown]))
        """
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        names, listed, star, unknown = json.loads(proc.stdout)
        assert len(names) == len(set(names)) == 71
        assert listed == star == sorted(names)
        assert unknown == "module 'choicectx' has no attribute 'no_such_name'"

    def test_gen_pipes_to_classify(self, tmp_path):
        gen = subprocess.run(
            [sys.executable, "-m", "choicectx", "gen", "--vars", "4",
             "--contexts", "2", "--density", "0.7", "--seed", "5"],
            capture_output=True,
            text=True,
        )
        assert gen.returncode == 0
        path = tmp_path / "gen.json"
        path.write_text(gen.stdout)
        check = subprocess.run(
            [sys.executable, "-m", "choicectx", "audit", str(path), "--machine"],
            capture_output=True,
            text=True,
        )
        assert check.returncode == 0
        doc = json.loads(check.stdout)
        assert "classification" in doc


def singleton_model(k, events):
    """``k`` variables, each alone in its own context with ``events`` (a
    function of the variable's name) as its support."""
    names = [f"x{i:04d}" for i in range(k)]
    scenario = Scenario.make(names, [[v] for v in names])
    return PossibilisticModel.make(scenario, {(v,): events(v) for v in names})


class TestSearchLimits:
    def test_too_many_sections_exit_2_in_bounded_memory(self, tmp_path):
        # 26 free singleton contexts have 2^26 sections; holding them all
        # once ended in a MemoryError traceback under this limit
        doc = tmp_path / "free26.json"
        doc.write_text(serialize_model(singleton_model(26, lambda v: [[], [v]])))
        limit = 1 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", "classify", str(doc)],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "over 1,048,576 global sections" in proc.stderr

    def test_too_many_variables_exit_2_in_bounded_memory(self, tmp_path):
        # 2^16 singleton contexts: the bit layout alone would take about
        # 268 MB; it once ended in a MemoryError traceback under this limit
        names = [f"x{i:05d}" for i in range(1 << 16)]
        doc = tmp_path / "free65536.json"
        doc.write_text(
            json.dumps(
                {
                    "variables": names,
                    "contexts": [[v] for v in names],
                    "possibilistic": [{"context": [v], "events": [[v]]} for v in names],
                }
            )
        )
        limit = 300 << 20

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", "classify", str(doc)],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == "error: 65,536 variables are over the limit of 16,384\n"

    def test_many_singleton_contexts_compile_fast(self, tmp_path):
        # 1,000 contexts of one event each: one section; scoring every open
        # context for every free variable took about 27 s to order them
        doc = tmp_path / "single1000.json"
        doc.write_text(serialize_model(singleton_model(1000, lambda v: [[v]])))
        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", "classify", str(doc)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "kind: NonContextual\nsections: 1\n"


def support_text(model):
    """A formula file of the model's support formulas, one per cover context,
    written directly rather than through ``to_text``."""
    lines = []
    for context in model.scenario.cover:
        terms = [
            " & ".join(v if v in event else "!" + v for v in context)
            for event in model.events_sorted(context)
        ]
        lines.append(" | ".join(terms) if terms else "0")
    return "\n".join(lines) + "\n"


class TestBellInputLimits:
    @pytest.mark.parametrize(
        "deep",
        ["(" * 3000 + "a" + ")" * 3000, "!" * 3000 + "a"],
        ids=["parentheses", "negations"],
    )
    def test_deep_nesting_exits_2(self, pr_dist_file, tmp_path, deep):
        props = tmp_path / "deep.props"
        props.write_text("a & b\n" + deep + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", "bell", pr_dist_file,
             "--props", str(props)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "nests deeper than" in proc.stderr
        assert "line 2, position 100" in proc.stderr

    def test_oversized_truth_tables_exit_2_in_bounded_memory(self, tmp_path):
        # one formula over 24 variables has 2^24 truth-table rows; its
        # satisfying codes once filled memory before the search could start
        names = [f"x{i:02d}" for i in range(24)]
        s = Scenario.make(names, [names])
        model = ProbabilisticModel.make(s, {tuple(names): [({v: 0 for v in names}, 1.0)]})
        doc = tmp_path / "wide.json"
        doc.write_text(serialize_model(model))
        props = tmp_path / "wide.props"
        props.write_text(" | ".join(names) + "\n")
        limit = 1 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "choicectx", "bell", str(doc), "--props", str(props)],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "truth tables would hold 16,777,216 rows" in proc.stderr
        assert "over the limit of 1,048,576" in proc.stderr

    def test_row_counts_too_long_to_print_are_powers_of_two(self, tmp_path, capsys):
        # one formula over 14,400 variables has 2^14400 rows, a count whose
        # decimal form passes the interpreter's 4,300-digit limit on
        # converting an integer to text
        names = [f"x{i:05d}" for i in range(14400)]
        s = Scenario.make(names, [names])
        entries = [(dict.fromkeys(names, 0), 1.0)]
        model = ProbabilisticModel.make(s, {tuple(names): entries})
        doc = tmp_path / "wide.json"
        doc.write_text(serialize_model(model))
        props = tmp_path / "wide.props"
        props.write_text(" | ".join(names) + "\n")
        rc = main(["bell", "--bound", "20000", str(doc), "--props", str(props)])
        assert rc == 2
        assert capsys.readouterr() == (
            "",
            "error: the formulas' truth tables would hold over 2^14399 rows, "
            "over the limit of 1,048,576\n",
        )

    def test_wide_contexts(self, tmp_path, capsys):
        # the widest context holds 1,234 events, so its support formula is a
        # chain of 1,234 disjuncts
        model = gen_random_model(16, 10, 0.3, seed=2)
        doc = tmp_path / "wide.json"
        doc.write_text(serialize_model(uniform_over_support(model)))
        props = tmp_path / "wide.props"
        props.write_text(support_text(model))
        rc = main(["bell", "--machine", str(doc), "--props", str(props)])
        out = capsys.readouterr()
        if classify(model).kind == Kind.STRONGLY_CONTEXTUAL:
            assert rc == 0, out.err
            result = json.loads(out.out)
            assert result["formulas"] == len(model.scenario.cover)
            assert abs(result["violation"] - 1.0) <= 1e-9
        else:
            assert rc == 2
            assert "satisfiable" in out.err


@pytest.fixture(scope="module")
def bell_inputs(tmp_path_factory):
    """Probabilistic documents from the catalog and the generator, each with
    the text of its support formulas."""
    root = tmp_path_factory.mktemp("bell_fuzz")
    models = {"pr_box": pr_box_distribution(), "hardy": hardy_distribution()}
    for seed in (1, 2, 3):
        possibilistic = gen_random_model(6, 4, 0.5, seed)
        models[f"gen{seed}"] = uniform_over_support(possibilistic)
    inputs = []
    for name, model in models.items():
        path = root / f"{name}.json"
        path.write_text(serialize_model(model))
        inputs.append((str(path), support_text(support_reduction(model))))
    return root, inputs


def mutate(data, text):
    """Apply one to four random edits to a formula file."""
    for _ in range(data.draw(st.integers(1, 4))):
        edit = data.draw(st.sampled_from(["truncate", "insert", "unknown", "nest"]))
        at = data.draw(st.integers(0, len(text)))
        if edit == "truncate":
            text = text[:at]
        elif edit == "insert":
            noise = data.draw(st.text("!&|()01' ", min_size=1, max_size=3))
            text = text[:at] + noise + text[at:]
        elif edit == "unknown":
            name = data.draw(st.sampled_from(["ghost", " & z9'", "\nghost\n"]))
            text = text[:at] + name + text[at:]
        else:
            lines = text.split("\n")
            i = data.draw(st.integers(0, len(lines) - 1))
            depth = data.draw(
                st.sampled_from([MAX_NESTING - 1, MAX_NESTING + 1, 3000])
            )
            opener = data.draw(st.sampled_from(["(", "!(", "!"]))
            closer = ")" * opener.count("(")
            lines[i] = opener * depth + lines[i] + closer * depth
            text = "\n".join(lines)
    return text


class TestFormulaFileFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_formula_files_fail_cleanly(self, bell_inputs, data):
        root, inputs = bell_inputs
        model_path, text = data.draw(st.sampled_from(inputs))
        props = root / "mutated.props"
        props.write_text(mutate(data, text))
        flags = data.draw(
            st.sampled_from([[], ["--machine"], ["--strict"], ["--budget", "0"]])
        )
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["bell", model_path, "--props", str(props), *flags])
        assert rc in {0, 1, 2, 3}
        assert "Traceback" not in err.getvalue()


# ways to write one formula of a file again, each read by another path of
# the parser: parentheses, a "!" chain and the constants
REWRITES = [
    lambda text: text,
    lambda text: f"({text})",
    lambda text: f"!!({text})",
    lambda text: f"({text}) & 1",
    lambda text: f"0 | !!!(!({text}))",
]


class TestBellPrefixPath:
    """``bell`` parses each formula straight to its truth table with no node
    built; the library builds the formulas' trees.  Both must give the same
    violation, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_cli_and_library_agree_at_bell_route_size(self, tmp_path_factory, seed, data):
        try:
            model = uniform_over_support(gen_random_model(10, 7, 0.35, seed))
        except ValueError:  # a context without events has no distribution
            return
        lines = support_text(support_reduction(model)).splitlines()
        text = "# support formulas\n" + "\n".join(
            data.draw(st.sampled_from(REWRITES))(line) for line in lines
        )
        root = tmp_path_factory.mktemp("bell_prefix")
        doc, props = root / "model.json", root / "model.props"
        doc.write_text(serialize_model(model))
        props.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["bell", "--machine", str(doc), "--props", str(props)])
        try:
            violation = bell_violation(parse_propositions(text, model.scenario), model)
        except NotContradictory:
            assert rc == 2 and "jointly satisfiable" in err.getvalue()
            return
        assert rc == 0, err.getvalue()
        assert json.loads(out.getvalue())["violation"].hex() == violation.hex()

    def test_bell_builds_no_formula_node(
        self, pr_dist_file, pr_props_file, monkeypatch, capsys
    ):
        def refuse(node, *args):
            raise AssertionError(f"a {type(node).__name__} node was built")

        for kind in (And, Or, Not):
            monkeypatch.setattr(kind, "__init__", refuse)
        with pytest.raises(AssertionError):
            parse_formula("!a & b | a")  # the library still builds trees
        assert main(["bell", "--machine", pr_dist_file, "--props", pr_props_file]) == 0
        assert json.loads(capsys.readouterr().out) == {"formulas": 4, "violation": 1.0}


# a model whose one context is wider than the truth tables may be: a
# formula over all of its 21 variables has 2^21 rows
WIDE_NAMES = [f"w{i:02d}" for i in range(21)]
WIDE_LINE = " | ".join(WIDE_NAMES)
WIDE_MODEL = ProbabilisticModel.make(
    Scenario.make(WIDE_NAMES, [WIDE_NAMES]),
    {tuple(WIDE_NAMES): [({v: 0 for v in WIDE_NAMES}, 1.0)]},
)


def faulty_file(data, model, lines):
    """``lines`` of a formula file with zero to three faults, and the flags
    ``bell`` runs with: a stray character, a syntax error, an undeclared
    name, an unmeasurable line, nesting past the limit, a line too wide for
    the truth tables, a --bound under the variable count, --budget 0, or an
    undeclared name and a syntax error on one line."""
    names = model.scenario.variables
    apart = [
        f"{u} & {v}"
        for u, v in combinations(names, 2)
        if not model.scenario.contexts_containing([u, v])
    ]
    faults = ["character", "syntax", "undeclared", "nest", "bound", "budget", "combined"]
    faults += ["unmeasurable"] * bool(apart) + ["width"] * (model is WIDE_MODEL)
    lines, flags = list(lines), []
    for fault in data.draw(st.lists(st.sampled_from(faults), max_size=3)):
        i = data.draw(st.integers(0, len(lines)))  # len(lines) adds a line
        line = lines[i] if i < len(lines) else ""
        at = data.draw(st.integers(0, len(line)))
        if fault == "character":
            line = line[:at] + "$" + line[at:]
        elif fault == "syntax":
            line = line[:at] + data.draw(st.sampled_from(["&", "(", ")", "!", " a b"]))
        elif fault == "undeclared":
            line = f"{line} & ghost" if line else "ghost"
        elif fault == "nest":
            line = "(" * (MAX_NESTING + 1) + (line or "a") + ")" * (MAX_NESTING + 1)
        elif fault == "combined":
            line = "zz & ("
        elif fault == "unmeasurable":
            line = data.draw(st.sampled_from(apart))
        elif fault == "width":
            line = WIDE_LINE
        elif fault == "bound":
            flags += ["--bound", str(len(names) - 1)]
        else:
            flags += ["--budget", "0"]
        lines[i:i + 1] = [line]
    return "\n".join(lines) + "\n", flags


def library_answer(text, model, flags):
    """The exit code and message or violation of the library route,
    ``parse_propositions`` then ``bell_violation``, for ``bell``'s flags."""
    bound = int(flags[flags.index("--bound") + 1]) if "--bound" in flags else 24
    deadline = time.monotonic() - 1.0 if "--budget" in flags else None
    try:
        props = parse_propositions(text, model.scenario)
        violation = bell_violation(props, model, bound, deadline)
    except TimeBudgetExceeded:
        return 3, None
    except errors.ChoiceCtxError as exc:
        return 2, f"error: {exc}\n"
    return 0, violation.hex()


class TestBellDifferential:
    """``bell`` reads its formula file once, parsing each line straight to
    its truth table, and refuses a file in that pass.  Whatever the file and
    flags, it must answer as the library does."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["bell", "generated", "wide"]), st.integers(0, 10**6), st.data())
    def test_cli_and_library_agree_on_faulty_files(self, tmp_path_factory, kind, seed, data):
        if kind == "bell":
            model = pr_box_distribution()
            lines = support_text(support_reduction(model)).splitlines()
        elif kind == "generated":
            try:
                model = uniform_over_support(gen_random_model(10, 7, 0.35, seed))
            except ValueError:  # a context without events has no distribution
                return
            lines = support_text(support_reduction(model)).splitlines()
        else:
            model = WIDE_MODEL
            lines = ["w00 | w01", "!w00 & !w01", "w02 | !w03"]
        text, flags = faulty_file(data, model, lines)
        root = tmp_path_factory.mktemp("bell_differential")
        doc, props = root / "model.json", root / "model.props"
        doc.write_text(serialize_model(model))
        props.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["bell", "--machine", *flags, str(doc), "--props", str(props)])
        want_rc, want = library_answer(text, model, flags)
        assert rc == want_rc, err.getvalue()
        if rc == 0:
            assert json.loads(out.getvalue())["violation"].hex() == want
        elif rc == 2:
            assert err.getvalue() == want
        else:
            assert json.loads(out.getvalue())["inconclusive"] is True

    @pytest.mark.parametrize(
        "lines, flags, expected",
        [
            # the bound is checked before the total of table rows
            ([WIDE_LINE], ["--bound", "3"], "21 variables exceed the exhaustive bound of 3"),
            # the total of table rows before an expired budget
            ([WIDE_LINE], ["--budget", "0"], "would hold 2,097,152 rows"),
            (["w00", WIDE_LINE], ["--budget", "0"], "would hold 2,097,154 rows"),
            # a line's syntax before an earlier line's table rows
            ([WIDE_LINE, "zz & ("], [], "found end of input (line 2, position 6)"),
            # a line's measurement context before an expired budget, whether
            # or not an earlier line's table met the expiry
            (["ghost", "w00"], ["--budget", "0"], "unknown variable 'ghost'"),
            (["w00", "ghost"], ["--budget", "0"], "unknown variable 'ghost'"),
        ],
    )
    def test_refusal_precedence(self, tmp_path, capsys, lines, flags, expected):
        text = "\n".join(lines) + "\n"
        doc, props = tmp_path / "wide.json", tmp_path / "wide.props"
        doc.write_text(serialize_model(WIDE_MODEL))
        props.write_text(text)
        rc = main(["bell", *flags, str(doc), "--props", str(props)])
        err = capsys.readouterr().err
        assert (rc, err) == library_answer(text, WIDE_MODEL, flags)
        assert expected in err

    @pytest.mark.parametrize("flags", [[], ["--bound", "3"], ["--budget", "0"]])
    def test_a_refused_file_is_read_once(
        self, pr_dist_file, tmp_path, monkeypatch, capsys, flags
    ):
        props = tmp_path / "cut.props"
        props.write_text("# a cut last line\na & b\n!a | b\na & (\n")
        lines, tokenize = [], proplang._tokenize
        monkeypatch.setattr(
            proplang, "_tokenize", lambda text, line: lines.append(line) or tokenize(text, line)
        )
        assert main(["bell", *flags, pr_dist_file, "--props", str(props)]) == 2
        assert capsys.readouterr().err.endswith("(line 4, position 5)\n")
        assert lines == [2, 3, 4]

    def test_no_table_is_built_over_the_bound(
        self, pr_dist_file, pr_props_file, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("a truth table was built")

        monkeypatch.setattr(proplang._TableParser, "__init__", refuse)
        assert main(["bell", "--bound", "3", pr_dist_file, "--props", pr_props_file]) == 2
        assert capsys.readouterr().err == "error: 4 variables exceed the exhaustive bound of 3\n"

    def test_a_long_line_reads_the_clock_every_stride(self, pr_dist_file, tmp_path, monkeypatch, capsys):
        # a chain of 3,000 disjuncts is 5,999 tokens: the clock is read at
        # its literals at tokens 0, 924, ..., 5,544 (seven reads, each run
        # under DEADLINE_STRIDE tokens) and before its one block of rows;
        # the constant-false line after it, once before its literal and once
        # before its row, settles the family with no search
        props = tmp_path / "long.props"
        props.write_text(" | ".join(["a"] * 3000) + "\n0\n")
        reads = []
        monkeypatch.setattr(core, "time", SimpleNamespace(monotonic=lambda: reads.append(1) or 0.0))
        argv = ["bell", "--machine", "--budget", "1", pr_dist_file, "--props", str(props)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"formulas": 2, "violation": -0.5}
        assert len(reads) == 10

    def test_syntax_error_after_a_valid_line_outranks_an_expired_budget(
        self, pr_dist_file, tmp_path, capsys
    ):
        props = tmp_path / "cut.props"
        props.write_text("a & b\na & (\n")
        assert main(["bell", "--budget", "0", pr_dist_file, "--props", str(props)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expected a variable, constant, '!' or '('")
        assert err.endswith("(line 2, position 5)\n")


@pytest.fixture(scope="module")
def model_documents(tmp_path_factory):
    """Possibilistic and probabilistic documents from the catalog and the
    generator, parsed, with a formula file of each model's support
    formulas."""
    root = tmp_path_factory.mktemp("document_fuzz")
    models = {
        "hardy": hardy_table(),
        "luce_raiffa": luce_raiffa(),
        "pr_box": pr_box_distribution(),
        "hardy_dist": hardy_distribution(),
    }
    for seed in (1, 2):
        possibilistic = gen_random_model(6, 4, 0.5, seed)
        models[f"gen{seed}"] = possibilistic
        models[f"gen{seed}_dist"] = uniform_over_support(possibilistic)
    documents = []
    for name, model in models.items():
        props = root / f"{name}.props"
        if isinstance(model, PossibilisticModel):
            props.write_text(support_text(model))
        else:
            props.write_text(support_text(support_reduction(model)))
        documents.append((json.loads(serialize_model(model)), str(props)))
    return root, documents


ODD_VALUES = [None, True, 0, -1, 2, 0.5, 1e308, "", "a", "x9", [], [[]], {}, {"a": 1}]


def mutate_document(data, doc):
    """Apply one to four random edits to a parsed document: a dropped key or
    entry, an extra one, an odd value or a repeated entry."""
    for _ in range(data.draw(st.integers(1, 4))):
        nodes, todo = [], [doc]
        while todo:
            node = todo.pop()
            nodes.append(node)
            children = node.values() if isinstance(node, dict) else node
            todo += [c for c in children if isinstance(c, (dict, list))]
        node = data.draw(st.sampled_from(nodes))
        edit = data.draw(st.sampled_from(["drop", "extra", "odd", "repeat"]))
        odd = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))
        if isinstance(node, dict):
            keys = list(node) + ["extra", "p", "context", "assignment", "events"]
            key = data.draw(st.sampled_from(keys))
            if edit == "drop":
                node.pop(key, None)
            else:
                node[key] = odd
        elif node and edit != "extra":
            at = data.draw(st.integers(0, len(node) - 1))
            if edit == "drop":
                del node[at]
            elif edit == "odd":
                node[at] = odd
            else:
                node.insert(at, copy.deepcopy(node[at]))
        else:
            node.insert(data.draw(st.integers(0, len(node))), odd)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 3)) == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    return text


class TestModelDocumentFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents_fail_cleanly(self, model_documents, data):
        root, documents = model_documents
        doc, props = data.draw(st.sampled_from(documents))
        path = root / "mutated.json"
        path.write_text(mutate_document(data, copy.deepcopy(doc)))
        command = data.draw(st.sampled_from(["classify", "axioms", "audit", "bell"]))
        args = [command, str(path)] + (["--props", props] if command == "bell" else [])
        flags = data.draw(
            st.sampled_from([[], ["--machine"], ["--strict"], ["--budget", "0"]])
        )
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(args + flags)
        assert rc in {0, 1, 2, 3}
        assert "Traceback" not in err.getvalue()


class TestFlagsPerSubcommand:
    """Each subcommand takes only the flags it reads; any other is argparse's
    usage error."""

    GEN = ["gen", "--vars", "3", "--contexts", "2", "--density", "0.5", "--seed", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            GEN + ["--machine"],
            GEN + ["--strict"],
            GEN + ["--budget", "1"],
            GEN + ["--bound", "3"],
            ["classify", "m.json", "--bound", "3"],
            ["axioms", "m.json", "--bound", "3"],
            ["audit", "m.json", "--bound", "3"],
        ],
        ids=[
            "gen-machine", "gen-strict", "gen-budget", "gen-bound",
            "classify-bound", "axioms-bound", "audit-bound",
        ],
    )
    def test_flags_a_subcommand_does_not_take_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flags_each_subcommand_takes(self):
        for command in ("classify", "axioms", "audit"):
            config = parse_args([command, "m.json", "--machine", "--strict", "--budget", "2"])
            assert (config.machine, config.strict, config.budget) == (True, True, 2.0)
        config = parse_args(self.GEN)
        assert (config.machine, config.strict, config.budget) == (False, False, None)
        assert config.bound == 24

    def test_bell_bound_refuses_the_pr_box(self, pr_dist_file, pr_props_file, capsys):
        rc = main(["bell", "--bound", "3", pr_dist_file, "--props", pr_props_file])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: 4 variables exceed the exhaustive bound of 3\n"

    @pytest.mark.parametrize("command", ["classify", "axioms", "audit"])
    def test_refused_bound_before_the_model_names_its_value(self, command, capsys):
        # on either side of the model, --bound's value is not read as the
        # model path, and the model file is not named
        for argv in ([command, "--bound", "3", "m.json"], [command, "m.json", "--bound", "3"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            out, text = capsys.readouterr()
            assert out == ""
            assert text == (
                "usage: choicectx [-h] {classify,axioms,audit,bell,gen} ...\n"
                "choicectx: error: unrecognized arguments: --bound 3\n"
            )

    @pytest.mark.parametrize("command", ["classify", "axioms", "audit"])
    def test_refused_bound_stays_out_of_help_and_usage(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        help_text = capsys.readouterr().out
        assert help_text.startswith(
            f"usage: choicectx {command} [-h] [--machine] [--strict] [--budget SECONDS] model\n"
        )
        assert "--bound" not in help_text
        with pytest.raises(SystemExit) as err:
            main([command])
        assert err.value.code == 2
        assert "--bound" not in capsys.readouterr().err


def package_errors():
    """One instance of the package's base error and of each subclass."""
    return [
        errors.ChoiceCtxError("base"),
        errors.UnboundVariable("unbound"),
        errors.UnknownContext("unknown context"),
        errors.VariableNotInContext("not in context"),
        errors.DomainMismatch("domain"),
        errors.TooLarge("too large"),
        errors.TimeBudgetExceeded(),
        errors.ModelSyntaxError("syntax", 1, 2),
        errors.ModelSemanticError("semantic", "$.contexts"),
        errors.PropositionSyntaxError("formula", 3, 4),
        errors.UnknownVariable("unknown variable"),
        errors.NotMeasurable("not measurable"),
        errors.NotContradictory("satisfiable"),
    ]


class TestPackageErrorsExitCleanly:
    def test_every_subclass_is_listed(self):
        listed = {type(exc) for exc in package_errors()}
        assert listed == {errors.ChoiceCtxError, *errors.ChoiceCtxError.__subclasses__()}

    @pytest.mark.parametrize("exc", package_errors(), ids=lambda exc: type(exc).__name__)
    def test_error_from_classify(self, exc, hardy_file, monkeypatch, capsys):
        def fail(model, deadline):
            raise exc

        monkeypatch.setattr(contextuality, "classify", fail)
        rc = run(RunConfig(command="classify", model_path=hardy_file))
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if isinstance(exc, errors.TimeBudgetExceeded):
            assert rc == 3
            assert out == "inconclusive: time budget exceeded (0 sections found before expiry)\n"
        else:
            assert rc == 2
            assert (out, err) == ("", f"error: {exc}\n")


class TestRarePaths:
    def test_expiry_in_the_witness_pass_counts_every_section(
        self, hardy_file, monkeypatch, capsys
    ):
        # the search reads the clock through core's binding and finishes;
        # the witness pass reads its own, which has always expired
        sections = classify(hardy_table()).section_count
        assert sections > 0
        monkeypatch.setattr(contextuality, "past_deadline", lambda deadline: True)
        assert main(["classify", "--budget", "60", hardy_file]) == 3
        line = f"inconclusive: time budget exceeded ({sections} sections found before expiry)\n"
        assert capsys.readouterr().out == line

    def test_empty_support_warns_and_is_strongly_contextual(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["a", "b"],
                    "contexts": [["a"], ["b"]],
                    "possibilistic": [
                        {"context": ["a"], "events": [[], ["a"]]},
                        {"context": ["b"], "events": []},
                    ],
                }
            )
        )
        assert main(["classify", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == (
            "warning: context {b} has an empty support set; no global section can exist\n"
        )
        assert out == "kind: StronglyContextual\nsections: 0\n"

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--vars", "at least one variable is required"),
            ("--contexts", "at least one context is required"),
        ],
    )
    def test_gen_refuses_zero_counts(self, flag, message, capsys):
        argv = ["gen", "--vars", "3", "--contexts", "2", "--density", "0.5", "--seed", "1"]
        argv[argv.index(flag) + 1] = "0"
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_gen_refuses_a_negative_seed(self, capsys):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            gen_random_model(3, 2, 0.5, -1)
        argv = ["gen", "--vars", "3", "--contexts", "2", "--density", "0.5", "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: seed must be a nonnegative integer\n")


@pytest.fixture
def collector():
    """Restores the cyclic collector's setting after a test that changes it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def sized_runs(tmp_path_factory):
    """Per command, the argv of a run on a small and on a large generated input."""
    root = tmp_path_factory.mktemp("sized")
    runs = {command: [] for command in ("classify", "axioms", "bell", "gen")}
    # the bell sizes are strongly contextual, so that their support formulas
    # are jointly contradictory and bell exits 0
    for size, bell_size in (((6, 4, 0.5, 1), (10, 7, 0.35, 2)), ((17, 12, 0.7, 1), (14, 10, 0.3, 1))):
        name = "-".join(map(str, size))
        model = root / f"{name}.json"
        model.write_text(serialize_model(gen_random_model(*size)))
        runs["classify"].append(["classify", "--machine", str(model)])
        runs["axioms"].append(["axioms", "--machine", str(model)])
        n, k, density, seed = size
        runs["gen"].append(
            ["gen", "--vars", str(n), "--contexts", str(k), "--density", str(density), "--seed", str(seed)]
        )
        distribution = uniform_over_support(gen_random_model(*bell_size))
        prob, props = root / f"bell-{name}.json", root / f"bell-{name}.props"
        prob.write_text(serialize_model(distribution))
        props.write_text(support_text(support_reduction(distribution)))
        runs["bell"].append(["bell", "--machine", str(prob), "--props", str(props)])
    return runs


class TestCollectorPause:
    """main pauses the cyclic collector for a run and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["classify", "{hardy}"], 0),
            (["classify", "--strict", "{hardy}"], 1),
            (["classify", "{bad}"], 2),
            (["classify", "--budget", "0", "{hardy}"], 3),
        ],
        ids=["ok", "strict", "bad-document", "budget"],
    )
    def test_every_exit_restores_the_setting(
        self, argv, code, enabled, hardy_file, tmp_path, collector, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        argv = [arg.format(hardy=hardy_file, bad=bad) for arg in argv]
        gc.enable() if enabled else gc.disable()
        assert main(argv) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_a_usage_error_restores_the_setting(self, enabled, hardy_file, collector, capsys):
        gc.enable() if enabled else gc.disable()
        with pytest.raises(SystemExit) as err:
            main(["classify", "--nope", hardy_file])
        assert err.value.code == 2
        assert gc.isenabled() is enabled

    def test_the_collector_is_off_during_a_run(self, hardy_file, monkeypatch, collector, capsys):
        seen = []
        real = contextuality.classify

        def spy(model, deadline):
            seen.append(gc.isenabled())
            return real(model, deadline)

        monkeypatch.setattr(contextuality, "classify", spy)
        gc.enable()
        assert main(["classify", hardy_file]) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("command", ["classify", "axioms", "bell", "gen"])
    def test_the_garbage_a_run_leaves_does_not_grow_with_its_input(
        self, command, sized_runs, capsys
    ):
        # a run's lists are acyclic: the cyclic garbage it leaves, found by
        # the collect after it, is a fixed count whatever the input's size
        left = []
        for argv in sized_runs[command]:
            assert main(argv) == 0  # the first run of a command also imports its modules
            gc.collect()
            assert main(argv) == 0
            left.append(gc.collect())
        capsys.readouterr()
        assert left[0] == left[1]
