import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import powspec
from powspec import exact_linalg, group_core, powergraph, spectra, verify_cli
from powspec.exact_linalg import CAP_ENV_VAR, FactoredPolynomial, IntMatrix, IntPolynomial
from powspec.formulas import (
    adjacency_charpoly_formula,
    laplacian_charpoly_formula,
    laplacian_spectrum_formula,
)
from powspec.group_core import Cyclic, GroupElement, SemidihedralType
from powspec.powergraph import (
    Graph,
    build_model_graph,
    build_power_graph,
    canonical_order,
    edge_count,
    graph_diff,
    to_dot,
)
from powspec.spectra import SpectrumEntry, SpectrumSummary
from powspec.verify_cli import (
    main,
    run_verification,
    sweep,
    sweep_summary_table,
)
from reference_model import split_parts

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"


def eigensolve_calls(monkeypatch):
    """The arguments of every symmetric_eigenvalues call, as arrays."""
    solved = []
    real = spectra.symmetric_eigenvalues

    def counting(matrix):
        solved.append(np.asarray(matrix))
        return real(matrix)

    # quotient_eigenvalues looks the solver up in spectra, run_verification in verify_cli
    monkeypatch.setattr(spectra, "symmetric_eigenvalues", counting)
    monkeypatch.setattr(verify_cli, "symmetric_eigenvalues", counting)
    return solved


class TestRunVerification:
    def test_full_run_at_2_3(self, full_reports):
        report = full_reports[(2, 3)]
        assert report.status == "pass"
        assert report.counts() == {"pass": 20, "mismatch-reported": 5, "fail": 0}
        assert (report.n, report.theta, report.m_model, report.m_true) == (24, 5, 87, 77)

    def test_documented_mismatches_at_2_3(self, full_reports):
        report = full_reports[(2, 3)]
        mismatched = [
            (c.name, c.construction, c.matrix)
            for c in report.checks
            if c.status == "mismatch-reported"
        ]
        assert mismatched == [
            ("charpoly", "true", "adjacency"),
            ("charpoly", "true", "laplacian"),
            ("charpoly", "true", "signless"),
            ("laplacian-energy", None, "laplacian"),
            ("model-vs-true-diff", None, None),
        ]

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
    def test_no_failures_on_grid(self, k, p, full_reports):
        assert full_reports[(k, p)].counts()["fail"] == 0

    def test_energy_check_carries_all_three_values(self, full_reports):
        check = next(
            c for c in full_reports[(2, 3)].checks if c.name == "laplacian-energy"
        )
        assert check.claimed == "47/4"
        assert check.computed == "281/2"
        assert check.detail["without_multiplicity"] == "217/4"
        assert check.detail["mean_degree"] == "29/4"

    def test_radius_check_logs_both_variants(self, full_reports):
        checks = [c for c in full_reports[(2, 3)].checks if c.name == "radius-bounds"]
        assert {c.construction for c in checks} == {"model", "true"}
        for c in checks:
            assert c.status == "pass"
            assert c.detail["upper_shifted_radical"] > c.detail["upper_plain_radical"]

    def test_every_check_names_an_anchor(self, full_reports):
        for check in full_reports[(2, 3)].checks:
            d = check.to_dict()
            assert isinstance(d["anchor"], str) and d["anchor"]

    def test_json_is_deterministic(self):
        a = run_verification(2, 3, kinds=("laplacian",), constructions=("model",))
        b = run_verification(2, 3, kinds=("laplacian",), constructions=("model",))
        assert a.to_json() == b.to_json()
        assert a.to_json().endswith("\n")

    def test_report_validates_against_schema(self, full_reports):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        for report in full_reports.values():
            jsonschema.validate(json.loads(report.to_json()), schema)

    def test_kind_and_construction_filters(self):
        report = run_verification(2, 3, kinds=("adjacency",), constructions=("model",))
        names = {(c.name, c.matrix) for c in report.checks}
        assert ("charpoly", "adjacency") in names
        assert all(m in (None, "adjacency") for _, m in names)
        assert report.m_true is None
        with pytest.raises(ValueError):
            run_verification(2, 3, kinds=("incidence",))
        with pytest.raises(ValueError):
            run_verification(2, 3, constructions=("imagined",))

    def test_unknown_filter_messages(self):
        with pytest.raises(ValueError) as exc:
            run_verification(2, 3, kinds=("laplacian", "x"))
        assert str(exc.value) == "unknown matrix kind 'x'"
        with pytest.raises(ValueError) as exc:
            run_verification(2, 3, constructions=("model", "x"))
        assert str(exc.value) == "unknown construction 'x'"

    def test_cap_turns_heavy_checks_into_notices(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "10")
        report = run_verification(2, 3)
        assert report.counts()["fail"] == 0
        names = {c.name for c in report.checks}
        for skipped in ("charpoly", "spectrum-numeric", "radius-bounds", "split-spectra"):
            assert skipped not in names
        reason = (
            "skipped: matrix order 24 exceeds the configured cap 10; "
            f"raise {CAP_ENV_VAR} to override"
        )
        assert report.notices == (
            f"charpoly adjacency/model {reason}",
            f"charpoly laplacian/model {reason}",
            f"charpoly signless/model {reason}",
            f"charpoly adjacency/true {reason}",
            f"charpoly laplacian/true {reason}",
            f"charpoly signless/true {reason}",
            f"laplacian spectrum numeric check {reason}",
            f"radius bounds for model {reason}",
            f"radius bounds for true {reason}",
            f"split spectra {reason}",
        )

    def test_capped_run_does_no_capped_work(self, monkeypatch):
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        for name in (
            "char_poly_exact",
            "symmetric_eigenvalues",
            "quotient_eigenvalues",
            "_certify_split",
            "matrix_of",
            "_graph_twins",
        ):
            spy(verify_cli, name)
        spy(spectra, "symmetric_eigenvalues")
        spy(FactoredPolynomial, "expand")
        spy(IntPolynomial, "deflate")
        monkeypatch.setenv(CAP_ENV_VAR, "10")
        run_verification(2, 3)
        assert calls == []

    def test_trace_check_reads_the_matrix(self, monkeypatch):
        real = verify_cli._graph_shape

        def negated_laplacian(graph, kind):
            rows, diagonal, w = real(graph, kind)
            return rows, [-d for d in diagonal] if kind == "laplacian" else diagonal, w

        monkeypatch.setattr(verify_cli, "_graph_shape", negated_laplacian)
        report = run_verification(2, 3, constructions=("model",))
        traces = {c.matrix: c.status for c in report.checks if c.name == "trace"}
        assert traces == {"adjacency": "pass", "laplacian": "fail", "signless": "pass"}

    def test_structure_checks_read_the_rows(self, monkeypatch):
        calls = []

        def spy(module, name):
            real = getattr(module, name, None)

            def counting(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting, raising=False)

        for module in (exact_linalg, spectra, verify_cli):
            spy(module, "_matrix_array")
        spy(powergraph, "graph_diff")
        spy(verify_cli, "graph_diff")  # absent: catches a name imported back into verify_cli
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        report = run_verification(2, 509)  # n = 4072, past the default cap
        assert report.status == "pass" and report.notices
        assert calls == []
        run_verification(2, 3)
        assert "graph_diff" not in calls and "_matrix_array" in calls

    def test_rotation_graph_is_never_built(self, monkeypatch):
        # the radius base comes from the divisor-lattice quotient of P(C_q)
        built = []
        real = verify_cli.build_power_graph

        def spy(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(verify_cli, "build_power_graph", spy)
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        run_verification(2, 3, kinds=())
        run_verification(2, 509, kinds=())
        run_verification(2, 509)  # past the default cap: no radius check
        run_verification(2, 3)
        small, large = SemidihedralType(2, 3), SemidihedralType(2, 509)
        assert built == [small, large, large, small]  # one true graph per run

    def test_rotation_edge_dropped_in_both_groups_fails(self, monkeypatch):
        # the expected counts come from the divisor lattice, so a builder
        # bug inside <r> cannot cancel against a P(C_q) built the same way
        real = verify_cli.build_power_graph

        def dropping(spec):
            return toggled(real(spec), GroupElement(0, 1), GroupElement(0, 2))

        monkeypatch.setattr(verify_cli, "build_power_graph", dropping)
        report = run_verification(2, 3)
        status = {(c.name, c.construction): c.status for c in report.checks}
        assert status[("decomposition", "true")] == "fail"
        assert status[("model-vs-true-diff", None)] == "fail"

    def test_sign_error_in_a_claim_fails(self, monkeypatch):
        def negated(k, p):
            formula = adjacency_charpoly_formula(k, p)
            return FactoredPolynomial(-formula.scalar, formula.factors)

        monkeypatch.setattr(verify_cli, "adjacency_charpoly_formula", negated)
        report = run_verification(2, 3, kinds=("adjacency",), constructions=("model",))
        (check,) = [c for c in report.checks if c.name == "charpoly"]
        assert check.status == "fail"

    def test_each_claimed_form_is_expanded_once_per_run(self, monkeypatch):
        expanded = []
        real = FactoredPolynomial.expand

        def counting(self):
            expanded.append(self.degree)
            return real(self)

        monkeypatch.setattr(FactoredPolynomial, "expand", counting)
        run_verification(3, 3)
        assert len(expanded) == 3  # one per kind, shared by both constructions
        expanded.clear()
        run_verification(2, 3, kinds=("laplacian",), constructions=())
        assert len(expanded) == 0  # spectrum-divides reads the factors

    def test_each_matrix_is_eigensolved_once_per_run(self, monkeypatch):
        solved = eigensolve_calls(monkeypatch)
        run_verification(2, 3)
        # one order-n solve, the model Laplacian; lambda1 of the model and
        # of the true graph from their 5 x 5 and 8 x 8 twin quotients, the
        # split parts' 5 x 5 quotients in one stack, and the 6 x 6
        # divisor-lattice quotient of P(C_12); the split's whole matrix is
        # the model adjacency, whose lambda1 is already solved
        assert sorted(a.shape for a in solved) == [(3, 5, 5), (5, 5), (6, 6), (8, 8), (24, 24)]
        members = [m.tobytes() for a in solved for m in (a if a.ndim == 3 else [a])]
        assert len(set(members)) == len(members) == 7  # no matrix solved twice
        (laplacian,) = [a for a in solved if a.shape[-1] == 24]
        model = build_model_graph(2, 3)
        assert np.array_equal(laplacian, exact_linalg._matrix_array(model, "laplacian"))

    @pytest.mark.parametrize(
        "kinds,constructions,shapes",
        [
            (("laplacian",), ("model", "true"), [(24, 24)]),
            (("laplacian",), ("true",), []),
            (("adjacency",), ("true",), [(6, 6), (8, 8)]),
            (("adjacency",), ("model",), [(3, 5, 5), (5, 5)]),
            (("signless",), ("model", "true"), []),
            (("adjacency", "laplacian"), ("model",), [(3, 5, 5), (5, 5), (24, 24)]),
        ],
    )
    def test_stack_holds_only_the_checked_matrices(self, monkeypatch, kinds, constructions, shapes):
        solved = eigensolve_calls(monkeypatch)
        run_verification(2, 3, kinds=kinds, constructions=constructions)
        assert sorted(a.shape for a in solved) == shapes

    def test_each_claim_array_and_parameter_set_is_built_once(self, monkeypatch):
        calls = Counter()

        def spy(name):
            real = getattr(verify_cli, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(verify_cli, name, counting)

        for name in (
            "adjacency_charpoly_formula",
            "laplacian_charpoly_formula",
            "signless_charpoly_formula",
            "_matrix_array",
            "ModelParameters",
        ):
            spy(name)
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        run_verification(2, 3)
        # one claim per kind serves charpoly, spectrum-divides and both
        # constructions; the one array is the model laplacian of
        # spectrum-numeric, as lambda1 comes from the twin quotients
        assert calls == {
            "adjacency_charpoly_formula": 1,
            "laplacian_charpoly_formula": 1,
            "signless_charpoly_formula": 1,
            "_matrix_array": 1,
            "ModelParameters": 1,
        }

    @pytest.mark.parametrize(
        "swaps,rows,diff_fails",
        [
            # drop r ~ r^2, add r^2 ~ r^3: every count inside <r> is kept
            pytest.param([((0, 1), (0, 2)), ((0, 2), (0, 3))], 3, False, id="inside-rotations"),
            # drop s r ~ s r^7, its pair partner; add s r ~ s r^3, a non-partner
            pytest.param([((1, 1), (1, 7)), ((1, 1), (1, 3))], 3, True, id="flip-to-non-partner"),
            # re-pair two flip pairs crosswise: s r ~ s r^9 and s r^3 ~ s r^7
            pytest.param(
                [((1, 1), (1, 7)), ((1, 3), (1, 9)), ((1, 1), (1, 9)), ((1, 3), (1, 7))],
                4,
                True,
                id="flip-pairs-crosswise",
            ),
        ],
    )
    def test_count_preserving_swap_fails(self, swaps, rows, diff_fails, monkeypatch, full_reports):
        # each swap keeps the edge count; only the lattice identity sees one
        # inside <r>, where the true charpolys are mismatch-reported by
        # design and the diff keeps its size.  A swap between flips also
        # moves the diff outside <r>, which fails it too.
        real = verify_cli.build_power_graph
        toggles = [(GroupElement(*x), GroupElement(*y)) for x, y in swaps]

        def swapped(spec):
            g = real(spec)
            for x, y in toggles:
                g = toggled(g, x, y)
            return g

        honest = real(SemidihedralType(2, 3))
        assert edge_count(swapped(SemidihedralType(2, 3))) == edge_count(honest)
        monkeypatch.setattr(verify_cli, "build_power_graph", swapped)
        report = run_verification(2, 3)

        def statuses(r):
            return {(c.name, c.construction, c.matrix): c.status for c in r.checks}

        before, after = statuses(full_reports[(2, 3)]), statuses(report)
        assert len(after) == len(report.checks) and after.keys() == before.keys()
        changed = {key for key in after if after[key] != before[key]}
        want = {("decomposition", "true", None)}
        if diff_fails:
            want.add(("model-vs-true-diff", None, None))
        assert changed == want and {after[key] for key in changed} == {"fail"}
        (check,) = [c for c in report.checks if c.name == "decomposition" and c.construction == "true"]
        assert check.computed == f"{rows} rows differ from the lattice graph"
        pairs = {frozenset(pair.split(" ~ ")) for pair in check.detail["missing"] + check.detail["extra"]}
        assert pairs == {frozenset(map(str, toggle)) for toggle in toggles}

    def test_int_matrices_are_built_only_for_the_exact_route(self, monkeypatch):
        built = []
        real = IntMatrix.from_array.__func__

        def counting(cls, a):
            built.append(a.shape[0])
            return real(cls, a)

        monkeypatch.setattr(IntMatrix, "from_array", classmethod(counting))
        run_verification(2, 3)
        assert built == []  # char_poly_exact reads the graph, never the rows
        m = exact_linalg.matrix_of(build_model_graph(2, 3), "laplacian")
        assert m.rows == m.rows and built == [24]  # written on the first read only

    def test_walk_that_never_closes_is_an_error(self, monkeypatch, capsys):
        real = group_core._product
        calls = itertools.count()

        def absorbing(q, theta, x, y):
            # s s = s: the powers of a flip never return to the identity
            if next(calls) > 10**6:
                raise RuntimeError("the walk is not bounded")  # fail rather than hang
            a, b = real(q, theta, x, y)
            return x[0] | y[0], b

        monkeypatch.setattr(group_core, "_product", absorbing)
        assert main(["verify", "--k", "2", "--p", "5"]) == 2
        assert "do not return to the identity in 40 steps" in capsys.readouterr().err
        (report,) = sweep([2], [5], kinds=())
        (check,) = report.checks
        assert check.name == "execution" and check.status == "fail"
        assert "ArithmeticError" in check.detail["traceback"]

    def test_canonical_order_is_built_once_per_group(self):
        canonical_order.cache_clear()
        run_verification(2, 3)
        assert canonical_order.cache_info().misses == 1  # the spec; no P(C_q) is built

    @pytest.mark.parametrize("kinds", [(), verify_cli.MATRIX_KINDS], ids=["structure", "full"])
    def test_the_prediction_is_made_once_per_run(self, kinds):
        # both builders and both graphs' decomposition checks read the
        # lattice prediction; the run computes it once
        cache = powergraph._lattice
        cache.cache_clear()
        run_verification(2, 3, kinds=kinds)
        info = cache.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (1, 1, 1)
        prediction = powergraph._lattice(SemidihedralType(2, 3))
        assert type(prediction) is tuple and all(type(part) is tuple for part in prediction)
        # the next group's prediction replaces it, so one group's is kept at most
        run_verification(2, 5, kinds=kinds)
        assert cache.cache_info().currsize == 1
        assert powergraph._lattice(SemidihedralType(2, 3)) is not prediction


# every (k, p) of the twisted family with n = 2^(k+1) p <= 256
PAIRS_UNDER_CAP = [
    (k, p)
    for k, ps in {
        2: (3, 5, 7, 11, 13, 17, 19, 23, 29, 31),
        3: (3, 5, 7, 11, 13),
        4: (3, 5, 7),
        5: (3,),
    }.items()
    for p in ps
]


X_MINUS_1 = IntPolynomial((-1, 1))


def diff_check(k, p, model, true):
    """The model-vs-true-diff check of a run at (k, p) given these graphs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_cli, "build_model_graph", lambda k, p: model)
        mp.setattr(verify_cli, "build_power_graph", lambda spec: true)
        checks = run_verification(k, p, kinds=()).checks
    (check,) = [c for c in checks if c.name == "model-vs-true-diff"]
    return check


def reference_diff_check(model, true):
    """The diff check as it reads off graph_diff's label pairs."""
    q = model.n // 2
    diff = graph_diff(model, true)
    inside = all(x.a == 0 and y.a == 0 and x.b != 0 and y.b != 0 for x, y in diff)
    expected = math.comb(q, 2) - edge_count(build_power_graph(Cyclic(q)))
    if not diff:
        status = "pass"
    elif len(diff) == expected and inside:
        status = "mismatch-reported"
    else:
        status = "fail"
    computed = f"{len(diff)} differing edges, all inside rotations: {inside}"
    sample = [f"{x} ~ {y}" for x, y in diff[:8]]
    return status, computed, {"expected_from_counts": expected, "sample": sample}


def toggled(g, x, y):
    """g with the edge x ~ y added if absent, removed if present."""
    i, j = g.index_of(x), g.index_of(y)
    rows = [g.row_mask(v) for v in range(g.n)]
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    return Graph(g.labels, tuple(rows))


class TestDiffCheck:
    """The model-vs-true-diff check reads the XOR of the packed rows."""

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_matches_graph_diff(self, k, p):
        model, true = build_model_graph(k, p), build_power_graph(SemidihedralType(k, p))
        check = diff_check(k, p, model, true)
        assert (check.status, check.computed, check.detail) == reference_diff_check(model, true)
        assert check.status == "mismatch-reported"

    @pytest.mark.parametrize(
        "x,y",
        [
            # an edge from an order-2 flip to a rotation other than e and u
            (GroupElement(1, 0), GroupElement(0, 1)),
            # an edge from an order-4 flip to a rotation other than e and u
            (GroupElement(1, 1), GroupElement(0, 2)),
            # a rotation edge of the true graph dropped: the count is one off
            (GroupElement(0, 1), GroupElement(0, 2)),
        ],
        ids=str,
    )
    def test_mutated_true_graph_fails(self, x, y):
        model, true = build_model_graph(2, 3), build_power_graph(SemidihedralType(2, 3))
        mutated = toggled(true, x, y)
        check = diff_check(2, 3, model, mutated)
        assert check.status == "fail"
        assert (check.status, check.computed, check.detail) == reference_diff_check(model, mutated)

    def test_graphs_that_equal_the_lattice_read_it(self, monkeypatch):
        # the pass path makes no XOR rows: verify_decomposition runs once
        # per graph and returns [], the graphs' diff never runs, and the
        # 19 reports keep their bytes
        def forbidden(*args):
            raise AssertionError("a passing run made XOR rows")

        for module in (powergraph, verify_cli):
            monkeypatch.setattr(module, "_diff_rows", forbidden)
        calls = []
        real = verify_cli.verify_decomposition

        def spy(g, k, p, construction):
            diff = real(g, k, p, construction)
            calls.append((k, p, construction, diff))
            return diff

        monkeypatch.setattr(verify_cli, "verify_decomposition", spy)
        text = "".join(run_verification(k, p, kinds=()).to_json() for k, p in PAIRS_UNDER_CAP)
        assert calls == [(k, p, c, []) for k, p in PAIRS_UNDER_CAP for c in ("model", "true")]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "61a68d9fd6ee8e14508772c3481a403038d1110241a6e4e23c190c0ca3b47623"
        )

    def test_a_graph_off_the_lattice_diffs_the_graphs(self, monkeypatch):
        # one flip-e edge dropped from the model: its decomposition fails, and
        # the diff is the XOR of the two graphs, with that edge outside <r>
        model = toggled(build_model_graph(2, 3), GroupElement(0, 0), GroupElement(1, 0))
        true = build_power_graph(SemidihedralType(2, 3))
        diffed = []
        real = verify_cli._diff_rows
        monkeypatch.setattr(verify_cli, "_diff_rows", lambda g1, g2: diffed.append(1) or real(g1, g2))
        monkeypatch.setattr(verify_cli, "build_model_graph", lambda k, p: model)
        checks = {(c.name, c.construction): c for c in run_verification(2, 3, kinds=()).checks}
        assert checks["decomposition", "model"].status == "fail"
        assert checks["decomposition", "true"].status == "pass"
        check = checks["model-vs-true-diff", None]
        assert diffed == [1]
        assert (check.status, check.computed, check.detail) == reference_diff_check(model, true)
        assert check.computed == "11 differing edges, all inside rotations: False"

    def test_model_against_itself_passes(self):
        model = build_model_graph(2, 5)
        check = diff_check(2, 5, model, model)
        assert (check.status, check.computed, check.detail) == reference_diff_check(model, model)
        assert check.status == "pass" and check.detail["sample"] == []


def split_check(k, p):
    """The split-spectra check of a model adjacency run at (k, p)."""
    report = run_verification(k, p, kinds=("adjacency",), constructions=("model",))
    (check,) = [c for c in report.checks if c.name == "split-spectra"]
    return check


def mutated_model(monkeypatch, mutation):
    """Make the run's model graph the built one with the edges of
    mutation(q), index pairs, toggled."""
    real = verify_cli.build_model_graph

    def build(k, p):
        g = real(k, p)
        rows = list(g._rows)
        for i, j in mutation(g.n // 2):
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
        return Graph(g.labels, rows)

    monkeypatch.setattr(verify_cli, "build_model_graph", build)


# e = 0, u = 1, another rotation 2, the first order-4 flip pair q and
# q + 1, the first order-2 flip q + q/2 and the last 2q - 1
def quad_pair_edge_dropped(q):
    return [(q, q + 1)]


def quad_pair_edge_moved_to_a_rotation(q):
    return [(q, q + 1), (q, 2)]


def rotation_flat_edge_added(q):
    return [(2, q + q // 2)]


def star_leaf_moved_to_u(q):
    return [(0, 2 * q - 1), (1, 2 * q - 1)]


def pendants_dropped(q):
    # every part stays equitable, but the star keeps q/2 of its q edges
    return [(0, j) for j in range(q + q // 2, 2 * q)]


def result_bits(results):
    """Eigenvalues and residuals as float.hex strings, so that == is bit for bit."""
    return [(tuple(map(float.hex, r.eigenvalues)), float.hex(r.residual)) for r in results]


class TestStackedSolves:
    """A stack gives, bit for bit, the results of single solves: three
    order-n matrices, and the split's quotients, the stack a run makes."""

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_order_n_stack_is_the_single_solves(self, k, p):
        model, true = build_model_graph(k, p), build_power_graph(SemidihedralType(k, p))
        arrays = np.array(
            [
                exact_linalg._matrix_array(model, "adjacency"),
                exact_linalg._matrix_array(true, "adjacency"),
                exact_linalg._matrix_array(model, "laplacian"),
            ],
            dtype=float,
        )
        stacked = spectra.symmetric_eigenvalues(arrays)
        single = [spectra.symmetric_eigenvalues(a) for a in arrays]
        assert result_bits(stacked) == result_bits(single)

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_split_quotient_stack_is_the_single_solves(self, k, p):
        problems, counts = powergraph._certify_split(build_model_graph(k, p))
        assert not problems and list(counts) == ["star", "rest", "clique+star"]
        stacked = spectra.quotient_eigenvalues(list(counts.values()))
        single = [spectra.quotient_eigenvalues(c) for c in counts.values()]
        assert result_bits(stacked) == result_bits(single)


class TestSplitSpectra:
    """split-spectra reads clique, star and rest off the model graph's
    rows, and their 5 x 5 quotients."""

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_agrees_with_the_dense_split(self, k, p):
        check = split_check(k, p)
        assert check.status == "pass"
        clique, star, rest = map(exact_linalg._unpack, split_parts(SemidihedralType(k, p)))
        full = spectra.symmetric_eigenvalues(clique + star + rest).eigenvalues
        star = spectra.symmetric_eigenvalues(star).eigenvalues
        rest = spectra.symmetric_eigenvalues(rest).eigenvalues
        tol = verify_cli.NUMERIC_TOL * 2 ** (k + 1) * p
        got = check.detail
        assert abs(got["star_extremes"][0] - star[0]) <= tol
        assert abs(got["star_extremes"][1] - star[-1]) <= tol
        assert abs(got["rest_peak"] - rest[-1]) <= tol
        assert abs(got["full_peak"] - full[-1]) <= tol

    @pytest.mark.parametrize(
        "mutation,problem",
        [
            (quad_pair_edge_dropped, "rest part is not equitable on the five classes"),
            (quad_pair_edge_moved_to_a_rotation, "rest part is not equitable on the five classes"),
            (rotation_flat_edge_added, "rest part is not equitable on the five classes"),
            (star_leaf_moved_to_u, "star part is not equitable on the five classes"),
            (pendants_dropped, "star spectrum is not {+-sqrt(q), 0}"),
        ],
        ids=lambda v: getattr(v, "__name__", "problem"),
    )
    def test_mutated_model_graphs_fail(self, monkeypatch, capsys, mutation, problem):
        mutated_model(monkeypatch, mutation)
        check = split_check(2, 3)
        assert check.status == "fail"
        assert problem in check.computed.split("; ")
        assert main(["verify", "--k", "2", "--p", "3"]) == 1
        out = capsys.readouterr().out
        assert "[fail] split-spectra" in out and "[fail] decomposition (model)" in out

    def test_a_part_off_the_classes_is_named(self, monkeypatch):
        mutated_model(monkeypatch, quad_pair_edge_moved_to_a_rotation)
        check = split_check(2, 3)
        # the clique and the star read only rotation pairs and e's flip
        # edges, so the moved edge lands in the rest alone
        assert check.computed == "rest part is not equitable on the five classes"
        assert check.detail["rest_peak"] is None


class TestSpectralRadius:
    """lambda1 of each graph comes from its proved twin quotient: it is the
    dense solve's radius, and no order-n matrix is solved for it."""

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_quotient_lambda1_is_the_dense_radius(self, monkeypatch, k, p):
        graphs = {
            "model": build_model_graph(k, p),
            "true": build_power_graph(SemidihedralType(k, p)),
        }
        dense = {
            cname: spectra.symmetric_eigenvalues(exact_linalg._matrix_array(g, "adjacency"))
            for cname, g in graphs.items()
        }
        dense = {cname: result.radius for cname, result in dense.items()}
        solved = eigensolve_calls(monkeypatch)
        report = run_verification(k, p, kinds=("adjacency",))
        assert solved and max(a.shape[-1] for a in solved) < 2 ** (k + 1) * p
        radius_checks = [c for c in report.checks if c.name == "radius-bounds"]
        lam1 = {c.construction: float(c.computed) for c in radius_checks}
        (split,) = [c for c in report.checks if c.name == "split-spectra"]
        assert lam1.keys() == dense.keys()
        for cname, radius in dense.items():
            assert abs(lam1[cname] - radius) <= 1e-12 * radius
        assert abs(split.detail["full_peak"] - dense["model"]) <= 1e-12 * dense["model"]

    @pytest.mark.parametrize("k,p", [(2, 3), (4, 3)])
    def test_twins_are_proved_once_per_graph(self, monkeypatch, k, p):
        proved = []
        real = exact_linalg._proved_twins

        def counting(rows, diagonal, w):
            proved.append(rows)
            return real(rows, diagonal, w)

        monkeypatch.setattr(exact_linalg, "_proved_twins", counting)
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        report = run_verification(k, p)
        assert report.counts() == {"pass": 20, "mismatch-reported": 5, "fail": 0}
        model, true = build_model_graph(k, p), build_power_graph(SemidihedralType(k, p))
        assert proved == [model._rows, true._rows]


class TestReportBytes:
    """Report bytes over the family under the cap, pinned where they do not
    depend on the eigensolver, and every other byte is exact.
    spectrum-numeric's float fields come from the order-n solve of the
    model Laplacian and move in their last digits with the BLAS thread
    count.  radius-bounds and split-spectra read only quotient solves of
    order 2k + 4 at most, which gave the same bytes under 1 and 2
    OpenBLAS threads (a CI step compares them), but another BLAS build may
    still move their last digits, so all three stay out of the hash."""

    FLOAT_CHECKS = {"radius-bounds", "split-spectra", "spectrum-numeric"}

    @staticmethod
    def family(**kwargs):
        """sweep over PAIRS_UNDER_CAP, one call per k, ordered by k and then p."""
        by_k = {}
        for k, p in PAIRS_UNDER_CAP:
            by_k.setdefault(k, []).append(p)
        return [r for k, ps in sorted(by_k.items()) for r in sweep([k], ps, **kwargs)]

    def test_structure_reports(self, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        text = "".join(r.to_json() for r in self.family(kinds=()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "61a68d9fd6ee8e14508772c3481a403038d1110241a6e4e23c190c0ca3b47623"
        )

    def test_full_reports_without_float_checks(self, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        texts = []
        for report in self.family():
            data = report.to_dict()
            data["checks"] = [c for c in data["checks"] if c["name"] not in self.FLOAT_CHECKS]
            texts.append(verify_cli._json(data))
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
            "d8df38ddb7b37de53f388eeb506bc19186d37102e36e5caac56d83e3c3a1eff2"
        )


def moved_multiplicity(spectrum):
    """One unit of multiplicity moved from eigenvalue 1 to eigenvalue 2."""
    moved = {1: -1, 2: 1}
    return SpectrumSummary(
        tuple(SpectrumEntry(v, m + moved.get(v, 0)) for v, m in spectrum.pairs())
    )


def eigenvalue_off_by_one(spectrum):
    """The largest eigenvalue 2q claimed as 2q + 1."""
    *rest, (top, mult) = spectrum.pairs()
    return SpectrumSummary(
        tuple(SpectrumEntry(v, m) for v, m in rest) + (SpectrumEntry(top + 1, mult),)
    )


def negated_scalar(claim):
    return FactoredPolynomial(-claim.scalar, claim.factors)


def quadratic_factor(claim):
    """Two of the (x - 1) factors written as one factor x^2 - 2x + 1."""
    factors = [(b, e - 2) if b == X_MINUS_1 else (b, e) for b, e in claim.factors]
    return FactoredPolynomial(claim.scalar, (*factors, (X_MINUS_1 * X_MINUS_1, 1)))


def non_monic_factor(claim):
    """The (x - 1) factors written as (2x - 1): a linear factor, but not x - r."""
    two_x_minus_1 = IntPolynomial((-1, 2))
    factors = [(two_x_minus_1, e) if b == X_MINUS_1 else (b, e) for b, e in claim.factors]
    return FactoredPolynomial(claim.scalar, tuple(factors))


def deflation_verdict(claim, spectrum):
    """The expand-and-deflate route, kept as the reference for spectrum-divides."""
    quotient = claim.expand()
    try:
        for value, mult in spectrum.pairs():
            for _ in range(mult):
                quotient = quotient.deflate(int(value))
    except ValueError:
        return "fail"
    return "pass" if quotient.coeffs == (1,) else "fail"


def spectrum_divides(monkeypatch, k, p, claim=None, spectrum=None):
    """The spectrum-divides check of one run, with the claims replaced as given."""
    if claim is not None:
        monkeypatch.setattr(verify_cli, "laplacian_charpoly_formula", lambda k, p: claim)
    if spectrum is not None:
        monkeypatch.setattr(verify_cli, "laplacian_spectrum_formula", lambda k, p: spectrum)
    report = run_verification(k, p, kinds=("laplacian",), constructions=())
    (check,) = [c for c in report.checks if c.name == "spectrum-divides"]
    return check


class TestSpectrumDivides:
    def test_pass_text(self, monkeypatch):
        check = spectrum_divides(monkeypatch, 2, 3)
        assert check.status == "pass"
        assert check.computed == "all claimed eigenvalues divide out, quotient 1"
        assert check.detail == {"total_multiplicity": 24}

    def test_moved_multiplicity_fails(self, monkeypatch):
        spectrum = moved_multiplicity(laplacian_spectrum_formula(2, 3))
        check = spectrum_divides(monkeypatch, 2, 3, spectrum=spectrum)
        assert check.status == "fail"
        assert check.computed == (
            "eigenvalue 1: multiplicity 5 in the table, 6 in the factors; "
            "eigenvalue 2: multiplicity 4 in the table, 3 in the factors"
        )

    def test_eigenvalue_off_by_one_fails(self, monkeypatch):
        spectrum = eigenvalue_off_by_one(laplacian_spectrum_formula(2, 3))
        check = spectrum_divides(monkeypatch, 2, 3, spectrum=spectrum)
        assert check.status == "fail"
        assert check.computed == (
            "eigenvalue 24: multiplicity 0 in the table, 1 in the factors; "
            "eigenvalue 25: multiplicity 1 in the table, 0 in the factors"
        )

    def test_negated_scalar_fails(self, monkeypatch):
        claim = negated_scalar(laplacian_charpoly_formula(2, 3))
        check = spectrum_divides(monkeypatch, 2, 3, claim=claim)
        assert check.status == "fail"
        assert check.computed == "claim scalar -1"

    def test_quadratic_factor_fails(self, monkeypatch):
        claim = quadratic_factor(laplacian_charpoly_formula(2, 3))
        assert claim.expand() == laplacian_charpoly_formula(2, 3).expand()
        check = spectrum_divides(monkeypatch, 2, 3, claim=claim)
        assert check.status == "fail"
        assert check.computed == (
            "factor (x^2 - 2*x + 1) is not x - r; "
            "eigenvalue 1: multiplicity 6 in the table, 4 in the factors"
        )

    def test_non_monic_linear_factor_fails(self, monkeypatch):
        claim = non_monic_factor(laplacian_charpoly_formula(2, 3))
        check = spectrum_divides(monkeypatch, 2, 3, claim=claim)
        assert check.status == "fail"
        assert check.computed == (
            "factor (2*x - 1) is not x - r; "
            "eigenvalue 1: multiplicity 6 in the table, 0 in the factors"
        )

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_agrees_with_deflation(self, monkeypatch, k, p):
        claim, spectrum = laplacian_charpoly_formula(k, p), laplacian_spectrum_formula(k, p)
        cases = [
            (claim, spectrum),
            (claim, moved_multiplicity(spectrum)),
            (claim, eigenvalue_off_by_one(spectrum)),
            (negated_scalar(claim), spectrum),
            (non_monic_factor(claim), spectrum),
        ]
        for case_claim, case_spectrum in cases:
            check = spectrum_divides(monkeypatch, k, p, case_claim, case_spectrum)
            assert check.status == deflation_verdict(case_claim, case_spectrum)
        assert deflation_verdict(claim, spectrum) == "pass"
        # the one claim the factor count is stricter on: same expansion, not split
        assert deflation_verdict(quadratic_factor(claim), spectrum) == "pass"
        assert spectrum_divides(monkeypatch, k, p, quadratic_factor(claim)).status == "fail"


class TestSweep:
    def test_grid(self):
        reports = sweep([2, 3], [3, 5], kinds=())
        assert [r.n for r in reports] == [24, 40, 48, 80]
        assert all(r.status == "pass" for r in reports)

    def test_one_shot_iterables_give_every_pair(self):
        reports = sweep(iter([2, 3]), (p for p in (3, 5)), kinds=())
        assert [(r.k, r.p) for r in reports] == [(2, 3), (2, 5), (3, 3), (3, 5)]

    def test_empty_p_list(self):
        assert sweep([2, 3], []) == []

    def test_rejects_bad_parameters_upfront(self):
        with pytest.raises(ValueError):
            sweep([2], [9])
        with pytest.raises(ValueError):
            sweep([1], [3])

    @pytest.mark.parametrize("kinds", [(), verify_cli.MATRIX_KINDS], ids=["structure", "all-kinds"])
    def test_parallel_matches_serial(self, kinds):
        # all kinds send the float fields of spectrum-numeric, radius-bounds
        # and split-spectra through the spawned workers
        serial = sweep([2], [3, 5], kinds=kinds)
        parallel = sweep([2], [3, 5], kinds=kinds, jobs=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "ks,ps,name,value",
        [([2], [3, 3], "ps", 3), ([2, 3, 2], [5], "ks", 2)],
        ids=["repeated-p", "repeated-k"],
    )
    def test_rejects_a_repeated_value_up_front(self, ks, ps, name, value, jobs, monkeypatch):
        # a repeated value would run its pairs twice; no pair runs and no pool starts
        import multiprocessing

        def forbidden(*args):
            raise AssertionError("the sweep started work")

        monkeypatch.setattr(verify_cli, "_sweep_one", forbidden)
        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        with pytest.raises(ValueError, match=f"^{name} repeats the value {value}$"):
            sweep(ks, ps, kinds=(), jobs=jobs)

    def test_rejects_jobs_below_one(self, capsys):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                sweep([2], [3], kinds=(), jobs=jobs)
        assert main(["sweep", "--k", "2", "--p", "3", "--jobs", "0"]) == 2
        assert "jobs must be at least 1, got 0" in capsys.readouterr().err

    def test_error_isolation(self, monkeypatch):
        real = run_verification

        def fake(k, p, kinds=(), constructions=()):
            if (k, p) == (2, 5):
                raise RuntimeError("boom")
            return real(k, p, kinds=kinds, constructions=constructions)

        monkeypatch.setattr(verify_cli, "run_verification", fake)
        reports = verify_cli.sweep([2], [3, 5], kinds=())
        assert reports[0].status == "pass"
        assert reports[1].status == "fail"
        assert reports[1].checks[0].name == "execution"
        assert "boom" in reports[1].checks[0].detail["traceback"]

    def test_summary_table(self):
        table = sweep_summary_table(sweep([2], [3], kinds=()))
        assert table == "k p n pass mismatch fail status\n2 3 24 6 1 0 pass\n"


class TestCliExitCodes:
    def test_verify_ok(self, capsys):
        assert main(["verify", "--k", "2", "--p", "3", "--matrix", "laplacian"]) == 0
        out = capsys.readouterr().out
        assert "status: pass" in out
        assert "[mismatch-reported] laplacian-energy" in out

    def test_verify_out_writes_the_report_first(self, capsys, tmp_path):
        argv = ["verify", "--k", "2", "--p", "3", "--matrix", "laplacian"]
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == run_verification(2, 3, kinds=("laplacian",)).to_json()
        assert "status: pass" in capsys.readouterr().out
        # a failed write exits 2 before the summary is printed
        assert main([*argv, "--out", str(tmp_path / "missing" / "report.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "No such file or directory" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--k", "2", "--p", "3"],
            ["sweep", "--k", "2", "--p", "3,5,7"],
            ["export", "--what", "graph", "--format", "dot", "--k", "2", "--p", "3"],
            ["export", "--what", "spectrum", "--format", "csv", "--k", "2", "--p", "3"],
            ["export", "--what", "formula", "--format", "json", "--k", "2", "--p", "3"],
            ["formulas", "--k", "2", "--p", "3"],
        ],
        ids=["verify", "sweep", "export graph", "export spectrum", "export formula", "formulas"],
    )
    def test_out_into_a_missing_directory_exits_before_any_work(self, argv, monkeypatch, capsys, tmp_path):
        work = []

        def no_work(*args, **kwargs):
            work.append(args)
            raise AssertionError("a command worked before checking its --out directory")

        # sweep catches what a run raises, so the calls are counted too
        for name in ("run_verification", "build_model_graph", "laplacian_spectrum_formula", "_charpoly_forms"):
            monkeypatch.setattr(verify_cli, name, no_work)
        (tmp_path / "file.txt").write_text("")
        before = sorted(tmp_path.rglob("*"))
        # a file in a missing directory, a directory, the empty path, a
        # missing directory with a trailing slash, a path under a regular
        # file, and a regular file with a trailing slash: the message is the
        # one opening the path would give, and no file is left behind
        for out in (
            str(tmp_path / "missing" / "report.json"),
            str(tmp_path),
            "",
            str(tmp_path / "missing") + "/",
            str(tmp_path / "file.txt" / "x"),
            str(tmp_path / "file.txt") + "/",
        ):
            with pytest.raises(OSError) as opened:
                open(out, "w")
            assert main([*argv, "--out", out]) == 2
            captured = capsys.readouterr()
            assert work == [] and captured.out == ""
            assert captured.err == f"powspec: error: {opened.value}\n"
            assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="root writes into a directory whatever its permission bits",
    )
    def test_out_into_an_unwritable_directory_exits_before_any_work(self, monkeypatch, capsys, tmp_path):
        def no_work(*args, **kwargs):
            raise AssertionError("verify worked before checking its --out directory")

        monkeypatch.setattr(verify_cli, "run_verification", no_work)
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            out = str(locked / "report.json")
            with pytest.raises(PermissionError) as opened:
                open(out, "w")
            assert main(["verify", "--k", "2", "--p", "3", "--out", out]) == 2
            assert capsys.readouterr().err == f"powspec: error: {opened.value}\n"
            assert list(locked.iterdir()) == []
        finally:
            locked.chmod(0o700)

    def test_a_failed_command_leaves_the_out_path_as_it_was(self, capsys, tmp_path):
        kept, new, link = tmp_path / "kept.json", tmp_path / "new.json", tmp_path / "link.json"
        kept.write_bytes(b"an earlier report\n")
        link.symlink_to(tmp_path / "target.json")  # dangling
        for out in (kept, new, link):
            assert main(["verify", "--k", "2", "--p", "9", "--out", str(out)]) == 2
            assert "powspec: error: " in capsys.readouterr().err
        assert kept.read_bytes() == b"an earlier report\n"
        assert not new.exists()
        assert link.is_symlink() and not (tmp_path / "target.json").exists()

    def test_invalid_p_is_usage_error(self, capsys):
        assert main(["verify", "--k", "2", "--p", "9"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "p", ["318665857834031151167461", "3317044064679887385961981"]
    )
    def test_strong_pseudoprime_p_is_usage_error(self, p, monkeypatch, capsys):
        def unreachable(k, p):
            raise AssertionError("accepted p; formulas would expand a polynomial of degree n")

        monkeypatch.setattr(verify_cli, "laplacian_spectrum_formula", unreachable)
        assert main(["formulas", "--k", "2", "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("powspec: error: ")

    def test_missing_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--k", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main([])

    def test_unsupported_export_combination(self, capsys):
        rc = main(["export", "--what", "formula", "--format", "csv", "--k", "2", "--p", "3"])
        assert rc == 2
        assert "json only" in capsys.readouterr().err

    def test_sweep_cli(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--k", "2..3", "--p", "3", "--matrix", "laplacian",
                   "--construction", "model", "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0] == "k p n pass mismatch fail status"
        assert len(table.splitlines()) == 3
        payload = json.loads(out.read_text())
        assert [r["params"]["n"] for r in payload] == [24, 48]

    def test_sweep_cli_rejects_empty_grid(self, capsys):
        for argv in (["--k", "3..2", "--p", "3"], ["--k", "2", "--p", ""]):
            assert main(["sweep", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("powspec: error: empty (k, p) grid")

    @pytest.mark.parametrize(
        "k,p,flag,token",
        [("a", "3", "--k", "a"), ("2..b", "3", "--k", "b"), ("2,3", "5,x", "--p", "x")],
    )
    def test_sweep_cli_names_a_non_integer_token(self, k, p, flag, token, capsys):
        assert main(["sweep", "--k", k, "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"powspec: error: {flag} {token!r} is not an integer\n"

    @pytest.mark.parametrize(
        "k,p,name,value",
        [("2", "3,3", "ps", 3), ("2,3,2", "3", "ks", 2), ("2..3", "3,5,03", "ps", 3)],
    )
    def test_sweep_cli_names_a_repeated_token(self, k, p, name, value, capsys):
        # a repeated pair would run twice and print two rows; sweep refuses it
        assert main(["sweep", "--k", k, "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"powspec: error: {name} repeats the value {value}\n"

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_malformed_cap_is_usage_error(self, command, monkeypatch, capsys):
        # refused before either graph is built
        built = []
        monkeypatch.setattr(verify_cli, "build_model_graph", lambda k, p: built.append("model"))
        monkeypatch.setattr(verify_cli, "build_power_graph", lambda spec: built.append("true"))
        monkeypatch.setenv(CAP_ENV_VAR, "abc")
        assert main([command, "--k", "2", "--p", "3"]) == 2
        captured = capsys.readouterr()
        assert built == [] and captured.out == ""
        assert captured.err == (
            f"powspec: error: {CAP_ENV_VAR} must be an integer, got 'abc'\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--k", "30"],
            ["sweep", "--k", "2,30"],
            ["export", "--what", "graph", "--format", "dot", "--construction", "true", "--k", "30"],
            ["export", "--what", "graph", "--format", "json", "--k", "30"],
        ],
        ids=["verify", "sweep", "export true graph", "export model graph"],
    )
    def test_an_order_past_the_graph_limit_is_usage_error(self, argv, monkeypatch, capsys):
        built = []

        def no_graph(spec):
            built.append(spec)
            raise AssertionError("a graph was built past the graph-order limit")

        # every graph build starts with the labels
        monkeypatch.setattr(powergraph, "canonical_order", no_graph)
        assert main([*argv, "--p", "3"]) == 2
        captured = capsys.readouterr()
        assert built == [] and captured.out == ""
        assert captured.err == (
            "powspec: error: group order 6442450944 exceeds the graph-order limit "
            f"MAX_GRAPH_ORDER = {powergraph.MAX_GRAPH_ORDER}\n"
        )

    def test_range_and_list_parsing(self):
        assert verify_cli._parse_k_range("2..4") == [2, 3, 4]
        assert verify_cli._parse_k_range("2,5") == [2, 5]
        assert verify_cli._parse_int_list("3,5,7") == [3, 5, 7]


class TestCliExports:
    def test_graph_dot_matches_library(self, tmp_path):
        out = tmp_path / "g.dot"
        args = ["export", "--what", "graph", "--format", "dot", "--k", "2", "--p", "3",
                "--construction", "true", "--out", str(out)]
        assert main(args) == 0
        first = out.read_text()
        assert first == to_dot(build_power_graph(SemidihedralType(2, 3)))
        assert main(args) == 0
        assert out.read_text() == first

    def test_graph_json(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["export", "--what", "graph", "--format", "json", "--k", "2",
                     "--p", "3", "--construction", "model", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 24 and not data["directed"]
        assert len(data["edges"]) == 87
        assert data["labels"][0] == "s^0 r^0"
        assert data["labels"][1] == "s^0 r^6"

    def test_spectrum_csv(self, capsys):
        assert main(["export", "--what", "spectrum", "--format", "csv",
                     "--k", "2", "--p", "3"]) == 0
        out = capsys.readouterr().out
        assert out == "value,multiplicity\n0,1\n1,6\n2,3\n4,3\n12,9\n18,1\n24,1\n"

    def test_spectrum_json(self, capsys):
        assert main(["export", "--what", "spectrum", "--format", "json",
                     "--k", "2", "--p", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pairs"] == [[0, 1], [1, 10], [2, 5], [4, 5], [20, 17], [30, 1], [40, 1]]

    @pytest.mark.parametrize("what,fmt", [("formula", "json"), ("spectrum", "csv"), ("spectrum", "json")])
    def test_closed_forms_of_the_true_graph_are_refused(self, what, fmt, capsys):
        argv = ["export", "--what", what, "--format", fmt, "--k", "2", "--p", "3"]
        assert main([*argv, "--construction", "true"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"powspec: error: {what} export has no closed form for --construction true: "
            "only the model has claimed closed forms\n"
        )
        # the model, the default, is unchanged
        assert main([*argv, "--construction", "model"]) == 0
        model = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == model != ""

    def test_formula_json(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["export", "--what", "formula", "--format", "json", "--k", "2",
                     "--p", "3", "--matrix", "adjacency", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["expanded"]) == 25
        assert [e for _, e in data["factored"]["factors"]] == [5, 12, 2, 1]
        assert data["expanded"][-1] == 1

    def test_formulas_dump(self, tmp_path):
        out = tmp_path / "all.json"
        assert main(["formulas", "--k", "2", "--p", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["laplacian_energy"] == "47/4"
        assert data["m_model"] == 87
        assert set(data["charpoly"]) == {"adjacency", "laplacian", "signless"}
        assert all(len(v["expanded"]) == 25 for v in data["charpoly"].values())

    def test_formulas_bytes_at_2_3(self, monkeypatch, capsys):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        assert main(["formulas", "--k", "2", "--p", "3"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "8afa18008998032996c34ba220a385d052a641f81b06848fca56071b0f428a81"
        )

    def test_formulas_past_the_cap_expand_nothing(self, monkeypatch, capsys):
        # p = 2^61 - 1: an expansion of degree n = 8p would never finish
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        expanded = []
        monkeypatch.setattr(FactoredPolynomial, "expand", lambda self: expanded.append(self))
        p = "2305843009213693951"
        assert main(["formulas", "--k", "2", "--p", p]) == 0
        charpoly = json.loads(capsys.readouterr().out)["charpoly"]
        for kind in ("adjacency", "laplacian", "signless"):
            assert charpoly[kind]["expanded"] is None
            assert charpoly[kind]["factored"]["factors"]
            assert main(["export", "--what", "formula", "--format", "json", "--k", "2",
                         "--p", p, "--matrix", kind]) == 0
            data = json.loads(capsys.readouterr().out)
            assert {"factored": data["factored"], "expanded": data["expanded"]} == charpoly[kind]
        assert expanded == []

    @pytest.mark.parametrize("cap,expanded", [("24", True), ("23", False)])
    def test_formulas_expand_up_to_the_cap(self, cap, expanded, monkeypatch, capsys):
        monkeypatch.setenv(CAP_ENV_VAR, cap)
        assert main(["formulas", "--k", "2", "--p", "3"]) == 0
        charpoly = json.loads(capsys.readouterr().out)["charpoly"]
        assert [v["expanded"] is not None for v in charpoly.values()] == [expanded] * 3

    def test_formula_export_matches_formulas_dump(self, capsys):
        assert main(["formulas", "--k", "2", "--p", "3"]) == 0
        charpoly = json.loads(capsys.readouterr().out)["charpoly"]
        for kind in ("adjacency", "laplacian", "signless"):
            assert main(["export", "--what", "formula", "--format", "json", "--k", "2",
                         "--p", "3", "--matrix", kind]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["matrix"] == kind
            assert {"factored": data["factored"], "expanded": data["expanded"]} == charpoly[kind]


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("powspec")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "verify", "--k", "2", "--p", "3", "--matrix", "laplacian",
             "--construction", "model"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "status: pass" in proc.stdout


def test_import_leaves_the_process_pool_out():
    # only sweep(jobs > 1) imports the pool machinery
    src_dir = str(Path(powspec.__file__).resolve().parent.parent)
    code = (
        "import sys, powspec.verify_cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src_dir},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestModuleEntryPoint:
    """python -m powspec.verify_cli runs the same CLI as the console script."""

    module = "powspec.verify_cli"

    def run_module(self, *args):
        src_dir = str(Path(powspec.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src_dir + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, "-m", self.module, *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_valid_pair_passes(self):
        proc = self.run_module("verify", "--k", "2", "--p", "3")
        assert proc.returncode == 0
        assert any(line.startswith("status: pass") for line in proc.stdout.splitlines())

    def test_invalid_p_exits_2(self):
        proc = self.run_module("verify", "--k", "2", "--p", "4")
        assert proc.returncode == 2
        assert "error" in proc.stderr


class TestPackageEntryPoint(TestModuleEntryPoint):
    """python -m powspec runs the same CLI, without runpy's RuntimeWarning
    about a submodule imported by the package before it runs as __main__."""

    module = "powspec"

    def run_module(self, *args):
        proc = super().run_module(*args)
        assert "RuntimeWarning" not in proc.stderr
        return proc
