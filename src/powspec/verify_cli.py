"""Verification runner, structured reports, and the powspec command line.

Check statuses are three-valued on purpose.  pass and fail mean what they
say; mismatch-reported marks the places where the claimed closed forms
are known not to line up with a direct computation (the energy constant
and the clique-versus-true-graph gap), so those documented discrepancies
stay visible without drowning out genuine regressions.  Exit codes:
0 when nothing failed, 1 when any check failed, 2 on usage or runtime
errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exact_linalg import (
    IntPolynomial,
    MatrixCapExceeded,
    _check_cap,
    _graph_shape,
    _graph_twins,
    _matrix_array,
    char_poly_exact,
    matrix_of,
    matrix_order_cap,
)
from .formulas import (
    ModelParameters,
    adjacency_charpoly_formula,
    laplacian_charpoly_formula,
    laplacian_energy_formula,
    laplacian_spectrum_formula,
    signless_charpoly_formula,
    spectral_radius_bounds,
)
from .group_core import SemidihedralType, validate_parameters, validate_presentation
from .powergraph import (
    _certify_split,
    _check_graph_order,
    _diff_rows,
    _label_pairs,
    _lattice,
    build_model_graph,
    build_power_graph,
    edge_count,
    to_dot,
    verify_decomposition,
)
from .spectra import (
    NUMERIC_TOL,
    cluster_multiplicities,
    laplacian_energy,
    quotient_eigenvalues,
    spectrum_to_csv,
    summaries_match,
    symmetric_eigenvalues,
)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_MISMATCH = "mismatch-reported"

MATRIX_KINDS = ("adjacency", "laplacian", "signless")
CONSTRUCTIONS = ("model", "true")
CLUSTER_TOL = 1e-6

# Fixed registry tying each check to the closed-form claim it exercises.
_ANCHORS = {
    ("presentation", None): "group-presentation",
    ("vertex-count", None): "order-count",
    ("edge-count", None): "edge-count-closed-form",
    ("trace", None): "trace-identities",
    ("charpoly", "adjacency"): "adjacency-charpoly-closed-form",
    ("charpoly", "laplacian"): "laplacian-charpoly-closed-form",
    ("charpoly", "signless"): "signless-charpoly-closed-form",
    ("spectrum-divides", "laplacian"): "laplacian-spectrum-table",
    ("spectrum-numeric", "laplacian"): "laplacian-spectrum-table",
    ("laplacian-energy", "laplacian"): "laplacian-energy-closed-form",
    ("decomposition", None): "pendant-quad-decomposition",
    ("model-vs-true-diff", None): "clique-model-comparison",
    ("radius-bounds", "adjacency"): "spectral-radius-bracket",
    ("split-spectra", "adjacency"): "adjacency-split-spectra",
    ("execution", None): "runner",
}


def _anchor(name: str, matrix: str | None) -> str:
    return _ANCHORS.get((name, matrix)) or _ANCHORS[(name, None)]


def _json(data) -> str:
    """The one JSON text format of every report and export."""
    return json.dumps(data, indent=2) + "\n"


def _fmt(v):
    if v is None:
        return None
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class Check:
    name: str
    status: str
    construction: str | None = None
    matrix: str | None = None
    computed: str | None = None
    claimed: str | None = None
    tolerance: str | None = None
    detail: dict | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": _anchor(self.name, self.matrix),
            "construction": self.construction,
            "matrix": self.matrix,
            "status": self.status,
            "tolerance": self.tolerance,
            "computed": self.computed,
            "claimed": self.claimed,
            "detail": self.detail,
        }


def _equal(name: str, got, want, **scope) -> Check:
    """The check that got == want, both written by _fmt; scope names the
    construction and matrix."""
    status = STATUS_PASS if got == want else STATUS_FAIL
    return Check(name=name, status=status, computed=_fmt(got), claimed=_fmt(want), **scope)


@dataclass
class VerificationReport:
    k: int
    p: int
    n: int
    theta: int
    m_model: int | None
    m_true: int | None
    checks: tuple[Check, ...] = ()
    notices: tuple[str, ...] = ()

    def counts(self) -> dict:
        out = {STATUS_PASS: 0, STATUS_MISMATCH: 0, STATUS_FAIL: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def status(self) -> str:
        return STATUS_FAIL if self.counts()[STATUS_FAIL] else STATUS_PASS

    def to_dict(self) -> dict:
        return {
            "schema": "powspec-report-v1",
            "params": {
                "k": self.k,
                "p": self.p,
                "n": self.n,
                "theta": self.theta,
                "m_model": self.m_model,
                "m_true": self.m_true,
            },
            "status": self.status,
            "counts": self.counts(),
            "notices": list(self.notices),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return _json(self.to_dict())


def _normalize(values, known: tuple[str, ...], what: str) -> tuple[str, ...]:
    """values in the order of known; a ValueError names the first unknown one."""
    values = tuple(values)
    for v in values:
        if v not in known:
            raise ValueError(f"unknown {what} {v!r}")
    return tuple(v for v in known if v in values)


def _charpoly_formula(kind: str, k: int, p: int):
    return {
        "adjacency": adjacency_charpoly_formula,
        "laplacian": laplacian_charpoly_formula,
        "signless": signless_charpoly_formula,
    }[kind](k, p)


def _poly_difference_detail(computed, claimed) -> dict:
    pairs = itertools.zip_longest(computed.coeffs, claimed.coeffs, fillvalue=0)
    diffs = [d for d, (a, b) in enumerate(pairs) if a != b]
    return {
        "degree_computed": computed.degree,
        "degree_claimed": claimed.degree,
        "differing_coefficients": len(diffs),
        "lowest_differing_degree": diffs[0] if diffs else None,
    }


class _Run:
    """What every check family of one run reads, each part made once.

    The claims are the factored closed forms, one per kind; a family
    expands one only when it compares against it.  skip(what) turns a
    heavy check into a notice past the matrix-order cap, decided once
    before either graph is built.
    """

    def __init__(self, k: int, p: int, kinds, constructions) -> None:
        self.k, self.p = k, p
        self.spec = SemidihedralType(k, p)
        self.mp = ModelParameters(k, p)
        self.kinds = _normalize(kinds, MATRIX_KINDS, "matrix kind")
        constructions = _normalize(constructions, CONSTRUCTIONS, "construction")
        # every matrix a run writes has order n, every quotient it solves is smaller
        try:
            _check_cap(self.mp.vertex_count)
            self.cap = None
        except MatrixCapExceeded as exc:
            self.cap = exc
        self.graphs = {}
        if "model" in constructions:
            self.graphs["model"] = build_model_graph(k, p)
        if "true" in constructions:
            self.graphs["true"] = build_power_graph(self.spec)
        self.m_counts = {name: edge_count(g) for name, g in self.graphs.items()}
        self.claims = {kind: _charpoly_formula(kind, k, p) for kind in self.kinds}
        self.notices: list[str] = []

    def skip(self, what: str) -> bool:
        """True, with a notice naming what, when the run is past the cap."""
        if self.cap:
            self.notices.append(f"{what} skipped: {self.cap}")
        return bool(self.cap)


def _counts(run: _Run):
    """The presentation, and the vertex and edge counts of each graph."""
    mp = run.mp
    pres = validate_presentation(run.spec)
    yield Check(
        name="presentation",
        status=STATUS_PASS if pres.ok else STATUS_FAIL,
        computed=", ".join(f"{i.name}={'ok' if i.ok else 'FAIL'}" for i in pres.items),
        claimed="all relations hold",
    )
    for cname, g in run.graphs.items():
        yield _equal("vertex-count", g.n, mp.vertex_count, construction=cname)
    if "model" in run.graphs:
        yield _equal("edge-count", run.m_counts["model"], mp.model_edge_count, construction="model")


def _traces(run: _Run):
    """Trace identities, exact, on the diagonal D of _graph_shape, read off the rows."""
    for cname, g in run.graphs.items():
        for kind in run.kinds:
            want = 0 if kind == "adjacency" else 2 * run.m_counts[cname]
            got = sum(_graph_shape(g, kind)[1])
            yield _equal("trace", got, want, construction=cname, matrix=kind)


def _charpolys(run: _Run):
    """Characteristic polynomials against the claimed closed forms, exact.

    The model matrices are the ones the claims describe; the true power
    graph is expected to deviate (clique assumption), so an inequality
    there is reported as a mismatch rather than a failure.  Each claim is
    expanded and written out once, for its first comparison; each
    IntMatrix is built as the argument of its one call.
    """
    expanded: dict[str, tuple[IntPolynomial, str]] = {}
    for cname, g in run.graphs.items():
        for kind in run.kinds:
            if run.skip(f"charpoly {kind}/{cname}"):
                continue
            if kind not in expanded:
                expanded[kind] = run.claims[kind].expand(), str(run.claims[kind])
            claimed_poly, claimed_text = expanded[kind]
            computed_poly = char_poly_exact(matrix_of(g, kind))
            if computed_poly == claimed_poly:
                status = STATUS_PASS
                computed = "matches the claimed expansion"
                detail = {"degree": computed_poly.degree}
            else:
                status = STATUS_MISMATCH if cname == "true" else STATUS_FAIL
                computed = "differs from the claimed expansion"
                detail = _poly_difference_detail(computed_poly, claimed_poly)
            yield Check(
                name="charpoly",
                construction=cname,
                matrix=kind,
                status=status,
                computed=computed,
                claimed=claimed_text,
                detail=detail,
            )


def _laplacian(run: _Run):
    """The Laplacian spectrum table against the claimed factors and the
    model's eigensolve, and the claimed energy against its recomputations."""
    if "laplacian" not in run.kinds:
        return
    mp = run.mp
    # the claim splits into factors x - r; their roots, with exponents, must be the table
    spectrum = laplacian_spectrum_formula(run.k, run.p)
    claim = run.claims["laplacian"]
    problems = [] if claim.scalar == 1 else [f"claim scalar {claim.scalar}"]
    roots = Counter()
    for base, e in claim.factors:
        if base.degree == 1 and base.leading == 1:
            roots[-base.coeffs[0]] += e
        else:
            problems.append(f"factor ({base}) is not x - r")
    table = Counter(dict(spectrum.pairs()))
    problems += [
        f"eigenvalue {v}: multiplicity {table[v]} in the table, {roots[v]} in the factors"
        for v in sorted(roots.keys() | table.keys())
        if roots[v] != table[v]
    ]
    yield Check(
        name="spectrum-divides",
        matrix="laplacian",
        status=STATUS_FAIL if problems else STATUS_PASS,
        computed="; ".join(problems) or "all claimed eigenvalues divide out, quotient 1",
        claimed="spectrum exhausts the polynomial with multiplicities",
        detail={"total_multiplicity": spectrum.total},
    )

    if "model" in run.graphs and not run.skip("laplacian spectrum numeric check"):
        # the run's one order-n eigensolve: a numeric cross-check of the table
        eig = symmetric_eigenvalues(_matrix_array(run.graphs["model"], "laplacian"))
        scale = max(1.0, max(abs(v) for v in eig.eigenvalues))
        clustered = cluster_multiplicities(eig.eigenvalues, CLUSTER_TOL * scale)
        ok, dev = summaries_match(clustered, spectrum, NUMERIC_TOL * scale)
        yield Check(
            name="spectrum-numeric",
            construction="model",
            matrix="laplacian",
            status=STATUS_PASS if ok else STATUS_FAIL,
            computed=f"{len(clustered.entries)} clusters, max deviation {dev:.3e}",
            claimed=str(list(spectrum.pairs())),
            tolerance=_fmt(NUMERIC_TOL * scale),
            detail={
                "residual": eig.residual,
                "multiplicities": [e.multiplicity for e in clustered.entries],
            },
        )

    # energy investigation: claimed constant vs both recomputations
    claimed_energy = laplacian_energy_formula(run.k, run.p)
    with_mult = laplacian_energy(spectrum, mp.model_edge_count, mp.vertex_count, True)
    without_mult = laplacian_energy(spectrum, mp.model_edge_count, mp.vertex_count, False)
    yield Check(
        name="laplacian-energy",
        matrix="laplacian",
        status=STATUS_PASS if with_mult == claimed_energy else STATUS_MISMATCH,
        computed=_fmt(with_mult),
        claimed=_fmt(claimed_energy),
        detail={
            "with_multiplicity": _fmt(with_mult),
            "without_multiplicity": _fmt(without_mult),
            "mean_degree": _fmt(Fraction(2 * mp.model_edge_count, mp.vertex_count)),
        },
    )


def _structure(run: _Run):
    """Each graph against the graph its divisor lattice predicts, then the
    model-vs-true diff, which reads the lattice when both graphs equal it.

    A graph passes decomposition when its rows equal the predicted rows
    (powergraph.verify_decomposition), and then it has the claimed census,
    which is printed as computed; a graph that differs names how many rows
    differ and lists up to 8 of its missing and of its extra edges."""
    mp = run.mp
    q = mp.rotation_order
    diffs = {}  # empty for a graph that equals its prediction
    for cname, g in run.graphs.items():
        diff = diffs[cname] = verify_decomposition(g, run.k, run.p, cname)
        rows = len(diff) - diff.count(0)
        expected_rotation = math.comb(q, 2) if cname == "model" else mp.rotation_edge_count
        claimed = (
            f"pendants={mp.half_rotation}, quads={mp.quarter_rotation}, "
            f"rotation_edges={expected_rotation}, uncovered=0"
        )
        detail = None
        if rows:
            extra = list(map(operator.and_, diff, g._rows))
            missing = list(map(operator.xor, diff, extra))
            detail = {"missing": _sample(g.labels, missing), "extra": _sample(g.labels, extra)}
        yield Check(
            name="decomposition",
            construction=cname,
            status=STATUS_FAIL if rows else STATUS_PASS,
            computed=f"{rows} rows differ from the lattice graph" if rows else claimed,
            claimed=claimed,
            detail=detail,
        )

    if "model" not in run.graphs or "true" not in run.graphs:
        return
    # XOR rows; they are symmetric, so testing every row tests both ends
    model = run.graphs["model"]
    diff = _diff_rows(model, run.graphs["true"]) if any(diffs.values()) else _lattice(run.spec)[1]
    size = sum(map(int.bit_count, diff)) // 2
    expected_size = math.comb(q, 2) - mp.rotation_edge_count
    # verify_decomposition refuses a graph off the canonical order, in which
    # vertices 1 .. q - 1 are the rotations other than the identity
    outside_rotations = ~((1 << q) - 2)
    inside_rotations = not any(map(operator.and_, diff, itertools.repeat(outside_rotations)))
    if not size:
        status = STATUS_PASS
    elif size == expected_size and inside_rotations:
        status = STATUS_MISMATCH
    else:
        status = STATUS_FAIL
    yield Check(
        name="model-vs-true-diff",
        status=status,
        computed=f"{size} differing edges, all inside rotations: {inside_rotations}",
        claimed="constructions coincide (clique assumption)",
        detail={
            "expected_from_counts": expected_size,
            "sample": _sample(model.labels, diff),
        },
    )


def _sample(labels, rows) -> list[str]:
    """The first 8 edges "x ~ y" set in the symmetric rows."""
    return [f"{x} ~ {y}" for x, y in itertools.islice(_label_pairs(labels, rows), 8)]


def _radius(run: _Run):
    """The spectral radius bracket of each construction, then the model's
    split spectra, which read the same model lambda1.

    lambda1 is solved once per graph, on K, the quotient of its proved
    twin cells (exact_linalg._graph_twins, which char_poly_exact shares).
    A P = P K for the cell indicators P and A >= 0, so the top eigenvalue
    of K is that of A (see quotient_eigenvalues): the same lambda1 as a
    dense solve of A, from (2k + 4)^2 entries at most."""
    if "adjacency" not in run.kinds:
        return
    q = run.mp.rotation_order
    lambda1 = {}
    for cname, g in run.graphs.items():
        if run.skip(f"radius bounds for {cname}"):
            continue
        _, twin_counts, _ = _graph_twins(g)
        lam1 = lambda1[cname] = quotient_eigenvalues(twin_counts).eigenvalues[-1]
        if cname == "model":
            base = float(q - 1)
        else:
            # lambda1 of P(C_q), the true graph inside <r>: the top
            # eigenvalue of its divisor-lattice quotient, built by no builder
            _, counts = run.mp.rotation_quotient
            base = quotient_eigenvalues(counts).eigenvalues[-1]
        bounds = spectral_radius_bounds(run.k, run.p, base)
        tol = NUMERIC_TOL * max(1.0, lam1)
        ok = bounds.lower < lam1 <= bounds.upper_shifted_radical + tol
        yield Check(
            name="radius-bounds",
            construction=cname,
            matrix="adjacency",
            status=STATUS_PASS if ok else STATUS_FAIL,
            computed=_fmt(lam1),
            claimed=f"{_fmt(bounds.lower)} < lambda1 <= {_fmt(bounds.upper_shifted_radical)}",
            tolerance=_fmt(tol),
            detail={
                "base": bounds.lower,
                "upper_plain_radical": bounds.upper_plain_radical,
                "upper_shifted_radical": bounds.upper_shifted_radical,
                "within_plain_variant": lam1 <= bounds.upper_plain_radical + tol,
            },
        )
    if "model" in run.graphs and not run.skip("split spectra"):
        yield _split_spectra_check(run, lambda1["model"])


# the check families in report order; each yields its checks and may add notices
_FAMILIES = (_counts, _traces, _charpolys, _laplacian, _structure, _radius)


def run_verification(
    k: int,
    p: int,
    kinds: Iterable[str] = MATRIX_KINDS,
    constructions: Iterable[str] = CONSTRUCTIONS,
) -> VerificationReport:
    """Run every applicable check for one (k, p) and assemble a report.

    kinds narrows which matrix families are exercised; an empty tuple
    keeps only the counting, decomposition, and diff checks, which makes
    large sweeps cheap.  Past the matrix-order cap, the exact and numeric
    checks are skipped with a notice, decided once before their work.
    """
    run = _Run(k, p, kinds, constructions)
    checks = [check for family in _FAMILIES for check in family(run)]
    return VerificationReport(
        k=k,
        p=p,
        n=run.mp.vertex_count,
        theta=run.mp.twist,
        m_model=run.m_counts.get("model"),
        m_true=run.m_counts.get("true"),
        checks=tuple(checks),
        notices=tuple(run.notices),
    )


def _split_spectra_check(run: _Run, full_peak: float) -> Check:
    """The additive split behind the radius bound, clique + star + rest,
    read off the model graph's rows by powergraph._certify_split: star,
    rest and clique+star must each be equitable on the five
    canonical-order classes, or the check fails by name.  A Perron vector
    x >= 0 of a part A with A P = P K gives the eigenvector P^T x >= 0 of
    K^T, so the top eigenvalue of A is that of its 5 x 5 quotient (one
    quotient_eigenvalues call for all three).  The star's quotient gives
    +-sqrt(q), and its q edges, all at e, so counted by class e's row of
    its K, give trace(A^2) = 2q, so its other n - 2 eigenvalues are 0.
    The rest must peak at (1 + sqrt(1 + 2q)) / 2, and the top eigenvalues
    must be subadditive against full_peak, the model's lambda1, which
    _radius read off its twin quotient; the caller skips this past the
    matrix cap."""
    q = run.mp.rotation_order
    problems, counts = _certify_split(run.graphs["model"])
    solved = quotient_eigenvalues(list(counts.values())) if counts else ()
    spectra = {name: result.eigenvalues for name, result in zip(counts, solved)}
    root_q = math.sqrt(q)
    tol = NUMERIC_TOL * max(1.0, float(q))
    star_extremes = rest_peak = None
    if "star" in spectra:
        low, high = star_extremes = [spectra["star"][0], spectra["star"][-1]]
        edges = sum(counts["star"][0])
        if abs(low + root_q) > tol or abs(high - root_q) > tol or edges != q:
            problems.append("star spectrum is not {+-sqrt(q), 0}")
    rest_peak_claim = (1 + math.sqrt(1 + 2 * q)) / 2
    if "rest" in spectra:
        rest_peak = spectra["rest"][-1]
        if abs(rest_peak - rest_peak_claim) > tol:
            problems.append(f"rest part peaks at {rest_peak}, claimed {rest_peak_claim}")
        if "clique+star" in spectra and full_peak > (
            spectra["clique+star"][-1] + rest_peak + tol
        ):
            problems.append("top eigenvalue is not subadditive across the split")
    return Check(
        name="split-spectra",
        construction="model",
        matrix="adjacency",
        status=STATUS_PASS if not problems else STATUS_FAIL,
        computed="; ".join(problems) if problems else "split reassembles and spectra agree",
        claimed=f"star +-sqrt({q}), rest peak {_fmt(rest_peak_claim)}, subadditive top",
        tolerance=_fmt(tol),
        detail={
            "star_extremes": star_extremes,
            "rest_peak": rest_peak,
            "full_peak": full_peak,
        },
    )


def _sweep_one(args) -> VerificationReport:
    k, p, kinds, constructions = args
    try:
        return run_verification(k, p, kinds=kinds, constructions=constructions)
    except Exception:
        mp = ModelParameters(k, p)
        trace = {"traceback": traceback.format_exc()}
        crash = Check("execution", STATUS_FAIL, computed="unhandled exception", detail=trace)
        return VerificationReport(k, p, mp.vertex_count, mp.twist, None, None, checks=(crash,))


def sweep(
    ks: Iterable[int],
    ps: Iterable[int],
    kinds: Iterable[str] = MATRIX_KINDS,
    constructions: Iterable[str] = CONSTRUCTIONS,
    jobs: int = 1,
) -> list[VerificationReport]:
    """Verify every (k, p) pair of the two lists; rejects jobs < 1, a value
    repeated in either list, invalid parameters, an order past the
    graph-order limit and a malformed matrix cap up front.  jobs > 1 fans
    the pairs out to a pool of spawned worker processes (fork is unsafe
    once the parent has threads); errors inside one pair are contained in
    that pair's report."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ks, ps = list(ks), list(ps)
    for name, values in (("ks", ks), ("ps", ps)):
        if repeats := [v for i, v in enumerate(values) if v in values[:i]]:
            raise ValueError(f"{name} repeats the value {repeats[0]}")
    pairs = list(itertools.product(ks, ps))
    if not pairs:
        return []
    for k, p in pairs:
        validate_parameters(k, p)
        _check_graph_order(2 ** (k + 1) * p)
    matrix_order_cap()  # a malformed cap is a usage error, not one failure per pair
    kinds = _normalize(kinds, MATRIX_KINDS, "matrix kind")
    constructions = _normalize(constructions, CONSTRUCTIONS, "construction")
    work = [(k, p, kinds, constructions) for k, p in pairs]
    if jobs > 1:
        # imported here, so that only a parallel sweep loads the pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            return list(pool.map(_sweep_one, work))
    return [_sweep_one(w) for w in work]


def sweep_summary_table(reports: list[VerificationReport]) -> str:
    lines = ["k p n pass mismatch fail status"]
    for r in reports:
        c = r.counts()
        lines.append(
            f"{r.k} {r.p} {r.n} {c[STATUS_PASS]} {c[STATUS_MISMATCH]} "
            f"{c[STATUS_FAIL]} {r.status}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line


def _parse_kinds(raw: str) -> tuple[str, ...]:
    return MATRIX_KINDS if raw == "all" else (raw,)


def _parse_constructions(raw: str) -> tuple[str, ...]:
    return CONSTRUCTIONS if raw == "both" else (raw,)


def _int_token(flag: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{flag} {token!r} is not an integer") from None


def _parse_k_range(raw: str) -> list[int]:
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        return list(range(_int_token("--k", lo), _int_token("--k", hi) + 1))
    return _parse_int_list(raw, "--k")


def _parse_int_list(raw: str, flag: str = "--p") -> list[int]:
    return [_int_token(flag, x) for x in raw.split(",") if x]


def _check_out(out: str | None) -> None:
    """Raise the OSError that writing out would raise before a command does
    its work, by letting open decide: out is opened for appending, which
    leaves an existing file's bytes as they are, and a file this made is
    removed again (where a dangling symbolic link points, not the link)."""
    if out is None:
        return
    existed = os.path.exists(out)
    with open(out, "a"):
        pass
    if not existed:
        os.remove(os.path.realpath(out))


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(payload)


def _cmd_verify(args) -> int:
    report = run_verification(
        args.k,
        args.p,
        kinds=_parse_kinds(args.matrix),
        constructions=_parse_constructions(args.construction),
    )
    if args.out is not None:
        _emit(report.to_json(), args.out)
    print(f"powspec verify k={report.k} p={report.p} n={report.n}")
    for check in report.checks:
        scope = "/".join(x for x in (check.construction, check.matrix) if x)
        scope = f" ({scope})" if scope else ""
        print(f"  [{check.status}] {check.name}{scope}: {check.computed}")
    for notice in report.notices:
        print(f"  note: {notice}")
    c = report.counts()
    print(
        f"status: {report.status} ({c[STATUS_PASS]} pass, "
        f"{c[STATUS_MISMATCH]} mismatch-reported, {c[STATUS_FAIL]} fail)"
    )
    return 0 if report.status == STATUS_PASS else 1


def _cmd_sweep(args) -> int:
    ks, ps = _parse_k_range(args.k), _parse_int_list(args.p)
    if not ks or not ps:
        raise ValueError(
            f"empty (k, p) grid: --k {args.k!r} gives {ks}, --p {args.p!r} gives {ps}"
        )
    reports = sweep(
        ks,
        ps,
        kinds=_parse_kinds(args.matrix),
        constructions=_parse_constructions(args.construction),
        jobs=args.jobs,
    )
    sys.stdout.write(sweep_summary_table(reports))
    if args.out is not None:
        _emit(_json([r.to_dict() for r in reports]), args.out)
    return 0 if all(r.status == STATUS_PASS for r in reports) else 1


def _graph_json(g) -> str:
    data = {
        "n": g.n,
        "directed": False,
        "labels": [str(lab) for lab in g.labels],
        "edges": [[i, j] for i, j in g.edges()],
    }
    return _json(data)


def _charpoly_forms(kind: str, k: int, p: int) -> dict:
    """The claimed characteristic polynomial, factored and expanded.

    The expansion has degree n = 2^(k+1) p, so past the matrix cap it is
    written as null and never computed; the factored form is O(1) in size.
    """
    formula = _charpoly_formula(kind, k, p)
    under_cap = 2 ** (k + 1) * p <= matrix_order_cap()
    return {
        "factored": {
            "scalar": formula.scalar,
            "factors": [[base.to_coeff_list(), e] for base, e in formula.factors],
        },
        "expanded": formula.expand().to_coeff_list() if under_cap else None,
    }


def _spectrum_pairs(spectrum) -> list:
    return [[int(v), m] for v, m in spectrum.pairs()]


def _formula_json(k: int, p: int, kind: str) -> str:
    return _json({"matrix": kind, "k": k, "p": p, **_charpoly_forms(kind, k, p)})


def _cmd_export(args) -> int:
    what, fmt = args.what, args.format
    if what != "graph" and args.construction != "model":
        raise ValueError(
            f"{what} export has no closed form for --construction {args.construction}: "
            "only the model has claimed closed forms"
        )
    if what == "graph":
        if fmt not in ("dot", "json"):
            raise ValueError("graph export supports dot or json")
        g = (
            build_model_graph(args.k, args.p)
            if args.construction == "model"
            else build_power_graph(SemidihedralType(args.k, args.p))
        )
        payload = to_dot(g) if fmt == "dot" else _graph_json(g)
    elif what == "spectrum":
        if fmt not in ("csv", "json"):
            raise ValueError("spectrum export supports csv or json")
        spectrum = laplacian_spectrum_formula(args.k, args.p)
        if fmt == "csv":
            payload = spectrum_to_csv(spectrum)
        else:
            payload = _json({"matrix": "laplacian", "pairs": _spectrum_pairs(spectrum)})
    else:  # formula
        if fmt != "json":
            raise ValueError("formula export supports json only")
        payload = _formula_json(args.k, args.p, args.matrix)
    _emit(payload, args.out)
    return 0


def _cmd_formulas(args) -> int:
    k, p = args.k, args.p
    mp = ModelParameters(k, p)
    spectrum = laplacian_spectrum_formula(k, p)
    data = {
        "k": k,
        "p": p,
        "n": mp.vertex_count,
        "m_model": mp.model_edge_count,
        "theta": mp.twist,
        "charpoly": {kind: _charpoly_forms(kind, k, p) for kind in MATRIX_KINDS},
        "laplacian_spectrum": _spectrum_pairs(spectrum),
        "laplacian_energy": _fmt(laplacian_energy_formula(k, p)),
    }
    _emit(_json(data), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powspec",
        description="Exact spectral verifier for power graphs of the twisted group family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify", help="verify one (k, p) pair")
    vp.add_argument("--k", type=int, required=True)
    vp.add_argument("--p", type=int, required=True)
    vp.add_argument("--matrix", choices=MATRIX_KINDS + ("all",), default="all")
    vp.add_argument("--construction", choices=CONSTRUCTIONS + ("both",), default="both")
    vp.add_argument("--out", default=None, help="write the JSON report here")
    vp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="verify a grid of (k, p) pairs")
    sp.add_argument("--k", required=True, help="range A..B or comma list")
    sp.add_argument("--p", required=True, help="comma list of odd primes")
    sp.add_argument("--matrix", choices=MATRIX_KINDS + ("all",), default="all")
    sp.add_argument("--construction", choices=CONSTRUCTIONS + ("both",), default="both")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default=None, help="write the JSON report array here")
    sp.set_defaults(func=_cmd_sweep)

    ep = sub.add_parser("export", help="export a graph, spectrum, or formula")
    ep.add_argument("--what", choices=("graph", "spectrum", "formula"), required=True)
    ep.add_argument("--format", choices=("dot", "json", "csv"), required=True)
    ep.add_argument("--k", type=int, required=True)
    ep.add_argument("--p", type=int, required=True)
    ep.add_argument("--construction", choices=CONSTRUCTIONS, default="model")
    ep.add_argument("--matrix", choices=MATRIX_KINDS, default="adjacency")
    ep.add_argument("--out", default=None)
    ep.set_defaults(func=_cmd_export)

    fp = sub.add_parser("formulas", help="dump all closed forms as JSON")
    fp.add_argument("--k", type=int, required=True)
    fp.add_argument("--p", type=int, required=True)
    fp.add_argument("--out", default=None)
    fp.set_defaults(func=_cmd_formulas)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (ValueError, OSError, MatrixCapExceeded, ArithmeticError) as exc:
        print(f"powspec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
