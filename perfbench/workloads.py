"""The three benchmark workloads: seeded inputs, the ops that run them, and
the correctness gate that checks every answer.

Each workload turns a seed into a list of inputs during set-up.  Its
``run`` executes that list once (a pass), timing each op, and returns the
times and raw outputs; its ``check`` then verifies them against
references that share no code with circmd (the published closed forms
and a distance formula written out here).  Checking runs after the pass,
so it never counts towards ``wall_s``.

Library functions are looked up on the circmd modules at call time, so a
traced run sees the wrappers that ``tracing`` installs there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field

# circmd's default per-level candidate budget at the commit that defined
# this benchmark.  Query cells are split where the search space crosses
# it, so every cell is all-refused or all-answered there and the refusal
# count does not depend on the seed.
SEED_BUDGET = 20_000_000

# Lemma status counts at the commit that defined this benchmark, summed
# over the whole battery (k = 1..3).
EXPECTED_LEMMA_STATUS = {"pass": 1288, "vacuous": 9, "degenerate": 6, "fail": 0}

WINDOW_N = 13


class WrongAnswer(Exception):
    """An op returned an answer the references contradict."""


def expected_dim(n: int, t: int) -> int:
    """Published metric dimension of C(n, +/-{1..t}) for t in {2, 3, 4},
    n >= 10 (t = 4 also has dimension 4 at the sporadic orders 11 and 19)."""
    if t == 2:
        return 4 if n % 4 == 1 else 3
    if t == 3:
        return 5 if n % 6 == 1 else 4
    if n in (11, 19):
        return 4
    return {4: 4, 2: 5, 3: 5, 5: 5, 6: 5}.get(n % 8, 6)


def _reps(n: int, t: int, vertices, landmarks) -> set:
    """Distinct distance tuples of the vertices; the distance in
    C(n, +/-{1..t}) is ceil(gap / t) over the shorter arc."""
    return {tuple(-(-min((v - x) % n, (x - v) % n) // t) for x in landmarks)
            for v in vertices}


def resolves(n: int, t: int, landmarks) -> bool:
    """True when the landmarks are distinct vertices that give every vertex
    a distinct distance tuple; shares no code with circmd.resolve."""
    if len(set(landmarks)) != len(landmarks) or not all(0 <= x < n for x in landmarks):
        return False
    return len(_reps(n, t, range(n), landmarks)) == n


@dataclass
class PassResult:
    """Raw outcome of one pass: the time of every op, in order, and the
    outputs to check."""

    times: list = field(default_factory=list)  # seconds, None where the op raised
    answered: list = field(default_factory=list)  # False where refused or raised
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wall_s: float = 0.0  # elapsed time of the whole pass
    norm: list = field(default_factory=list)  # times at reference host speed
    slowdown: float = 1.0  # how slow the host ran, from hostspeed

    def attempt(self, trace_op, fn, circmd, arg):
        """Run one op; its output, or None when it raised."""
        try:
            out, seconds = trace_op(fn, circmd, arg)
        except (Exception, SystemExit) as exc:  # a raising op fails; the run goes on
            self.times.append(None)
            self.answered.append(False)
            self.errors.append(f"{fn.__name__} {arg}: {exc!r}")
            return None
        self.times.append(seconds)
        self.answered.append(True)
        return out

    def refused(self) -> None:
        """Mark the last op as refused: it returned, but with no answer."""
        self.answered[-1] = False

    @property
    def failed(self) -> int:
        return self.answered.count(False)


def one_op_per_input(op):
    """A pass that runs ``op`` once per input, keeping (input, output)."""
    def run(circmd, inputs, trace_op) -> PassResult:
        res = PassResult()
        for item in inputs:
            out = res.attempt(trace_op, op, circmd, item)
            if out is not None:
                res.outputs.append((item, out))
        return res
    return run


# ---------------------------------------------------------------------------
# search: exact_dim over a residue-balanced grid of n
# ---------------------------------------------------------------------------

def search_inputs(circmd, seed: int) -> list:
    """n = 10..49 holds every residue mod 8 exactly five times.

    Per-op cost spans three decades (n = 49 alone is a fifth of the pass),
    so any seeded subset would make wall_s a function of the seed; the
    seed permutes the order of a fixed set instead.
    """
    ns = list(range(10, 50))
    random.Random(seed).shuffle(ns)
    return ns


def _search_op(circmd, n):
    return circmd.exact_dim(circmd.make_consecutive(n, 4))


def search_check(res: PassResult) -> None:
    for n, r in res.outputs:
        want = expected_dim(n, 4)
        if r.dim != want or len(r.basis) != r.dim:
            raise WrongAnswer(f"search n={n}: dim {r.dim}, basis {r.basis}, want {want}")
        if not resolves(n, 4, r.basis):
            raise WrongAnswer(f"search n={n}: basis {r.basis} does not resolve")
        if tuple(r.exhausted_sizes) != tuple(range(r.lower_bound_used, r.dim)):
            raise WrongAnswer(f"search n={n}: exhausted {r.exhausted_sizes} do not "
                              f"run from {r.lower_bound_used} to {r.dim - 1}")


# ---------------------------------------------------------------------------
# lemmas: the whole lemma battery plus window tightness
# ---------------------------------------------------------------------------

def lemmas_inputs(circmd, seed: int) -> list:
    """One op per (descriptor, k); the dim-lower theorems run once with
    k = (1, 2, 3) because their case set is cumulative in k."""
    ops = []
    for d in circmd.REGISTRY.values():
        if d.kind == "dim-lower":
            ops.append((d.id, (1, 2, 3)))
        else:
            ops.extend((d.id, (k,)) for k in (1, 2, 3))
    ops.append(("window-tightness", WINDOW_N))
    random.Random(seed).shuffle(ops)
    return ops


def _lemma_op(circmd, op):
    name, arg = op
    if name == "window-tightness":
        return circmd.window_tightness(arg)
    return circmd.check_lemma(circmd.REGISTRY[name], arg)


def lemmas_check(res: PassResult) -> None:
    status = dict.fromkeys(EXPECTED_LEMMA_STATUS, 0)
    for (name, arg), out in res.outputs:
        if name == "window-tightness":
            _check_window(arg, out)
            continue
        for r in out.results:
            status[r.status] += 1
    if status != EXPECTED_LEMMA_STATUS:
        raise WrongAnswer(f"lemma status counts {status}, want {EXPECTED_LEMMA_STATUS}")


def _check_window(n: int, witnesses: dict) -> None:
    if sorted(witnesses) != [2, 3, 4, 5]:
        raise WrongAnswer(f"window tightness covers L = {sorted(witnesses)}, want 2..5")
    for ell, w in witnesses.items():
        subset, resolvers = w["subset"], w["resolvers"]
        if (len(subset) != ell or len(resolvers) != ell - 1
                or len(_reps(n, 4, subset, resolvers)) != ell):
            raise WrongAnswer(f"window tightness L={ell}: {w} is not a witness")


# ---------------------------------------------------------------------------
# query: the interactive CLI path, dim then verify
# ---------------------------------------------------------------------------

# t = 3 queries with n = 0 (mod 6) from 120 up to the refusal threshold
# (n = 496) run a first-witness search of 0.4 s to 17 s each, 300 s in
# all.  Any share of them large enough to sample would dominate the pass
# and make wall_s depend on the seed, so they are left out; see README.
_T3_SLOW_FROM = 120

# (t, residue modulus, class members per cell).  t = 3 uses residues mod
# 24 so that each cell is also uniform mod 6, where its formula changes.
_QUERY_STRATA = ((2, 8, 64), (3, 24, 32), (4, 8, 2))


def search_space(n: int, t: int):
    """Candidate sets the seed commit's first-witness search may scan to
    answer ``dim --n n --t t``; None where a closed-form family answers
    (t = 4, n = +/-1 mod 8)."""
    if t == 4 and n % 8 in (1, 7) and n >= 15:
        return None
    return math.comb(n - 1, expected_dim(n, t) - 1)


def query_cells() -> dict:
    """Strata of (t, n), 10 <= n <= 809, from which one query each is drawn.

    Cells group consecutive members of one residue class.  They never mix
    queries refused and answered at the seed budget, and answered t = 4
    search cells are further split where the search space grows by
    sqrt(2), so the draws in one cell cost about the same.
    """
    cells: dict = {}
    for t, modulus, members in _QUERY_STRATA:
        for n in range(10, 810):
            space = search_space(n, t)
            refused = space is not None and space > SEED_BUDGET
            if t == 3 and n % 6 == 0 and n >= _T3_SLOW_FROM and not refused:
                continue
            key = (t, n % modulus, refused, (n - 10) // (modulus * members))
            if t == 4 and space is not None and not refused:
                key += (math.floor(2 * math.log2(space)),)
            cells.setdefault(key, []).append(n)
    return cells


def query_inputs(circmd, seed: int) -> list:
    rng = random.Random(seed)
    cells = query_cells()
    queries = [(key[0], rng.choice(cells[key])) for key in sorted(cells)]
    rng.shuffle(queries)
    return queries


def _cli(circmd, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = circmd.cli.main(argv)
    return code, buf.getvalue()


def _envelope(argv, text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"{' '.join(argv)}: output is not a JSON envelope: {exc}")


def query_pass(circmd, queries, trace_op) -> PassResult:
    res = PassResult()
    for t, n in queries:
        argv = ["dim", "--n", str(n), "--t", str(t)]
        out = res.attempt(trace_op, _cli, circmd, argv)
        if out is None:
            continue
        code, text = out
        env = _envelope(argv, text)
        if code == 3:  # budget refusal
            res.refused()
            continue
        if code != 0:
            raise WrongAnswer(f"{' '.join(argv)}: exit {code}: {env.get('result')}")
        basis = env["result"]["basis"]
        verify = ["verify", "--n", str(n), "--t", str(t), "--set", ",".join(map(str, basis))]
        vout = res.attempt(trace_op, _cli, circmd, verify)
        if vout is not None:
            res.outputs.append((t, n, env, verify, vout))
    return res


def query_check(res: PassResult) -> None:
    for t, n, env, verify, (vcode, vtext) in res.outputs:
        dim, basis = env["result"]["dim"], env["result"]["basis"]
        if dim != expected_dim(n, t) or len(basis) != dim:
            raise WrongAnswer(f"dim --n {n} --t {t}: dim {dim}, basis {basis}, "
                              f"want {expected_dim(n, t)}")
        if not resolves(n, t, basis):
            raise WrongAnswer(f"dim --n {n} --t {t}: basis {basis} does not resolve")
        venv = _envelope(verify, vtext)
        if vcode != 0 or venv["result"].get("resolving") is not True:
            raise WrongAnswer(f"{' '.join(verify)}: exit {vcode}")


@dataclass(frozen=True)
class Workload:
    inputs: object  # (circmd, seed) -> inputs
    run: object  # (circmd, inputs, trace_op) -> PassResult
    check: object  # PassResult -> None, raises WrongAnswer
    pass_s: float  # --seconds per pass; one pass takes less, see README


WORKLOADS = {
    "search": Workload(search_inputs, one_op_per_input(_search_op), search_check, 10),
    "lemmas": Workload(lemmas_inputs, one_op_per_input(_lemma_op), lemmas_check, 25),
    "query": Workload(query_inputs, query_pass, query_check, 25),
}
