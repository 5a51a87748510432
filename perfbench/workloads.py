"""The three exact-mode workloads: inputs, operations and reference checks.

Each workload builds its inputs from the seed in `setup`, which also imports
the package, and exposes one round of operations as `ops`, a list of
zero-argument callables.  Every round runs the same operations, so a later
round must reproduce the first round's outputs exactly; `check` compares
the first round's outputs with references computed apart from the program.
Module attributes are looked up at call time, so the wrappers that the
tracer installs after set-up are the ones called.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

INF = float("inf")


def package_module(name):
    return importlib.import_module(f"sandwichkit.{name}")


def scenario_dir(cli) -> Path:
    return Path(cli.__file__).parent / "scenarios"


def run_cli(cli, argv) -> tuple[int, str]:
    """cli.main in-process with standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def parse_ext(text) -> Fraction | float:
    """An encoded report scalar: a rational string, "inf" or "-inf"."""
    if text == "inf":
        return INF
    if text == "-inf":
        return -INF
    return Fraction(text)


def _solve_exact(rows, rhs):
    """One solution of rows x = rhs by Fraction elimination, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [inv * v for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] != 0 for row in aug[r:]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(aug, pivots):
        x[c] = row[-1]
    return x


def in_hull(points, x) -> bool:
    """Exact convex-hull membership by Caratheodory subsets (tiny inputs only)."""
    dim = len(x)
    for size in range(1, min(len(points), dim + 1) + 1):
        for idx in combinations(range(len(points)), size):
            rows = [[Fraction(1)] * size] + [
                [points[i][c] for i in idx] for c in range(dim)
            ]
            w = _solve_exact(rows, [Fraction(1)] + list(x))
            if w is not None and all(v >= 0 for v in w):
                return True
    return False


class Workload:
    name: str
    ops: list
    #: one label per operation of a round, for the per-label latency record
    labels: list
    #: latency percentile reported as the tail, and the least number of
    #: rounds that leaves at least ten samples beyond it
    tail_percentile: float
    min_rounds: int

    def setup(self, seed: int, smoke: bool) -> None:
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        """Problems found in the first round's outputs; None marks a failed operation."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# evaluate


def rational_20(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


class Evaluate(Workload):
    """convexfn.eval_with_subgradient on sample-form functions.

    Shapes are fixed and values come from the seed: every (dimension,
    sample count) pair below gets the same number of functions, and each
    function is evaluated at four convex combinations of its samples and at
    one point pushed past the samples' bounding box (off the hull).
    """

    name = "evaluate"
    DIMS = (1, 2, 3, 4)
    SAMPLES = (3, 5, 8, 12, 16)
    FUNCTIONS_PER_SHAPE = 15
    POINTS_PER_FUNCTION = 5
    tail_percentile = 99.0
    min_rounds = 1

    def setup(self, seed, smoke):
        self.convexfn = convexfn = package_module("convexfn")
        rng = random.Random(seed)
        per_shape = 1 if smoke else self.FUNCTIONS_PER_SHAPE
        self.items = []
        for dim in self.DIMS:
            for n in self.SAMPLES:
                for _ in range(per_shape):
                    f = convexfn.PolyhedralFunction.v_form(dim, [
                        (tuple(rational_20(rng) for _ in range(dim)), rational_20(rng))
                        for _ in range(n)
                    ])
                    for k in range(self.POINTS_PER_FUNCTION):
                        self.items.append(self._point(rng, f, off_hull=k == 0))
        rng.shuffle(self.items)
        self.ops = [self._op(f, x) for f, x, _ in self.items]
        self.labels = [f"dim{f.dim}-samples{len(f.data)}-{'on' if w else 'off'}"
                       for f, _, w in self.items]

    @staticmethod
    def _point(rng, f, off_hull):
        n = len(f.samples)
        weights = [rng.randint(0, 5) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        total = sum(weights)
        w = [Fraction(v, total) for v in weights]
        x = [sum((wi * p[c] for wi, (p, _) in zip(w, f.samples)), start=Fraction(0))
             for c in range(f.dim)]
        if off_hull:
            c = rng.randrange(f.dim)
            x[c] = max(p[c] for p, _ in f.samples) + Fraction(rng.randint(1, 20),
                                                                rng.randint(1, 20))
            w = None
        return f, tuple(x), w

    def _op(self, f, x):
        mod = self.convexfn
        return lambda: mod.eval_with_subgradient(f, x)

    def check(self, outputs):
        from scipy.optimize import linprog

        problems = []
        for (f, x, w), out in zip(self.items, outputs):
            if out is None:
                continue
            value, sub = out
            pts = [p for p, _ in f.samples]
            vals = [v for _, v in f.samples]
            ref = linprog(
                [float(v) for v in vals],
                A_eq=[[1.0] * len(pts)] + [[float(p[c]) for p in pts] for c in range(f.dim)],
                b_eq=[1.0] + [float(c) for c in x],
                bounds=(0, None), method="highs",
            )
            where = f"dim {f.dim}, {len(pts)} samples, point {x}"
            if ref.status == 2:
                if value != INF or sub is not None:
                    problems.append(f"{where}: HiGHS says infeasible, program gave {value}")
                continue
            if ref.status != 0:
                problems.append(f"{where}: HiGHS status {ref.status}")
                continue
            if not isinstance(value, Fraction):
                problems.append(f"{where}: HiGHS value {ref.fun}, program gave {value}")
                continue
            if abs(float(value) - ref.fun) > 1e-7 * max(1.0, abs(ref.fun)):
                problems.append(f"{where}: value {value} vs HiGHS {ref.fun}")
            # the subgradient's affine minorant lies under every sample
            for p, v in f.samples:
                if v < value + sum((s * (pc - xc) for s, pc, xc in zip(sub, p, x)),
                                   start=Fraction(0)):
                    problems.append(f"{where}: subgradient {sub} is not a minorant at {p}")
                    break
            if w is None:
                problems.append(f"{where}: off-hull point got a finite value")
            elif value > sum((wi * v for wi, v in zip(w, vals)), start=Fraction(0)):
                problems.append(f"{where}: value exceeds the convex combination of samples")
        return problems


# ---------------------------------------------------------------------------
# corpus


class Corpus(Workload):
    """One operation is one pass over every bundled scenario file.

    Each file runs its own `expect` command through cli.main in-process.
    The inputs are the bundled files; the seed only sets their order.
    """

    name = "corpus"
    tail_percentile = 75.0
    min_rounds = 40

    def setup(self, seed, smoke):
        self.cli = cli = package_module("cli")
        self.files = []
        for path in sorted(scenario_dir(cli).glob("*.json")):
            text = path.read_text()
            doc = json.loads(text)
            try:
                cli.parse_scenario(text, str(path))
            except cli.ScenarioError:
                pass  # broken.json fails at resolution, not parsing
            argv = [doc["expect"]["command"], str(path), "--report", "json"]
            self.files.append((path.name, doc, argv))
        random.Random(seed).shuffle(self.files)
        self.ops = [self._pass]
        self.labels = ["pass"]

    def _pass(self):
        return tuple((name, *run_cli(self.cli, argv)) for name, _, argv in self.files)

    def check(self, outputs):
        problems = []
        docs = {name: doc for name, doc, _ in self.files}
        for name, code, text in outputs[0] or ():
            src = docs[name]
            if code != src["expect"]["exit"]:
                problems.append(f"{name}: exit {code}, expected {src['expect']['exit']}")
            report = json.loads(text)
            for i, q in enumerate(report.get("queries", [])):
                problems += [f"{name} query {i}: {p}" for p in self._query_problems(q)]
            if "separator" in report:
                problems += [f"{name}: {p}" for p in self._separator_problems(src, report)]
        return problems

    @staticmethod
    def _query_problems(q):
        lhs, rhs, gap = (parse_ext(q[k]) for k in ("lhs", "rhs", "gap"))
        out = []
        if gap < 0:
            out.append(f"negative gap {gap}")
        if lhs not in (INF, -INF) and rhs not in (INF, -INF) and gap != rhs - lhs:
            out.append(f"gap {gap} != rhs - lhs")
        if all(q["hypothesis_flags"].values()) and gap != 0:
            out.append(f"flags hold but the gap is {gap}")
        return out

    @staticmethod
    def _separator_problems(src, report):
        """-k(z) <= x'(Bz) on dom k and x' <= S, by direct Fraction arithmetic."""
        task = src["task"]
        x_prime = [Fraction(v) for v in report["separator"]["x_prime"]]
        gens = [[Fraction(str(c)) for c in coeffs]
                for coeffs, _ in src["functions"][task["upper"]]["pieces"]]
        link = src["maps"][task["link"]]
        matrix = [[Fraction(str(c)) for c in row] for row in link["matrix"]]
        offset = [Fraction(str(c)) for c in link.get("offset", [0] * len(matrix))]
        out = []
        # k + x'.B is convex on conv(samples), so its minimum sits at a sample
        for p, v in src["functions"][task["lower"]]["samples"]:
            p = [Fraction(str(c)) for c in p]
            bz = [sum((a * pc for a, pc in zip(row, p)), start=o)
                  for row, o in zip(matrix, offset)]
            if Fraction(str(v)) + sum(a * b for a, b in zip(x_prime, bz)) < 0:
                out.append(f"separator below -k at sample {p}")
        # x' <= S everywhere exactly when x' lies in the generators' hull
        if not in_hull(gens, x_prime):
            out.append("separator is not dominated by S")
        return out


# ---------------------------------------------------------------------------
# crosscheck


def signature(s) -> tuple:
    """Sample or piece counts of a scenario's functions: the size stratum."""
    return tuple(len(fn.data) for fn in (s.psi, s.f, s.g) if fn is not None)


class Crosscheck(Workload):
    """oracle.crosscheck_scenario on seeded instances of all seven kinds.

    Oracle cost grows steeply with a function's sample count, so instances
    are drawn per kind until each size stratum holds its fixed quota: the
    seed changes the values, never the mix of sizes.  Set-up goes on drawing
    to a fixed number of draws per kind (DRAWS, about twice what the quotas
    usually need), so that it does the same work whatever the seed.  Each
    round also runs `verify --crosscheck` on two bundled files.
    """

    name = "crosscheck"
    QUOTAS = {
        "sublevel": {(2,): 8, (4,): 8},
        "trivariate": {(2,): 8, (4,): 8},
        "fenchel": {**{(nf, ng): 4 for nf in (1, 2, 3, 4) for ng in (3, 5)}, (4, 5): 8},
        "quadrivariate": {(2,): 8, (4,): 8},
        "bibivariate": {(2, 2): 12},
        "partial_infconv": {(2, 2): 12},
        "indicator_linear": {(3,): 8, (5,): 16},
    }
    DRAWS = {"sublevel": 40, "trivariate": 36, "fenchel": 140, "quadrivariate": 70,
             "bibivariate": 12, "partial_infconv": 12, "indicator_linear": 50}
    FILES = ("fenchel.json", "indicator_linear.json")
    tail_percentile = 90.0
    min_rounds = 1

    def setup(self, seed, smoke):
        self.cli = cli = package_module("cli")
        self.oracle = package_module("oracle")
        randomgen = package_module("randomgen")
        self.spec = self.oracle.GridSpec(3)
        self.cases = []
        for kind, quota in self.QUOTAS.items():
            if smoke:
                quota = {min(quota): 1}
            rng = random.Random(f"{seed}:{kind}")
            left = dict(quota)
            draws = 0
            least = 1 if smoke else self.DRAWS[kind]
            while any(left.values()) or draws < least:
                draws += 1
                if draws > 100 * sum(quota.values()):
                    raise RuntimeError(f"{kind}: size quota {quota} not filled")
                s = randomgen.random_crosscheck_scenario(rng, kind)
                sig = signature(s)
                if left.get(sig, 0) > 0:
                    left[sig] -= 1
                    self.cases.append((f"{kind}{list(sig)}", s))
        files = self.FILES[:1] if smoke else self.FILES
        for name in files:
            self.cases.append((name, str(scenario_dir(cli) / name)))
        random.Random(seed).shuffle(self.cases)
        self.ops = [self._op(case) for _, case in self.cases]
        self.labels = [label for label, _ in self.cases]

    def _op(self, case):
        if isinstance(case, str):
            cli = self.cli
            return lambda: run_cli(cli, ["verify", case, "--crosscheck", "--report", "json"])
        oracle, spec = self.oracle, self.spec
        return lambda: oracle.crosscheck_scenario(case, spec)

    def check(self, outputs):
        problems = []
        for (label, case), out in zip(self.cases, outputs):
            if out is None:
                continue
            if isinstance(case, str):
                code, text = out
                if code != 0:
                    problems.append(f"{label}: exit {code}")
                for i, q in enumerate(json.loads(text).get("queries", [])):
                    cc = q["crosscheck"]
                    if not cc["ok"] or cc["lhs_oracle"] is None:
                        problems.append(f"{label} query {i}: crosscheck {cc}")
                    if parse_ext(q["lhs"]) > parse_ext(q["rhs"]):
                        problems.append(f"{label} query {i}: lhs > rhs")
                continue
            for i, rec in enumerate(out):
                if not rec.ok or rec.lhs_oracle is None or not rec.lhs_oracle.conclusive:
                    problems.append(f"{label} query {i}: {rec.notes}")
                if rec.lhs_lp > rec.rhs_lp:
                    problems.append(f"{label} query {i}: lhs {rec.lhs_lp} > rhs {rec.rhs_lp}")
        return problems


WORKLOADS = {w.name: w for w in (Evaluate, Corpus, Crosscheck)}
