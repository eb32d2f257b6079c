"""The benchmark workloads: inputs, the timed section and its correctness check.

Each workload drives hatilt only through public functions.  ``setup`` builds
the inputs (and, for ``hom_stream``, the base algebra); ``run`` is the timed
section and returns an ``Outcome``.  An operation is one claim for ``verify``
and ``combinatorial`` and one query for ``hom_stream``; a request, whose
start and end are recorded, is one claim batch (what a ``hatilt verify`` user
waits for) or one query.  Any exception that escapes hatilt counts the operations
it cut short as failed instead of aborting the benchmark.
"""

from __future__ import annotations

import itertools
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    # (start, end) time.perf_counter() of each request (a query, or a whole
    # claim batch), failed or not
    requests: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # first few failure descriptions

    def fail(self, count, message):
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def reference_path(d, n, claims):
    return REFERENCE_DIR / f"{claims}_d{d}_n{n}.json"


class ClaimsWorkload:
    """One ``run_claims(d, n, claims)`` batch; every claim must pass with the
    value stored in ``reference/``."""

    def __init__(self, d, n, claims):
        self.d, self.n, self.claims = d, n, claims

    def claim_names(self):
        from hatilt.verify import CLAIM_NAMES, COMBINATORIAL_CLAIMS

        return CLAIM_NAMES if self.claims == "all" else COMBINATORIAL_CLAIMS

    def setup(self, seed, chunk):
        self.names = self.claim_names()
        path = reference_path(self.d, self.n, self.claims)
        with open(path, encoding="utf-8") as fh:
            self.reference = {c["name"]: c for c in json.load(fh)}
        self.input_stats = {"d": self.d, "n": self.n, "claims": len(self.names)}

    def run(self) -> Outcome:
        from hatilt.verify import run_claims

        out = Outcome(attempted=len(self.names))
        start = time.perf_counter()
        try:
            results, _, _ = run_claims(self.d, self.n, self.names)
        except Exception:  # an escaped claim error fails the whole batch
            out.fail(len(self.names), traceback.format_exc())
            return out
        finally:
            out.requests.append((start, time.perf_counter()))
        seen = set()
        for r in results:
            seen.add(r["name"])
            ref = self.reference.get(r["name"])
            value = json.loads(json.dumps(r["value"]))  # tuples become lists
            if ref is None or r["status"] != "pass" or value != ref["value"]:
                out.fail(1, f"claim {r['name']}: {r['status']} {value}, reference {ref}")
        missing = [name for name in self.names if name not in seen]
        if missing:
            out.fail(len(missing), f"claims missing from the report: {missing}")
        return out


def interleaves(x, y):
    """x_1 <= y_1 < x_2 <= y_2 < ... < x_k <= y_k, computed independently of
    hatilt so that it checks both Hom routes."""
    return all(a <= b for a, b in zip(x, y)) and all(b < a for b, a in zip(y, x[1:]))


class HomStream:
    """Closed loop, one client: Hom-dimension queries between shifted interval
    modules of model (3, 4), each answered combinatorially and by linear
    algebra; both answers must equal the interleaving order."""

    d, n = 3, 4
    shifts = range(-2, 3)

    def __init__(self, queries_per_chunk):
        self.queries_per_chunk = queries_per_chunk

    def setup(self, seed, chunk):
        from hatilt.pathcomb import LatticePath, coords
        from hatilt.quiveralg import build_auslander_algebra

        d, n = self.d, self.n
        self.alg = build_auslander_algebra(n + 1, d)
        # the widened (d+1) x n grid: horizontal steps at the labels in `entries`
        length = d + 1 + n
        self.entries = list(itertools.combinations(range(1, length + 1), d + 1))
        self.paths = []
        for e in self.entries:
            steps = "".join("H" if k in e else "V" for k in range(1, length + 1))
            path = LatticePath(d + 1, n, steps)
            if coords(path).entries != e:
                raise RuntimeError(f"coordinate convention changed for {steps}")
            self.paths.append(path)
        size = len(self.paths)
        ordered = [
            (i, j)
            for i in range(size)
            for j in range(size)
            if interleaves(self.entries[i], self.entries[j])
        ]
        rng = random.Random(f"hom_stream:{seed}:{chunk}")
        half = self.queries_per_chunk // 2
        pairs = [rng.choice(ordered) for _ in range(half)]
        pairs += [
            (rng.randrange(size), rng.randrange(size))
            for _ in range(self.queries_per_chunk - half)
        ]
        rng.shuffle(pairs)
        self.queries = [(i, j, rng.choice(self.shifts)) for i, j in pairs]

        objects = [(k, s) for i, j, s in self.queries for k in (i, j)]
        self.input_stats = {
            "queries": len(self.queries),
            "grid_paths": size,
            "nonzero_share": sum(
                interleaves(self.entries[i], self.entries[j]) for i, j, _ in self.queries
            )
            / len(self.queries),
            # share of query objects (path, shift) seen earlier in the chunk
            "object_repeat_share": 1 - len(set(objects)) / len(objects),
        }

    def run(self) -> Outcome:
        from hatilt.cluster import ShiftedModule, hom_dim
        from hatilt.complexes import hom_complex_dim, shifted_module_complex
        from hatilt.pathcomb import coords
        from hatilt.quiveralg import module_M

        alg, d = self.alg, self.d
        out = Outcome(attempted=len(self.queries))
        clock = time.perf_counter
        for i, j, s in self.queries:
            p, q = self.paths[i], self.paths[j]
            start = clock()
            try:
                combinatorial = hom_dim(ShiftedModule(p, s), ShiftedModule(q, s))
                X = shifted_module_complex(alg, module_M(alg, coords(p)), d * s)
                Y = shifted_module_complex(alg, module_M(alg, coords(q)), d * s)
                linear = hom_complex_dim(X, Y, 0)
            except Exception:
                out.fail(1, f"query {p.steps}@{s} -> {q.steps}@{s}: {traceback.format_exc()}")
                continue
            finally:
                out.requests.append((start, clock()))
            expected = int(interleaves(self.entries[i], self.entries[j]))
            if combinatorial != linear or linear != expected:
                out.fail(
                    1,
                    f"query {p.steps}@{s} -> {q.steps}@{s}: combinatorial "
                    f"{combinatorial}, linear algebra {linear}, expected {expected}",
                )
        return out


WORKLOADS = {
    "verify": lambda: ClaimsWorkload(4, 3, "all"),
    "hom_stream": lambda: HomStream(1000),
    "combinatorial": lambda: ClaimsWorkload(6, 5, "combinatorial"),
    # small inputs for the benchmark's own tests
    "verify_small": lambda: ClaimsWorkload(3, 2, "all"),
    "combinatorial_small": lambda: ClaimsWorkload(3, 2, "combinatorial"),
    "hom_stream_small": lambda: HomStream(40),
}


def make(name):
    return WORKLOADS[name]()
