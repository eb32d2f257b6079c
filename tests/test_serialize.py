import json
from fractions import Fraction

from hatilt.pathcomb import LatticePath
from hatilt.quiveralg import build_auslander_algebra
from hatilt.serialize import (
    dumps,
    frac_str,
    path_to_doc,
    quiver_to_doc,
    quiver_to_dot,
    quiver_to_tex,
)


class TestJsonRoundTrips:
    def test_path(self):
        p = LatticePath(3, 4, "HVVHVHV")
        doc = json.loads(dumps(path_to_doc(p)))
        assert doc == {"schema": 1, "d": 3, "n": 4, "steps": "HVVHVHV"}

    def test_quiver_and_relations(self):
        alg = build_auslander_algebra(4, 2)
        doc = json.loads(dumps(quiver_to_doc(alg.quiver, alg.relations)))
        assert len(doc["vertices"]) == len(alg.quiver.vertices)
        assert len(doc["arrows"]) == len(alg.quiver.arrows)
        assert len(doc["relations"]) == len(alg.relations)

    def test_coefficient_strings(self):
        # ints and Fractions of the same value export the same string
        assert frac_str(3) == "3"
        assert frac_str(-1) == "-1"
        assert frac_str(Fraction(6, 3)) == "2"
        assert frac_str(Fraction(-2, 3)) == "-2/3"

    def test_dumps_deterministic(self):
        alg = build_auslander_algebra(3, 2)
        doc = quiver_to_doc(alg.quiver, alg.relations)
        assert dumps(doc) == dumps(quiver_to_doc(alg.quiver, alg.relations))


class TestDotAndTex:
    def test_dot_parses_shape(self):
        alg = build_auslander_algebra(4, 2)
        dot = quiver_to_dot(alg.quiver, alg.relations)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        # one node line per vertex, one edge line per arrow
        node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(node_lines) == len(alg.quiver.vertices)
        assert len(edge_lines) == len(alg.quiver.arrows)
        assert "// relation" in dot

    def test_tex_tabular(self):
        alg = build_auslander_algebra(3, 2)
        tex = quiver_to_tex(alg.quiver, alg.relations)
        assert tex.startswith("\\begin{tabular}")
        assert tex.rstrip().endswith("\\end{tabular}")
