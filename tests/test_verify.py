import errno
import gc
import importlib
import importlib.util
import json
import marshal
import math
import os
import signal
import threading
import time
from pathlib import Path

import oracles
import pytest
from oracles import (
    COPRIME_UP_TO_8,
    dyck_end_p,
    interleaving_agreement_by_pairs,
    plant_shift_blind_rule,
    rigidity_check_by_hom_dim,
    run_claims_group_by_group,
    serre_symmetry_by_hom_dim,
)

import hatilt.verify
from hatilt.cluster import ShiftedModule, nakayama
from hatilt.fdalg import iso_test
from hatilt.pathcomb import enumerate_all, heights_related, rotate, rotate_pow
from hatilt.quiveralg import BudgetError
from hatilt.verify import (
    CLAIM_NAMES,
    COMBINATORIAL_CLAIMS,
    RESOLUTION_CLAIMS,
    ModelData,
    VerifyConfig,
    claim_fcy_combinatorial,
    claim_interleaving_agreement,
    run_claims,
)


class TestConfig:
    def test_defaults_scale_with_model(self):
        config = VerifyConfig()
        assert config.resolution_length(3, 2) == 8
        echo = config.echo(3, 2)
        assert echo["max_resolution_length"] == 8

    def test_overrides(self):
        config = VerifyConfig(max_resolution_length=5)
        assert config.resolution_length(3, 4) == 5

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_resolution_length": -3},
            {"max_resolution_length": 0},
            {"max_resolution_length": 2.5},
            {"max_resolution_length": True},
            {"max_algebra_dim": None},
            {"max_algebra_dim": "5"},
            {"iso_budget": 0},
            {"iso_budget": False},
        ],
    )
    def test_bad_budgets_raise(self, overrides):
        (key,) = overrides
        with pytest.raises(ValueError, match=f"budget {key} must be an integer >= 1"):
            VerifyConfig(**overrides)

    def test_least_budgets_are_accepted(self):
        config = VerifyConfig(max_resolution_length=1, max_algebra_dim=1, iso_budget=1)
        assert config.echo(3, 2) == {
            "max_resolution_length": 1,
            "max_algebra_dim": 1,
            "iso_budget": 1,
        }


class TestModelData:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            ModelData(2, 4, VerifyConfig())

    def test_memoization(self):
        model = ModelData(3, 2, VerifyConfig())
        assert model.algebra() is model.algebra()
        assert model.b0() is model.b0()

    @pytest.mark.parametrize(
        "d, n", [(3, 2), (2, 3), (5, 2), (2, 5), (4, 3), (3, 4), (5, 3), (3, 5)]
    )
    def test_b0_is_end_of_the_dyck_projectives(self, d, n):
        # the corner e A e against End(P) built through chain maps of stalk
        # complexes; equal Cartan matrices keep vertex k at the k-th Dyck path
        model = ModelData(d, n, VerifyConfig())
        b0, end_p = model.b0(), dyck_end_p(model.algebra(), d, n)
        assert b0.cartan() == end_p.cartan()
        assert iso_test(b0, end_p) is not None

    def test_b0_builds_no_resolution_and_no_chain_map(self, monkeypatch):
        import hatilt.complexes

        def forbidden(*args, **kwargs):
            raise AssertionError("B0 went through the complexes layer")

        model = ModelData(4, 3, VerifyConfig())
        model.algebra()
        for name in ("minimal_proj_resolution", "_replace", "chain_maps_mod_homotopy"):
            monkeypatch.setattr(hatilt.complexes, name, forbidden)
        assert model.b0().nidem == len(model.dyck())

    def test_failed_builds_are_remembered(self, monkeypatch):
        builds = []
        real = hatilt.verify.build_auslander_algebra

        def counting_build(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hatilt.verify, "build_auslander_algebra", counting_build)
        config = VerifyConfig(max_algebra_dim=5)
        here = [name for name in CLAIM_NAMES if name not in RESOLUTION_CLAIMS]
        claims, failed, skipped = run_claims(3, 2, here, config)
        # A once, and the smaller A' of idempotent_corner once
        assert builds == [(3, 3), (3, 1)]
        worker, failed2, skipped2 = run_claims(3, 2, RESOLUTION_CLAIMS, config)
        # and A once more for the resolution claims, on their own model
        assert builds == [(3, 3), (3, 1), (3, 3)]
        claims = sorted(claims + worker, key=lambda c: CLAIM_NAMES.index(c["name"]))
        failed, skipped = failed or failed2, skipped or skipped2
        assert not failed and skipped
        reason = {"reason": "algebra dimension exceeds budget 5"}
        assert [(c["name"], c["status"], c["value"]) for c in claims[8:]] == [
            (name, "skipped", reason) for name in CLAIM_NAMES[8:]
        ]
        assert all(c["status"] == "pass" for c in claims[:8])

    def test_a_remembered_failure_raises_a_fresh_copy(self):
        model = ModelData(3, 2, VerifyConfig(max_algebra_dim=5))
        raised = []
        for _ in range(2):
            with pytest.raises(BudgetError, match="exceeds budget 5") as info:
                model.b0()
            raised.append(info.value)
        assert raised[0] is not raised[1]
        # the stored copy was never raised, so it holds no frame of the model
        assert model._built["algebra"].__traceback__ is None

    def test_run_presents_and_resolves_each_algebra_once(self, monkeypatch):
        import hatilt.complexes
        import hatilt.fdalg
        import hatilt.verify
        from hatilt.complexes import gldim
        from hatilt.fdalg import presentation_data

        presented = []  # (algebra, its presentation), kept alive so ids stay unique
        source = {}  # id of a presented algebra -> id of the algebra it presents
        # per gldim call, the id of the algebra it stands for and the vertices
        # whose simples it resolves, None for all of them
        resolved = []

        def counting_presentation(fd, *args, **kwargs):
            data = presentation_data(fd, *args, **kwargs)
            presented.append((fd, data))
            source[id(data.algebra)] = id(fd)
            return data

        def counting_gldim(alg, *args, vertices=None, **kwargs):
            resolved.append((source.get(id(alg), id(alg)), vertices and list(vertices)))
            return gldim(alg, *args, vertices=vertices, **kwargs)

        for module in (hatilt.verify, hatilt.fdalg, hatilt.complexes):
            for name, wrapper in [
                ("presentation_data", counting_presentation),
                ("gldim", counting_gldim),
            ]:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        claims, _, _ = run_claims_group_by_group(3, 2)
        assert all(c["status"] == "pass" for c in claims)
        presented_ids = [id(fd) for fd, _ in presented]
        # B0, the presented B0 inside b0_presentation's iso_test, End(T) and
        # the corner of idempotent_corner; B, Lambda and Pi are resolved as built
        assert len(presented_ids) == len(set(presented_ids)) == 4
        # gldim of A, B0 and B, and of Lambda's layer 0, its two Dyck
        # vertices: its upper layers are B's
        assert len({alg for alg, _ in resolved}) == 4
        assert [vertices for _, vertices in resolved] == [None, None, None, [0, 1]]

    def test_one_isomorphism_search_feeds_both_end_t_claims(self, monkeypatch):
        import hatilt.verify
        from hatilt.fdalg import iso_test

        calls = []

        def counting_iso_test(a1, a2, *args, **kwargs):
            calls.append((a1, a2))
            return iso_test(a1, a2, *args, **kwargs)

        monkeypatch.setattr(hatilt.verify, "iso_test", counting_iso_test)
        claims, _, _ = run_claims(4, 3, ["endo_replicate", "preprojective"])
        assert [c["status"] for c in claims] == ["pass", "pass"]
        assert claims[1]["value"]["degree_zero_iso"] is True
        # B is Pi's degree-zero part, so End(T) = B answers both claims
        assert len(calls) == 1
        assert calls[0][0].dim == calls[0][1].dim == claims[0]["value"]["dim"]

    def test_nu_orbit_blocks_enumerates_each_grid_once(self, monkeypatch):
        import hatilt.pathcomb
        from hatilt.pathcomb import LatticePath, delta_set
        from hatilt.verify import claim_nu_orbit_blocks

        d, n = 4, 3
        model = ModelData(d, n, VerifyConfig())
        hatilt.pathcomb._all_paths.cache_clear()
        built = 0
        init = LatticePath.__init__

        def counting_init(self, *fields):
            nonlocal built
            built += 1
            init(self, *fields)

        monkeypatch.setattr(LatticePath, "__init__", counting_init)
        ok, _ = claim_nu_orbit_blocks(model)
        assert ok
        dyck = math.comb(d + n, d) // (d + n)
        blocks = sum(len(delta_set(d, n, i)) for i in range(1, n + d + 1))
        # L_{d,n} once, for the Dyck paths, and L_{d+1,n} once, the table
        # the twist reads its rotations from; the widened Dyck paths; one
        # base path per block, and the paths of the regions, one per summand
        assert built == (
            math.comb(d + n, d)
            + math.comb(d + 1 + n, d + 1)
            + dyck
            + blocks
            + dyck * (n + d)
        )

    def test_higher_auslander_builds_no_opposite_algebra(self, monkeypatch):
        from hatilt.quiveralg import BoundQuiverAlgebra
        from hatilt.verify import claim_higher_auslander

        model = ModelData(3, 2, VerifyConfig())
        lam_dim = model.lam().dim
        built = []
        init = BoundQuiverAlgebra.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(BoundQuiverAlgebra, "__init__", recording_init)
        ok, value = claim_higher_auslander(model)
        assert ok and value["domdim"] == 7
        # Lambda is resolved as built: the (n+d+1)-fold trivial extension of
        # B0 and its degree-zero part Lambda, then the (n+d)-fold one and B,
        # whose gldim gives that of Lambda's upper layers, are the only
        # algebras built
        b0_dim, b_dim = model.b0().dim, model.b_replicated().dim
        assert [alg.dim for alg in built] == [2 * 6 * b0_dim, lam_dim, 2 * 5 * b0_dim, b_dim]
        # B and its gldim are kept, so a second call builds Lambda alone
        built.clear()
        assert claim_higher_auslander(model) == (ok, value)
        assert [alg.dim for alg in built] == [2 * 6 * b0_dim, lam_dim]

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (5, 2), (2, 5), (4, 3), (3, 4)])
    def test_gldim_lambda_reads_its_upper_layers_off_b(self, d, n):
        from hatilt.complexes import gldim
        from hatilt.fdalg import corner_vanishes, idempotent_subalgebra

        model = ModelData(d, n, VerifyConfig())
        lam, B, k = model.lam(), model.b_replicated(), len(model.dyck())
        upper = range(k, lam.nidem)
        # the upper layers hold the support of their projectives, and their
        # corner is B with vertices translated by k
        assert corner_vanishes(lam, upper)
        assert idempotent_subalgebra(lam, upper).cartan() == B.cartan()
        direct = [gldim(lam, vertices=[v]) for v in lam.vertex_ids()]
        assert direct[k:] == [gldim(B, vertices=[v]) for v in B.vertex_ids()]
        assert model.gldim_lambda(lam) == max(direct) == gldim(lam)


class TestRunClaims:
    def test_combinatorial_subset_passes(self):
        claims, failed, skipped = run_claims(2, 3, COMBINATORIAL_CLAIMS)
        assert not failed and not skipped
        assert [c["name"] for c in claims] == COMBINATORIAL_CLAIMS
        by_name = {c["name"]: c for c in claims}
        assert by_name["dyck_count"]["value"]["count"] == 2
        # block dimension formula: (2(n+d) - 1) * dim End(P)
        assert by_name["rigidity"]["value"]["end_dim"] == 9 * 3

    def test_selection_preserves_declared_order(self):
        names = ["generation", "dyck_count"]
        claims, _, _ = run_claims(2, 3, names)
        assert [c["name"] for c in claims] == ["dyck_count", "generation"]

    def test_budget_exhaustion_marks_skipped(self):
        claims, failed, skipped = run_claims(
            3, 2, ["gldim_B"], VerifyConfig(max_resolution_length=2)
        )
        assert skipped and not failed
        assert claims[0]["status"] == "skipped"
        assert "reason" in claims[0]["value"]

    @pytest.mark.parametrize(
        "names, unknown", [(["dyck_count", "gldim_b"], "gldim_b"), (["nope"], "nope")]
    )
    def test_unknown_claim_names_raise_before_any_claim_runs(self, names, unknown, monkeypatch):
        import hatilt.verify

        ran = []
        monkeypatch.setattr(
            hatilt.verify,
            "CLAIMS",
            [(name, lambda model, name=name: ran.append(name)) for name, _ in hatilt.verify.CLAIMS],
        )
        with pytest.raises(ValueError, match=f"unknown claims: {unknown}$"):
            run_claims(3, 2, names)
        assert ran == []

    def test_all_claim_names_are_registered(self):
        assert len(CLAIM_NAMES) == len(set(CLAIM_NAMES))
        assert set(COMBINATORIAL_CLAIMS) <= set(CLAIM_NAMES)

    def test_gldim_values_5_2(self):
        claims, failed, _ = run_claims(5, 2, ["gldim_A", "gldim_B0"])
        assert not failed
        by_name = {c["name"]: c for c in claims}
        assert by_name["gldim_A"]["value"]["gldim"] == 5
        # s = ceil(5/2) = 3, so the base algebra has global dimension 2
        assert by_name["gldim_B0"]["value"]["gldim"] == 2

    def test_cache_dir_is_ignored(self, tmp_path, monkeypatch):
        # a planted value must not change a verdict, and nothing is written
        poisoned = tmp_path / "gldim-A-n2-d3-v0.1.0.json"
        poisoned.write_text('{"gldim": 99}')
        monkeypatch.setenv("HA_CACHE_DIR", str(tmp_path))
        claims, failed, skipped = run_claims(3, 2, ["gldim_A", "gldim_B0"])
        assert not failed and not skipped
        assert claims[0]["value"]["gldim"] == 3
        assert [p.name for p in tmp_path.iterdir()] == [poisoned.name]


def without_ms(claims):
    return [{k: v for k, v in c.items() if k != "ms"} for c in claims]


class TestClaimWorker:
    """``run_claims`` runs ``RESOLUTION_CLAIMS`` in a forked worker when both
    groups are selected and two CPUs are usable.  Each test pins the CPU
    count, so that it takes the same path on any host, and checks that no
    child process is left behind."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two usable CPUs; yields the pids of the workers forked."""
        real_fork, pids = os.fork, []

        def fork():
            pid = real_fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fork)
        yield pids
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def plant(monkeypatch, name, claim):
        claims = [(n, claim if n == name else fn) for n, fn in hatilt.verify.CLAIMS]
        monkeypatch.setattr(hatilt.verify, "CLAIMS", claims)

    @staticmethod
    def in_worker(parent_pid, action):
        """A claim that runs ``action`` in the worker, and fails the test if
        it runs in the parent."""

        def claim(model):
            if os.getpid() == parent_pid:
                raise AssertionError("a resolution claim ran in the parent")
            action()

        return claim

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_forked_reports_match_the_groups_run_one_at_a_time(self, d, n, forks):
        claims, failed, skipped = run_claims(d, n, CLAIM_NAMES)
        assert len(forks) == 1
        alone, failed_alone, skipped_alone = run_claims_group_by_group(d, n)
        assert len(forks) == 1
        assert json.dumps(without_ms(claims)) == json.dumps(without_ms(alone))
        assert (failed, skipped) == (failed_alone, skipped_alone) == (False, False)

    def test_one_usable_cpu_runs_both_groups_here(self, monkeypatch):
        def forbidden():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", forbidden)
        claims, _, _ = run_claims(3, 2, CLAIM_NAMES)
        assert without_ms(claims) == without_ms(run_claims_group_by_group(3, 2)[0])
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert without_ms(run_claims(3, 2, CLAIM_NAMES)[0]) == without_ms(claims)

    def test_a_failed_fork_runs_both_groups_here(self, monkeypatch):
        def refused():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", refused)
        open_fds = sorted(os.listdir("/proc/self/fd"))
        claims, _, _ = run_claims(3, 2, CLAIM_NAMES)
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        assert without_ms(claims) == without_ms(run_claims_group_by_group(3, 2)[0])

    def test_another_thread_keeps_both_groups_here(self, monkeypatch):
        def forbidden():
            raise AssertionError("forked beside another thread")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", forbidden)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            claims, _, _ = run_claims(3, 2, CLAIM_NAMES)
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert without_ms(claims) == without_ms(run_claims_group_by_group(3, 2)[0])

    @pytest.mark.parametrize(
        "names",
        [
            COMBINATORIAL_CLAIMS,
            RESOLUTION_CLAIMS,
            [name for name in CLAIM_NAMES if name not in RESOLUTION_CLAIMS],
            ["gldim_B", "higher_auslander"],
        ],
    )
    def test_one_group_never_forks(self, names, monkeypatch):
        def forbidden():
            raise AssertionError("forked for one claim group")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", forbidden)
        claims, failed, skipped = run_claims(3, 2, names)
        assert [c["name"] for c in claims] == [name for name in CLAIM_NAMES if name in names]
        assert all(c["status"] == "pass" for c in claims) and not failed and not skipped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def assert_worker_errors(self, claims, reason):
        """The resolution claims say ``error`` with a reason that starts with
        ``reason``, the others pass."""
        for c in claims:
            if c["name"] in RESOLUTION_CLAIMS:
                assert (c["status"], list(c["value"]), c["ms"]) == ("error", ["reason"], 0)
                assert c["value"]["reason"].startswith(reason)
            else:
                assert c["status"] == "pass"

    def test_the_claims_on_a_alone_run_here(self, forks, monkeypatch):
        # the worker's share stays well below this process's, so that the
        # run ends with this process's group
        parent, ran = os.getpid(), []
        for name in ("gldim_A", "fcy_A"):
            real = dict(hatilt.verify.CLAIMS)[name]

            def here(model, real=real, name=name):
                assert os.getpid() == parent, f"{name} ran in the worker"
                ran.append(name)
                return real(model)

            self.plant(monkeypatch, name, here)
        claims, failed, skipped = run_claims(3, 2, CLAIM_NAMES)
        assert len(forks) == 1 and ran == ["gldim_A", "fcy_A"]
        assert all(c["status"] == "pass" for c in claims) and not failed and not skipped

    def test_a_worker_that_exits_errors_its_group_only(self, forks, monkeypatch):
        self.plant(monkeypatch, "gldim_B", self.in_worker(os.getpid(), lambda: os._exit(3)))
        claims, failed, skipped = run_claims(3, 2, CLAIM_NAMES)
        assert [c["name"] for c in claims] == CLAIM_NAMES and not failed and not skipped
        self.assert_worker_errors(claims, "the claim worker exited with status 3")

    def test_a_killed_worker_errors_its_group_only(self, forks, monkeypatch):
        kill = self.in_worker(os.getpid(), lambda: os.kill(os.getpid(), signal.SIGKILL))
        self.plant(monkeypatch, "two_subhomogeneous", kill)
        claims, _, _ = run_claims(3, 2, CLAIM_NAMES)
        self.assert_worker_errors(claims, "the claim worker was killed by signal 9 (Killed)")

    @pytest.mark.parametrize(
        "payload, reason",
        [
            (b"", "wrote an unreadable report: EOFError: "),
            (b"\x00", "wrote an unreadable report: ValueError: "),
            ([], "reported other claims than it ran"),
            ([{"status": "pass"}], "wrote an unreadable report: KeyError: 'name'"),
        ],
    )
    def test_an_unreadable_report_errors_the_worker_group(
        self, payload, reason, forks, monkeypatch
    ):
        class Stub:
            loads = staticmethod(marshal.loads)

            @staticmethod
            def dumps(results):
                return payload if isinstance(payload, bytes) else marshal.dumps(payload)

        monkeypatch.setattr(hatilt.verify, "marshal", Stub)
        claims, _, _ = run_claims(3, 2, CLAIM_NAMES)
        self.assert_worker_errors(claims, f"the claim worker {reason}")

    def test_a_budget_error_in_the_worker_is_skipped(self, forks, monkeypatch):
        def over_budget():
            raise BudgetError("planted in the worker")

        self.plant(monkeypatch, "gldim_B0", self.in_worker(os.getpid(), over_budget))
        claims, failed, skipped = run_claims(3, 2, CLAIM_NAMES)
        assert skipped and not failed
        not_passed = [(c["name"], c["status"], c["value"]) for c in claims if c["status"] != "pass"]
        assert not_passed == [("gldim_B0", "skipped", {"reason": "planted in the worker"})]

    @pytest.mark.parametrize("raised", [KeyboardInterrupt, RuntimeError])
    def test_the_parent_raising_kills_and_reaps_the_worker(self, raised, forks, monkeypatch):
        def interrupted(model):
            raise raised("planted in the parent")

        # the worker would outlive the test by a minute if it were not killed
        self.plant(monkeypatch, "gldim_B", self.in_worker(os.getpid(), lambda: time.sleep(60)))
        monkeypatch.setattr(hatilt.verify, "_run_group", self.raising_after(interrupted))
        start = time.monotonic()
        with pytest.raises(raised, match="planted in the parent"):
            run_claims(3, 2, CLAIM_NAMES)
        assert time.monotonic() - start < 30
        (pid,) = forks
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @staticmethod
    def raising_after(interrupted):
        """``_run_group`` that raises from ``interrupted`` in the parent, out
        of the per-claim handling, once the worker has forked."""

        real, parent = hatilt.verify._run_group, os.getpid()

        def run_group(model, names):
            if os.getpid() == parent:
                interrupted(model)
            return real(model, names)

        return run_group


def assert_only_corner_skipped(claims):
    not_passed = [c for c in claims if c["status"] != "pass"]
    assert [(c["name"], c["status"]) for c in not_passed] == [("idempotent_corner", "skipped")]
    assert "degenerates" in not_passed[0]["value"]["reason"]


class TestOtherModels:
    def test_transposed_model_2_3(self):
        claims, failed, skipped = run_claims(
            2, 3, ["hom_agreement", "endo_replicate", "gldim_B0"]
        )
        assert not failed and not skipped
        by_name = {c["name"]: c for c in claims}
        assert by_name["endo_replicate"]["value"]["dim"] == 27
        assert by_name["gldim_B0"]["value"]["gldim"] == 1

    # on these models d = ceil(d/n), so the smaller Auslander algebra of
    # idempotent_corner degenerates and that claim alone is skipped
    def test_smallest_model_1_1(self):
        claims, failed, skipped = run_claims(1, 1, CLAIM_NAMES)
        assert not failed and skipped
        assert_only_corner_skipped(claims)

    def test_width_one_model_1_2(self):
        claims, failed, skipped = run_claims(1, 2, CLAIM_NAMES)
        assert not failed and skipped
        assert_only_corner_skipped(claims)

    def test_algebra_budget_bounds_every_model_algebra(self):
        # at (3,2) A has dimension 28, B and End(T) 27, Pi 30 and Lambda 33
        claims, failed, skipped = run_claims(
            3, 2, CLAIM_NAMES, VerifyConfig(max_algebra_dim=30)
        )
        assert not failed and skipped
        not_passed = [c for c in claims if c["status"] != "pass"]
        assert [(c["name"], c["status"]) for c in not_passed] == [
            ("higher_auslander", "skipped")
        ]
        assert "max_algebra_dim" in not_passed[0]["value"]["reason"]

    def test_fcy_budget_stops_the_walk_where_it_stops_iteration(self):
        # the orbit walk resolves the same complexes as iterating nu, so a
        # resolution budget of 2 skips fcy_A at (3,2) and 3 lets it pass
        claims, failed, skipped = run_claims(
            3, 2, ["fcy_A"], VerifyConfig(max_resolution_length=2)
        )
        assert skipped and not failed
        assert claims[0]["status"] == "skipped"
        assert claims[0]["value"] == {
            "reason": "resolution of complex exceeds max length 2"
        }
        claims, failed, skipped = run_claims(
            3, 2, ["fcy_A"], VerifyConfig(max_resolution_length=3)
        )
        assert not failed and not skipped
        assert claims[0]["status"] == "pass"

    def test_gldim_B_reported_value_3_2(self):
        claims, failed, _ = run_claims(3, 2, ["gldim_B"])
        assert not failed
        assert claims[0]["value"]["gldim"] == 6


class TestHomRuleFaultInjection:
    def test_rigidity_and_serre_symmetry_see_a_broken_hom_rule(self, monkeypatch):
        # a rule that forgets the shifts gives Hom(u, u[d]) = 1 and breaks
        # the twist symmetry; both claims must catch it and report what the
        # checks asked one hom_dim query at a time find
        plant_shift_blind_rule(monkeypatch)
        claims, failed, _ = run_claims(3, 2, ["rigidity", "serre_symmetry"])
        assert failed
        assert [(c["name"], c["status"]) for c in claims] == [
            ("rigidity", "fail"),
            ("serre_symmetry", "fail"),
        ]
        report = rigidity_check_by_hom_dim(3, 2)
        assert claims[0]["value"] == {
            "end_dim": report.end_dim,
            "violations": len(report.violations),
        }
        u, v = serre_symmetry_by_hom_dim(3, 2)
        assert claims[1]["value"] == {"pair": (u.path.steps, u.shift, v.path.steps, v.shift)}


class TestOrbitNormalFormWitness:
    def test_a_fail_names_the_path_and_its_dyck_rotation_count(self, monkeypatch):
        # a helper that also takes the end point, where v returns to v_0,
        # counts rotation 0 twice on every Dyck path; the first path of
        # L_{3,2}, HHHVV, is Dyck
        real = hatilt.verify.dyck_rotations

        def with_the_end_point(p):
            hits = real(p)
            return hits + [p.d + p.n] if hits[0] == 0 else hits

        monkeypatch.setattr(hatilt.verify, "dyck_rotations", with_the_end_point)
        claims, failed, _ = run_claims(3, 2, ["orbit_normal_form"])
        assert failed
        assert claims[0]["status"] == "fail"
        assert claims[0]["value"] == {"path": "HHHVV", "dyck_rotations": 2}


def _first_direct_failure(d, n, twist):
    """The first path p of L_{d+1,n} whose n+d+1 direct ``twist`` steps from
    (p, 0) miss (p, n), as the claim reports it; None when there is none."""
    for p in enumerate_all(d + 1, n):
        u = ShiftedModule(p, 0)
        for _ in range(n + d + 1):
            u = twist(u)
        if u != ShiftedModule(p, n):
            return {"path": p.steps}
    return None


class TestFcyCombinatorialWalk:
    # the claim walks each rotation orbit once; an orbit is shorter than
    # n+d+1 when gcd(d+1, n) > 1, as at (3, 2), (5, 3) and (3, 4)
    GRIDS = [(3, 2), (5, 3), (3, 4), (4, 3)]

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_walked_twists_are_the_iterated_twists(self, d, n):
        # the claim passes only if each path's walked twist is (p, n), and
        # n+d+1 direct nakayama calls give (p, n): they agree path by path
        assert _first_direct_failure(d, n, nakayama) is None
        ok, value = claim_fcy_combinatorial(ModelData(d, n, VerifyConfig()))
        assert ok and value == {"objects": math.comb(d + n + 1, d + 1)}

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_a_planted_bump_on_one_path_is_seen_in_its_orbit(self, d, n, monkeypatch):
        # one extra bump on one path moves the twists of its whole orbit by
        # (n+d+1)/orbit length; the claim must name the path that direct
        # iteration names, for a planted path in every orbit
        model = ModelData(d, n, VerifyConfig())
        for target in enumerate_all(d + 1, n):

            def planted(u, target=target):
                v = nakayama(u)
                return ShiftedModule(v.path, v.shift + (u.path == target))

            monkeypatch.setattr(hatilt.verify, "nakayama", planted)
            expected = _first_direct_failure(d, n, planted)
            assert expected is not None
            assert claim_fcy_combinatorial(model) == (False, expected)

    @pytest.mark.parametrize("d, n", [(3, 2), (5, 3), (4, 3)])
    def test_a_bump_on_horizontal_steps_fails_where_iteration_fails(self, d, n, monkeypatch):
        # bumping on an H first step instead twists by [d+1], not [n]
        def on_horizontal(u):
            return ShiftedModule(rotate(u.path), u.shift + (u.path.steps[0] == "H"))

        monkeypatch.setattr(hatilt.verify, "nakayama", on_horizontal)
        expected = _first_direct_failure(d, n, on_horizontal)
        assert expected is not None
        model = ModelData(d, n, VerifyConfig())
        assert claim_fcy_combinatorial(model) == (False, expected)
        claims, failed, _ = run_claims(d, n, ["fcy_combinatorial"])
        assert failed and claims[0]["value"] == expected

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_each_orbit_is_walked_once(self, d, n, monkeypatch):
        calls = 0

        def counting(u):
            nonlocal calls
            calls += 1
            return nakayama(u)

        monkeypatch.setattr(hatilt.verify, "nakayama", counting)
        assert claim_fcy_combinatorial(ModelData(d, n, VerifyConfig()))[0]
        size = n + d + 1
        paths = enumerate_all(d + 1, n)
        orbits = len({min(rotate_pow(p, k).steps for k in range(size)) for p in paths})
        # some orbit is short exactly when gcd(d+1, n) > 1
        assert (orbits * size > len(paths)) == (math.gcd(d + 1, n) > 1)
        assert calls <= len(paths) + orbits * size


class TestInterleavingAgreement:
    # the up-set comparison against the test of every pair
    @pytest.mark.parametrize("d, n", COPRIME_UP_TO_8)
    def test_matches_the_pairwise_loop(self, d, n):
        model = ModelData(d, n, VerifyConfig())
        assert claim_interleaving_agreement(model) == interleaving_agreement_by_pairs(d, n)

    @pytest.mark.parametrize("d, n", COPRIME_UP_TO_8)
    def test_matches_the_pairwise_loop_under_a_planted_fault(self, monkeypatch, d, n):
        # a relation R that misses every pair whose first height rises by two
        # or more; the claim reads it as a box, the loop as a predicate
        def faulty(h1, h2):
            return heights_related(h1, h2) and h2[0] - h1[0] < 2

        heights = [p.column_heights() for p in enumerate_all(d, n)]
        monkeypatch.setattr(oracles, "heights_related", faulty)
        monkeypatch.setattr(
            hatilt.verify, "heights_up_box", lambda h, top: [g for g in heights if faulty(h, g)]
        )
        ok, value = claim_interleaving_agreement(ModelData(d, n, VerifyConfig()))
        assert (ok, value) == interleaving_agreement_by_pairs(d, n)
        assert ok == (n == 1)


class TestReferenceReports:
    # the benchmark compares its claim runs with these files; a changed
    # claim value fails here as well
    REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference"

    @pytest.mark.parametrize(
        "names, stem", [(COMBINATORIAL_CLAIMS, "combinatorial"), (CLAIM_NAMES, "all")]
    )
    def test_reports_at_3_2_match_the_reference(self, names, stem):
        claims, _, _ = run_claims(3, 2, names)
        report = [{k: v for k, v in c.items() if k != "ms"} for c in claims]
        expected = json.loads((self.REFERENCE / f"{stem}_d3_n2.json").read_text())
        assert json.loads(json.dumps(report)) == expected

    def test_reports_at_the_verify_model_match_the_reference(self):
        # (4, 3) is the model of the benchmark's verify workload
        claims, _, _ = run_claims(4, 3, CLAIM_NAMES)
        report = [{k: v for k, v in c.items() if k != "ms"} for c in claims]
        expected = json.loads((self.REFERENCE / "all_d4_n3.json").read_text())
        assert json.loads(json.dumps(report)) == expected


class TestReferenceCycles:
    def test_a_run_leaves_no_module_or_algebra_in_cyclic_garbage(self):
        # what a claim drops must be freed by reference counting, not wait
        # for a full collection that decides when the peak memory falls
        from hatilt.quiveralg import BoundQuiverAlgebra, QuiverRep

        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            claims, _, _ = run_claims_group_by_group(3, 2)
            gc.collect()
            kinds = {type(o) for o in gc.garbage}
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert all(c["status"] == "pass" for c in claims)
        assert not kinds & {QuiverRep, BoundQuiverAlgebra}

    def test_memoised_hom_queries_leave_no_cycle_and_memos_hold_plain_data(self):
        # the module cache and the resolution memo live on the algebra;
        # holding only tuples, dicts, lists, matrices and scalars, they keep
        # no module or complex alive and make no cycle through the algebra
        from fractions import Fraction

        from hatilt.complexes import ProjComplex, hom_complex_dim, shifted_module_complex
        from hatilt.exactmat import ExactMatrix
        from hatilt.pathcomb import enumerate_os
        from hatilt.quiveralg import BoundQuiverAlgebra, QuiverRep, build_auslander_algebra, module_M

        def leaves(obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield from leaves(k)
                    yield from leaves(v)
            elif isinstance(obj, (tuple, list)):
                for v in obj:
                    yield from leaves(v)
            elif type(obj) is ExactMatrix:
                yield from leaves(obj.data)
            else:
                yield obj

        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            alg = build_auslander_algebra(5, 3)  # model (3, 4)
            labels = list(enumerate_os(5, 4))[::7]
            dims = []
            for s in (-1, 0, 2):
                for x in labels:
                    X = shifted_module_complex(alg, module_M(alg, x), 3 * s)
                    for y in labels:
                        Y = shifted_module_complex(alg, module_M(alg, y), 3 * s)
                        dims.append(hom_complex_dim(X, Y, 0))
            memos = (alg._modules, alg._resolution_memo)
            memo_sizes = tuple(map(len, memos))
            leaf_kinds = {type(v) for memo in memos for v in leaves(memo)}
            del X, Y, alg, memos
            gc.collect()
            kinds = {type(o) for o in gc.garbage}
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert any(dims) and memo_sizes == (len(labels), len(labels))
        assert leaf_kinds <= {int, Fraction, str}
        assert not kinds & {QuiverRep, BoundQuiverAlgebra, ProjComplex}


class TestTracerTargets:
    # names the tracer lists that no longer exist in the package
    STALE = {
        "complexes.complexes_isomorphic",
        "fdalg.endo_algebra",
        "fdalg.radical_powers",
        "quiveralg.direct_sum",
        "quiveralg.kernel_of_morphism",
        "quiveralg.hom_space",
    }

    def test_every_traced_name_resolves(self):
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
        spec = importlib.util.spec_from_file_location("hatilt_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = set()
        # resolve each target the way Tracer.install does, without patching
        for module, targets in tracer.TARGETS.items():
            home = importlib.import_module(f"hatilt.{module}")
            for target in targets:
                owner, attr = home, target
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(home, cls_name, None)
                if getattr(owner, attr, None) is None:
                    missing.add(tracer.metric_name(module, target))
        assert missing == self.STALE
