"""Fixture corpus for the four repo rules: minimal bad/good snippets.

Every rule has at least one *failing-before* example modeled on a real
bug this repo has shipped (the PR 4 frozenset float-sum, the PR 2
closure-pickling failure) plus good-twin snippets that must stay clean —
the rules are only useful if their false-positive rate on idiomatic code
is zero.
"""

from __future__ import annotations

import textwrap

import pytest


def dedent(text: str) -> str:
    return textwrap.dedent(text).lstrip()


# ---------------------------------------------------------------------------
# RB101 — unordered iteration feeding an order-sensitive fold
# ---------------------------------------------------------------------------

# The shape of the real PR 4 bug: a dataclass field annotated as a
# frozenset of kinds, float costs summed in set-iteration order, which
# varies run-to-run under hash randomization.
PR4_FROZENSET_FLOAT_SUM = dedent(
    """
    from dataclasses import dataclass

    COSTS = {"pid": 0.12, "net": 3.5, "mnt": 0.7}

    @dataclass(frozen=True)
    class NamespaceSet:
        kinds: frozenset[str]

        def creation_cost(self) -> float:
            return sum(COSTS[kind] for kind in self.kinds)
    """
)


class TestUnorderedFoldRule:
    CODE = "RB101"

    def test_pr4_frozenset_float_sum_is_caught(self, lint_source, codes_of):
        findings = lint_source(PR4_FROZENSET_FLOAT_SUM, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert findings[0].line == 10
        assert "order is not stable" in findings[0].message

    def test_left_sum_over_frozenset_is_caught(self, lint_source, codes_of):
        """``repro.units.left_sum`` folds like ``sum``."""
        source = PR4_FROZENSET_FLOAT_SUM.replace("return sum(", "return left_sum(")
        assert codes_of(lint_source(source, rules=[self.CODE])) == [self.CODE]

    def test_sum_over_set_literal_variable(self, lint_source, codes_of):
        source = dedent(
            """
            weights = {0.1, 0.2, 0.7}
            total = sum(weights)
            """
        )
        assert codes_of(lint_source(source, rules=[self.CODE])) == [self.CODE]

    def test_sum_over_dict_values(self, lint_source, codes_of):
        source = dedent(
            """
            def total(costs: dict) -> float:
                return sum(costs.values())
            """
        )
        assert codes_of(lint_source(source, rules=[self.CODE])) == [self.CODE]

    def test_join_and_list_over_set(self, lint_source, codes_of):
        source = dedent(
            """
            names = {"a", "b"}
            label = ",".join(names)
            ordered = list(names)
            """
        )
        assert codes_of(lint_source(source, rules=[self.CODE])) == [
            self.CODE,
            self.CODE,
        ]

    def test_accumulating_for_loop_over_set(self, lint_source, codes_of):
        source = dedent(
            """
            kinds = frozenset({"pid", "net"})
            rows = []
            total = 0.0
            for kind in kinds:
                total += 1.5
                rows.append(kind)
            """
        )
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]

    def test_sorted_wrapping_is_clean(self, lint_source):
        source = dedent(
            """
            kinds = frozenset({"pid", "net"})
            total = sum(1.5 for kind in sorted(kinds))
            ordered = sorted(kinds)
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_declaration_order_items_fold_is_clean(self, lint_source):
        # The actual PR 4 fix: iterate the cost table in declaration order.
        source = dedent(
            """
            COSTS = {"pid": 0.12, "net": 3.5}

            def creation_cost(kinds: frozenset[str]) -> float:
                return sum(cost for kind, cost in COSTS.items() if kind in kinds)
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_membership_and_len_over_set_are_clean(self, lint_source):
        source = dedent(
            """
            kinds = {"pid", "net"}
            present = "pid" in kinds
            count = len(kinds)
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []


# ---------------------------------------------------------------------------
# RB102 — randomness/clocks outside the seed tree
# ---------------------------------------------------------------------------


class TestSeedDisciplineRule:
    CODE = "RB102"

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nx = random.random()\n",
            "import random as rnd\nx = rnd.gauss(0.0, 1.0)\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy as np\nnp.random.seed(7)\n",
            "import time\nstamp = time.time()\n",
            "import time\nspan = time.perf_counter()\n",
            "import os\ntoken = os.urandom(16)\n",
            "import uuid\nrun_id = uuid.uuid4()\n",
            "import secrets\nkey = secrets.token_hex(8)\n",
            "from time import perf_counter\nspan = perf_counter()\n",
        ],
        ids=[
            "random",
            "random-alias",
            "np-default-rng",
            "np-global-seed",
            "time-time",
            "perf-counter",
            "os-urandom",
            "uuid4",
            "secrets",
            "from-import-clock",
        ],
    )
    def test_entropy_and_clock_calls_are_caught(
        self, lint_source, codes_of, snippet
    ):
        assert codes_of(lint_source(snippet, rules=[self.CODE])) == [self.CODE]

    def test_seed_tree_constructors_are_clean(self, lint_source):
        # PCG64/Generator/SeedSequence fed explicit seeds are the
        # sanctioned pattern — only *implicit* entropy is flagged.
        source = dedent(
            """
            import numpy as np

            def stream(seed: int):
                return np.random.Generator(np.random.PCG64(seed))

            def spawn(seed: int):
                return np.random.SeedSequence(seed)
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_seam_module_is_exempt(self, lint_source):
        source = "import time\nstamp = time.time()\n"
        findings = lint_source(
            source, rules=[self.CODE], relpath="src/repro/core/store.py"
        )
        assert findings == []

    def test_non_clock_time_attr_is_clean(self, lint_source):
        source = "import time\ntime.sleep(0.01)\n"
        assert lint_source(source, rules=[self.CODE]) == []


# ---------------------------------------------------------------------------
# RB103 — unpicklable callables flowing into dispatch seams
# ---------------------------------------------------------------------------

# The PR 2 bug class: a closure handed to the process-pool mapper dies in
# pickle only once the process backend is selected.
PR2_CLOSURE_INTO_MAPPER = dedent(
    """
    def run(jobs, pool, scale):
        def work(job):
            return job.cost * scale

        return pool.map(work, jobs)
    """
)


class TestPickleSafetyRule:
    CODE = "RB103"

    def test_pr2_closure_into_pool_map_is_caught(self, lint_source, codes_of):
        findings = lint_source(PR2_CLOSURE_INTO_MAPPER, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "work" in findings[0].message

    def test_lambda_into_submit_is_caught(self, lint_source, codes_of):
        source = dedent(
            """
            def run(executor, jobs):
                return [executor.submit(lambda j: j.cost, job) for job in jobs]
            """
        )
        assert codes_of(lint_source(source, rules=[self.CODE])) == [self.CODE]

    def test_lambda_into_send_frame_tuple_is_caught(self, lint_source, codes_of):
        source = dedent(
            """
            def dispatch(sock, send_frame, job):
                send_frame(sock, ("job", job.key, lambda: job.payload))
            """
        )
        assert codes_of(lint_source(source, rules=[self.CODE])) == [self.CODE]

    def test_module_level_function_is_clean(self, lint_source):
        source = dedent(
            """
            def work(job):
                return job.cost

            def run(jobs, pool):
                return pool.map(work, jobs)
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_builtin_map_is_not_a_sink(self, lint_source):
        source = dedent(
            """
            def run(jobs):
                return list(map(lambda j: j.cost, jobs))
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []


# ---------------------------------------------------------------------------
# RB104 — protocol-frame hygiene
# ---------------------------------------------------------------------------

MISSING_HANDLER_ARM = dedent(
    """
    def send_frame(sock, message):
        sock.sendall(message)

    def client(sock, job):
        send_frame(sock, ("job", job))
        send_frame(sock, ("shutdown",))

    def serve(sock, message):
        tag = message[0]
        if tag == "job":
            return run(message[1])
    """
)

GOOD_PROTOCOL = dedent(
    """
    PROTOCOL_VERSION = 3

    def send_frame(sock, message):
        sock.sendall(message)

    def client(sock, job):
        send_frame(sock, {"protocol": PROTOCOL_VERSION})
        send_frame(sock, ("job", job))
        send_frame(sock, ("shutdown",))

    def serve(sock, message):
        tag = message[0]
        if tag == "job":
            return run(message[1])
        if tag == "shutdown":
            return None
    """
)


class TestProtocolHygieneRule:
    CODE = "RB104"

    def test_missing_handler_arm_is_caught(self, lint_source, codes_of):
        findings = lint_source(MISSING_HANDLER_ARM, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "shutdown" in findings[0].message

    def test_inline_version_literal_is_caught(self, lint_source, codes_of):
        source = dedent(
            """
            def send_frame(sock, message):
                sock.sendall(message)

            def client(sock):
                send_frame(sock, {"protocol": 3})
            """
        )
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "version" in findings[0].message

    def test_complete_protocol_is_clean(self, lint_source):
        assert lint_source(GOOD_PROTOCOL, rules=[self.CODE]) == []

    def test_tag_resolved_through_local_helper(self, lint_source, codes_of):
        # Tags built by a helper function (remote.py's reply builders)
        # must resolve; the unhandled one still fires.
        source = dedent(
            """
            def send_frame(sock, message):
                sock.sendall(message)

            def _reply(key, value):
                return ("result", key, value)

            def serve(sock, key, value):
                send_frame(sock, _reply(key, value))
                send_frame(sock, ("error", key))

            def client(message):
                tag = message[0]
                if tag == "result":
                    return message[2]
            """
        )
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "error" in findings[0].message

    def test_unhandled_chunk_reply_arm_is_caught(self, lint_source, codes_of):
        # The v2 chunked dispatch frames: a client that receives both
        # ("chunk_result", ...) and ("error", ...) replies must string-
        # compare both tags; dropping the chunk_result arm fails analysis.
        source = dedent(
            """
            def send_frame(sock, message):
                sock.sendall(message)

            def worker(sock, seq, values):
                send_frame(sock, ("chunk_result", seq, values))
                send_frame(sock, ("error", seq, "boom"))

            def client(message):
                tag = message[0]
                if tag == "error":
                    raise RuntimeError(message[2])
            """
        )
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "chunk_result" in findings[0].message

    def test_complete_chunk_protocol_is_clean(self, lint_source):
        # The shape remote.py actually ships: hello + chunk work frames,
        # every tag matched by a handler arm, version as a named constant.
        source = dedent(
            """
            PROTOCOL_VERSION = 2

            def send_frame(sock, message):
                sock.sendall(message)

            def client(sock, seq, fn, chunk):
                send_frame(sock, ("hello", {"protocol": PROTOCOL_VERSION}))
                send_frame(sock, ("chunk", seq, fn, chunk))

            def serve(sock, message):
                tag = message[0]
                if tag == "hello":
                    return None
                if tag == "chunk":
                    return message[3]
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    VERB_TABLE_SERVICE = """
        def send_frame(sock, message):
            sock.sendall(message)

        def recv_frame(sock):
            return sock.recv()

        class Store(Service):
            verbs = {{"get": (1, "_get"){extra}}}

            def _get(self, key):
                return key

            def _put(self, key, value):
                return True

        class StoreClient(ServiceClient):
            def _request(self, message):
                sock = self._connection()
                send_frame(sock, message)
                return recv_frame(sock)

            def get(self, key):
                return self._request(("get", key))

            def put(self, key, value):
                return self._request(("put", key, value))
        """

    def test_verb_missing_from_the_verb_table_is_caught(self, lint_source, codes_of):
        source = dedent(self.VERB_TABLE_SERVICE.format(extra=""))
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "'put'" in findings[0].message

    def test_verb_in_the_verb_table_is_handled(self, lint_source):
        source = dedent(self.VERB_TABLE_SERVICE.format(extra=', "put": (2, "_put")'))
        assert lint_source(source, rules=[self.CODE]) == []


# ---------------------------------------------------------------------------
# Real-tree spot checks: the rules run clean on the modules whose bug
# classes they encode, as fixed today.
# ---------------------------------------------------------------------------


class TestRulesOnRealTree:
    @pytest.mark.parametrize(
        "module, code",
        [
            ("src/repro/kernel/namespaces.py", "RB101"),
            ("src/repro/core/runner.py", "RB102"),
            ("src/repro/core/remote.py", "RB103"),
            ("src/repro/core/remote.py", "RB104"),
            ("src/repro/core/storenet.py", "RB104"),
            ("src/repro/core/fleet.py", "RB104"),
            ("src/repro/core/service.py", "RB104"),
        ],
    )
    def test_fixed_module_is_clean(self, repo_root, module, code):
        from repro.analysis import Analyzer, ModuleSource

        path = repo_root / module
        analyzer = Analyzer(rules=[code])
        source = ModuleSource.load(path, module)
        findings = analyzer.analyze_modules([source])
        # Running one rule in isolation makes pragmas for *other* rules
        # look unused; only findings of the rule under test matter here.
        assert [f for f in findings if f.code == code] == []
