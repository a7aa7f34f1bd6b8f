"""Fixture tests for the determinism lint: every REP rule fires on minimal
bad code, stays quiet on the equivalent good code, and respects per-line
``# repro: noqa-REPxxx`` suppressions."""

from __future__ import annotations

import pytest

from repro.check.lint import (
    RULES, Finding, default_lint_root, iter_python_files, lint_repo, lint_source)


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------- REP001
class TestRep001WallClock:
    def test_fires_on_time_time(self):
        assert rules_of(lint_source("import time\nt = time.time()\n")) == ["REP001"]

    def test_fires_on_perf_counter(self):
        assert "REP001" in rules_of(lint_source("import time\nt = time.perf_counter()\n"))

    def test_fires_on_datetime_now(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert "REP001" in rules_of(lint_source(src))

    def test_fires_on_from_import(self):
        assert "REP001" in rules_of(lint_source("from time import monotonic\n"))

    def test_quiet_on_simulated_clock(self):
        src = ("from repro.storage.simdisk import SimClock\n"
               "clock = SimClock()\nnow = clock.now\n")
        assert rules_of(lint_source(src)) == []

    def test_quiet_on_time_sleep_name(self):
        # Only *reading* the clock is banned; unrelated time attrs pass.
        assert rules_of(lint_source("import time\ntime.struct_time\n")) == []

    def test_fires_through_a_module_alias(self):
        src = "import time as _host\nt = _host.perf_counter()\n"
        assert rules_of(lint_source(src)) == ["REP001"]

    def test_fires_through_a_datetime_alias(self):
        assert rules_of(lint_source(
            "import datetime as dt\nt = dt.datetime.now()\n")) == ["REP001"]
        assert rules_of(lint_source(
            "from datetime import datetime as dt\nt = dt.now()\n")) == ["REP001"]

    def test_quiet_on_an_alias_that_reads_no_clock(self):
        assert rules_of(lint_source("import time as _host\n_host.struct_time\n")) == []


# ----------------------------------------------------------------- REP002
class TestRep002UnseededRng:
    def test_fires_on_global_random(self):
        assert rules_of(lint_source("import random\nx = random.random()\n")) == ["REP002"]

    def test_fires_on_global_shuffle(self):
        assert "REP002" in rules_of(lint_source("import random\nrandom.shuffle([1])\n"))

    def test_fires_on_seedless_random_instance(self):
        assert "REP002" in rules_of(lint_source("import random\nr = random.Random()\n"))

    def test_fires_on_seedless_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "REP002" in rules_of(lint_source(src))

    def test_fires_on_numpy_global(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert "REP002" in rules_of(lint_source(src))

    def test_fires_on_from_import(self):
        assert "REP002" in rules_of(lint_source("from random import randint\n"))

    def test_quiet_on_seeded_instance(self):
        src = ("import random\nr = random.Random(42)\nx = r.random()\n")
        assert rules_of(lint_source(src)) == []

    def test_quiet_on_seeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert rules_of(lint_source(src)) == []

    def test_fires_through_a_module_alias(self):
        src = "import random as _rng\nx = _rng.random()\n"
        assert rules_of(lint_source(src)) == ["REP002"]

    def test_fires_on_an_aliased_seedless_constructor(self):
        src = "from random import Random as R\nr = R()\n"
        assert rules_of(lint_source(src)) == ["REP002"]

    def test_quiet_on_an_aliased_seeded_constructor(self):
        src = "import random as _rng\nr = _rng.Random(3)\nx = r.random()\n"
        assert rules_of(lint_source(src)) == []

    @pytest.mark.parametrize("src", [
        "import random\nr = random.SystemRandom()\n",
        "from random import SystemRandom\n",
        "import os\nb = os.urandom(8)\n",
        "from os import urandom\n",
        "import secrets\nb = secrets.token_bytes(8)\n",
        "import secrets as s\nn = s.randbelow(10)\n",
        "from secrets import choice\n",
    ], ids=["SystemRandom", "from-SystemRandom", "urandom", "from-urandom",
            "secrets", "secrets-alias", "from-secrets"])
    def test_fires_on_host_entropy(self, src):
        assert rules_of(lint_source(src)) == ["REP002"]


# ----------------------------------------------------------------- REP003
class TestRep003SetIteration:
    def test_fires_on_set_display_for(self):
        assert rules_of(lint_source("for x in {1, 2, 3}:\n    pass\n")) == ["REP003"]

    def test_fires_on_set_constructor(self):
        src = "for x in set([3, 1]):\n    pass\n"
        assert "REP003" in rules_of(lint_source(src))

    def test_fires_in_comprehension(self):
        assert "REP003" in rules_of(lint_source("out = [x for x in {1, 2}]\n"))

    def test_quiet_on_sorted_set(self):
        assert rules_of(lint_source("for x in sorted({1, 2}):\n    pass\n")) == []

    def test_quiet_on_membership_test(self):
        assert rules_of(lint_source("ok = 1 in {1, 2}\n")) == []


# ----------------------------------------------------------------- REP004
class TestRep004FloatTimeEquality:
    def test_fires_on_debt_eq(self):
        assert rules_of(lint_source("if job.debt_s == 0.0:\n    pass\n")) == ["REP004"]

    def test_fires_on_now_neq(self):
        assert "REP004" in rules_of(lint_source("bad = clock.now != t0\n"))

    def test_quiet_on_inequality(self):
        assert rules_of(lint_source("if job.debt_s <= 0.0:\n    pass\n")) == []

    def test_quiet_on_none_comparison(self):
        assert rules_of(lint_source("if job.not_before == None:\n    pass\n")) == []

    def test_quiet_on_unrelated_attr(self):
        assert rules_of(lint_source("if job.name == 'flush':\n    pass\n")) == []


# ----------------------------------------------------------------- REP005
class TestRep005MutableDefault:
    def test_fires_on_list_default(self):
        assert rules_of(lint_source("def f(x=[]):\n    pass\n")) == ["REP005"]

    def test_fires_on_dict_call_default(self):
        assert "REP005" in rules_of(lint_source("def f(x=dict()):\n    pass\n"))

    def test_fires_on_kwonly_default(self):
        assert "REP005" in rules_of(lint_source("def f(*, x={}):\n    pass\n"))

    def test_quiet_on_none_default(self):
        assert rules_of(lint_source("def f(x=None):\n    x = x or []\n")) == []

    def test_quiet_on_tuple_default(self):
        assert rules_of(lint_source("def f(x=()):\n    pass\n")) == []


# ----------------------------------------------------------------- REP006
class TestRep006FrozenReference:
    def test_fires_on_module_attribute_assignment(self):
        src = ("from repro.bench import reference\n"
               "reference.permute64 = lambda x: x\n")
        assert rules_of(lint_source(src)) == ["REP006"]

    def test_fires_on_imported_class_monkeypatch(self):
        src = ("from repro.bench.reference import ReferenceMemtable\n"
               "ReferenceMemtable.add = None\n")
        assert "REP006" in rules_of(lint_source(src))

    def test_fires_on_del(self):
        src = ("from repro.bench import reference\n"
               "del reference.permute64\n")
        assert "REP006" in rules_of(lint_source(src))

    def test_quiet_on_instance_use(self):
        src = ("from repro.bench.reference import ReferenceMemtable\n"
               "m = ReferenceMemtable(8)\n"
               "m.whatever = 1\n")
        assert rules_of(lint_source(src)) == []

    def test_quiet_inside_reference_module_itself(self):
        src = "from repro.bench import reference\nreference.x = 1\n"
        assert rules_of(lint_source(src, "src/repro/bench/reference.py")) == []


# ----------------------------------------------------------------- REP007
class TestRep007BareExcept:
    def test_fires_on_bare_except(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert rules_of(lint_source(src)) == ["REP007"]

    def test_quiet_on_typed_except(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert rules_of(lint_source(src)) == []


# ----------------------------------------------------------------- REP008
class TestRep008AssertInEngine:
    def test_fires_on_assert(self):
        assert rules_of(lint_source("assert x > 0\n")) == ["REP008"]

    def test_quiet_on_invariant_violation(self):
        src = ("from repro.common.errors import InvariantViolation\n"
               "def f(x):\n"
               "    if x <= 0:\n"
               "        raise InvariantViolation('x must be positive')\n")
        assert rules_of(lint_source(src)) == []


# ----------------------------------------------------------------- REP009
class TestRep009RawDeviceCalls:
    def test_fires_outside_repro_storage(self):
        src = "def read(self, disk):\n    return disk.fg_io(4096)\n"
        assert rules_of(lint_source(src, "src/repro/db/m.py")) == ["REP009"]

    @pytest.mark.parametrize("call", ["fg_io(1)", "fg_stream(1)", "bg_grant(1)",
                                      "bg_count(1)", "bg_append(1)", "sync_drain(1.0)"])
    def test_fires_on_every_raw_call(self, call):
        src = f"def f(self):\n    self.disk.{call}\n"
        assert rules_of(lint_source(src, "src/repro/core/m.py")) == ["REP009"]

    def test_quiet_inside_repro_storage(self):
        src = "def read(self, disk):\n    return disk.fg_io(4096)\n"
        assert rules_of(lint_source(src, "src/repro/storage/m.py")) == []

    def test_quiet_on_a_reference_without_a_call(self):
        # The benchmark ledger patches these methods by name; naming one
        # is not a charge.
        src = "names = ('fg_io',)\nf = getattr(disk, 'fg_io')\n"
        assert rules_of(lint_source(src, "src/repro/db/m.py")) == []

    def test_file_level_noqa(self):
        src = ("# repro: noqa-file-REP009\n"
               "def read(self, disk):\n"
               "    return disk.fg_io(4096)\n"
               "def drain(self, disk):\n"
               "    return disk.sync_drain(1.0)\n")
        assert rules_of(lint_source(src, "src/repro/db/m.py")) == []


# ------------------------------------------------------------- suppression
class TestSuppression:
    def test_noqa_suppresses_matching_rule(self):
        src = "import time\nt = time.time()  # repro: noqa-REP001\n"
        assert rules_of(lint_source(src)) == []

    def test_noqa_is_per_rule(self):
        src = "import time\nt = time.time()  # repro: noqa-REP002\n"
        assert rules_of(lint_source(src)) == ["REP001"]

    def test_noqa_is_per_line(self):
        src = ("import time\n"
               "a = time.time()  # repro: noqa-REP001\n"
               "b = time.time()\n")
        findings = lint_source(src)
        assert rules_of(findings) == ["REP001"]
        assert findings[0].line == 3

    def test_rule_filter(self):
        src = "import time\nassert time.time()\n"
        assert rules_of(lint_source(src, rules={"REP008"})) == ["REP008"]

    def test_file_level_noqa_suppresses_everywhere(self):
        src = ("# repro: noqa-file-REP001\n"
               "import time\n"
               "a = time.time()\n"
               "b = time.perf_counter()\n")
        assert rules_of(lint_source(src)) == []

    def test_file_level_noqa_is_per_rule(self):
        src = ("# repro: noqa-file-REP001\n"
               "import time, random\n"
               "a = time.time()\n"
               "b = random.random()\n")
        assert rules_of(lint_source(src)) == ["REP002"]

    def test_file_level_marker_does_not_leak_to_line_form(self):
        # noqa-file-REP001 on line 1 must not read as a line-level
        # noqa-REP001 for whatever happens to sit on line 1.
        src = ("import time  # repro: noqa-file-REP002\n"
               "a = time.time()\n")
        findings = lint_source(src)
        assert rules_of(findings) == ["REP001"]

    def test_decorated_def_noqa_still_requires_matching_rule(self):
        src = ("import functools\n"
               "@functools.lru_cache  # repro: noqa-REP001\n"
               "def f(xs=[]):\n"
               "    return xs\n")
        assert rules_of(lint_source(src)) == ["REP005"]


# ------------------------------------------------------------------ corpus
class TestRepoCorpus:
    def test_rule_catalog_is_complete(self):
        assert sorted(RULES) == [f"REP00{i}" for i in range(1, 10)]

    def test_findings_format(self):
        f = Finding(rule="REP001", path="x.py", line=3, col=7, message="m")
        assert f.format() == "x.py:3:7: REP001 m"

    @pytest.mark.slow
    def test_src_repro_is_clean(self):
        findings = lint_repo()
        assert findings == [], "\n".join(f.format() for f in findings)
        # ...and without one REP001 suppression: src/repro reads no host clock.
        assert [f"{p}:{n}" for p in iter_python_files(default_lint_root())
                for n, line in enumerate(p.read_text().splitlines(), 1)
                if "noqa-REP001" in line or "noqa-file-REP001" in line] == []
