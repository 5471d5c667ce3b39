#!/usr/bin/env python3
"""Whole-program static concurrency & clock-domain analyzer.

Where scripts/lint.py enforces line-local idiom, this tool builds a
whole-program model (classes, mutex members, member functions, call
sites, lock scopes) and runs four inter-procedural checks over it:

  lock-order       Static acquired-before graph over the NAMED mutexes
                   (common/mutex.h wrappers, e.g. "QueueManager::mu_").
                   An edge A->B is recorded when B is acquired -- either
                   directly or through any resolvable call chain --
                   while A is held. A cycle in the graph is a latent
                   deadlock: the runtime lock_graph checker only sees
                   interleavings the tests happen to execute; this sees
                   every path the call graph admits.
  wait-under-lock  A named mutex held across a blocking operation:
                   fdatasync/fsync, raw ::write/::pwrite, sleep_for/
                   usleep/nanosleep, or a CondVar wait on a DIFFERENT
                   mutex -- again through any resolvable call chain.
                   Intentional cases (the WAL group-commit fdatasync
                   under WalWriter::wal_mu_ is the canonical one) are
                   suppressed with a mandatory justification in
                   scripts/analyze_suppress.json.
  cv-wait-no-loop  CondVar::Wait / WaitForMicros outside an enclosing
                   while/for/do loop: spurious wakeups and missed
                   predicate re-checks (lost wakeup) otherwise.
  clock-domain     Raw clock reads (Clock::NowMicros / SteadyNowMicros
                   and locals tainted by them) flowing into time
                   arithmetic or ordering comparisons, and any statement
                   mixing wall- and steady-tainted raw terms. Typed
                   reads (WallNow()/SteadyNow(), WallMicros/SteadyMicros
                   in common/clock.h) are enforced by the compiler and
                   the tests/compile/clock_domain_probe.cc WILL_FAIL
                   probes; this check covers the raw-integer code that
                   remains (persisted rows, stamping).
  guarded-by       Annotation-coverage ratchet: in any class owning a
                   named mutex, every mutable field should carry
                   EDADB_GUARDED_BY (consts -- including top-level
                   `T* const` pointers -- CondVars and the
                   synchronization members themselves are exempt;
                   std::atomic fields are exempt from the ANNOTATION
                   ratchet but are NOT exempt from analysis: every one
                   is classified by the atomic-ordering audit below).
                   Existing debt lives in scripts/analyze_baseline.json
                   and may only SHRINK: a baselined field that gains an
                   annotation (or disappears) must be removed from the
                   baseline, and new unannotated fields are errors.
  atomic-ordering  Memory-ordering audit over every std::atomic /
                   std::atomic_ref operation site:
                     relaxed-rmw   a relaxed read-modify-write whose
                                   result feeds further logic, or a
                                   relaxed CAS/exchange -- the
                                   synchronization-shaped uses where
                                   relaxed is usually a bug. Pure
                                   counter bumps (fetch_add/sub with the
                                   result discarded) are exempt.
                     mixed-ordering release-or-stronger writes paired
                                   with relaxed loads (or acquire reads
                                   paired with relaxed stores) on the
                                   same variable: the strong side's
                                   ordering is unobservable through the
                                   relaxed side.
                     seq-cst-hot   a DEFAULTED (seq_cst) ordering on a
                                   hot-path file (wal, queue_manager,
                                   event_ring, metrics): the default is
                                   either an unnecessary fence or an
                                   undocumented dependency on one.
                   Intentional protocols (the event_ring seqlock,
                   metrics counters) carry fingerprinted suppressions.
  shared-state     Ambient shared state: a namespace-scope global or
                   function-static local that is mutable, non-atomic,
                   and not a mutex-guarded singleton is invisible to
                   every lock domain and will not survive sharding.
                   thread_local, const/constexpr, atomics and
                   singletons whose class owns a mutex are classified
                   clean.
  guarded-escape   References, pointers or iterators to an
                   EDADB_GUARDED_BY field that escape the owning class:
                   returned from a method (by reference/pointer/
                   iterator), stored into a member, or captured by
                   reference (or via this) in a lambda that is stored
                   or handed to a deferred callee. Once domains are
                   sharded these become cross-shard aliases.

Parser
------
The fact model comes from a dependency-free structural parser (scope/
brace tracking over comment- and string-stripped source), so the gate
needs no compiler toolchain and its fingerprints (and the suppression/
baseline files keyed on them) are identical on every machine. It is
deliberately under-approximate: a call it cannot resolve contributes no
edges, so it reports no false cycles. --self-test validates it against
the seeded fixtures in scripts/analyze_fixtures/.

Findings, suppression, baseline
-------------------------------
Every finding prints file:line, an evidence path (lock scopes and call
chain), a stable symbol-based key (never line numbers, so edits that
move code do not churn it) and a short fingerprint sha1(check|key).

  scripts/analyze_suppress.json   permanent design-intent exceptions;
                                  `reason` is mandatory; a suppression
                                  matching no finding is a hard error
                                  (stale suppressions rot).
  scripts/analyze_baseline.json   pre-existing guarded-by debt;
                                  shrink-only (stale entries are errors,
                                  new findings are errors). Regenerate
                                  with --write-baseline after paying
                                  debt down.

Exit status: 0 clean, 1 findings or stale entries, 2 usage/internal.
"""

import argparse
import hashlib
import json
import os
import re
import sys
from collections import defaultdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUPPRESS_PATH = os.path.join(REPO_ROOT, "scripts", "analyze_suppress.json")
BASELINE_PATH = os.path.join(REPO_ROOT, "scripts", "analyze_baseline.json")
FIXTURE_DIR = os.path.join(REPO_ROOT, "scripts", "analyze_fixtures")

# --------------------------------------------------------------------------
# Fact model
# --------------------------------------------------------------------------


class ClassInfo:
    def __init__(self, name, file, line):
        self.name = name
        self.file = file
        self.line = line
        # field name -> registered lock name ("Class::mu_") for named
        # Mutex members; unnamed mutex fields map to
        # "Class::field" so they still have a stable identity.
        self.mutexes = {}
        # field name -> bare class name of its pointee/value type, for
        # receiver resolution (unique_ptr<T>, T*, T&, T).
        self.field_types = {}
        # (name, line, guarded, exempt_reason) for ratchet-relevant fields.
        self.fields = []
        self.methods = set()
        # field name -> mutex FIELD name from EDADB_GUARDED_BY(mu).
        self.guarded = {}
        # field name -> declaration line for std::atomic members.
        self.atomics = {}
        # True if the class declares a raw std::mutex member (allowed
        # only in the checker's own plumbing; used for singleton
        # classification, not the ratchet).
        self.has_raw_mutex = False


class CallSite:
    __slots__ = ("receiver", "op", "name", "line", "held")

    def __init__(self, receiver, op, name, line, held):
        self.receiver = receiver  # identifier before -> . :: (or None)
        self.op = op  # "->", ".", "::" or None
        self.name = name
        self.line = line
        self.held = held  # tuple of lock names held at the call


class BlockOp:
    __slots__ = ("prim", "line", "held", "in_loop", "waited_lock")

    def __init__(self, prim, line, held, in_loop, waited_lock=None):
        self.prim = prim
        self.line = line
        self.held = held
        self.in_loop = in_loop
        self.waited_lock = waited_lock  # for CondVar waits


class ClockUse:
    __slots__ = ("kind", "line", "terms")

    def __init__(self, kind, line, terms):
        self.kind = kind  # "cross-mix" | "raw-arith"
        self.line = line
        self.terms = terms  # sorted tuple of offending term names


class AtomicOp:
    """One std::atomic / std::atomic_ref operation site."""

    __slots__ = ("var", "op", "order", "explicit_order", "used", "file",
                 "line")

    def __init__(self, var, op, order, explicit_order, used, file, line):
        self.var = var  # resolved key: "Class::field", "::g_x", "qual::x"
        self.op = op  # "load" | "store" | "rmw" | "cas" | "exchange"
        self.order = order  # relaxed|consume|acquire|release|acq_rel|seq_cst
        self.explicit_order = explicit_order  # False when defaulted
        self.used = used  # result feeds further logic
        self.file = file
        self.line = line


class EscapeUse:
    """A guarded field's storage escaping its critical section."""

    __slots__ = ("cls", "field", "kind", "line", "detail")

    def __init__(self, cls, field, kind, line, detail):
        self.cls = cls
        self.field = field
        self.kind = kind  # "return-ref" | "member-store" | "lambda"
        self.line = line
        self.detail = detail


class GlobalInfo:
    """A namespace-scope global or function-static local."""

    __slots__ = ("key", "file", "line", "type", "kind", "pointee", "scope")

    def __init__(self, key, file, line, type_text, kind, pointee=None,
                 scope=None):
        self.key = key  # "::name" or "Enclosing::name" for static locals
        self.file = file
        self.line = line
        self.type = type_text
        # plain | atomic | const | mutex | thread-local | singleton
        # ("singleton" = static T* x = new T; classified clean/dirty once
        # every class is known).
        self.kind = kind
        self.pointee = pointee  # class name for singleton pointers
        self.scope = scope  # enclosing function qual for static locals


class FunctionInfo:
    def __init__(self, qual, cls, file, line):
        self.qual = qual  # "Class::Method" or free-function name
        self.cls = cls  # ClassInfo name or None
        self.file = file
        self.line = line
        self.params = {}  # param name -> bare class name
        self.acquires = []  # (lock_name, line)
        self.lock_edges = []  # (held_lock, acquired_lock, line) intra-fn
        self.calls = []  # CallSite
        self.blocks = []  # BlockOp
        self.clock_uses = []  # ClockUse
        self.atomic_ops = []  # AtomicOp
        self.escapes = []  # EscapeUse
        self.returns_ref = False  # declared return type is T& / T*
        self.statics = {}  # static-local name -> GlobalInfo key


class Model:
    def __init__(self):
        self.classes = {}  # name -> ClassInfo
        self.functions = {}  # qual -> FunctionInfo
        self.globals = {}  # key -> GlobalInfo

    def get_class(self, name, file, line):
        if name not in self.classes:
            self.classes[name] = ClassInfo(name, file, line)
        return self.classes[name]


class Finding:
    def __init__(self, check, key, file, line, message, evidence=None):
        self.check = check
        self.key = key
        self.file = file
        self.line = line
        self.message = message
        self.evidence = evidence or []

    @property
    def fingerprint(self):
        digest = hashlib.sha1(
            (self.check + "|" + self.key).encode("utf-8")).hexdigest()
        return digest[:12]

    def render(self):
        out = (f"{self.file}:{self.line}: [{self.check}] {self.message}"
               f"  [key {self.key} fp {self.fingerprint}]")
        for ev in self.evidence:
            out += f"\n    {ev}"
        return out


# --------------------------------------------------------------------------
# Text utilities
# --------------------------------------------------------------------------


def strip_code(raw_lines):
    """Blanks comments and string/char literal *contents* (quotes kept as
    empty literals), preserving line structure."""
    out = []
    in_block = False
    for raw in raw_lines:
        s = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if raw.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if raw.startswith("//", i):
                break
            if c in "\"'":
                quote = c
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                s.append(quote + quote)
                continue
            s.append(c)
            i += 1
        out.append("".join(s))
    return out


CPP_KEYWORDS = {
    "if", "else", "while", "for", "do", "switch", "case", "return",
    "sizeof", "alignof", "new", "delete", "throw", "catch", "co_await",
    "static_assert", "decltype", "defined", "noexcept", "assert",
    "constexpr", "const", "auto", "void", "int", "bool", "char", "break",
    "continue", "default", "goto", "using", "typedef", "template",
    "typename", "operator", "static_cast", "dynamic_cast", "alignas",
    "reinterpret_cast", "const_cast", "explicit", "inline", "public",
    "private", "protected", "struct", "class", "enum", "union",
}

# Calls that never matter to any check: skipping them keeps the call
# graph small. Macro invocations (EDADB_*, FAILPOINT*, EXPECT/ASSERT)
# are skipped as calls but their ARGUMENT text stays in the statement,
# so calls inside macro arguments are still seen.
CALL_SKIP_PREFIXES = ("EDADB_", "FAILPOINT", "EXPECT_", "ASSERT_", "TEST")

BLOCKING_PRIMS = {
    "fdatasync": "fdatasync",
    "fsync": "fdatasync",
    "write": "write",
    "pwrite": "write",
    "sleep_for": "sleep",
    "usleep": "sleep",
    "nanosleep": "sleep",
}

CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*(->|\.|::)\s*)?([A-Za-z_~]\w*)\s*\(")
ACQUIRE_RE = re.compile(
    r"\b(MutexLock)\s+\w+\s*\(\s*&\s*([\w.>\-]+)\s*\)")
CV_WAIT_RE = re.compile(
    r"([A-Za-z_][\w.>\-]*)\s*\.\s*(Wait|WaitForMicros)\s*\(\s*&\s*([\w.>\-]+)")
RAW_BLOCK_RE = re.compile(r"::(fdatasync|fsync|write|pwrite)\s*\(")
SLEEP_RE = re.compile(r"\b(sleep_for|usleep|nanosleep)\s*\(")
MUTEX_DECL_RE = re.compile(
    r"\b(Mutex)\s+(\w+)\s*(?:\{\s*\"([^\"]*)\"\s*\})?\s*[;{]")
FIELD_TYPE_RES = [
    re.compile(r"std::(?:unique_ptr|shared_ptr)\s*<\s*([A-Za-z_]\w*)\s*>"
               r"\s+(\w+)\s*[;={]"),
    re.compile(r"\b([A-Z]\w*)\s*[*&]\s*(?:const\s+)?(\w+)\s*[;={]"),
    re.compile(r"\b([A-Z]\w*)\s+(\w+)\s*[;={]"),
]
GUARD_ANNOT_RE = re.compile(r"EDADB_(?:PT_)?GUARDED_BY\s*\(\s*(\w+)\s*\)")
ASSIGN_RE = re.compile(r"(?:^|[(,;]|\b)\s*(?:(?:const|auto|int64_t|"
                       r"TimestampMicros)\s+)*([A-Za-z_]\w*)\s*=[^=]")

# std::atomic operation sites. ATOMIC_REF_RE rewrites an atomic_ref
# view back to its underlying object so `std::atomic_ref<u64>(x[i])
# .load(...)` audits as an op on `x`.
ATOMIC_REF_RE = re.compile(
    r"std\s*::\s*atomic_ref\s*<[^<>]*>\s*\(\s*\*?\s*"
    r"([A-Za-z_]\w*)\s*(?:\[[^\[\]]*\])?\s*\)")
ATOMIC_OP_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*(?:\[[^\[\]]*\])?\s*(?:::|\.|->)\s*)*"
    r"[A-Za-z_]\w*)\s*(?:\[[^\[\]]*\])?\s*(?:\.|->)\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")
MEM_ORDER_RE = re.compile(r"memory_order_(relaxed|consume|acquire|release|"
                          r"acq_rel|seq_cst)")
ATOMIC_DECL_RE = re.compile(r"std\s*::\s*atomic\s*<")
# Files whose atomics are on the event hot path: a defaulted seq_cst
# there is either an unnecessary full fence or an undocumented
# dependency on one. (analyze_fixtures/atomic_hot seeds the self-test.)
HOT_PATH_PREFIXES = ("src/storage/wal", "src/mq/queue_manager",
                     "src/pubsub/event_ring", "src/common/metrics",
                     "scripts/analyze_fixtures/atomic_hot")

# Namespace-scope / static-local declarations for the shared-state
# inventory.
GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:extern\s+)?(static\s+)?(thread_local\s+)?(static\s+)?"
    r"(?:inline\s+)?(constexpr\s+|const\s+)?"
    r"([\w:<>,*&\s]+?)\s*[*&]*\s*([A-Za-z_]\w*)\s*(?:=\s*(.*)|\{.*)?$")
SINGLETON_INIT_RE = re.compile(r"new\s+([A-Za-z_]\w*)\s*[({]?")
GLOBAL_SKIP_RE = re.compile(
    r"^\s*(?:using|typedef|namespace|class|struct|enum|template|friend|"
    r"return|delete|throw|if|for|while|switch|extern\s*\"\")\b")

# Lambda introducer closing a scope-opening header, plus the context it
# appears in (assignment target / enclosing call).
LAMBDA_TAIL_RE = re.compile(
    r"\[([^\[\]]*)\]\s*(?:\([^()]*\))?\s*(?:mutable\b\s*)?"
    r"(?:noexcept\b\s*)?(?:->\s*[\w:<>&*\s]+)?$")
LAMBDA_ASSIGN_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*$")
LAMBDA_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\([^()]*$")
# Callee names that suggest the lambda outlives the statement (stored,
# scheduled, or run on another thread).
DEFERRED_CALLEE_RE = re.compile(
    r"Register|Subscribe|Callback|Collector|Post|Spawn|Defer|Schedule|"
    r"Start|[Tt]hread|async|Bind|Listener|OnCommit|Enqueue|emplace|"
    r"push_back")
ESCAPE_ITER_RE_TMPL = r"\b%s\s*\.\s*(begin|end|data|c_str|rbegin|rend)\s*\("


# --------------------------------------------------------------------------
# Structural scanner
# --------------------------------------------------------------------------


class Scope:
    __slots__ = ("kind", "name", "loop", "acqs", "saved_paren",
                 "lambda_ctx", "pend_len")

    def __init__(self, kind, name=None, loop=False):
        self.kind = kind  # namespace|class|function|block|braceinit
        self.name = name
        self.loop = loop
        self.acqs = []  # lock names acquired in this scope (RAII)
        self.saved_paren = 0  # paren depth of the enclosing scope
        # ("member"|"deferred", detail) when this block is the body of a
        # by-ref/this-capturing lambda that outlives its statement.
        self.lambda_ctx = None
        # Pending-text length at braceinit open, so the init body can be
        # replaced by a plain `=0` on close and the declaration parses.
        self.pend_len = 0


ORDER_RANK = {"relaxed": 0, "consume": 1, "acquire": 2, "release": 2,
              "acq_rel": 3, "seq_cst": 4}


def call_args(text, open_idx):
    """Text inside the parens whose '(' sits at text[open_idx]."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i]
    return text[open_idx + 1:]


FUNC_TAIL_RE = re.compile(
    r"\)\s*(?:const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]+)*\s*"
    r"(?::(?!:).*)?$", re.S)
FUNC_NAME_RE = re.compile(r"(?:([A-Za-z_]\w*)\s*::\s*)?(~?[A-Za-z_]\w*)\s*\(")
# operator=/==/()/[]/etc: the symbol breaks FUNC_NAME_RE, and a missed
# function header would let the body parse at namespace scope (where
# assignments look like global declarations to the inventory).
OPERATOR_FUNC_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*::\s*)?(operator\s*(?:\(\s*\)|\[\s*\]|"
    r"[^\s\w(]{1,3}))\s*\(")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:EDADB_\w+\s*(?:\([^)]*\)\s*)?)?([A-Za-z_]\w*)"
    r"[^;()]*$")
PARAM_RE = re.compile(r"([A-Z]\w*)\s*[*&]+\s*(?:const\s+)?([a-z_]\w*)")
# An owning local that names its pointee: `std::unique_ptr<T> x =`.
OWNED_LOCAL_RE = re.compile(
    r"\bstd::(?:unique|shared)_ptr<\s*([A-Z]\w*)\s*>\s+([a-z_]\w*)\s*=")


class BuiltinFrontend:
    """Clock-domain taint scanner. The rest of the fact extraction lives
    in builtin_parse_file below (the scope/brace scanner reads better as
    one closure-heavy function)."""

    def __init__(self, model):
        self.model = model

    def _clock_stmt(self, stmt, line, taint, func):
        """Taints locals from raw clock reads and flags raw arithmetic /
        cross-domain mixes. Typed reads (WallNow/SteadyNow/FromMicros)
        produce compiler-enforced values and taint nothing."""
        terms = {}  # name -> domain for raw terms present in this stmt
        for m in re.finditer(r"([A-Za-z_]\w*)\s*\(", stmt):
            if m.group(1) == "NowMicros":
                pre = stmt[:m.start(1)]
                if pre.rstrip().endswith("Steady"):
                    continue  # matched inside SteadyNowMicros
                terms["NowMicros()"] = "wall"
            elif m.group(1) == "SteadyNowMicros":
                terms["SteadyNowMicros()"] = "steady"
        for m in re.finditer(r"\b([A-Za-z_]\w*)\b", stmt):
            dom = taint.get(m.group(1))
            if dom:
                terms[m.group(1)] = dom

        # Propagate taint through plain assignments/initializations.
        am = ASSIGN_RE.search(stmt)
        if am:
            target = am.group(1)
            rhs_terms = {t: d for t, d in terms.items() if t != target}
            doms = set(rhs_terms.values())
            if len(doms) == 1:
                taint[target] = doms.pop()
            elif not doms:
                taint.pop(target, None)

        if not terms:
            return
        doms = set(terms.values())
        ops = re.sub(r"->|<<|>>|::|==|!=|<[A-Za-z_][\w:<>,\s]*>", " ", stmt)
        has_arith = re.search(r"[+\-<>]", ops) is not None
        if len(doms) > 1:
            func.clock_uses.append(ClockUse(
                "cross-mix", line, tuple(sorted(terms))))
        elif has_arith:
            func.clock_uses.append(ClockUse(
                "raw-arith", line, tuple(sorted(terms))))


# The closure-heavy scanner above is clearer written as a free function;
# BuiltinFrontend delegates here.


def builtin_parse_file(model, path, rel, phase):
    """Scans one file. `phase` exists because lock resolution needs the
    complete class picture (an inline method body may precede the mutex
    declaration it locks, and .cc files may use classes declared in
    headers parsed later): callers run a "decls" pass over every file to
    register classes/mutexes/fields/methods, then a "facts" pass to
    extract function facts against the finished declarations."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().split("\n")
    except OSError as e:
        print(f"analyze.py: cannot read {rel}: {e}", file=sys.stderr)
        return
    code_lines = strip_code(raw_lines)
    fe = BuiltinFrontend(model)

    stack = []
    pending = []
    pending_line = [1]
    state = {"func": None, "taint": {}, "locals": {}}

    def current_class():
        for sc in reversed(stack):
            if sc.kind == "class":
                return sc.name
        return None

    def enclosing_func():
        return state["func"]

    def held_locks():
        return tuple(l for sc in stack for l in sc.acqs)

    def in_loop():
        for sc in reversed(stack):
            if sc.kind == "function":
                return False
            if sc.loop:
                return True
        return False

    def resolve_lock(expr):
        parts = re.split(r"->|\.", expr)
        field = parts[-1].strip()
        cls = None
        if len(parts) == 1 or parts[0].strip() in ("this", ""):
            cls = current_class()
            if cls is None and enclosing_func() is not None:
                cls = enclosing_func().cls
        else:
            recv = parts[0].strip()
            f = enclosing_func()
            if f is not None:
                cls = f.params.get(recv) or state["locals"].get(recv)
            if cls is None:
                owner = model.classes.get(current_class() or
                                          (f.cls if f else None))
                if owner is not None:
                    cls = owner.field_types.get(recv)
        info = model.classes.get(cls) if cls else None
        if info is not None and field in info.mutexes:
            return info.mutexes[field]
        return None

    def lambda_ctx():
        """Innermost stored/deferred lambda context, if any, without
        crossing a function boundary."""
        for sc in reversed(stack):
            if sc.kind == "function":
                return None
            if sc.kind == "block" and sc.lambda_ctx is not None:
                return sc.lambda_ctx
        return None

    def detect_lambda_ctx(header):
        """Classifies the lambda whose body this block header opens:
        capture list + where the closure goes. Only by-ref / this /
        default captures that are stored into a member or handed to a
        deferred-sounding callee count as escape contexts."""
        lam = LAMBDA_TAIL_RE.search(header)
        if lam is None or "[" not in header:
            return None
        caps = lam.group(1)
        if not ("&" in caps or "this" in caps or "=" in caps):
            return None
        pre2 = header[:lam.start()]
        am = LAMBDA_ASSIGN_RE.search(pre2)
        f = enclosing_func()
        owner = model.classes.get(f.cls) if f is not None and f.cls else None
        if am is not None:
            lhs = am.group(1)
            if owner is not None and (lhs in owner.field_types or
                                      any(lhs == fn for fn, _l, _g, _e
                                          in owner.fields)):
                return ("member", lhs)
            return None
        cm = LAMBDA_CALL_RE.search(pre2)
        if cm is not None and DEFERRED_CALLEE_RE.search(cm.group(1)):
            return ("deferred", cm.group(1))
        return None

    def resolve_atomic_var(base, f):
        """Stable identity for an atomic operand: own-class field,
        unique field of another class, static local, global, else a
        function-local key."""
        cls_name = f.cls or current_class()
        info = model.classes.get(cls_name) if cls_name else None
        if info is not None and (base in info.atomics or
                                 base in info.field_types or
                                 any(base == fn for fn, _l, _g, _e
                                     in info.fields)):
            return f"{cls_name}::{base}"
        if base in f.statics:
            return f.statics[base]
        if "::" + base in model.globals:
            return "::" + base
        owners = [c.name for c in model.classes.values()
                  if base in c.atomics]
        if len(owners) == 1:
            return f"{owners[0]}::{base}"
        return f"{f.qual}::{base}"

    def atomic_stmt(stmt, line, f):
        """Records every atomic operation site with its ordering."""
        rewritten = ATOMIC_REF_RE.sub(r"\1", stmt)
        for m in ATOMIC_OP_RE.finditer(rewritten):
            recv, op_name = m.group(1), m.group(2)
            base = re.split(r"::|\.|->", recv)[-1].strip()
            if not base:
                continue
            args = call_args(rewritten, m.end() - 1)
            orders = MEM_ORDER_RE.findall(args)
            if not orders and "memory_order" in args:
                continue  # e.g. a shim forwarding an order parameter
            # compare_exchange may carry success+failure orders; the
            # WEAKEST one mentioned is the hazard side.
            order = (min(orders, key=lambda o: ORDER_RANK[o])
                     if orders else "seq_cst")
            kind = ("load" if op_name == "load" else
                    "store" if op_name == "store" else
                    "cas" if op_name.startswith("compare_exchange") else
                    "exchange" if op_name == "exchange" else "rmw")
            pre = rewritten[:m.start()].rstrip()
            used = not (pre == "" or pre.endswith((";", "{", "}")))
            var = resolve_atomic_var(base, f)
            f.atomic_ops.append(AtomicOp(var, kind, order, bool(orders),
                                         used, pending_rel[0], line))

    def parse_global_stmt(stmt, line, scope_qual=None):
        """Registers a namespace-scope global or (scope_qual set) a
        function-static local in the shared-state inventory."""
        s = stmt.strip()
        if not s or GLOBAL_SKIP_RE.match(s):
            return
        if s.startswith("extern") and "=" not in s:
            return  # declaration; the defining TU registers it
        m = GLOBAL_DECL_RE.match(s)
        if m is None and ATOMIC_DECL_RE.search(s):
            # Paren-initialized atomic: `static std::atomic<bool> f(x);`
            m = re.match(
                r"^\s*(static\s+)?(thread_local\s+)?(static\s+)?"
                r"(constexpr\s+|const\s+)?([\w:<>,*&\s]+?)\s+"
                r"([A-Za-z_]\w*)\s*\(.*\)\s*$", s)
        if m is None:
            return
        name = m.group(6)
        ttext = ((m.group(4) or "") + m.group(5)).strip()
        if not ttext or name in CPP_KEYWORDS:
            return
        if scope_qual is None and "(" in s and \
                not ATOMIC_DECL_RE.search(s) and m.group(7) is None:
            return  # namespace-scope function declaration, not a variable
        init = s[m.end(6):]
        thread_local = m.group(2) is not None
        key = (scope_qual + "::" + name) if scope_qual else "::" + name
        if thread_local:
            kind, pointee = "thread-local", None
        elif ATOMIC_DECL_RE.search(ttext):
            kind, pointee = "atomic", None
        elif re.search(r"\bMutex\b|\bstd\s*::\s*"
                       r"(?:recursive_)?mutex\b", ttext):
            kind, pointee = "mutex", None
        elif re.search(r"[*&]\s*const$", ttext) or (
                re.match(r"^(?:constexpr|const)\b", ttext) and
                "*" not in ttext):
            kind, pointee = "const", None
        else:
            sm = SINGLETON_INIT_RE.search(init)
            if sm is not None and "*" in ttext:
                kind, pointee = "singleton", sm.group(1)
            else:
                kind, pointee = "plain", None
        model.globals.setdefault(key, GlobalInfo(
            key, pending_rel[0], line, ttext, kind, pointee, scope_qual))
        return key

    def guarded_stmt_facts(stmt, line, f):
        """Guarded-field escape detection."""
        info = model.classes.get(f.cls) if f.cls else None
        if info is None:
            return
        field_names = {fn for fn, _l, _g, _e in info.fields}
        field_names |= set(info.field_types) | set(info.mutexes)
        touched_guarded = []
        for m in re.finditer(r"[A-Za-z_]\w*", stmt):
            w = m.group(0)
            if w in info.guarded and w not in touched_guarded:
                touched_guarded.append(w)
        if not touched_guarded:
            return
        s = " ".join(stmt.split())
        ctx = lambda_ctx()
        for g in touched_guarded:
            addr_of = re.search(r"&\s*(?:this\s*->\s*)?%s\b" % g, s)
            iter_of = re.search(ESCAPE_ITER_RE_TMPL % g, s)
            if s.startswith("return"):
                if addr_of or iter_of:
                    f.escapes.append(EscapeUse(f.cls, g, "return-ref",
                                               line, s[:100]))
                elif f.returns_ref and re.search(
                        r"return\s+(?:this\s*->\s*)?%s\s*(?:;|$|\[)" % g, s):
                    f.escapes.append(EscapeUse(f.cls, g, "return-ref",
                                               line, s[:100]))
            else:
                am = re.match(r"^(?:this\s*->\s*)?([A-Za-z_]\w*)\s*=[^=]", s)
                if am is not None and am.group(1) != g and \
                        am.group(1) in field_names and (addr_of or iter_of):
                    f.escapes.append(EscapeUse(f.cls, g, "member-store",
                                               line, s[:100]))
            if ctx is not None:
                f.escapes.append(EscapeUse(
                    f.cls, g, "lambda", line,
                    f"{ctx[0]} {ctx[1]}: {s[:80]}"))

    def class_member_stmt(stmt, line, raw_line):
        """A `;`-terminated declaration at class depth: field or method."""
        cls = model.classes.get(current_class())
        if cls is None:
            return
        gm = GUARD_ANNOT_RE.search(stmt)
        guarded = gm is not None
        clean = GUARD_ANNOT_RE.sub(" ", stmt)
        clean = re.sub(r"EDADB_\w+(\s*\([^)]*\))?", " ", clean).strip()
        if not clean:
            return
        mm = MUTEX_DECL_RE.search(raw_line)
        if mm:
            name = mm.group(3) or f"{cls.name}::{mm.group(2)}"
            cls.mutexes[mm.group(2)] = name
            cls.field_types[mm.group(2)] = mm.group(1)
            return
        if "(" in clean:
            fm = FUNC_NAME_RE.search(clean)
            if fm and fm.group(2) not in CPP_KEYWORDS:
                cls.methods.add(fm.group(2))
            return
        if re.match(r"^(?:using|typedef|friend|enum|static)\b", clean):
            return
        for rx in FIELD_TYPE_RES:
            tm = rx.search(clean + ";")
            if tm:
                cls.field_types.setdefault(tm.group(2), tm.group(1))
                break
        dm = re.match(r"^(.*?)([A-Za-z_]\w*)\s*(?:=[^;]*)?$", clean.rstrip())
        if not dm:
            return
        ftype, fname = dm.group(1).strip(), dm.group(2)
        if not ftype or not fname:
            return
        if re.search(r"\bstd\s*::\s*(?:recursive_)?mutex\b", ftype):
            cls.has_raw_mutex = True
        exempt = None
        if "CondVar" in ftype:
            exempt = "condvar"
        elif ATOMIC_DECL_RE.search(ftype):
            # Exempt from the ANNOTATION ratchet only; every atomic is
            # classified by check_atomic_ordering (no blanket analysis
            # exemption).
            exempt = "atomic"
            cls.atomics[fname] = line
        elif re.search(r"[*&]\s*const$", ftype):
            exempt = "const"  # T* const: never reseated.
        elif re.match(r"^(?:mutable\s+)?const\b", ftype) and \
                "*" not in ftype:
            # `const T` is immutable; `const T*` is a RESEATABLE pointer
            # to const and stays in the ratchet.
            exempt = "const"
        if guarded:
            cls.guarded[fname] = gm.group(1)
        cls.fields.append((fname, line, guarded, exempt))

    def start_function(header, line):
        header = re.sub(r"EDADB_\w+(\s*\([^)]*\))?", " ", header)
        fm = OPERATOR_FUNC_RE.search(header)
        if fm is None:
            for m in FUNC_NAME_RE.finditer(header):
                if m.group(2) in CPP_KEYWORDS:
                    continue
                fm = m
                break
        if fm is None:
            return None
        cls = fm.group(1) or current_class()
        name = re.sub(r"\s+", "", fm.group(2))
        qual = f"{cls}::{name}" if cls else name
        f = FunctionInfo(qual, cls, pending_rel[0], line)
        f.returns_ref = header[:fm.start()].rstrip().endswith(("&", "*"))
        sig = header[fm.end():]
        for pm in PARAM_RE.finditer(sig):
            f.params[pm.group(2)] = pm.group(1)
        # Definitions with bodies win over forward decls.
        model.functions[qual] = f
        if cls:
            c = model.get_class(cls, pending_rel[0], line)
            c.methods.add(name)
        return f

    def record_calls(text, line, f, held):
        """Call sites in a statement or a block header, with the locks
        held there."""
        for m in CALL_RE.finditer(text):
            recv, op, name = m.group(1), m.group(2), m.group(3)
            if name in CPP_KEYWORDS or name.startswith(CALL_SKIP_PREFIXES):
                continue
            if name in ("Lock", "Unlock", "MutexLock", "Wait",
                        "WaitForMicros", "Signal", "SignalAll"):
                continue
            if recv in ("std", "chrono", "this_thread"):
                continue
            f.calls.append(CallSite(recv, op, name, line, held))

    def process_stmt(stmt, line, raw_line):
        f = enclosing_func()
        if f is None:
            if current_class() is not None:
                if phase != "facts":
                    class_member_stmt(stmt, line, raw_line)
            elif phase != "facts":
                parse_global_stmt(stmt, line)
            return
        if phase == "decls":
            return
        if not stmt.strip():
            return
        if re.match(r"^\s*static\b", stmt):
            key = parse_global_stmt(stmt, line, scope_qual=f.qual)
            if key is not None:
                f.statics[key.rsplit("::", 1)[-1]] = key
        for m in PARAM_RE.finditer(stmt):
            state["locals"].setdefault(m.group(2), m.group(1))
        # Calls on it resolve as calls on a parameter do.
        for m in OWNED_LOCAL_RE.finditer(stmt):
            f.params.setdefault(m.group(2), m.group(1))

        acq = ACQUIRE_RE.search(stmt)
        if acq:
            lock = resolve_lock(acq.group(2))
            if lock is not None:
                for h in held_locks():
                    f.lock_edges.append((h, lock, line))
                f.acquires.append((lock, line))
                if stack:
                    stack[-1].acqs.append(lock)

        for m in re.finditer(r"([\w.>\-]+?)\s*\.\s*Lock\s*\(\s*\)", stmt):
            lock = resolve_lock(m.group(1))
            if lock is not None:
                for h in held_locks():
                    f.lock_edges.append((h, lock, line))
                f.acquires.append((lock, line))
                for sc in reversed(stack):
                    if sc.kind == "function":
                        sc.acqs.append(lock)
                        break
        for m in re.finditer(r"([\w.>\-]+?)\s*\.\s*Unlock\s*\(\s*\)", stmt):
            lock = resolve_lock(m.group(1))
            if lock is not None:
                for sc in reversed(stack):
                    if lock in sc.acqs:
                        sc.acqs.remove(lock)
                        break

        held = held_locks()
        for m in CV_WAIT_RE.finditer(stmt):
            waited = resolve_lock(m.group(3))
            f.blocks.append(BlockOp("cv-wait", line, held, in_loop(),
                                    waited_lock=waited))
        for m in RAW_BLOCK_RE.finditer(stmt):
            f.blocks.append(BlockOp(BLOCKING_PRIMS[m.group(1)], line, held,
                                    in_loop()))
        for m in SLEEP_RE.finditer(stmt):
            f.blocks.append(BlockOp(BLOCKING_PRIMS[m.group(1)], line, held,
                                    in_loop()))

        record_calls(stmt, line, f, held)
        atomic_stmt(stmt, line, f)
        guarded_stmt_facts(stmt, line, f)
        fe._clock_stmt(stmt, line, state["taint"], f)

    pending_rel = [rel]
    has_content = [False]
    # Parenthesis depth of the current statement: a `;` inside parens
    # (for-loop headers, argument lists split by macros) does not end a
    # statement. Each scope snapshots and resets the depth so lambda
    # bodies inside call arguments still terminate statements normally.
    paren = [0]

    def clear_pending():
        pending.clear()
        has_content[0] = False

    for lineno, code in enumerate(code_lines, start=1):
        # Preprocessor lines neither open scopes nor end statements.
        if code.lstrip().startswith("#"):
            continue
        i, n = 0, len(code)
        while i < n:
            c = code[i]
            if c == "(":
                paren[0] += 1
            elif c == ")":
                paren[0] = max(0, paren[0] - 1)
            if c == "{":
                header = "".join(pending).strip()
                start = pending_line[0] if has_content[0] else lineno
                sc = None
                if re.match(r"^(?:inline\s+)?namespace\b", header):
                    sc = Scope("namespace")
                elif re.search(r"\benum\b", header) and "(" not in header:
                    sc = Scope("block")  # enumerators are not fields
                elif enclosing_func() is None and "(" not in header and \
                        CLASS_HEAD_RE.search(header) and \
                        not re.search(r"\benum\b", header):
                    cm = CLASS_HEAD_RE.search(header)
                    model.get_class(cm.group(1), rel, start)
                    sc = Scope("class", cm.group(1))
                elif enclosing_func() is None and "(" in header and \
                        FUNC_TAIL_RE.search(header):
                    f = start_function(header, start)
                    if f is not None:
                        sc = Scope("function", f.qual)
                        state["func"] = f
                        state["taint"] = {}
                        state["locals"] = {}
                    else:
                        sc = Scope("block")
                elif enclosing_func() is not None:
                    loop = re.search(r"\b(?:while|for)\s*\(", header) is not \
                        None or re.match(r"^do\b", header) is not None or \
                        header.endswith("do")
                    # Lambdas / plain blocks just nest.
                    sc = Scope("block", loop=loop)
                    sc.lambda_ctx = detect_lambda_ctx(header)
                    # Block headers never reach process_stmt (no
                    # terminating ';'), but control-flow conditions and
                    # the calls a lambda body is an argument of carry
                    # calls made under the locks held here, atomic ops
                    # (`while (running_.load(...))`) and guarded-field
                    # uses the escape check must see.
                    if phase != "decls" and header:
                        record_calls(header, start, enclosing_func(),
                                     held_locks())
                        atomic_stmt(header, start, enclosing_func())
                        guarded_stmt_facts(header, start, enclosing_func())
                elif current_class() is not None and header:
                    # Brace-initialized member (`Mutex mu_{"..."};`): keep
                    # the declaration text alive until its semicolon.
                    sc = Scope("braceinit")
                elif header and re.search(
                        r"[\w>]\s+[A-Za-z_]\w*(?:\s*\[[^\]]*\])?"
                        r"\s*=?\s*$", header):
                    # Brace-initialized namespace-scope variable
                    # (`std::atomic<int> g_x{0};`): same treatment, so
                    # the global registers with its full declaration.
                    sc = Scope("braceinit")
                else:
                    sc = Scope("block")
                if sc.kind != "braceinit":
                    clear_pending()
                else:
                    sc.pend_len = len(pending)
                sc.saved_paren = paren[0]
                paren[0] = 0
                stack.append(sc)
                i += 1
                continue
            if c == "}":
                if stack and stack[-1].kind == "braceinit":
                    sc = stack.pop()
                    paren[0] = sc.saved_paren
                    # Replace the brace-init body with `=0` so the
                    # declaration parses as `T name = 0;` downstream.
                    del pending[sc.pend_len:]
                    pending.append("=0")
                    i += 1
                    continue
                if stack:
                    sc = stack.pop()
                    paren[0] = sc.saved_paren
                    if sc.kind == "function":
                        state["func"] = None
                        state["taint"] = {}
                        state["locals"] = {}
                clear_pending()
                i += 1
                continue
            if c == ";" and paren[0] == 0:
                stmt = "".join(pending)
                anchor = pending_line[0] if has_content[0] else lineno
                raw = raw_lines[anchor - 1] if anchor - 1 < len(raw_lines) \
                    else ""
                process_stmt(stmt, anchor, raw)
                clear_pending()
                i += 1
                continue
            # Access labels end the pending text; otherwise the first
            # member after `private:` would merge with the label and its
            # raw-line anchor would point at the label line (which is
            # what MUTEX_DECL_RE searches for the registered lock name).
            if c == ":" and paren[0] == 0 and \
                    "".join(pending).strip() in ("public", "private",
                                                 "protected"):
                clear_pending()
                i += 1
                continue
            if not has_content[0] and not c.isspace():
                pending_line[0] = lineno
                has_content[0] = True
            pending.append(c)
            i += 1
        pending.append(" ")


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


class Analyzer:
    MAX_CHAIN = 12

    def __init__(self, model):
        self.model = model
        self.call_graph = self._resolve_calls()
        self.may_acquire = self._closure(
            {q: {l for l, _ in f.acquires} for q, f in model.functions.items()})
        self.may_block = self._closure(
            {q: {b.prim for b in f.blocks}
             for q, f in model.functions.items()})

    # -- call resolution ---------------------------------------------------

    def _resolve_calls(self):
        """qual -> list of (callee_qual, line, held). Conservative: a call
        that cannot be attributed to exactly one known function resolves
        to nothing."""
        by_name = defaultdict(set)
        for qual in self.model.functions:
            by_name[qual.split("::")[-1]].add(qual)
        graph = defaultdict(list)
        for qual, f in self.model.functions.items():
            owner = self.model.classes.get(f.cls) if f.cls else None
            for call in f.calls:
                callee = None
                if call.op == "::" and call.receiver:
                    cand = f"{call.receiver}::{call.name}"
                    if cand in self.model.functions:
                        callee = cand
                elif call.receiver in (None, "this"):
                    if owner is not None and call.name in owner.methods:
                        cand = f"{f.cls}::{call.name}"
                        if cand in self.model.functions:
                            callee = cand
                    if callee is None and len(by_name[call.name]) == 1:
                        only = next(iter(by_name[call.name]))
                        if "::" not in only:
                            callee = only
                else:
                    cls = f.params.get(call.receiver)
                    if cls is None and owner is not None:
                        cls = owner.field_types.get(call.receiver)
                    if cls is not None:
                        cand = f"{cls}::{call.name}"
                        if cand in self.model.functions:
                            callee = cand
                if callee is not None:
                    graph[qual].append((callee, call.line, call.held))
        return graph

    def _closure(self, direct):
        """Transitive closure over the call graph: qual -> {item: chain}
        where chain is the function path that reaches the item."""
        out = {}
        for qual in self.model.functions:
            seeds = set(direct.get(qual) or set())
            out[qual] = {item: [qual] for item in seeds}
        changed = True
        rounds = 0
        while changed and rounds < self.MAX_CHAIN:
            changed = False
            rounds += 1
            for qual in self.model.functions:
                mine = out[qual]
                for callee, _line, _held in self.call_graph.get(qual, ()):
                    for item, chain in out.get(callee, {}).items():
                        if item not in mine and len(chain) < self.MAX_CHAIN:
                            mine[item] = [qual] + chain
                            changed = True
        return out

    # -- individual checks -------------------------------------------------

    def check_lock_order(self):
        edges = {}  # (A, B) -> (file, line, evidence)
        for qual, f in self.model.functions.items():
            for a, b, line in f.lock_edges:
                edges.setdefault((a, b), (f.file, line,
                                          f"{qual} acquires {b} while "
                                          f"holding {a}"))
            for callee, line, held in self.call_graph.get(qual, ()):
                for lock, chain in self.may_acquire.get(callee, {}).items():
                    for a in held:
                        if (a, lock) not in edges:
                            path = " -> ".join(chain)
                            edges[(a, lock)] = (
                                f.file, line,
                                f"{qual} holds {a} and calls {path}, "
                                f"which acquires {lock}")
        findings = []
        graph = defaultdict(set)
        for (a, b) in edges:
            if a != b:
                graph[a].add(b)
        # Self-edges are immediate deadlocks: no edadb mutex is recursive.
        for (a, b), (file, line, ev) in sorted(edges.items()):
            if a == b:
                findings.append(Finding(
                    "lock-order", f"{a}->{a}", file, line,
                    f"re-acquisition of {a} (self-deadlock)",
                    [ev]))
        # Cycles: DFS over the edge graph, canonicalized by rotation.
        seen_cycles = set()
        for start in sorted(graph):
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(graph.get(node, ())):
                    if nxt == start and len(path) > 1:
                        cyc = self._canon_cycle(path)
                        if cyc in seen_cycles:
                            continue
                        seen_cycles.add(cyc)
                        ev, anchor = [], None
                        for i, a in enumerate(cyc):
                            b = cyc[(i + 1) % len(cyc)]
                            file, line, e = edges[(a, b)]
                            ev.append(e)
                            if anchor is None or (file, line) < anchor:
                                anchor = (file, line)
                        key = "->".join(cyc + (cyc[0],))
                        findings.append(Finding(
                            "lock-order", key, anchor[0], anchor[1],
                            f"lock-order cycle: {key}", ev))
                    elif nxt not in path and len(path) < 8:
                        stack.append((nxt, path + [nxt]))
        return findings

    @staticmethod
    def _canon_cycle(path):
        k = path.index(min(path))
        return tuple(path[k:] + path[:k])

    def check_wait_under_lock(self):
        found = {}  # (lock, prim) -> Finding (keep lexicographically first)
        for qual, f in sorted(self.model.functions.items()):
            for b in f.blocks:
                if b.prim == "cv-wait":
                    foreign = [h for h in b.held if h != b.waited_lock]
                    for lock in foreign:
                        self._record_wait(found, lock, "cv-wait", f.file,
                                          b.line,
                                          f"{qual} holds {lock} while "
                                          f"waiting on a different mutex",
                                          [])
                    continue
                for lock in b.held:
                    self._record_wait(found, lock, b.prim, f.file, b.line,
                                      f"{qual} holds {lock} across "
                                      f"{b.prim}", [])
            for callee, line, held in self.call_graph.get(qual, ()):
                if not held:
                    continue
                for prim, chain in self.may_block.get(callee, {}).items():
                    for lock in held:
                        path = " -> ".join([qual] + chain)
                        self._record_wait(
                            found, lock, prim, f.file, line,
                            f"{qual} holds {lock} and calls into {prim} "
                            f"(path: {path})", [])
        return list(found.values())

    @staticmethod
    def _record_wait(found, lock, prim, file, line, msg, ev):
        key = (lock, prim)
        cand = Finding("wait-under-lock", f"{lock}|{prim}", file, line, msg,
                       ev)
        prev = found.get(key)
        if prev is None or (cand.file, cand.line) < (prev.file, prev.line):
            found[key] = cand

    def check_cv_loops(self):
        findings = []
        for qual, f in sorted(self.model.functions.items()):
            for b in f.blocks:
                if b.prim == "cv-wait" and not b.in_loop:
                    findings.append(Finding(
                        "cv-wait-no-loop", qual, f.file, b.line,
                        f"{qual}: CondVar wait outside a predicate loop "
                        f"(spurious wakeups / lost-wakeup hazard)"))
        return findings

    def check_clock_domain(self):
        findings = {}
        for qual, f in sorted(self.model.functions.items()):
            for use in f.clock_uses:
                key = f"{qual}|{use.kind}|{','.join(use.terms)}"
                if key in findings:
                    continue
                if use.kind == "cross-mix":
                    msg = (f"{qual}: wall- and steady-domain raw values in "
                           f"one expression ({', '.join(use.terms)})")
                else:
                    msg = (f"{qual}: raw clock read in time arithmetic "
                           f"({', '.join(use.terms)}); use typed "
                           f"Clock::WallNow()/SteadyNow()")
                findings[key] = Finding("clock-domain", key, f.file,
                                        use.line, msg)
        return list(findings.values())

    def check_guarded_by(self):
        findings = []
        for name in sorted(self.model.classes):
            cls = self.model.classes[name]
            if not cls.mutexes:
                continue
            for fname, line, guarded, exempt in cls.fields:
                if guarded or exempt is not None:
                    continue
                if fname in cls.mutexes:
                    continue
                findings.append(Finding(
                    "guarded-by", f"{name}::{fname}", cls.file, line,
                    f"{name}::{fname} in a mutex-owning class has no "
                    f"EDADB_GUARDED_BY annotation"))
        return findings

    def atomic_sites(self):
        """var key -> sorted [AtomicOp] across every function."""
        by_var = defaultdict(list)
        for qual in sorted(self.model.functions):
            for op in self.model.functions[qual].atomic_ops:
                by_var[op.var].append(op)
        for ops in by_var.values():
            ops.sort(key=lambda o: (o.file, o.line, o.op))
        return by_var

    @staticmethod
    def _sites_evidence(ops, limit=6):
        ev = []
        for o in ops[:limit]:
            mark = "" if o.explicit_order else " (defaulted)"
            ev.append(f"{o.file}:{o.line}: {o.op} {o.order}{mark}")
        if len(ops) > limit:
            ev.append(f"... {len(ops) - limit} more site(s)")
        return ev

    def check_atomic_ordering(self):
        findings = []
        for var, ops in sorted(self.atomic_sites().items()):
            # (a) relaxed RMW used for synchronization: any relaxed
            # CAS/exchange, or a relaxed fetch_* whose result feeds
            # further logic (pure counter bumps discard it).
            bad_rmw = [o for o in ops if o.order == "relaxed" and
                       (o.op in ("cas", "exchange") or
                        (o.op == "rmw" and o.used))]
            if bad_rmw:
                o = bad_rmw[0]
                findings.append(Finding(
                    "atomic-ordering", f"{var}|relaxed-rmw", o.file, o.line,
                    f"{var}: relaxed {o.op} with the result used for "
                    f"synchronization-shaped logic (relaxed only orders "
                    f"this variable, nothing it publishes)",
                    self._sites_evidence(bad_rmw)))
            # (b) mixed orderings without an acquire/release pairing:
            # a release-or-stronger write is unobservable through a
            # relaxed load of the same variable (and vice versa).
            strong_write = [o for o in ops
                            if o.op in ("store", "rmw", "cas", "exchange")
                            and ORDER_RANK[o.order] >= 2]
            relaxed_load = [o for o in ops
                            if o.op in ("load", "rmw", "cas", "exchange")
                            and o.order == "relaxed"]
            strong_read = [o for o in ops
                           if o.op in ("load", "rmw", "cas", "exchange")
                           and ORDER_RANK[o.order] >= 2]
            relaxed_store = [o for o in ops
                             if o.op in ("store", "rmw", "cas", "exchange")
                             and o.order == "relaxed"]
            mixed = ((strong_write and relaxed_load) or
                     (strong_read and relaxed_store))
            if mixed:
                sites = sorted(set(strong_write + relaxed_load +
                                   strong_read + relaxed_store),
                               key=lambda o: (o.file, o.line, o.op))
                o = sites[0]
                findings.append(Finding(
                    "atomic-ordering", f"{var}|mixed-ordering", o.file,
                    o.line,
                    f"{var}: release/acquire sites mixed with relaxed "
                    f"sites on the same variable -- the strong side's "
                    f"ordering is invisible through the relaxed side",
                    self._sites_evidence(sites)))
            # (c) defaulted seq_cst on a hot-path file.
            hot = [o for o in ops if not o.explicit_order and
                   o.file.startswith(HOT_PATH_PREFIXES)]
            if hot:
                o = hot[0]
                findings.append(Finding(
                    "atomic-ordering", f"{var}|seq-cst-hot", o.file, o.line,
                    f"{var}: defaulted seq_cst on a hot-path file -- "
                    f"either an unnecessary full fence or an undocumented "
                    f"dependency on one; state the ordering explicitly",
                    self._sites_evidence(hot)))
        return findings

    def _singleton_clean(self, pointee):
        """A static T (or static T* = new T) singleton is clean when T
        serializes its own state (owns a named or raw mutex) or holds
        none (stateless / all-atomic)."""
        info = self.model.classes.get(pointee) if pointee else None
        if info is None:
            return False  # cannot prove anything about the pointee
        if info.mutexes or info.has_raw_mutex:
            return True
        mutable_fields = [fn for fn, _l, _g2, ex in info.fields
                          if ex not in ("const", "atomic", "condvar")]
        return not mutable_fields

    def effective_global(self, g):
        """(kind, pointee) after value-singleton promotion: a `static T
        instance;` of a known class is a singleton OBJECT -- judged by
        T's own locking, not flagged as a plain mutable."""
        if g.kind != "plain" or "*" in g.type or "&" in g.type:
            return g.kind, g.pointee
        for t in reversed(re.findall(r"[A-Za-z_]\w*", g.type)):
            if t in self.model.classes:
                return "singleton", t
        return g.kind, g.pointee

    def check_shared_state(self):
        findings = []
        for key in sorted(self.model.globals):
            g = self.model.globals[key]
            kind, pointee = self.effective_global(g)
            if kind == "singleton" and not self._singleton_clean(pointee):
                what = (f"singleton of {pointee or 'an unknown class'} "
                        f"which owns no mutex")
                findings.append(Finding(
                    "shared-state", key, g.file, g.line,
                    f"{key}: {what}; every accessor races once this "
                    f"runs on more than one shard ({g.type})"))
            elif kind == "plain":
                what = ("function-static local" if g.scope
                        else "namespace-scope global")
                findings.append(Finding(
                    "shared-state", key, g.file, g.line,
                    f"{key}: mutable non-atomic {what} ({g.type}) -- "
                    f"ambient shared state outside every lock domain"))
        return findings

    ESCAPE_MSG = {
        "return-ref": "returned by reference/pointer/iterator from a "
                      "method -- the caller holds storage the lock no "
                      "longer guards",
        "member-store": "stored through another member -- aliases the "
                        "guarded storage outside its critical section",
        "lambda": "captured by a lambda that outlives the critical "
                  "section (stored or handed to a deferred callee)",
    }

    def check_guarded_escape(self):
        found = {}
        for qual in sorted(self.model.functions):
            f = self.model.functions[qual]
            for e in f.escapes:
                key = f"{e.cls}::{e.field}|{e.kind}"
                cand = Finding(
                    "guarded-escape", key, f.file, e.line,
                    f"{e.cls}::{e.field} (guarded) {self.ESCAPE_MSG[e.kind]}",
                    [f"{qual}: {e.detail}"])
                prev = found.get(key)
                if prev is None or (cand.file, cand.line) < (prev.file,
                                                             prev.line):
                    found[key] = cand
        return list(found.values())

    def run(self):
        findings = []
        findings += self.check_lock_order()
        findings += self.check_wait_under_lock()
        findings += self.check_cv_loops()
        findings += self.check_clock_domain()
        findings += self.check_guarded_by()
        findings += self.check_atomic_ordering()
        findings += self.check_shared_state()
        findings += self.check_guarded_escape()
        findings.sort(key=lambda f: (f.file, f.line, f.check, f.key))
        return findings


# --------------------------------------------------------------------------
# Suppression / baseline
# --------------------------------------------------------------------------


def load_entries(path, require_reason):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    entries = data.get("entries", [])
    for e in entries:
        if "check" not in e or "key" not in e:
            raise ValueError(f"{path}: every entry needs check+key: {e}")
        if require_reason and not e.get("reason", "").strip():
            raise ValueError(
                f"{path}: entry {e['check']}|{e['key']} has no reason; "
                "suppressions must carry their justification")
    return entries


def apply_filters(findings, suppressions, baseline):
    """Returns (active, errors). Suppressed/baselined findings drop out;
    stale suppression or baseline entries become errors (shrink-only)."""
    errors = []
    sup_idx = {(e["check"], e["key"]): e for e in suppressions}
    base_idx = {(e["check"], e["key"]): e for e in baseline}
    hit_sup, hit_base = set(), set()
    active = []
    for f in findings:
        k = (f.check, f.key)
        if k in sup_idx:
            hit_sup.add(k)
            continue
        if k in base_idx:
            hit_base.add(k)
            continue
        active.append(f)
    for k in sorted(set(sup_idx) - hit_sup):
        errors.append(f"stale suppression (no such finding): "
                      f"{k[0]}|{k[1]} -- remove it from "
                      f"scripts/analyze_suppress.json")
    for k in sorted(set(base_idx) - hit_base):
        errors.append(f"stale baseline entry (debt paid down): "
                      f"{k[0]}|{k[1]} -- remove it from "
                      f"scripts/analyze_baseline.json (shrink-only ratchet)")
    return active, errors


def write_baseline(findings, suppressions):
    sup_idx = {(e["check"], e["key"]) for e in suppressions}
    entries = [{"check": f.check, "key": f.key}
               for f in findings
               if f.check == "guarded-by" and (f.check, f.key) not in sup_idx]
    entries.sort(key=lambda e: (e["check"], e["key"]))
    with open(BASELINE_PATH, "w", encoding="utf-8") as f:
        json.dump({
            "comment": "guarded-by annotation debt; shrink-only. Regenerate "
                       "with scripts/analyze.py --write-baseline only after "
                       "paying debt down, never to admit new debt.",
            "entries": entries,
        }, f, indent=2)
        f.write("\n")
    print(f"analyze.py: wrote {len(entries)} baseline entries to "
          f"{os.path.relpath(BASELINE_PATH, REPO_ROOT)}")


# --------------------------------------------------------------------------
# Driving
# --------------------------------------------------------------------------


def iter_sources(paths):
    exts = (".h", ".cc")
    for root in paths:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(exts):
                    yield os.path.join(dirpath, fn)


def build_model(paths):
    # A decls pass over everything first, so mutex names, field types
    # and annotations are all known before any body is parsed (inline
    # methods may precede the members they use; .cc files use classes
    # declared elsewhere).
    model = Model()
    ordered = sorted(iter_sources(paths),
                     key=lambda p: (not p.endswith(".h"), p))
    for path in ordered:
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        builtin_parse_file(model, path, rel, phase="decls")
    for path in ordered:
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        builtin_parse_file(model, path, rel, phase="facts")
    return model


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------

EXPECT_RE = re.compile(
    r"//\s*expect-analyze:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def run_self_test():
    """Fixtures in scripts/analyze_fixtures/ seed one violation per
    `// expect-analyze: check[, check]` comment; the self-test fails if
    any expected finding is missed or any unexpected one fires. The
    fixtures are valid C++ (they compile with the real headers absent --
    support.h carries mini shims)."""
    if not os.path.isdir(FIXTURE_DIR):
        print("analyze.py --self-test: no fixture dir", FIXTURE_DIR,
              file=sys.stderr)
        return 2
    files = [os.path.join(FIXTURE_DIR, f)
             for f in sorted(os.listdir(FIXTURE_DIR))
             if f.endswith((".h", ".cc"))]
    if not files:
        print("analyze.py --self-test: no fixtures found", file=sys.stderr)
        return 2

    model = Model()
    for path in files:
        rel = "scripts/analyze_fixtures/" + os.path.basename(path)
        builtin_parse_file(model, path, rel, phase="decls")
    for path in files:
        rel = "scripts/analyze_fixtures/" + os.path.basename(path)
        builtin_parse_file(model, path, rel, phase="facts")

    findings = Analyzer(model).run()

    expected = defaultdict(set)  # (relfile, line) -> {checks}
    for path in files:
        rel = "scripts/analyze_fixtures/" + os.path.basename(path)
        with open(path, encoding="utf-8") as f:
            for idx, ln in enumerate(f.read().split("\n"), start=1):
                m = EXPECT_RE.search(ln)
                if m:
                    expected[(rel, idx)] |= {
                        c.strip() for c in m.group(1).split(",")}
    got = defaultdict(set)
    for f in findings:
        got[(f.file, f.line)].add(f.check)

    failures = 0
    for loc, checks in sorted(expected.items()):
        missing = checks - got.get(loc, set())
        for c in sorted(missing):
            print(f"SELF-TEST FAIL {loc[0]}:{loc[1]}: expected [{c}], "
                  f"not fired")
            failures += 1
    for loc, checks in sorted(got.items()):
        unexpected = checks - expected.get(loc, set())
        for c in sorted(unexpected):
            print(f"SELF-TEST FAIL {loc[0]}:{loc[1]}: unexpected [{c}]")
            failures += 1
    if failures:
        print(f"analyze.py --self-test: {failures} failure(s).")
        return 1
    n = sum(len(v) for v in expected.values())
    print(f"analyze.py --self-test: {len(files)} fixture file(s), {n} "
          f"seeded finding(s), all detected, no extras.")
    return 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files or directories to analyze (default: src/ "
                    "bench/ examples/)")
    ap.add_argument("--self-test", action="store_true",
                    help="analyze the seeded fixtures and verify every "
                    "expected finding fires exactly where declared")
    ap.add_argument("--write-baseline", action="store_true",
                    help="regenerate scripts/analyze_baseline.json from "
                    "current guarded-by findings (shrink-only: run this "
                    "only after paying debt down)")
    ap.add_argument("--all", action="store_true",
                    help="print suppressed/baselined findings too")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    help="findings output: human text (default) or a "
                    "fingerprint-keyed JSON document (CI artifact)")
    args = ap.parse_args()

    if args.self_test:
        return run_self_test()

    paths = args.paths or [os.path.join(REPO_ROOT, d)
                           for d in ("src", "bench", "examples")
                           if os.path.isdir(os.path.join(REPO_ROOT, d))]
    model = build_model(paths)
    findings = Analyzer(model).run()

    try:
        suppressions = load_entries(SUPPRESS_PATH, require_reason=True)
        baseline = load_entries(BASELINE_PATH, require_reason=False)
    except ValueError as e:
        print(f"analyze.py: {e}", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(findings, suppressions)
        return 0

    active, errors = apply_filters(findings, suppressions, baseline)

    stats = (f"{len(model.classes)} classes, {len(model.functions)} "
             f"functions")

    if args.format == "json":
        doc = {
            "schema": "edadb-analyze-findings-v1",
            "clean": not (active or errors),
            "stats": {"classes": len(model.classes),
                      "functions": len(model.functions)},
            "findings": {
                f.fingerprint: {
                    "check": f.check, "key": f.key, "file": f.file,
                    "line": f.line, "message": f.message,
                    "evidence": f.evidence,
                } for f in active},
            "errors": errors,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 1 if (active or errors) else 0

    if args.all:
        for f in findings:
            print(f.render())
        if findings:
            print(f"-- {len(findings)} total finding(s) before "
                  f"suppression/baseline --")

    for f in active:
        print(f.render())
    for e in errors:
        print(f"analyze.py: {e}")

    if active or errors:
        print(f"analyze.py: {len(active)} finding(s), {len(errors)} "
              f"stale entr(ies). [{stats}]")
        return 1
    print(f"analyze.py: clean. [{stats}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
