#!/usr/bin/env python3
"""Symbol-level hot-path allocation gate (docs/ARCHITECTURE.md §12).

Verifies that no allocator entry point is statically reachable from any
function marked WMLP_HOT (util/hot_path.h). The runtime alloc-hook bench
budget catches regressions only on the trajectories the bench happens to
exercise; this gate proves the property over the whole static call graph,
so a stray std::string, un-reserved vector growth, or WMLP_CHECK_MSG in a
hot tree fails the build instead of waiting for a slow bisect.

How it works, entirely on the compiled objects (no compiler needed):

  roots  = symbols placed in section `.text.wmlp_hot` — that is what
           WMLP_HOT expands to. Read from `nm --format=sysv`.
  edges  = direct calls, recovered from the relocation entries in
           `objdump -dr` over every object file under build/src. Calls
           into symbols defined in the object set are walked; undefined
           (external) callees are leaves checked against the denylist.
  sinks  = the sanctioned cold escape hatches; the walk stops there:
           `.text.wmlp_cold` symbols (WMLP_COLD), anything whose
           demangled name mentions `wmlp::coldpath` (template grow
           helpers) or `CheckFailed` ([[noreturn]] contract reporters).
  deny   = operator new/new[] (`_Znw*`/`_Zna*`) and the C allocator
           family. Reaching one of these from a root is a failure, and
           the offending root → … → allocator chain is printed.

Soundness notes:
  * Virtual and other indirect calls carry no relocation to walk, so the
    gate covers them by requiring every hot implementation (e.g. a
    policy Serve override) to be WMLP_HOT-marked — each becomes its own
    root rather than being reached through the vtable.
  * The gate is only meaningful on optimized builds without WMLP_AUDIT or
    sanitizers: those configs deliberately compile allocation into
    diagnostic paths. tests/CMakeLists.txt registers the gate as a ctest
    only for eligible configurations. Telemetry is walked like any other
    code; its allocating paths are WMLP_COLD sinks.

Usage: check_hot_path_allocs.py --build-dir <dir> [--verbose]
Exit codes: 0 clean, 1 violation, 2 usage/environment error.
"""

import argparse
import collections
import pathlib
import re
import subprocess
import sys

HOT_SECTION = ".text.wmlp_hot"
COLD_SECTION = ".text.wmlp_cold"

# Demangled-name fragments treated as sinks (sanctioned cold paths).
SINK_NAME_FRAGMENTS = ("wmlp::coldpath", "CheckFailed")

# Allocator entry points. Mangled prefixes cover every operator new
# overload (aligned, nothrow, array); plain names cover the C family.
DENY_PREFIXES = ("_Znw", "_Zna")
DENY_EXACT = frozenset(
    [
        "malloc",
        "calloc",
        "realloc",
        "reallocarray",
        "aligned_alloc",
        "posix_memalign",
        "valloc",
        "pvalloc",
        "memalign",
        "strdup",
        "strndup",
    ]
)


def run(cmd):
    try:
        proc = subprocess.run(
            cmd, check=True, capture_output=True, text=True
        )
    except FileNotFoundError:
        sys.exit(f"error: required tool not found: {cmd[0]}")
    except subprocess.CalledProcessError as e:
        sys.exit(f"error: {' '.join(cmd)} failed:\n{e.stderr}")
    return proc.stdout


def is_denied(symbol):
    base = symbol.split("@")[0]  # strip version suffixes (malloc@plt)
    if base in DENY_EXACT:
        return True
    return any(base.startswith(p) for p in DENY_PREFIXES)


def collect_objects(build_dir):
    src_dir = build_dir / "src"
    if not src_dir.is_dir():
        sys.exit(f"error: {src_dir} not found; configure and build first")
    objs = sorted(src_dir.rglob("*.o"))
    if not objs:
        sys.exit(f"error: no object files under {src_dir}; build first")
    return objs


def parse_nm_sysv(obj):
    """Yields (symbol, section) for defined symbols in `obj`."""
    out = run(["nm", "--format=sysv", str(obj)])
    for line in out.splitlines():
        # sysv rows: name|value|class|type|size|line|section
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 7 or not parts[0]:
            continue
        name, section = parts[0], parts[6]
        if section and section != "*UND*":
            yield name, section


CALL_TARGET_RE = re.compile(
    r"R_(?:X86_64_(?:PLT32|PC32)|AARCH64_(?:CALL26|JUMP26))\s+(\S+)"
)
SYMBOL_LABEL_RE = re.compile(r"^[0-9a-f]+ <([^>]+)>:$")


def parse_call_graph(objs):
    """Direct-call edges from relocations, per defining object set."""
    edges = collections.defaultdict(set)
    for obj in objs:
        out = run(["objdump", "-dr", str(obj)])
        current = None
        for line in out.splitlines():
            m = SYMBOL_LABEL_RE.match(line)
            if m:
                current = m.group(1)
                continue
            if current is None:
                continue
            m = CALL_TARGET_RE.search(line)
            if m:
                target = m.group(1)
                # Relocation operands look like "_Znwm-0x4" or "memcpy".
                target = re.sub(r"[+-]0x[0-9a-f]+$", "", target)
                if target != current:
                    edges[current].add(target)
    return edges


def demangle(symbols):
    if not symbols:
        return {}
    out = run(["c++filt"] + list(symbols))
    names = out.splitlines()
    if len(names) != len(symbols):
        # c++filt echoes one line per argument; a mismatch means an
        # unparseable symbol — fall back to identity for safety.
        return {s: s for s in symbols}
    return dict(zip(symbols, names))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", type=pathlib.Path)
    ap.add_argument(
        "--objects",
        nargs="+",
        type=pathlib.Path,
        help="explicit object files instead of scanning build-dir/src "
        "(used by the lint fixture battery to prove the gate fires)",
    )
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    if args.objects:
        objs = args.objects
        for o in objs:
            if not o.is_file():
                sys.exit(f"error: object file not found: {o}")
    elif args.build_dir:
        objs = collect_objects(args.build_dir)
    else:
        ap.error("one of --build-dir or --objects is required")
    section_of = {}
    for obj in objs:
        for sym, section in parse_nm_sysv(obj):
            section_of.setdefault(sym, section)

    roots = sorted(
        s for s, sec in section_of.items() if sec.startswith(HOT_SECTION)
    )
    if not roots:
        sys.exit(
            "error: no WMLP_HOT symbols found — the gate would be vacuous. "
            "Either the hot entry points lost their annotation or the "
            "build layout changed."
        )

    demangled = demangle(sorted(section_of))

    def is_sink(sym):
        if section_of.get(sym, "").startswith(COLD_SECTION):
            return True
        name = demangled.get(sym, sym)
        return any(f in name for f in SINK_NAME_FRAGMENTS)

    edges = parse_call_graph(objs)

    if args.verbose:
        print(f"objects: {len(objs)}, roots: {len(roots)}")
        for r in roots:
            print(f"  root: {demangled.get(r, r)}")

    violations = []
    for root in roots:
        # BFS remembering one witness path per symbol.
        parent = {root: None}
        queue = collections.deque([root])
        while queue:
            cur = queue.popleft()
            if cur is not root and is_sink(cur):
                continue
            for callee in sorted(edges.get(cur, ())):
                if callee in parent:
                    continue
                parent[callee] = cur
                if is_denied(callee):
                    chain = [callee]
                    node = cur
                    while node is not None:
                        chain.append(node)
                        node = parent[node]
                    chain.reverse()
                    violations.append((root, chain))
                    queue.clear()
                    break
                # Walk only symbols we define; externals are leaves.
                if callee in section_of:
                    queue.append(callee)

    if violations:
        print("hot-path allocation gate FAILED:", file=sys.stderr)
        for root, chain in violations:
            print(
                f"\n  allocator reachable from WMLP_HOT "
                f"{demangled.get(root, root)}:",
                file=sys.stderr,
            )
            for sym in chain:
                print(f"    {demangled.get(sym, sym)}", file=sys.stderr)
        print(
            "\nRoute growth through a WMLP_COLD helper or wmlp::coldpath, "
            "pre-size the container, or drop WMLP_CHECK_MSG from the hot "
            "tree (util/hot_path.h).",
            file=sys.stderr,
        )
        return 1

    print(
        f"hot-path allocation gate OK: {len(roots)} root(s), "
        f"no allocator reachable"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
