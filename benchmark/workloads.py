"""The three workloads: how a query calls the program, what of its output is
kept, and how that output is checked.

A workload object is built by one set-up: it generates the inputs for its
seed and loads them into the freshly imported program.  `query(i)` is the
timed call; `record(i, result)` turns its result into plain text outside the
timed region; `check(i, record)` returns the problems the benchmark's own
checks find in it; `summary(records)` describes one round's outputs.
"""

from __future__ import annotations

import contextlib
import io
import json

import checks
import inputs


class MinorPairs:
    """`find_minor(pattern, host)` on a seeded pair of tournaments."""

    name = "minor-pairs"

    def __init__(self, prog, seed: int, workdir):
        self.prog = prog
        self.items = inputs.minor_pairs(seed)
        parse = prog.core.parse_digraph
        self.loaded = [(parse(p.pattern), parse(p.host)) for p in self.items]

    def __len__(self):
        return len(self.items)

    def query(self, i: int):
        pattern, host = self.loaded[i]
        return self.prog.minor.find_minor(pattern, host)

    def record(self, i: int, result):
        return None if result is None else result.to_json()

    def check(self, i: int, record) -> list[str]:
        item = self.items[i]
        pattern = checks.parse_text(item.pattern)
        host = checks.parse_text(item.host)
        if record is not None:
            problems = checks.check_mapping(pattern, host, record)
            if item.kind == "random" and not checks.tournament_minor(pattern, host):
                problems.append("found, but the reduction to isomorphism tests says absent")
            return problems
        if item.kind == "derived":
            return ["absent, but the pattern is a minor of the host by construction"]
        if checks.tournament_minor(pattern, host):
            return ["absent, but the reduction to isomorphism tests finds the pattern"]
        return []

    def summary(self, records) -> str:
        found = sum(r is not None for r in records)
        return f"{found} found, {len(records) - found} absent"


class OracleCrossCheck:
    """`closure_oracle(host)`, then `find_minor(candidate, host)` and closure
    membership for each of the host's candidates."""

    name = "oracle-cross-check"

    def __init__(self, prog, seed: int, workdir):
        self.prog = prog
        self.items = inputs.oracle_hosts(seed)
        parse = prog.core.parse_digraph
        self.loaded = [(parse(h.host), [parse(c) for c in h.candidates]) for h in self.items]

    def __len__(self):
        return len(self.items)

    def query(self, i: int):
        minor = self.prog.minor
        host, candidates = self.loaded[i]
        closure = minor.closure_oracle(host)
        answers = []
        for c in candidates:
            mapping = minor.find_minor(c, host)
            answers.append((mapping, minor.canonical_form(c) in closure))
        return len(closure), answers

    def record(self, i: int, result):
        size, answers = result
        return size, tuple((None if m is None else m.to_json(), member) for m, member in answers)

    def check(self, i: int, record) -> list[str]:
        item = self.items[i]
        host = checks.parse_text(item.host)
        problems = []
        for j, (mapping, member) in enumerate(record[1]):
            found = mapping is not None
            if found:
                cand = checks.parse_text(item.candidates[j])
                problems += [f"candidate {j}: {p}"
                             for p in checks.check_mapping(cand, host, mapping)]
            if found != member:
                problems.append(f"candidate {j}: find_minor says {found}, "
                                f"closure membership {member}")
            if item.own[j] and not found:
                problems.append(f"candidate {j}: drawn from the host's own closure, yet absent")
        return problems

    def summary(self, records) -> str:
        answers = [m for r in records for m, _ in r[1]]
        found = sum(m is not None for m in answers)
        minors = sum(r[0] for r in records)
        return (f"{len(answers)} candidates: {found} found, {len(answers) - found} absent; "
                f"{minors} minors in the closures")


class DecompLinked:
    """`pathwidth --decomp`, `linked` and `verify-decomp --linked`, driven
    in-process through `cli.main` on files in the work directory, then
    `linked` once more on the decomposition of a random introduction order,
    which makes build_linked repair windows."""

    name = "decomp-linked"

    def __init__(self, prog, seed: int, workdir):
        self.prog = prog
        self.items = inputs.decomp_inputs(seed)
        self.files = []
        for i, item in enumerate(self.items):
            paths = tuple(str(workdir / f"{i}.{ext}") for ext in
                          ("txt", "decomp.json", "linked.json", "ordered.json"))
            for path, text in ((paths[0], item.graph), (paths[3], item.ordered)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            self.files.append(paths)

    def __len__(self):
        return len(self.items)

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.prog.cli.main(argv)
        return code, out.getvalue()

    def query(self, i: int):
        graph, decomp, linked, ordered = self.files[i]
        width = self._cli(["pathwidth", graph, "--decomp", decomp])
        built = self._cli(["linked", graph, decomp])
        with open(linked, "w", encoding="utf-8") as fh:
            fh.write(built[1])
        report = self._cli(["verify-decomp", graph, linked, "--linked"])
        rebuilt = self._cli(["linked", graph, ordered])
        return width, built, report, rebuilt

    def record(self, i: int, result):
        width, built, report, rebuilt = result
        with open(self.files[i][1], encoding="utf-8") as fh:
            decomp = fh.read()
        return width, decomp, built, report, rebuilt

    def check(self, i: int, record) -> list[str]:
        (code_w, width_text), decomp, (code_l, linked), (code_v, report), \
            (code_r, relinked) = record
        if (code_w, code_l, code_v, code_r) != (0, 0, 0, 0):
            return [f"exit codes {code_w}, {code_l}, {code_v}, {code_r} "
                    "for pathwidth, linked, verify-decomp, linked"]
        item = self.items[i]
        g = checks.parse_text(item.graph)
        width = int(width_text)
        problems = []
        brute = self.prog.experiments.pathwidth_brute_force(
            self.prog.core.parse_digraph(item.graph))
        if width != brute:
            problems.append(f"path-width {width}, exhaustive search says {brute}")
        bags = [tuple(b) for b in json.loads(decomp)["bags"]]
        problems += [f"decomposition: {p}" for p in checks.check_decomposition(g, bags)]
        if max(len(b) for b in bags) != width + 1:
            problems.append("decomposition's largest bag is not width + 1")
        lbags = [tuple(b) for b in json.loads(linked)["bags"]]
        problems += [f"linked: {p}" for p in checks.check_decomposition(g, lbags)]
        problems += [f"linked: {p}" for p in checks.check_linked(g, lbags)]
        if max(len(b) for b in lbags) > width + 1:
            problems.append("linked decomposition's largest bag exceeds width + 1")
        verdict = json.loads(report)
        flags = verdict["linked"]
        if not (verdict["valid"] and flags["increment_ok"] and flags["cardinality_ok"]
                and flags["linked_ok"]):
            problems.append("verify-decomp rejects the linked decomposition")
        obags = json.loads(item.ordered)["bags"]
        rbags = [tuple(b) for b in json.loads(relinked)["bags"]]
        problems += [f"relinked: {p}" for p in checks.check_decomposition(g, rbags)]
        problems += [f"relinked: {p}" for p in checks.check_linked(g, rbags)]
        if max(len(b) for b in rbags) > max(len(b) for b in obags):
            problems.append("relinked decomposition's largest bag exceeds the input's")
        return problems

    def summary(self, records) -> str:
        widths = {}
        for (_, width), *_ in records:
            widths[int(width)] = widths.get(int(width), 0) + 1
        return "path-widths " + ", ".join(f"{w}: {c}" for w, c in sorted(widths.items()))


WORKLOADS = {w.name: w for w in (MinorPairs, OracleCrossCheck, DecompLinked)}
