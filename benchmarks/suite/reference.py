"""The answers, worked out by hand over plain dicts and sets.

Each function below is one of the paper's queries written as the obvious
Python over `{table name: [Rec, ...]}`, with an index where a nested loop
would be quadratic. Nothing here imports the system under test, so a wrong
answer from any of its layers, the value model's hashing and equality
included, shows as a mismatch. The interpreter cannot be this oracle at the
timed sizes: it is quadratic, and takes 8.6 s at the 4x tier and 135 s at 16x
on the COUNT-bug query alone. Set-up proves these functions equal to the
interpreter once, at the 1x tier.
"""

from __future__ import annotations

from collections import defaultdict


class Rec(dict):
    """A record: a dict that can be a member of a set. Never mutated."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash


def _group(rows, key, value=lambda row: row):
    groups = defaultdict(set)
    for row in rows:
        groups[row[key]].add(value(row))
    return groups


def _place(address):
    return address["street"], address["city"]


def q1_same_street(t):
    return frozenset(
        d for d in t["DEPT"] if _place(d["address"]) in {_place(e["address"]) for e in d["emps"]}
    )


def q2_emps_by_city(t):
    by_city = defaultdict(set)
    for e in t["EMP"]:
        by_city[e["address"]["city"]].add(e)
    return frozenset(
        Rec(dname=d["name"], emps=frozenset(by_city[d["address"]["city"]])) for d in t["DEPT"]
    )


def count_bug_nested(t):
    partners = _group(t["S"], "c")
    return frozenset(r for r in t["R"] if r["b"] == len(partners[r["c"]]))


def subseteq_bug_nested(t):
    ys = _group(t["Y"], "b", lambda y: y["a"])
    return frozenset(x for x in t["X"] if x["a"] <= ys[x["b"]])


def section8_query(t):
    zs = _group(t["Z"], "d", lambda z: z["c"])
    ys = _group((y for y in t["Y"] if y["c"] <= zs[y["d"]]), "b", lambda y: y["a"])
    return frozenset(x for x in t["X"] if x["a"] <= ys[x["b"]])


def section8_flat_variant(t):
    zs = _group(t["Z"], "d", lambda z: z["c"])
    ys = _group((y for y in t["Y"] if y["a"] not in zs[y["d"]]), "b", lambda y: y["a"])
    return frozenset(x for x in t["X"] if x["c"] in ys[x["b"]])


def unnest_collapse(t):
    ys = _group(t["Y"], "a", lambda y: y["b"])
    return frozenset(Rec(a=x["a"], b=b) for x in t["X"] for b in ys[x["b"]])


def lookup(t, key):
    return frozenset(r for r in t["R"] if r["a"] == key)


#: query name -> (function, tables it reads), in the order of a sweep.
PAPER = {
    "q1_same_street": (q1_same_street, ("DEPT",)),
    "q2_emps_by_city": (q2_emps_by_city, ("DEPT", "EMP")),
    "count_bug_nested": (count_bug_nested, ("R", "S")),
    "subseteq_bug_nested": (subseteq_bug_nested, ("X", "Y")),
    "section8_query": (section8_query, ("X", "Y", "Z")),
    "section8_flat_variant": (section8_flat_variant, ("X", "Y", "Z")),
    "unnest_collapse": (unnest_collapse, ("X", "Y")),
}
