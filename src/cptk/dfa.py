"""Complete deterministic finite automata and their algebra.

Every automaton is total: one transition per state and symbol.  That keeps
complementation a plain flip of the accepting set and makes product
constructions straightforward.  The minimal automaton, numbered
breadth-first, is the canonical form: two automata accept the same language
exactly when their minimal automata are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .words import Alphabet


# transition tables whose check :func:`_table_fault` remembers: the
# automata that share a table are mostly built one after another (the
# indices of one table in the regular family, a complement), and a short
# memo keeps few large tables alive
TABLE_CHECKS = 64


@lru_cache(maxsize=TABLE_CHECKS)
def _table_fault(n_symbols: int, transitions) -> str | None:
    """Why the table is not a complete transition table over ``n_symbols``
    symbols, checking row width then targets, row by row; None if it is.

    Remembered per table, so automata that share one (the indices of one
    table in the regular family, complements, quotients) check it once.
    """
    n = len(transitions)
    for row in transitions:
        if len(row) != n_symbols:
            return "transition row width must equal alphabet size"
        if any(not 0 <= t < n for t in row):
            return "transition target out of range"
    return None


@dataclass(frozen=True)
class Dfa:
    """A complete DFA over an alphabet of ``n_symbols`` symbols.

    ``transitions[s][x]`` is the successor of state ``s`` on symbol code
    ``x``.  States are 0..n_states-1.
    """

    n_symbols: int
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    # set on the results of :meth:`minimize`; not a field, so equality,
    # hashing and the repr ignore it
    _minimal = False

    def __post_init__(self):
        n = len(self.transitions)
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        try:
            fault = _table_fault(self.n_symbols, self.transitions)
        except TypeError:  # an unhashable table, such as a list of rows
            fault = _table_fault.__wrapped__(self.n_symbols, self.transitions)
            if fault is None:  # kept as tuples, so that the automaton hashes
                object.__setattr__(self, "transitions", tuple(map(tuple, self.transitions)))
        if fault is not None:
            raise ValueError(fault)
        if any(not 0 <= s < n for s in self.accepting):
            raise ValueError("accepting state out of range")
        if type(self.accepting) is not frozenset:
            object.__setattr__(self, "accepting", frozenset(self.accepting))

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def accepts_codes(self, codes) -> bool:
        state = self.initial
        for c in codes:
            state = self.transitions[state][c]
        return state in self.accepting

    def accepts(self, alphabet: Alphabet, word: str) -> bool:
        return self.accepts_codes(alphabet.codes(word))

    # ------------------------------------------------------------------
    # algebra

    def complement(self) -> "Dfa":
        out = Dfa(self.n_symbols, self.transitions, self.initial,
                  frozenset(range(self.n_states)) - self.accepting)
        if self._minimal:
            # the same states stay reachable and pairwise distinct, and the
            # breadth-first numbering does not read the accepting set
            object.__setattr__(out, "_minimal", True)
        return out

    def product(self, other: "Dfa", op) -> "Dfa":
        """Reachable product automaton; ``op`` combines acceptance bits."""
        if self.n_symbols != other.n_symbols:
            raise ValueError("alphabet size mismatch")
        b = self.n_symbols
        index = {(self.initial, other.initial): 0}
        order = [(self.initial, other.initial)]
        rows = []
        queue = deque(order)
        while queue:
            p, q = queue.popleft()
            row = []
            for x in range(b):
                nxt = (self.transitions[p][x], other.transitions[q][x])
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    queue.append(nxt)
                row.append(index[nxt])
            rows.append(tuple(row))
        accepting = frozenset(i for i, (p, q) in enumerate(order)
                              if op(p in self.accepting, q in other.accepting))
        return Dfa(b, tuple(rows), 0, accepting)

    def left_mark(self, code: int) -> "Dfa":
        """Automaton for {x w | w accepted}, x the symbol with this code."""
        n = self.n_states
        # new initial = n, dead = n + 1; old states keep their numbers
        rows = [tuple(row) for row in self.transitions]
        dead = n + 1
        start_row = tuple(self.initial if x == code else dead for x in range(self.n_symbols))
        dead_row = tuple(dead for _ in range(self.n_symbols))
        rows.append(start_row)
        rows.append(dead_row)
        return Dfa(self.n_symbols, tuple(rows), n, self.accepting)

    def left_quotient(self, codes) -> "Dfa":
        state = self.initial
        for c in codes:
            state = self.transitions[state][c]
        return Dfa(self.n_symbols, self.transitions, state, self.accepting)

    # ------------------------------------------------------------------
    # canonical form

    def minimize(self) -> "Dfa":
        """The minimal automaton, the language key: Hopcroft partition
        refinement over all states, then breadth-first renumbering of the
        blocks reachable from the initial block.

        Equal languages always give equal automata, so language equality is
        ``a.minimize() == b.minimize()``.  Minimizing a result again returns
        it as it is, without another Hopcroft pass.
        """
        if self._minimal:
            return self
        block = self._coarsest_congruence()
        rep_trans = [None] * (max(block) + 1)
        for s, row in enumerate(self.transitions):
            if rep_trans[block[s]] is None:
                rep_trans[block[s]] = tuple(block[t] for t in row)
        # breadth-first renumbering from the initial block; the blocks of
        # unreachable states get no number
        renum = {block[self.initial]: 0}
        order = [block[self.initial]]
        for bk in order:
            for t in rep_trans[bk]:
                if t not in renum:
                    renum[t] = len(order)
                    order.append(t)
        rows = tuple(tuple(renum[t] for t in rep_trans[bk]) for bk in order)
        accepting = frozenset(renum[block[s]] for s in self.accepting
                              if block[s] in renum)
        out = Dfa(self.n_symbols, rows, 0, accepting)
        object.__setattr__(out, "_minimal", True)
        return out

    def _coarsest_congruence(self) -> list[int]:
        """Block number per state of the coarsest partition that separates
        accepting from rejecting states and is stable under every symbol
        (Hopcroft 1971, "An n log n algorithm for minimizing states in a
        finite automaton")."""
        n, b = self.n_states, self.n_symbols
        preds = [[[] for _ in range(n)] for _ in range(b)]
        for s, row in enumerate(self.transitions):
            for x, t in enumerate(row):
                preds[x][t].append(s)
        blocks = [blk for blk in (set(self.accepting), set(range(n)) - self.accepting)
                  if blk]
        block = [0] * n
        for s in blocks[-1]:
            block[s] = len(blocks) - 1
        # splitters still to apply: (block, symbol)
        pending = {(0, x) for x in range(b)} if len(blocks) == 2 else set()
        while pending:
            splitter, x = pending.pop()
            hit: dict[int, list[int]] = {}
            for t in blocks[splitter]:
                for s in preds[x][t]:
                    hit.setdefault(block[s], []).append(s)
            for k, inside in hit.items():
                if len(inside) == len(blocks[k]):
                    continue
                new = set(inside)
                blocks[k] -= new
                j = len(blocks)
                blocks.append(new)
                for s in new:
                    block[s] = j
                # either half serves as a splitter, unless k is already pending
                for y in range(b):
                    if (k, y) in pending or len(new) <= len(blocks[k]):
                        pending.add((j, y))
                    else:
                        pending.add((k, y))
        return block

    # ------------------------------------------------------------------
    # decision procedures

    def _useful_states(self) -> set[int]:
        """States reachable from the initial and co-reachable to acceptance."""
        reach = {self.initial}
        queue = deque(reach)
        while queue:
            s = queue.popleft()
            for x in range(self.n_symbols):
                t = self.transitions[s][x]
                if t not in reach:
                    reach.add(t)
                    queue.append(t)
        back: dict[int, set[int]] = {s: set() for s in range(self.n_states)}
        for s in range(self.n_states):
            for x in range(self.n_symbols):
                back[self.transitions[s][x]].add(s)
        co = set(self.accepting)
        queue = deque(co)
        while queue:
            s = queue.popleft()
            for p in back[s]:
                if p not in co:
                    co.add(p)
                    queue.append(p)
        return reach & co

    def count_accepted(self) -> int | None:
        """Number of accepted words, or None when the language is infinite."""
        useful = self._useful_states()
        if self.initial not in useful:
            return 0
        # Kahn's order on the useful subgraph; a cycle leaves states unordered
        succ = {s: [t for t in self.transitions[s] if t in useful] for s in useful}
        indegree = dict.fromkeys(useful, 0)
        for targets in succ.values():
            for t in targets:
                indegree[t] += 1
        order = [s for s in useful if indegree[s] == 0]
        for s in order:
            for t in succ[s]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    order.append(t)
        if len(order) < len(useful):
            return None
        # accepting paths from each state, successors first
        paths: dict[int, int] = {}
        for s in reversed(order):
            paths[s] = (s in self.accepting) + sum(paths[t] for t in succ[s])
        return paths[self.initial]

    def pumping_witness(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None:
        """A decomposition (u, v, w) of symbol codes with u v^i w accepted
        for every i >= 0, or None when the language is finite."""
        useful = self._useful_states()
        if not useful:
            return None
        # find a useful state on a cycle within the useful subgraph
        path_to: dict[int, tuple[int, ...]] = {self.initial: ()}
        order = [self.initial]
        queue = deque(order)
        while queue:
            s = queue.popleft()
            for x in range(self.n_symbols):
                t = self.transitions[s][x]
                if t in useful and t not in path_to:
                    path_to[t] = path_to[s] + (x,)
                    queue.append(t)
        for s in sorted(path_to, key=lambda q: len(path_to[q])):
            # BFS within useful states for a loop s -> s
            seen = {s: ()}
            queue = deque([s])
            loop = None
            while queue and loop is None:
                p = queue.popleft()
                for x in range(self.n_symbols):
                    t = self.transitions[p][x]
                    if t not in useful:
                        continue
                    if t == s:
                        loop = seen[p] + (x,)
                        break
                    if t not in seen:
                        seen[t] = seen[p] + (x,)
                        queue.append(t)
            if loop is None:
                continue
            # path from s to an accepting state
            seen2 = {s: ()}
            queue = deque([s])
            while queue:
                p = queue.popleft()
                if p in self.accepting:
                    return path_to[s], loop, seen2[p]
                for x in range(self.n_symbols):
                    t = self.transitions[p][x]
                    if t in useful and t not in seen2:
                        seen2[t] = seen2[p] + (x,)
                        queue.append(t)
        return None

    def least_accepted(self) -> tuple[int, ...] | None:
        """Code sequence of the length-lex least accepted word, if any."""
        if self.initial in self.accepting:
            return ()
        seen = {self.initial}
        frontier = [(self.initial, ())]
        while frontier:
            nxt = []
            for state, codes in frontier:
                for x in range(self.n_symbols):
                    t = self.transitions[state][x]
                    if t in self.accepting:
                        return codes + (x,)
                    if t not in seen:
                        seen.add(t)
                        nxt.append((t, codes + (x,)))
            frontier = nxt
        return None

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        return {
            "states": self.n_states,
            "initial": self.initial,
            "transitions": [list(row) for row in self.transitions],
            "accepting": sorted(self.accepting),
        }

    @classmethod
    def from_json(cls, data: dict, n_symbols: int) -> "Dfa":
        """The automaton of a JSON object.  Its state count, initial state,
        transition targets and accepting states are JSON integers: a float
        or a boolean raises ValueError."""
        if type(data) is not dict:
            raise ValueError(f"'dfa' must be a JSON object, not {data!r}")
        rows, accepting = data["transitions"], data["accepting"]
        if not (_ints([data["states"], data["initial"]]) and type(rows) is list
                and all(map(_ints, rows)) and _ints(accepting)):
            raise ValueError("automaton states, transitions and accepting states "
                             "must be integers")
        if len(rows) != data["states"]:
            raise ValueError("state count does not match transition table")
        return cls(n_symbols, tuple(map(tuple, rows)), data["initial"], frozenset(accepting))


def _ints(values) -> bool:
    """Is it a JSON list of integers?  A boolean is no integer."""
    return type(values) is list and all(type(v) is int for v in values)


def dfa_for_finite(n_symbols: int, code_words: tuple[tuple[int, ...], ...]) -> Dfa:
    """Trie-shaped DFA accepting exactly the listed code sequences."""
    children: list[dict[int, int]] = [{}]
    accept: set[int] = set()
    for codes in code_words:
        node = 0
        for c in codes:
            if c not in children[node]:
                children.append({})
                children[node][c] = len(children) - 1
            node = children[node][c]
        accept.add(node)
    dead = len(children)
    rows = [tuple(kids.get(x, dead) for x in range(n_symbols)) for kids in children]
    rows.append(tuple(dead for _ in range(n_symbols)))
    return Dfa(n_symbols, tuple(rows), 0, frozenset(accept))


def dfa_length_equals(n_symbols: int, length: int) -> Dfa:
    """Automaton for {w : |w| = length}."""
    # states 0..length count, length+1 is overflow
    rows = []
    for s in range(length + 1):
        nxt = s + 1 if s < length else length + 1
        rows.append(tuple(nxt for _ in range(n_symbols)))
    rows.append(tuple(length + 1 for _ in range(n_symbols)))
    return Dfa(n_symbols, tuple(rows), 0, frozenset({length}))
