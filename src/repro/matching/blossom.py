"""Array-native maximum-weight matching (Galil's O(n^3) blossom algorithm).

This is the ``"array"`` solver-backend kernel behind
:func:`repro.matching.static_solver.iterated_max_weight_b_matching`: a port
of the Galil (1986) primal-dual blossom method — the same algorithm NetworkX
ships as ``max_weight_matching`` — onto flat, int-indexed structures:

* edges live in three parallel arrays (``endpoint_u``, ``endpoint_v``,
  ``twice_w`` = twice the weight, the term every slack subtracts)
  addressed by a machine-int edge id, with per-vertex adjacency
  lists of edge ids — no ``nx.Graph``, no AtlasView, no per-edge attribute
  dicts on the hot ``slack`` path;
* vertices are ``0..n-1`` and non-trivial blossoms are ints ``>= n``
  allocated in creation order, so the blossom bookkeeping is dicts over
  small ints instead of object graphs.  The dicts the algorithm iterates
  (``blossomparent``, ``blossomdual``, ``childs``, ``bedges``,
  ``mybestedges``, ``labeledge``) stay dicts, because their order is the
  tie-breaking order; ``label`` and ``bestedge`` are never iterated in an
  order that matters, so they are flat lists indexed by id, grown by one
  ``None`` slot per new blossom and reset per stage with one slice
  assignment;
* ``bestslack[x]`` caches the slack of ``bestedge[x]``.  It is written
  with every non-``None`` ``bestedge[x]`` and, since slacks depend only on
  the vertex duals, it is valid between dual updates and refreshed right
  after each.  The neighbour scan compares against it instead of
  recomputing the best edge's slack per visit;
* the per-stage ``allowedge`` set becomes a flat per-edge flag array,
  cleared with one slice assignment.

Output fidelity
---------------
The port is deliberately *behaviour-identical* to NetworkX 3.x
``max_weight_matching`` (itself derived from Joris van Rantwijk's
``mwmatching.py``): every loop — the LIFO queue, neighbour scans in edge
insertion order, the delta2/delta3/delta4 scans in vertex-then-creation
order, blossom leaf enumeration — iterates in the exact order the NetworkX
implementation does, and all dual-variable arithmetic performs the same
operations on the same values.  Given the same vertex count and the same
edge list *in the same order*, the two implementations therefore return the
same matching, not merely one of equal weight.  The differential harness in
``tests/test_solver_backends.py`` certifies this, and it is what makes
SO-BMA figure costs bit-identical across solver backends.

Like the NetworkX implementation, integer edge weights are processed in
exact integer arithmetic and float weights in IEEE double arithmetic, so
ties resolve identically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..types import NodePair

__all__ = ["max_weight_matching_arrays"]

#: Sentinel for "no vertex" (all real vertex/blossom ids are >= 0).
_NO_NODE = -1


def max_weight_matching_arrays(
    n_nodes: int,
    edges: Sequence[Tuple[int, int, float]],
    maxcardinality: bool = False,
) -> Set[NodePair]:
    """Maximum-weight matching over vertices ``0..n_nodes-1``.

    Parameters
    ----------
    n_nodes:
        Number of vertices; isolated vertices are allowed (and, as in the
        NetworkX implementation, participate in the dual problem).
    edges:
        ``(u, v, weight)`` triples with ``u != v``; *order matters* — it is
        the tie-breaking order, chosen to mirror a NetworkX graph built by
        inserting the same edges in the same order.
    maxcardinality:
        If true, restrict to maximum-cardinality matchings (kept for parity
        with NetworkX; the solver tier always uses ``False``).

    Returns
    -------
    The matching as a set of canonical ``(min, max)`` vertex pairs.
    """
    n = int(n_nodes)
    if n == 0:
        return set()

    nedge = len(edges)
    endpoint_u: List[int] = [0] * nedge
    endpoint_v: List[int] = [0] * nedge
    # twice_w[k] = 2 * (weight of edge k); doubling is exact for floats and
    # ints, so slacks computed from it are bit-identical to NetworkX's.
    twice_w: List[float] = [0] * nedge
    # adjacency[v] holds (edge id, neighbour) pairs in edge insertion order —
    # the same neighbour order a NetworkX adjacency dict would iterate in.
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]

    # Mirrors the NetworkX preamble: find the maximum edge weight and decide
    # whether all weights are integers (exact integer arithmetic mode).
    maxweight = 0
    allinteger = True
    seen_pairs: set = set()
    for k, (i, j, wt) in enumerate(edges):
        i = int(i)
        j = int(j)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"invalid edge ({i}, {j}) for n={n}")
        # A NetworkX graph would silently overwrite a re-added edge, which
        # flat parallel arrays cannot mirror — reject duplicates so the
        # behaviour-identity contract in the module docstring stays honest.
        pair_key = i * n + j if i < j else j * n + i
        if pair_key in seen_pairs:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen_pairs.add(pair_key)
        endpoint_u[k] = i
        endpoint_v[k] = j
        twice_w[k] = 2 * wt
        adjacency[i].append((k, j))
        adjacency[j].append((k, i))
        if wt > maxweight:
            maxweight = wt
        allinteger = allinteger and type(wt).__name__ in ("int", "long")

    # dualvar[v] = 2 * u(v); starting at maxweight keeps integer weights
    # in integer arithmetic throughout, exactly as NetworkX does.
    dualvar = [maxweight] * n

    # mate[v] = partner vertex of a matched vertex (absent when single);
    # matek[v] = the id of the matching edge at v (the port's substitute for
    # recovering edge data from vertex pairs).
    mate: Dict[int, int] = {}
    matek: Dict[int, int] = {}

    # Blossom bookkeeping.  Non-trivial blossoms get ids n, n+1, ... in
    # creation order (never reused), so iterating the plain dicts below
    # visits vertices first and then blossoms in creation order — the same
    # order the NetworkX dict-of-objects version iterates, which matters for
    # delta tie-breaking.  No result depends on the order of label, bestedge
    # or bestslack, so they are flat lists indexed by vertex/blossom id
    # (None = unset), grown by one slot per new blossom.
    next_blossom_id = n
    childs: Dict[int, List[int]] = {}
    bedges: Dict[int, List[Tuple[int, int, int]]] = {}
    mybestedges: Dict[int, object] = {}
    label: List[object] = [None] * n
    labeledge: Dict[int, object] = {}
    inblossom: List[int] = list(range(n))
    blossomparent: Dict[int, object] = {v: None for v in range(n)}
    blossombase: Dict[int, int] = {v: v for v in range(n)}
    bestedge: List[object] = [None] * n
    # bestslack[x] = slack(bestedge[x][2]) wherever bestedge[x] is set;
    # valid between dual updates and refreshed right after each.
    bestslack: List[object] = [None] * n
    blossomdual: Dict[int, float] = {}
    allowedge: List[bool] = [False] * nedge
    no_edges: List[bool] = [False] * nedge
    queue: List[int] = []

    def slack(k: int):
        """2 * slack of edge ``k`` (does not work inside blossoms)."""
        return dualvar[endpoint_u[k]] + dualvar[endpoint_v[k]] - twice_w[k]

    def leaves(b: int):
        """The blossom's leaf vertices, in NetworkX's stack order."""
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                yield t

    def assign_label(w: int, t: int, v: int, k: int) -> None:
        """Label the top-level blossom of ``w`` with ``t`` via edge (v, w, k)."""
        b = inblossom[w]
        assert label[w] is None and label[b] is None
        label[w] = label[b] = t
        if v != _NO_NODE:
            labeledge[w] = labeledge[b] = (v, w, k)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # b became an S-vertex/blossom; add it(s vertices) to the queue.
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        elif t == 2:
            # b became a T-vertex/blossom; assign label S to its mate.
            base = blossombase[b]
            assign_label(mate[base], 1, base, matek[base])

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w; return a new blossom's base or _NO_NODE."""
        path = []
        base = _NO_NODE
        while v != _NO_NODE:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            # Trace one step back.
            if labeledge[b] is None:
                assert blossombase[b] not in mate
                v = _NO_NODE
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                v = labeledge[b][0]
            # Swap v and w so that we alternate between both paths.
            if w != _NO_NODE:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int, k: int) -> None:
        """Construct a new S-blossom with the given base through edge (v, w, k)."""
        nonlocal next_blossom_id
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = next_blossom_id
        next_blossom_id += 1
        label.append(None)
        bestedge.append(None)
        bestslack.append(None)
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        childs[b] = path = []
        bedges[b] = edgs = [(v, w, k)]
        mybestedges[b] = None
        # Trace back from v to base.
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0], labeledge[bw][2]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        # Relabel vertices.
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Compute the blossom's least-slack edges to neighbouring S-blossoms.
        bestedgeto: Dict[int, Tuple[int, int, int]] = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [
                        (lv, lw, lk)
                        for lv in leaves(bv)
                        for lk, lw in adjacency[lv]
                    ]
            else:
                nblist = [(bv, lw, lk) for lk, lw in adjacency[bv]]
            for edge in nblist:
                i, j, kk = edge
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and ((bj not in bestedgeto) or slack(kk) < slack(bestedgeto[bj][2]))
                ):
                    bestedgeto[bj] = edge
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        mybestslack = None
        bestedge[b] = None
        for edge in mybestedges[b]:
            kslack = slack(edge[2])
            if mybestedge is None or kslack < mybestslack:
                mybestedge = edge
                mybestslack = kslack
        bestedge[b] = mybestedge
        bestslack[b] = mybestslack

    def expand_blossom(b: int, endstage: bool) -> None:
        """Expand the given top-level blossom (trampolined recursion)."""

        def _recurse(b: int, endstage: bool):
            for s in childs[b]:
                blossomparent[s] = None
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # Relabel sub-blossoms when expanding a T-blossom mid-stage.
            if (not endstage) and label[b] == 2:
                entrychild = inblossom[labeledge[b][1]]
                j = childs[b].index(entrychild)
                if j & 1:
                    j -= len(childs[b])
                    jstep = 1
                else:
                    jstep = -1
                v, w, lk = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q, pk = bedges[b][j]
                    else:
                        q, p, pk = bedges[b][j - 1]
                    label[w] = None
                    label[q] = None
                    assign_label(w, 2, v, lk)
                    allowedge[pk] = True
                    j += jstep
                    if jstep == 1:
                        v, w, lk = bedges[b][j]
                    else:
                        w, v, lk = bedges[b][j - 1]
                    allowedge[lk] = True
                    j += jstep
                # Relabel the base T-sub-blossom without stepping to its mate.
                bw = childs[b][j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w, lk)
                bestedge[bw] = None
                j += jstep
                while childs[b][j] != entrychild:
                    bv = childs[b][j]
                    if label[bv] == 1:
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = None
                        label[mate[blossombase[bv]]] = None
                        assign_label(v, 2, labeledge[v][0], labeledge[v][2])
                    j += jstep
            # Remove the expanded blossom entirely.
            label[b] = None
            labeledge.pop(b, None)
            bestedge[b] = None
            del blossomparent[b]
            del blossombase[b]
            del blossomdual[b]
            del childs[b]
            del bedges[b]
            del mybestedges[b]

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched/unmatched edges from v to the base of blossom b."""

        def _recurse(b: int, v: int):
            # Bubble up through the blossom tree to an immediate child of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield (t, v)
            i = j = childs[b].index(t)
            if i & 1:
                j -= len(childs[b])
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = childs[b][j]
                if jstep == 1:
                    w, x, kk = bedges[b][j]
                else:
                    x, w, kk = bedges[b][j - 1]
                if t >= n:
                    yield (t, w)
                j += jstep
                t = childs[b][j]
                if t >= n:
                    yield (t, x)
                mate[w] = x
                mate[x] = w
                matek[w] = matek[x] = kk
            # Rotate the child list to put the new base at the front.
            childs[b] = childs[b][i:] + childs[b][:i]
            bedges[b] = bedges[b][i:] + bedges[b][:i]
            blossombase[b] = blossombase[childs[b][0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v: int, w: int, k: int) -> None:
        """Augment over the path through S-vertices v and w (edge k)."""
        for s, j, kk in ((v, w, k), (w, v, k)):
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and blossombase[bs] not in mate) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                matek[s] = kk
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j, kk = labeledge[bt]
                assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s
                matek[j] = kk

    def verify_optimum() -> None:
        """Assert the dual certificate (only used for integer weights)."""
        if maxcardinality:
            vdualoffset = max(0, -min(dualvar))
        else:
            vdualoffset = 0
        assert min(dualvar) + vdualoffset >= 0
        assert len(blossomdual) == 0 or min(blossomdual.values()) >= 0
        for k in range(nedge):
            i = endpoint_u[k]
            j = endpoint_v[k]
            s = dualvar[i] + dualvar[j] - twice_w[k]
            iblossoms = [i]
            jblossoms = [j]
            while blossomparent[iblossoms[-1]] is not None:
                iblossoms.append(blossomparent[iblossoms[-1]])
            while blossomparent[jblossoms[-1]] is not None:
                jblossoms.append(blossomparent[jblossoms[-1]])
            iblossoms.reverse()
            jblossoms.reverse()
            for bi, bj in zip(iblossoms, jblossoms):
                if bi != bj:
                    break
                s += 2 * blossomdual[bi]
            assert s >= 0
            if mate.get(i) == j or mate.get(j) == i:
                assert mate[i] == j and mate[j] == i
                assert s == 0
        for v in range(n):
            assert (v in mate) or dualvar[v] + vdualoffset == 0
        for b in blossomdual:
            if blossomdual[b] > 0:
                assert len(bedges[b]) % 2 == 1
                for i, j, _kk in bedges[b][1::2]:
                    assert mate[i] == j and mate[j] == i

    # Main loop: one stage per augmentation.
    while 1:
        label[:] = [None] * len(label)
        labeledge.clear()
        bestedge[:] = [None] * len(bestedge)
        for b in blossomdual:
            mybestedges[b] = None
        allowedge[:] = no_edges
        queue[:] = []

        # Label single blossoms/vertices with S and put them in the queue.
        for v in range(n):
            if (v not in mate) and label[inblossom[v]] is None:
                assign_label(v, 1, _NO_NODE, -1)

        augmented = 0
        while 1:
            # Substage: grow the structure until augmentation or a dual update.
            while queue and not augmented:
                v = queue.pop()
                # Only add_blossom moves v to another blossom while its
                # edges are scanned, so bv is re-read after that call alone.
                bv = inblossom[v]
                assert label[bv] == 1
                dv = dualvar[v]

                for k, w in adjacency[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        # this edge is internal to a blossom; ignore it
                        continue
                    lbw = label[bw]
                    if not allowedge[k]:
                        # Inlined slack(k): addition is commutative, so
                        # summing from v's side is bit-identical.
                        kslack = dv + dualvar[w] - twice_w[k]
                        if kslack <= 0:
                            allowedge[k] = True
                        else:
                            if lbw == 1:
                                # Track the least-slack edge to a different
                                # S-blossom.
                                if bestedge[bv] is None or kslack < bestslack[bv]:
                                    bestedge[bv] = (v, w, k)
                                    bestslack[bv] = kslack
                            elif label[w] is None:
                                # Track the least-slack edge reaching the
                                # free vertex w.
                                if bestedge[w] is None or kslack < bestslack[w]:
                                    bestedge[w] = (v, w, k)
                                    bestslack[w] = kslack
                            continue
                    if lbw is None:
                        # w is free; label w with T and its mate with S.
                        assign_label(w, 2, v, k)
                    elif lbw == 1:
                        # w is an S-vertex: new blossom or augmenting path.
                        base = scan_blossom(v, w)
                        if base != _NO_NODE:
                            add_blossom(base, v, w, k)
                            bv = inblossom[v]
                        else:
                            augment_matching(v, w, k)
                            augmented = 1
                            break
                    elif label[w] is None:
                        assert lbw == 2
                        label[w] = 2
                        labeledge[w] = (v, w, k)

            if augmented:
                break

            # No augmenting path; compute delta and update the duals.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # delta1: the minimum value of any vertex dual.
            if not maxcardinality:
                deltatype = 1
                delta = min(dualvar)

            # delta2: minimum slack on any edge from an S-vertex to a
            # free one.
            for v in range(n):
                if label[inblossom[v]] is None and bestedge[v] is not None:
                    d = bestslack[v]
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            # delta3: half the minimum slack between a pair of S-blossoms.
            for b in blossomparent:
                if (
                    blossomparent[b] is None
                    and label[b] == 1
                    and bestedge[b] is not None
                ):
                    kslack = bestslack[b]
                    if allinteger:
                        assert (kslack % 2) == 0
                        d = kslack // 2
                    else:
                        d = kslack / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            # delta4: minimum dual of any T-blossom.
            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label[b] == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # Max-cardinality optimum reached; make the optimum verifiable.
                assert maxcardinality
                deltatype = 1
                delta = max(0, min(dualvar))

            # Update dual variables according to delta.
            for v in range(n):
                vlabel = label[inblossom[v]]
                if vlabel == 1:
                    dualvar[v] -= delta
                elif vlabel == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta
            # The duals moved: refresh every cached best-edge slack.
            for x, edge in enumerate(bestedge):
                if edge is not None:
                    bestslack[x] = slack(edge[2])

            # Take action at the point where the minimum delta occurred.
            if deltatype == 1:
                break
            elif deltatype == 2:
                v, w, k = deltaedge
                assert label[inblossom[v]] == 1
                allowedge[k] = True
                queue.append(v)
            elif deltatype == 3:
                v, w, k = deltaedge
                allowedge[k] = True
                assert label[inblossom[v]] == 1
                queue.append(v)
            elif deltatype == 4:
                expand_blossom(deltablossom, False)

        # Paranoia check that the matching is symmetric.
        for v in mate:
            assert mate[mate[v]] == v

        if not augmented:
            break

        # End of a stage; expand all S-blossoms which have zero dual.
        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] is None and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    if allinteger:
        verify_optimum()

    return {(v, mate[v]) for v in mate if v < mate[v]}
