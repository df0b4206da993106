package main

// Input generation: data graphs, structured query pools and mutation
// scripts, all derived from the run's seed. Queries are generated as
// structures (rq, pq), rendered to wire text for the program, and
// answered by the oracle from the structures.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"regraph/internal/graph"
)

// query is one request of a pool: the structured query, its wire body
// (the request line minus the id) and the oracle's answer.
type query struct {
	rq    *rq
	pq    *pq
	count bool   // count-only RQ
	body  []byte // `"rq":{...}}` — a request line without `{"id":N,`
	want  digest // oracle answer against the model the pool is checked on
}

type rqSpec struct {
	From string `json:"from"`
	To   string `json:"to"`
	Expr string `json:"expr"`
}

type reqBody struct {
	RQ    *rqSpec `json:"rq,omitempty"`
	PQ    string  `json:"pq,omitempty"`
	Count bool    `json:"count,omitempty"`
}

func (q *query) render() {
	var b reqBody
	if q.rq != nil {
		b.RQ = &rqSpec{From: q.rq.from.text(), To: q.rq.to.text(), Expr: exprText(q.rq.atoms)}
		b.Count = q.count
	} else {
		b.PQ = q.pq.text()
	}
	js, err := json.Marshal(b)
	if err != nil {
		panic(err) // plain strings always marshal
	}
	q.body = js[1:]
}

// appendLine appends the request line for id to dst.
func (q *query) appendLine(dst []byte, id uint64) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	dst = append(dst, ',')
	dst = append(dst, q.body...)
	return append(dst, '\n')
}

// answer computes the oracle digest of q on m.
func (m *model) answer(q *query) digest {
	if q.rq != nil {
		return digestRQ(m.answerRQ(q.rq))
	}
	return digestPQ(m.answerPQ(q.pq))
}

// check sets every query's expected answer from m.
func check(m *model, qs []*query) {
	for _, q := range qs {
		q.want = m.answer(q)
	}
}

// modelOf copies a generated graph into the oracle's model.
func modelOf(g *graph.Graph) *model {
	m := newModel()
	for v := 0; v < g.NumNodes(); v++ {
		n := g.Node(graph.NodeID(v))
		m.addNode(n.Name, n.Attrs)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			m.addEdge(v, int(e.To), g.ColorName(e.Color))
		}
	}
	return m
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

// source picks a node with outgoing edges when one turns up quickly.
func source(m *model, r *rand.Rand) int {
	for try := 0; try < 32; try++ {
		v := r.Intn(m.numNodes())
		if len(m.out[v]) > 0 {
			return v
		}
	}
	return r.Intn(m.numNodes())
}

// walkAtoms walks from v and returns the atoms the walk spells (each a
// run of one color of at most bound edges, at most `segments` atoms)
// and the walk's end. The end is reachable from v through the atoms,
// so queries anchored on it have at least one answer.
func walkAtoms(m *model, v, segments, bound int, wildcardFirst bool, r *rand.Rand) ([]atom, int) {
	var atoms []atom
	cur := v
	for len(atoms) < segments {
		out := m.out[cur]
		if len(out) == 0 {
			break
		}
		e := out[r.Intn(len(out))]
		color := m.colors[e.color]
		if len(atoms) > 0 && atoms[len(atoms)-1].color == color {
			break // the next atom must change color to stay a new segment
		}
		a := atom{color: color, max: bound}
		if wildcardFirst && len(atoms) == 0 {
			a.color = wildcard
		}
		steps := 1 + r.Intn(bound)
		cur = int(e.to)
		for s := 1; s < steps; s++ {
			var next []medge
			for _, f := range m.out[cur] {
				if a.color == wildcard || m.colors[f.color] == a.color {
					next = append(next, f)
				}
			}
			if len(next) == 0 {
				break
			}
			cur = int(next[r.Intn(len(next))].to)
		}
		atoms = append(atoms, a)
	}
	return atoms, cur
}

// ---- YouTube-shaped pools ----------------------------------------------

// pointPool builds the point-serve pool: single-atom RQs from an
// uploader's videos to a category's videos above an age floor. The
// floors make the predicate vocabulary far larger than the program's
// 4,096-entry candidate memo. A point read has at most 32 source
// candidates and 64 answer pairs; one request in four is count-only.
func pointPool(m *model, n int, r *rand.Rand) []*query {
	var out []*query
	for len(out) < n {
		v := source(m, r)
		atoms, w := walkAtoms(m, v, 1, 1+r.Intn(3), r.Intn(10) < 3, r)
		if len(atoms) == 0 {
			continue
		}
		a, b := m.attrs[v], m.attrs[w]
		from := pred{{"uid", "=", a["uid"]}}
		age := atoi(b["age"])
		to := pred{{"cat", "=", b["cat"]}, {"age", ">=", strconv.Itoa(age - r.Intn(age+1))}}
		q := &rq{from: from, to: to, atoms: atoms}
		if len(m.cands(from)) > 32 || len(m.answerRQ(q)) > 64 {
			continue // not a point read
		}
		out = append(out, &query{rq: q, count: r.Intn(4) == 0})
	}
	return out
}

// closurePool builds the closure-serve pool: multi-atom RQs (2–3
// atoms) from an uploader's videos of one length to a category's
// videos of one length, and small bounded PQs of three pattern nodes.
// Candidate and answer caps keep each query's work within an order of
// magnitude of the others, so the pool's cost varies little by seed.
func closurePool(m *model, nRQ, nPQ int, r *rand.Rand) []*query {
	var out []*query
	for len(out) < nRQ {
		v := source(m, r)
		atoms, w := walkAtoms(m, v, 2+r.Intn(2), 2+r.Intn(2), false, r)
		if len(atoms) < 2 {
			continue
		}
		a, b := m.attrs[v], m.attrs[w]
		from := pred{{"uid", "=", a["uid"]}, {"len", "=", a["len"]}}
		to := pred{{"cat", "=", b["cat"]}, {"len", "=", b["len"]}}
		q := &rq{from: from, to: to, atoms: atoms}
		if len(m.cands(from)) > 24 || len(m.cands(to)) > 32 || len(m.answerRQ(q)) > 128 {
			continue // keep the per-query work within one order of magnitude
		}
		out = append(out, &query{rq: q})
	}
	for added := 0; added < nPQ; {
		q := patternQuery(m, r, func(attrs map[string]string) pred {
			return pred{{"cat", "=", attrs["cat"]}, {"len", "=", attrs["len"]}}
		})
		if q != nil && maxCands(m, q) <= 100 {
			out = append(out, &query{pq: q})
			added++
		}
	}
	return out
}

func maxCands(m *model, q *pq) int {
	n := 0
	for _, p := range q.nodes {
		n = max(n, len(m.cands(p)))
	}
	return n
}

// patternQuery grows a three-node pattern along two walks from a
// random anchor (a chain or a fork, chosen at random), with an extra
// edge when a third walk lands on an existing anchor. Node predicates
// come from the anchors' attributes, so the anchors form a witness
// match and the answer is non-empty.
func patternQuery(m *model, r *rand.Rand, predOf func(map[string]string) pred) *pq {
	anchors := []int{source(m, r)}
	q := &pq{}
	for len(anchors) < 3 {
		from := len(anchors) - 1
		if r.Intn(2) == 0 {
			from = 0
		}
		atoms, w := walkAtoms(m, anchors[from], 1+r.Intn(2), 2, false, r)
		if len(atoms) == 0 {
			return nil
		}
		q.edges = append(q.edges, pedge{from: from, to: len(anchors), atoms: atoms})
		anchors = append(anchors, w)
	}
	if r.Intn(2) == 0 {
		from := r.Intn(len(anchors))
		atoms, w := walkAtoms(m, anchors[from], 1, 2, false, r)
		for to, a := range anchors {
			if len(atoms) > 0 && a == w && to != from {
				q.edges = append(q.edges, pedge{from: from, to: to, atoms: atoms})
				break
			}
		}
	}
	for _, a := range anchors {
		q.nodes = append(q.nodes, predOf(m.attrs[a]))
	}
	return q
}

// ---- synthetic pools -----------------------------------------------------

// synthPred selects about one node in a hundred of a gen.Synthetic
// graph: two of its three 0–9 attributes.
func synthPred(attrs map[string]string) pred {
	return pred{{"a0", "=", attrs["a0"]}, {"a1", "=", attrs["a1"]}}
}

// mixPool builds write-mix's read pool on a gen.Synthetic graph: 14 in
// 16 single-atom RQs, 1 in 16 two-atom RQs and 1 in 16 PQs.
func mixPool(m *model, n int, r *rand.Rand) []*query {
	var out []*query
	for len(out) < n {
		switch k := r.Intn(16); {
		case k < 15:
			v := source(m, r)
			segs := 1
			if k == 14 {
				segs = 2
			}
			atoms, w := walkAtoms(m, v, segs, 2, false, r)
			if len(atoms) != segs {
				continue
			}
			to := pred{{"a2", "=", m.attrs[w]["a2"]}}
			out = append(out, &query{rq: &rq{from: synthPred(m.attrs[v]), to: to, atoms: atoms}})
		default:
			if q := patternQuery(m, r, synthPred); q != nil {
				out = append(out, &query{pq: q})
			}
		}
	}
	return out
}

// ---- mutation scripts ------------------------------------------------------

// mop is one mutation op of a script, in the JSON form of the
// program's mutation log.
type mop struct {
	Op    string            `json:"op"`
	Node  string            `json:"node,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
	From  string            `json:"from,omitempty"`
	To    string            `json:"to,omitempty"`
	Color string            `json:"color,omitempty"`
}

func (o *mop) line() []byte {
	js, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	return append(js, '\n')
}

// apply replays one op onto the model; it reports false when the op
// would fail (unknown or duplicate node, missing edge).
func (m *model) apply(o *mop) bool {
	switch o.Op {
	case "add_node":
		if _, dup := m.byName[o.Node]; dup {
			return false
		}
		m.addNode(o.Node, o.Attrs)
	case "set_attr":
		v, ok := m.byName[o.Node]
		if !ok {
			return false
		}
		for k, val := range o.Attrs {
			m.attrs[v][k] = val
		}
		m.candCache = nil
	case "add_edge", "remove_edge":
		from, ok1 := m.byName[o.From]
		to, ok2 := m.byName[o.To]
		if !ok1 || !ok2 {
			return false
		}
		if o.Op == "add_edge" {
			m.addEdge(from, to, o.Color)
		} else if !m.removeEdge(from, to, o.Color) {
			return false
		}
	default:
		return false
	}
	return true
}

// pickEdge returns a random existing edge from the given candidate
// sources, or false when none of a few tries has one.
func pickEdge(m *model, r *rand.Rand, src func() int) (from, to int, color string, ok bool) {
	for try := 0; try < 64; try++ {
		v := src()
		if len(m.out[v]) == 0 {
			continue
		}
		e := m.out[v][r.Intn(len(m.out[v]))]
		return v, int(e.to), m.colors[e.color], true
	}
	return 0, 0, "", false
}

// mixScript builds write-mix's op script on a gen.Synthetic graph: a
// few new nodes, then edge inserts, edge deletes and attribute sets on
// skewed (hub-biased) existing nodes. Every op is valid when applied
// in order, so none fails; m is advanced to the script's final state.
func mixScript(m *model, nOps int, r *rand.Rand) []mop {
	n0 := m.numNodes()
	skew := func() int { x := r.Float64(); return min(n0-1, int(x*x*float64(n0))) }
	colors := []string{"c0", "c1", "c2", "c3"}
	var ops []mop
	for len(ops) < nOps {
		var o mop
		switch k := r.Intn(20); {
		case k == 0:
			o = mop{Op: "add_node", Node: fmt.Sprintf("x%d", m.numNodes()), Attrs: map[string]string{
				"a0": strconv.Itoa(r.Intn(10)), "a1": strconv.Itoa(r.Intn(10)), "a2": strconv.Itoa(r.Intn(10)),
			}}
		case k < 9:
			o = mop{Op: "add_edge", From: m.names[skew()], To: m.names[r.Intn(m.numNodes())], Color: colors[r.Intn(len(colors))]}
		case k < 15:
			from, to, c, ok := pickEdge(m, r, skew)
			if !ok {
				continue
			}
			o = mop{Op: "remove_edge", From: m.names[from], To: m.names[to], Color: c}
		default:
			o = mop{Op: "set_attr", Node: m.names[r.Intn(m.numNodes())], Attrs: map[string]string{
				fmt.Sprintf("a%d", r.Intn(3)): strconv.Itoa(r.Intn(10)),
			}}
		}
		if !m.apply(&o) {
			panic("perfbench: generated an op that fails on the model: " + string(o.line()))
		}
		ops = append(ops, o)
	}
	return ops
}

// freshScript builds the short write phase of the read workloads. The
// served YouTube graph names its nodes "video N", which the mutation
// log cannot address (names must be whitespace-free), so the script
// writes only nodes it adds itself: the first chunk adds them, later
// chunks link, unlink and re-attribute them. m is advanced to the
// script's final state.
func freshScript(m *model, chunks, chunk int, r *rand.Rand) []mop {
	colors := []string{"fc", "fr", "sc", "sr"}
	cats := []string{"Music", "Comedy", "Sports", "Gaming"}
	var names []string
	var ops []mop
	add := func(o mop) {
		if !m.apply(&o) {
			panic("perfbench: generated an op that fails on the model: " + string(o.line()))
		}
		ops = append(ops, o)
	}
	for i := 0; i < chunk; i++ {
		name := fmt.Sprintf("w%d", i)
		names = append(names, name)
		add(mop{Op: "add_node", Node: name, Attrs: map[string]string{
			"uid": fmt.Sprintf("writer%02d", r.Intn(20)), "cat": cats[r.Intn(len(cats))], "len": strconv.Itoa(1 + r.Intn(15)),
		}})
	}
	ids := make([]int, len(names))
	for i, n := range names {
		ids[i] = m.byName[n]
	}
	pickNew := func() int { return ids[r.Intn(len(ids))] }
	for len(ops) < chunks*chunk {
		switch k := r.Intn(4); {
		case k < 2:
			add(mop{Op: "add_edge", From: names[r.Intn(len(names))], To: names[r.Intn(len(names))], Color: colors[r.Intn(len(colors))]})
		case k == 2:
			from, to, c, ok := pickEdge(m, r, pickNew)
			if !ok {
				continue
			}
			add(mop{Op: "remove_edge", From: m.names[from], To: m.names[to], Color: c})
		default:
			add(mop{Op: "set_attr", Node: names[r.Intn(len(names))], Attrs: map[string]string{"cat": cats[r.Intn(len(cats))]}})
		}
	}
	return ops
}

// answerSizes summarizes a pool's answer sizes (for the README's
// input description and for tuning).
func answerSizes(qs []*query) (median, p90 int) {
	s := make([]int, len(qs))
	for i, q := range qs {
		s[i] = q.want.count
	}
	sort.Ints(s)
	if len(s) == 0 {
		return 0, 0
	}
	return s[len(s)/2], s[len(s)*9/10]
}

// distinctPreds counts the distinct predicates a pool uses, the
// vocabulary the program's candidate memo sees.
func distinctPreds(qs []*query) int {
	seen := map[string]bool{}
	for _, q := range qs {
		if q.rq != nil {
			seen[q.rq.from.text()] = true
			seen[q.rq.to.text()] = true
			continue
		}
		for _, p := range q.pq.nodes {
			seen[p.text()] = true
		}
	}
	return len(seen)
}
